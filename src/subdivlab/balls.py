"""Exact metric balls over the diagonal generating set, with each element's
visible region.

Levels come from breadth-first search using every spherical signed set as a
single move; one round of the staged gluing construction adds exactly the
domains one diagonal move away, so rounds and metric layers agree.

Every element g of level n+1 is h * t with h at level n and the cell
(h, signs of t) convex, touching no other domain of B(n); such a product
always leaves B(n).  So the search multiplies each element of level n by its
convex cells only, and the predecessor of g is the owner of the first convex
cell reaching it: the canonically smallest h, as the frontier is in
canonical order.  Each new sphere is checked against the subdivision rule's
own count, which advances a count of covering moves through the inflation
descriptor and needs no ball.  Elements covering several convex cells at
once are counted.

Each level is sorted by normal form, scanned once per element
(`words.syllables_of_state`): the scan gives the sort key (word length,
syllable count, normal form).  In that order each element gets its one
global index, its level's start plus its rank in the level: `Ball.index`
maps a state to it, `Ball.starts` holds the levels' starts, and the
predecessor's index, the covering move and the name are arrays read by it.
Each element is audited as it is named: the ball counts the elements whose
normal-form predecessor (drop the leftmost diagonal generator), peeled off
the element's own state (`words.predecessor_state`), fails to sit one level
down, with up to 10 examples.  Then the normal forms are dropped; the ball
keeps names, not normal forms.

The local picture of an element g at level n -- its in-ball pattern, the
moves t with g * t in B(n) -- depends only on the move covering g, as the
subdivision rule has finitely many tile types.  The ball holds one `Local`
record per covering move: the pattern and everything read off it (convex
cells, flat cells, the visible region).  `Ball.record(i)` reads the record
of the element of index i through its covering move, with no state
hashed; `Ball.local(g)` looks the index up first.  A level's records are
formed when the level is first read, and the pattern is spot-checked with
products on the first two elements, in canonical order, of each level and
covering move.

An element's visible region is one connected piece, so it owns exactly one
tile.  For a covering move sigma the convex cells are the children of
sigma's inflation descriptor with every sign flipped.  sigma's own letters
commute pairwise and form one cell; every other convex letter (i, +-) fails
to commute with some k of sigma's support, and the ideal facet
{(i, +-), (k, sigma_k)} joins it to the cell {(k, sigma_k)}.  A record that
falls into several components raises InvariantViolation.  The identity,
which owns no tile, is exempt: on one generator its visible sphere is the
two points a+ and a-.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import words
from .graphs import (DefiningGraph, cell_str, cells_intersect,
                     diagonal_elements, ideal_facets, inflation_descriptor,
                     join_cells)

DEFAULT_CAP = 10 ** 6


class CapExceeded(RuntimeError):
    """The element cap was passed while building level `level`;
    `level_sizes` are the sizes S(0)..S(level - 1) of the levels built."""

    def __init__(self, cap, level_sizes):
        super().__init__(
            "element cap %d exceeded while building level %d "
            "(level sizes reached: %s)" % (cap, len(level_sizes), level_sizes))
        self.cap = cap
        self.level = len(level_sizes)
        self.level_sizes = level_sizes


class InvariantViolation(RuntimeError):
    """An internal invariant failed at one element: a fault of the program,
    not of its input.  `element` is the element's normal form (its piling
    state where no normal form exists yet) and `level` its level, if known."""

    def __init__(self, what, element, level=None):
        where = element if level is None else "%s (level %d)" % (element, level)
        super().__init__("%s at %s" % (what, where))
        self.element = element
        self.level = level


@dataclass(frozen=True)
class Local:
    """What an element g at level n sees of B(n); the same for every element
    with g's covering move."""
    pattern: frozenset   # moves t with g * t in B(n)
    convex: tuple        # moves whose cell (g, t) touches no other domain,
                         # in move order
    flat: tuple          # (cell, s0, mirror): cells of codimension two or
                         # more in exactly two domains, g and g * s0;
                         # mirror is the same cell seen from g * s0, the
                         # signs of s0's letters flipped
    region: tuple        # (convex cells, attached ideal facets); None when
                         # they form several components
    visible: frozenset   # the convex cells and attached ideal facets


class Ball:
    """Levels 0..N of the group under the diagonal generating set.

    Each element has one global index, its level's start plus its rank in
    that level, and every per-element field is read by that index."""

    def __init__(self, graph: DefiningGraph, n_levels: int, cap: int = DEFAULT_CAP):
        self.graph = graph
        self.N = n_levels
        self.cap = cap
        self.moves = diagonal_elements(graph)
        self.levels = []          # list of lists of states, canonical order
        self.index = {}           # state -> global index
        self.starts = [0]         # global index of each level's first
                                  # element, then the element count
        self.pred = array("i")    # index -> predecessor's index; -1: identity
        self.pred_move = []       # index -> covering move; None: identity
        self.names = []           # index -> normal-form string
        self.multi_cover = 0      # elements covering more than one convex cell
        # elements whose normal-form predecessor is not one level down: their
        # count and up to 10 of their names, in level order
        self.predecessor_mismatches = 0
        self.predecessor_mismatch_examples = []
        # nonempty sub-signed-sets of each move; they are moves themselves
        self._subcells = {t: [c for r in range(1, len(t) + 1)
                              for c in combinations(t, r)] for t in self.moves}
        self._local = {}          # covering move (None: identity) -> Local
        self._unchecked = 0       # the first index of the levels whose
                                  # records are not spot-checked yet
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        g0 = words.empty_state(self.graph)
        self._add_level([(b"", b"1", False, g0, (-1, None))])   # no scan
        count = Counter({None: 1})   # covering move -> elements of the sphere
        rule = {None: self.moves}    # covering move -> the rule's convex cells
        # pile tuple -> its one shared copy: equal piles such as (0,) or
        # (1, 0) recur across elements, and a stored element holds the copy
        shared = {}.setdefault
        for n in range(1, self.N + 1):
            new = {}   # state -> (predecessor's index, covering move)
            multi = set()
            # every element of S(n) is h * t, h its predecessor and t a
            # convex cell of h, so only convex products are formed.  The
            # frontier is in canonical order, so the first convex cell found
            # covering g has the canonically smallest owner.
            self._spot_check(n - 1)
            local, pred_move = self._local, self.pred_move
            for i, h in enumerate(self.levels[n - 1], self.starts[n - 1]):
                for t in local[pred_move[i]].convex:
                    g = words.apply_letters(h, self.graph, t)
                    if g in new:
                        multi.add(g)
                    elif g in self.index:
                        raise InvariantViolation(
                            "convex move %s lands on level %d"
                            % (cell_str(self.graph, t), self.level(g)),
                            self.names[i], n - 1)
                    else:
                        new[tuple(map(shared, g, g))] = (i, t)
                        if len(self.index) + len(new) > self.cap:
                            raise CapExceeded(self.cap, self.sphere_sizes())
            # the rule's count, read off the fundamental domain: the convex
            # cells of an element covered by sigma are the children of
            # sigma's inflation descriptor with every sign flipped.  A convex
            # record that drops or adds a cell, or two convex cells covering
            # one element, moves the sphere off it.
            step = Counter()
            for sigma, k in count.items():
                if sigma not in rule:
                    rule[sigma] = [tuple((i, -s) for i, s in w) for w in
                                   inflation_descriptor(self.graph, sigma).children]
                step.update(dict.fromkeys(rule[sigma], k))
            count = step
            want = sum(count.values())
            if len(new) != want:
                raise InvariantViolation(
                    "S(%d) has %d elements, the descriptor counts %d"
                    % (n, len(new), want), "sphere", n)
            self.multi_cover += len(multi)
            # one pass scans each new element's normal form once and takes
            # its sort key, its name and its audit from it; no normal form
            # outlives its element's turn.  The name waits as bytes: the
            # kept strings are made after the sort, together, so the memory
            # the keys free is not left in pieces between them
            graph, index = self.graph, self.index
            low, high = self.starts[n - 1], self.starts[n]
            entries = []
            for g, found in new.items():
                nf = words.syllables_of_state(graph, g)
                # the normal-form predecessor should be one level down
                bad = not low <= index.get(
                    words.predecessor_state(graph, g, nf[0]), -1) < high
                entries.append((words.sort_key(nf, n * graph.d),
                                words.nf_str(graph, nf).encode(), bad, g,
                                found))
            del new
            self._add_level(entries)

    def _add_level(self, entries):
        """Append the next level, in canonical order, and index each
        element.  `entries` holds (sort key, UTF-8 name, audit failed,
        state, (predecessor's index, covering move)) of each element, in any
        order.

        Every downstream tie-break sees the same sequence regardless of
        discovery order, and the audit's examples are the first in it."""
        entries.sort()   # by key, one per element
        level = [None] * len(entries)
        self.levels.append(level)
        self.starts.append(self.starts[-1] + len(level))
        index, names, start = self.index, self.names, self.starts[-2]
        for i, (_, name, bad, g, (p, t)) in enumerate(entries, start):
            level[i - start] = g
            index[g] = i
            self.pred.append(p)
            self.pred_move.append(t)
            name = name.decode()
            names.append(name)
            if bad:
                self.predecessor_mismatches += 1
                if len(self.predecessor_mismatch_examples) < 10:
                    self.predecessor_mismatch_examples.append(name)

    def level(self, state):
        """The element's level; None outside the ball."""
        i = self.index.get(state)
        return None if i is None else bisect_right(self.starts, i) - 1

    def nf_string(self, state):
        """The element's normal-form string; a state outside the ball, which
        an error may name, is named without being stored."""
        i = self.index.get(state)
        if i is not None:
            return self.names[i]
        return words.nf_str(self.graph,
                            words.syllables_of_state(self.graph, state))

    # -- cell queries --------------------------------------------------------

    def record(self, i) -> Local:
        """The local record of the element of global index i: its covering
        move's, read with no state hashed.  A level's records are formed
        and spot-checked when the level is first read."""
        if i >= self._unchecked:
            self._spot_check(bisect_right(self.starts, i) - 1)
        return self._local[self.pred_move[i]]

    def local(self, g) -> Local:
        """The local record of the element g, by its index (`record`)."""
        return self.record(self.index[g])

    def _spot_check(self, level):
        """Form the records of the covering moves of every level up to
        `level` not checked yet, in level order.

        The first two elements of each (level, covering move), in canonical
        order, recompute the in-ball pattern with products against every
        move; a mismatch raises InvariantViolation."""
        apply, graph, index = words.apply_letters, self.graph, self.index
        while self._unchecked < self.starts[level + 1]:
            n = bisect_right(self.starts, self._unchecked) - 1
            end = self.starts[n + 1]
            checked = Counter()
            for i, g in enumerate(self.levels[n], self.starts[n]):
                move = self.pred_move[i]
                if checked[move] == 2:
                    continue
                checked[move] += 1
                # the moves t with g * t in B(n): an index below `end`
                pattern = frozenset(t for t in self.moves
                                    if index.get(apply(g, graph, t), end) < end)
                rec = self._local.get(move)
                if rec is None:
                    rec = self._local_of(pattern)
                    if rec.region is None and move is not None:
                        raise InvariantViolation(
                            "convex cells of covering move %s form several "
                            "components" % cell_str(self.graph, move),
                            self.names[i], n)
                    self._local[move] = rec
                elif pattern != rec.pattern:
                    raise InvariantViolation(
                        "in-ball pattern differs from that of its covering "
                        "move", self.names[i], n)
            self._unchecked = end

    def _local_of(self, pattern):
        convex, flat = [], []
        for cell in self.moves:
            inside = [c for c in self._subcells[cell] if c in pattern]
            if not inside:
                convex.append(cell)
            elif len(inside) == 1 and len(cell) > 1:
                flipped = set(inside[0])
                flat.append((cell, inside[0], tuple(
                    (k, -e) if (k, e) in flipped else (k, e) for k, e in cell)))
        comps = _components(self.graph, convex)
        visible = frozenset(x for cells, ideals in comps for x in cells + ideals)
        return Local(pattern, tuple(convex), tuple(flat),
                     comps[0] if len(comps) == 1 else None, visible)

    def sphere_sizes(self):
        return [len(lvl) for lvl in self.levels]

    def size(self):
        return len(self.index)


def visible_region(ball: Ball, n: int, owner):
    """(convex cells, attached ideal facets) of the owner's exposed part of
    S(n), read from its per-covering-move record, `Ball.record`.

    The cells are joined through shared non-ideal subcells that are
    themselves exposed, and through the owner's own truncation faces (an
    ideal facet touches every compatible cell; its boundary toward covered
    facets is sealed off by the matching faces of neighbouring domains).
    """
    i = ball.index.get(owner)
    if i is None or bisect_right(ball.starts, i) - 1 != n:
        raise InvariantViolation("no visible region on S(%d)" % n,
                                 ball.nf_string(owner), ball.level(owner))
    return ball.record(i).region


def _components(graph: DefiningGraph, convex):
    """(cells, attached ideal faces) of each component of a convex cell set,
    ordered by their smallest cell."""
    convex_set = set(convex)
    parent = {c: c for c in convex}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b in combinations(convex, 2):
        j = join_cells(a, b)
        if j is not None and j in convex_set:
            union(a, b)

    attached = {}  # ideal facet -> component root (resolved later)
    for f in ideal_facets(graph):
        touching = [c for c in convex if cells_intersect(f, c)]
        if touching:
            first = touching[0]
            for c in touching[1:]:
                union(first, c)
            attached[f] = first

    comps = {}
    for c in convex:
        comps.setdefault(find(c), []).append(c)
    out = []
    for root, cells in sorted(comps.items(), key=lambda kv: min(kv[1])):
        ideals = tuple(sorted(f for f, r in attached.items() if find(r) == root))
        out.append((tuple(sorted(cells)), ideals))
    return out


def build_ball(graph: DefiningGraph, n_levels: int, cap: int = DEFAULT_CAP) -> Ball:
    """Build the ball of the given depth."""
    return Ball(graph, n_levels, cap=cap)

