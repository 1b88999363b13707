"""Exact metric balls over the diagonal generating set, with cell
classification and visible regions.

Levels come from breadth-first search using every spherical signed set as a
single move; one round of the staged gluing construction adds exactly the
domains one diagonal move away, so rounds and metric layers agree.

The chosen predecessor of an element g at level n+1 is the owner of a convex
cell of the previous sphere that g covers: among all moves t with
g = h * t, h at level n and the cell (h, signs of t) touching no other
domain of B(n), the canonically smallest h wins.  Elements covering several
convex cells at once are counted, as are elements whose normal-form
predecessor (drop the leftmost diagonal generator) fails to sit one level
down.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import words
from .graphs import (Cell, DefiningGraph, cell_is_ideal, cells_intersect,
                     diagonal_elements, ideal_facets, join_cells)

DEFAULT_CAP = 10 ** 6


class CapExceeded(RuntimeError):
    def __init__(self, cap, level):
        super().__init__("element cap %d exceeded while building level %d" % (cap, level))
        self.cap = cap
        self.level = level


@dataclass
class BoundaryCell:
    """A cell of the domain boundary, addressed as (owner element, signs)."""
    owner: tuple
    cell: Cell

    def domain_moves(self):
        """Sub-signed-sets of the cell, including the empty one."""
        pairs = self.cell
        for r in range(len(pairs) + 1):
            for combo in combinations(pairs, r):
                yield combo


class Ball:
    """Levels 0..N of the group under the diagonal generating set."""

    def __init__(self, graph: DefiningGraph, n_levels: int, cap: int = DEFAULT_CAP,
                 collect_discrepancies: bool = True):
        self.graph = graph
        self.N = n_levels
        self.cap = cap
        self.moves = diagonal_elements(graph)
        self.levels = []          # list of lists of states, discovery order
        self.level_of = {}        # state -> level
        self.pred = {}            # state -> predecessor state (level >= 1)
        self.pred_move = {}       # state -> covering move (signed cell)
        self.cover_counts = {}    # state -> number of convex cells it covers
        self.multi_cover = 0      # elements covering more than one convex cell
        self.nf_cache = {}
        self.word_pred_mismatches = 0
        self.word_pred_examples = []  # up to 10 normal-form strings
        self._build()
        self._assign_predecessors()
        if collect_discrepancies:
            self._check_word_predecessors()

    # -- construction -------------------------------------------------------

    def _build(self):
        g0 = words.empty_state(self.graph)
        self.level_of[g0] = 0
        self.levels.append([g0])
        total = 1
        for n in range(1, self.N + 1):
            frontier = self.levels[n - 1]
            nxt = []
            for g in frontier:
                for t in self.moves:
                    h = words.apply_letters(g, self.graph, t)
                    if h not in self.level_of:
                        self.level_of[h] = n
                        nxt.append(h)
                        total += 1
                        if total > self.cap:
                            raise CapExceeded(self.cap, n)
            self.levels.append(nxt)
        # canonical level order: every downstream tie-break sees the same
        # sequence regardless of discovery order
        for level in self.levels:
            level.sort(key=lambda g: words.nf_key(self.nf(g)))

    def nf(self, state):
        got = self.nf_cache.get(state)
        if got is None:
            got = words.syllables_of_state(self.graph, state)
            self.nf_cache[state] = got
        return got

    def nf_string(self, state):
        return words.nf_str(self.graph, self.nf(state))

    def in_ball(self, state, n) -> bool:
        lvl = self.level_of.get(state)
        return lvl is not None and lvl <= n

    def apply(self, state, cell):
        return words.apply_letters(state, self.graph, cell)

    def _is_convex_cell(self, owner, cell, n) -> bool:
        """True iff (owner, cell) touches no domain of B(n) except the owner."""
        pairs = cell
        for r in range(1, len(pairs) + 1):
            for combo in combinations(pairs, r):
                if self.in_ball(self.apply(owner, combo), n):
                    return False
        return True

    def _assign_predecessors(self):
        for n in range(1, self.N + 1):
            for g in self.levels[n]:
                candidates = []
                for t in self.moves:
                    h = self.apply(g, words.inverse_cell(t))
                    if self.level_of.get(h) != n - 1:
                        continue
                    if self._is_convex_cell(h, t, n - 1):
                        candidates.append((h, t))
                # every fresh element covers at least one convex cell
                assert candidates, "no covering convex cell found"
                candidates.sort(key=lambda ht: (words.nf_key(self.nf(ht[0])), ht[1]))
                h, t = candidates[0]
                self.pred[g] = h
                self.pred_move[g] = t
                self.cover_counts[g] = len(candidates)
                if len(candidates) > 1:
                    self.multi_cover += 1

    def _check_word_predecessors(self):
        for n in range(1, self.N + 1):
            for g in self.levels[n]:
                nf = self.nf(g)
                hhat = words.predecessor(self.graph, nf)
                lvl = self.level_of.get(words.state_of_nf(self.graph, hhat))
                if lvl != n - 1:
                    self.word_pred_mismatches += 1
                    if len(self.word_pred_examples) < 10:
                        self.word_pred_examples.append(
                            words.nf_str(self.graph, nf))

    # -- cell queries --------------------------------------------------------

    def cell_membership(self, owner, cell, n):
        """(count of domains of the cell inside B(n), in-ball move subsets)."""
        count = 0
        inside = []
        for combo in BoundaryCell(owner, cell).domain_moves():
            if self.in_ball(self.apply(owner, combo), n):
                count += 1
                inside.append(combo)
        return count, inside

    def sphere_sizes(self):
        return [len(lvl) for lvl in self.levels]

    def size(self):
        return len(self.level_of)

    def canonical_rep(self, owner, cell):
        """Lexicographic-minimal (level, element) representative of a cell,
        paired with its induced sign vector."""
        best = None
        for combo in BoundaryCell(owner, cell).domain_moves():
            dom = self.apply(owner, combo)
            lvl = self.level_of.get(dom)
            if lvl is None:
                continue
            flipped = frozenset(combo)
            signs = tuple((i, -s if (i, s) in flipped else s) for i, s in cell)
            key = (lvl, words.nf_key(self.nf(dom)))
            if best is None or key < best[0]:
                best = (key, dom, signs)
        assert best is not None
        return best[1], best[2]


def classify_cell(ball: Ball, n: int, owner, cell: Cell) -> str:
    """Classify a boundary cell against B(n): convex / flat / concave /
    covered for non-ideal cells, 'ideal' (with its own membership count ok
    to query separately) otherwise."""
    if cell_is_ideal(ball.graph, cell):
        return "ideal"
    count, _ = ball.cell_membership(owner, cell, n)
    k = len(cell)
    if count == 1:
        return "convex"
    if count == 2 ** k:
        return "covered"
    if count == 2:
        return "flat"
    return "concave"


def ideal_cell_membership(ball: Ball, n: int, owner, cell: Cell) -> int:
    """Domains of B(n) genuinely touching an ideal cell: products over
    spherical sub-signed-sets only (non-spherical products are not moves)."""
    count = 0
    for combo in BoundaryCell(owner, cell).domain_moves():
        if combo and cell_is_ideal(ball.graph, combo):
            continue
        if ball.in_ball(ball.apply(owner, combo), n):
            count += 1
    return count


def convex_cells(ball: Ball, n: int):
    """All convex (single-domain) non-ideal cells of S(n), owner-addressed.
    The owner is the unique in-ball domain, so no deduplication is needed."""
    out = []
    for g in ball.levels[n]:
        for cell in ball.moves:
            if ball._is_convex_cell(g, cell, n):
                out.append(BoundaryCell(g, cell))
    return out


@dataclass
class Region:
    """One connected component of a domain's visible part of the sphere."""
    owner: tuple
    cells: tuple            # convex cells, canonical order
    attached_ideal: tuple   # truncation faces glued into this component
    index: int = 0

    def codim_profile(self):
        return tuple(sorted(len(c) for c in self.cells))


def visible_region(ball: Ball, n: int, owner):
    """Connected components of the owner's exposed cells on S(n).

    Components are joined through shared non-ideal subcells that are
    themselves exposed, and through the owner's own truncation faces (an
    ideal facet touches every compatible cell; its boundary toward covered
    facets is sealed off by the matching faces of neighbouring domains).
    """
    assert ball.level_of.get(owner) == n
    convex = [c for c in ball.moves if ball._is_convex_cell(owner, c, n)]
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
    for f in ideal_facets(ball.graph):
        touching = [c for c in convex if cells_intersect(f, c)]
        if touching:
            first = touching[0]
            for c in touching[1:]:
                union(first, c)
            attached[f] = first

    comps = {}
    for c in convex:
        comps.setdefault(find(c), []).append(c)
    regions = []
    for root, cells in sorted(comps.items(), key=lambda kv: min(kv[1])):
        ideals = tuple(sorted(f for f, r in attached.items() if find(r) == root))
        regions.append(Region(owner, tuple(sorted(cells)), ideals, len(regions)))
    return regions


def build_ball(graph: DefiningGraph, n_levels: int, cap: int = DEFAULT_CAP,
               collect_discrepancies: bool = True) -> Ball:
    """Build the ball of the given depth."""
    return Ball(graph, n_levels, cap=cap, collect_discrepancies=collect_discrepancies)
