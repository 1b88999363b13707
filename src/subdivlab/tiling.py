"""Tiles, tilings, the history graph, empirical rule extraction and its
cross-check against the subdivision descriptor.

The level-n tiling is the flat structure of the sphere one step further out:
every element g of level n+1 contributes one tile, its visible region, and
every truncation face of a domain already inside the ball persists as an
ideal tile.  The visible region is connected (the `balls` module docstring
gives the reason), so an element never owns two tiles.  Two non-ideal tiles
are adjacent when their regions share an exposed cell lying in exactly two
domains of the ball; the edge is labelled by how the tiles' covered cells
relate (same codimension, or nested with codimension difference one).
The region, flat cells and the parent tile all come from the ball's
per-covering-move record, read by the owner's index (`Ball.record`), so a
tiling needs no earlier level, and each flat cell of codimension two or
more costs one group product, formed from the side met first.

A tile is an int index into its level: non-ideal tile i is owned by element
i of `ball.levels[n + 1]`, whose ball index is `Tiling.first + i` (that is,
`ball.starts[n + 1] + i`), and its name, covered move and parent are read
off the ball's arrays at that index: the parent is the owner's predecessor,
`ball.pred`.  Every stored tile is non-ideal.  A level's edges are index
pairs with a label code, one per shared cell, and each tile's neighbours
are compressed rows (an offset array, an index array and a label array)
built once from the edges.  A name such as `t3|a^-4 b^-1|0`, the cells,
shape and covered clique are read off the ball when asked for.  Ideal
tiles are not stored: the level keeps their count, and
`Tiling.ideal_tiles` forms them from the ball, with their parents' names,
in a fixed order.

The history graph is a view of the ball: a vertex is its tile's owner's
ball index, and the origin is the identity's, 0.  Pruning to a subgroup
keeps the same tilings and picks the vertices whose owners lift: a
history's member set is one flag per ball index.

Rule extraction is colour refinement on the history, with int colours
from one table for all rounds and one int array per round, indexed by
vertex.  It starts from (covered clique, region shape) and refines by the
children's colours and by the adjacency structure *among* the children.
Refinement only splits classes, so a round is stable when the next one
has as many classes on the levels that both read in full.  Within-level
neighbour degrees are deliberately not used: they vary with the position of
a tile in the sphere, while the subdivision behaviour does not.  Interface
persistence, for the mesh certificate, is a set of (interface class,
continuation class) pairs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress

from . import words
from .balls import Ball, InvariantViolation, visible_region
from .graphs import (DefiningGraph, cell_str, ideal_facets,
                     inflation_descriptor, support)

# edge labels by code, in name order: "flat" joins tiles whose covered cells
# have the same codimension, "containment" nested ones one apart
LABELS = ("containment", "flat", "other")


class Tiling:
    """The non-ideal tiles of one level, its edges and each tile's
    neighbour row; tile i is owned by the element of ball index first + i."""

    def __init__(self, ball, level, ideal_count, instances):
        self.ball, self.graph, self.level = ball, ball.graph, level
        self.first = ball.starts[level + 1]   # tile 0's ball index
        self.nonideal_count = len(ball.levels[level + 1])   # stored tiles
        self.ideal_count = ideal_count   # truncation faces, formed on demand
        # one entry per shared cell, (tile1 * tiles + tile2) * 4 + label code
        # with tile1 < tile2: read through `edges`
        self.instances = instances
        # (start, neighbour, label): tile i's neighbours, ascending by
        # (index, label code), are entries start[i]..start[i + 1] - 1
        self.rows = _neighbor_rows(self)

    @property
    def tiles(self):
        """Every tile: the stored ones, then the ideal ones in `ideal_tiles`
        order."""
        return range(self.nonideal_count + self.ideal_count)

    def nonideal(self):
        return range(self.nonideal_count)

    def edges(self):
        """(tile1, tile2, label code) of each adjacency instance."""
        n = self.nonideal_count
        return (((key >> 2) // n, (key >> 2) % n, key & 3)
                for key in self.instances)

    def neighbors(self, i):
        """Indices of tile i's neighbours, ascending; a neighbour met
        through edges of two labels is listed twice."""
        start, nbr, _ = self.rows
        return nbr[start[i]:start[i + 1]]

    def owner_of(self, i):
        return self.ball.levels[self.level + 1][i]

    def covered_move(self, i):
        return self.ball.pred_move[self.first + i]

    def covered_clique(self, i):
        return support(self.covered_move(i))

    def cells(self, i):
        cells, _ = self.ball.record(self.first + i).region
        return cells

    def shape(self, i):
        return _shape(self.ball, self.first + i)

    def name(self, i):
        return _nonideal_name(self.level, self.ball.names[self.first + i])

    def names(self):
        """The name of each stored tile, by index."""
        first = self.first
        return [_nonideal_name(self.level, name) for name
                in self.ball.names[first:first + self.nonideal_count]]

    def parent_names(self):
        """The name of each stored tile's parent, by index; None at level 0,
        whose parent is the origin."""
        if self.level == 0:
            return [None] * self.nonideal_count
        first, names = self.first, self.ball.names
        return [_nonideal_name(self.level - 1, names[p]) for p
                in self.ball.pred[first:first + self.nonideal_count]]

    def ideal_tiles(self):
        """Yield (name, owner, facet, parent name) of each ideal tile, from
        the ball: every truncation face of a domain in the ball, except the
        ones glued into their owner's fresh region.  The parent of a face
        that was an ideal tile one level up is itself; of a face then glued
        into its fresh owner's region, that owner's tile; of a face born at
        level n + 1, its owner's parent tile."""
        ball, n = self.ball, self.level
        facets = ideal_facets(self.graph)
        if not facets:
            return
        for lvl in range(n + 2):
            for i, g in enumerate(ball.levels[lvl], ball.starts[lvl]):
                g_nf = ball.names[i]
                visible = ball.record(i).visible if lvl >= n else ()
                for f in facets:
                    if lvl == n + 1 and f in visible:
                        continue
                    name = "i|%s|%s" % (g_nf, cell_str(self.graph, f))
                    if n == 0:
                        parent = None
                    elif lvl == n + 1:
                        parent = _nonideal_name(n - 1, ball.names[ball.pred[i]])
                    elif f in visible:
                        parent = _nonideal_name(n - 1, g_nf)
                    else:
                        parent = name
                    yield name, g, f, parent


def _neighbor_rows(tiling):
    # each (tile, neighbour, label) once, as one int that sorts in that order
    n = tiling.nonideal_count
    keys = set(tiling.instances)
    keys.update((b * n + a) * 4 + label for a, b, label in tiling.edges())
    keys = sorted(keys)
    return (array("i", [bisect_left(keys, 4 * n * i) for i in range(n + 1)]),
            array("i", [(key >> 2) % n for key in keys]),
            bytearray(key & 3 for key in keys))


def _nonideal_name(level, owner_nf):
    # the "|0" is the index of the owner's one region, kept in every name
    return "t%d|%s|0" % (level, owner_nf)


def _shape(ball, v):
    # (sorted cell sizes, ideal facet count) of the region of ball index v
    cells, ideals = ball.record(v).region
    return (tuple(sorted(len(c) for c in cells)), len(ideals))


def build_tiling(ball: Ball, n: int) -> Tiling:
    """Tiling at level n (the flat structure of the sphere of radius n+1).

    It reads the ball up to level n + 1 and no further, so `ball.N` must be
    at least n + 1.  A tile's parent is its owner's predecessor, read off
    the ball (`ball.pred`), whose region must hold the tile's covered
    cell."""
    if ball.N < n + 1:
        raise ValueError("ball too shallow: need level %d, have %d" % (n + 1, ball.N))
    level = ball.levels[n + 1]
    ideal_count = len(ideal_facets(ball.graph)) * ball.starts[n + 2]
    for i, g in enumerate(level, ball.starts[n + 1]):
        ideal_count -= len(visible_region(ball, n + 1, g)[1])
        if n > 0 and ball.pred_move[i] not in ball.record(ball.pred[i]).visible:
            raise InvariantViolation("covered cell missing from the parent "
                                     "tiling", ball.names[i], n + 1)
    tiles = len(level)
    instances = array("q", [(a * tiles + b) * 4 + label for a, b, label, _
                            in _compute_adjacency(ball, n)])
    return Tiling(ball, n, ideal_count, instances)


def _compute_adjacency(ball: Ball, n: int):
    """Yield (tile1, tile2, label code, shared cell) for the exposed cells
    lying in exactly two domains of B(n+1), tile1 < tile2; tile i is the
    owner of rank i in `ball.levels[n + 1]`, and each cell gives at most one
    edge.

    Such a cell of g is flat: besides g it lies in h = g * s0 only, where it
    is g's cell with s0's signs flipped, its mirror.  It is met first from
    the side whose owner comes first in canonical order, and that owner is
    its canonical (lowest level, then canonical order) domain, as every
    further domain of the cell lies outside B(n+1); the shared cell is
    yielded as (that owner, signs).  The product h is formed from that side
    only: the other side finds the mirror pending at its rank and drops it,
    so the cells still pending are those not yet met from their second
    side.  Whether the cell joins the regions of g and h, and the label,
    depend only on the covering moves of g and h, so they are worked out
    once per (move of g, cell, move of h)."""
    level = ball.levels[n + 1]   # in canonical order
    first = ball.starts[n + 1]
    local = list(map(ball.record, range(first, first + len(level))))
    move = ball.pred_move[first:first + len(level)]
    apply, graph, index = words.apply_letters, ball.graph, ball.index
    bit = {t: 1 << k for k, t in enumerate(ball.moves)}
    # per rank, a bit for each of its flat cells met from the other side
    # only: one int per element, where a set of (rank, cell) pairs would
    # hold a large share of the level, the two sides of a cell lying far
    # apart in canonical order
    pending = [0] * len(level)
    joins = {}   # (move of g, cell, move of h) -> label code, None: no edge
    for i, g in enumerate(level):
        for cell, s0, mirror in local[i].flat:
            b = bit[cell]
            if pending[i] & b:
                pending[i] ^= b
                continue
            j = index.get(apply(g, graph, s0), -1) - first
            if not 0 <= j < len(level):
                raise InvariantViolation("flat cell %s leaves the sphere"
                                         % cell_str(graph, cell),
                                         ball.names[first + i], n + 1)
            pending[j] |= bit[mirror]
            if j < i:
                continue  # h never meets it: reported below
            key = (move[i], cell, move[j])
            if key not in joins:
                joins[key] = (_edge_label(move[i], move[j])
                              if _join(cell, mirror, s0, local[i], local[j])
                              else None)
            if joins[key] is not None:
                yield i, j, joins[key], (g, cell)
    for j, bits in enumerate(pending):
        if bits:
            mirror = ball.moves[(bits & -bits).bit_length() - 1]
            raise InvariantViolation("flat cell %s met from one side only"
                                     % cell_str(graph, mirror),
                                     ball.names[first + j], n + 1)


def _join(cell, mirror, s0, local_g, local_h):
    """Whether the regions of g and of h = g * s0 both hold a
    codimension-one subcell of the flat cell (g, cell), which h sees as
    (h, mirror)."""
    return all(any(tuple(p for p in c if p[0] != drop) in rec.visible
                   for drop, _ in s0)
               for c, rec in ((cell, local_g), (mirror, local_h)))


def _edge_label(move_g, move_h) -> int:
    kg, kh = len(move_g), len(move_h)
    if kg == kh:
        return LABELS.index("flat")
    if abs(kg - kh) == 1:
        return LABELS.index("containment")
    return LABELS.index("other")


def build_tilings(ball: Ball, count: int):
    """Tilings for levels 0..count-1."""
    return [build_tiling(ball, n) for n in range(count)]


# ---------------------------------------------------------------------------
# history graph


ROOT = 0   # the origin vertex: the identity's ball index


class HistoryGraph:
    """Dual graphs of all levels plus vertical subdivision edges, as a view
    of the ball.

    A vertex is its tile's owner's ball index: tile i of level n is vertex
    `tilings[n].first + i`, and its parent is the owner's predecessor,
    `ball.pred[v]`.  `members` flags the ball indices whose tiles the
    history holds, all of them when not given; a pruned history holds the
    tiles over lifted elements, a set closed under `ball.pred`.  The
    vertices are the member tiles, in ball order; the origin vertex, ROOT,
    the identity, stands for the base complex (it is the parent of every
    level-0 tile) and is excluded from tile-count identities.  Children
    lists are compressed rows built from `ball.pred`, in vertex order, and a
    vertex's level is found in `ball.starts`.
    """

    def __init__(self, tilings, members=None):
        self.tilings = list(tilings)
        self.ball = ball = self.tilings[0].ball
        first, end = ball.starts[1], ball.starts[len(self.tilings) + 1]
        if members is None:
            members = bytearray(b"\1") * ball.size()
        self.members = members
        self.vertices = (range(first, end) if members.find(0, first, end) < 0
                         else list(compress(range(first, end),
                                            members[first:end])))
        pred = ball.pred
        self._kids = array("i", sorted(self.vertices, key=pred.__getitem__))
        parents = [pred[v] for v in self._kids]
        self._kid_start = array("i", [bisect_left(parents, v)
                                      for v in range(end + 1)])

    def locate(self, v):
        """(level, index in that level) of vertex v."""
        n = bisect_right(self.ball.starts, v) - 2
        return n, v - self.ball.starts[n + 1]

    def children(self, v):
        """The member children of vertex v (or of ROOT), in vertex order."""
        return self._kids[self._kid_start[v]:self._kid_start[v + 1]]

    def level_tiles(self, n):
        """The vertices of level n, ascending."""
        first, end = self.ball.starts[n + 1], self.ball.starts[n + 2]
        return list(compress(range(first, end), self.members[first:end]))

    def horizontal_neighbors(self, v):
        n, i = self.locate(v)
        t, members = self.tilings[n], self.members
        return [t.first + j for j in t.neighbors(i) if members[t.first + j]]

    def name(self, v):
        if v == ROOT:
            return "origin"
        n, i = self.locate(v)
        return self.tilings[n].name(i)


def build_history(tilings) -> HistoryGraph:
    return HistoryGraph(tilings)


# ---------------------------------------------------------------------------
# rule extraction


@dataclass
class RuleType:
    name: str
    clique: tuple
    shape: tuple
    children: Counter
    example: int               # the first tile of the type, a history vertex
    coalesced: str = ""


@dataclass
class SubdivisionRule:
    graph: DefiningGraph
    types: list
    type_of: list              # per level, per tile: refined type name or None
    coalesced_of: dict         # refined type name -> coalesced name
    coalesced_children: dict   # coalesced name -> Counter
    stable: bool
    unstable_detail: list
    interface_classes: set     # (class, continuation class): the mesh reads it
    split_report: dict         # initial class -> number of refined types

    def replay(self, counts0: Counter, steps: int):
        """Iterate the coalesced child multisets from the coalesced type
        counts `counts0`; returns the total count of each of the steps + 1
        levels."""
        cur = Counter(counts0)
        totals = [sum(cur.values())]
        for _ in range(steps):
            nxt = Counter()
            for name, k in cur.items():
                for ch, m in self.coalesced_children[name].items():
                    nxt[ch] += k * m
            cur = nxt
            totals.append(sum(cur.values()))
        return totals

    def coalesced_names(self):
        return sorted(set(self.coalesced_of.values()))


def extract_rule(history: HistoryGraph) -> SubdivisionRule:
    """Colour refinement of the history's tiles by their children.  Round
    j + 1 colours a tile by its round-j colour, its children's and its
    internal pairs' (the labelled edges between two of its children); round
    j is stable when round j + 1 has as many classes on the levels below
    `deepest - j`.  Where a tie is broken, it is broken by tile name.  The
    vertices of the levels below n are the ball indices below
    `ball.starts[n + 1]`."""
    tilings = history.tilings
    if len(tilings) < 3:
        raise ValueError("need at least 3 consecutive levels")
    graph = tilings[0].graph
    ball = history.ball
    starts, pred, moves = ball.starts, ball.pred, ball.pred_move
    deepest = len(tilings) - 1
    vertices = history.vertices
    kids = history.children
    members = history.members

    def below(n):
        # the vertices of the levels below n, a prefix of `vertices`
        return vertices[:bisect_left(vertices, starts[n + 1])]

    internal_pairs = defaultdict(list)  # parent -> [(child1, child2, label)]
    for t in tilings[1:]:
        for a, b, label in t.edges():
            a, b = t.first + a, t.first + b
            pa = pred[a]
            if pa == pred[b] and members[a] and members[b]:
                internal_pairs[pa].append((a, b, label))

    table = {}   # colour key -> colour, for every round
    raw = {}     # covering move -> its round-0 colour
    rounds = [array("i", [-1]) * starts[deepest + 2]]
    for v in vertices:
        move = moves[v]
        if move not in raw:
            raw[move] = table.setdefault((support(move), _shape(ball, v)),
                                         len(table))
        rounds[0][v] = raw[move]
    window = starts[deepest + 1]   # the tiles below it have children
    parents = below(deepest)

    def refine_once(prev):
        cur = array("i", prev)
        for v in parents:
            key = (prev[v], tuple(sorted(prev[c] for c in kids(v))),
                   tuple(sorted((tuple(sorted((prev[a], prev[b]))), label)
                                for a, b, label in internal_pairs.get(v, ()))))
            cur[v] = table.setdefault(key, len(table))
        return cur

    stable = False
    for j in range(deepest):
        rounds.append(refine_once(rounds[j]))
        universe = below(deepest - j)
        if (len({rounds[j + 1][v] for v in universe})
                == len({rounds[j][v] for v in universe})):
            rounds.pop()   # round j is the last one read
            stable = True
            break

    # final types from the last round on the levels it reads a full round
    # deep, and the deeper levels from the deepest round they support
    core_levels = deepest + 2 - len(rounds)
    core = below(core_levels)
    classes = defaultdict(list)
    for v in core:
        classes[rounds[-1][v]].append(v)

    def first_member(members):
        # (level, name) of the first member: members are in vertex order,
        # so the lowest level is the first member's
        low = history.locate(members[0])[0]
        return low, min(history.name(v) for v in members
                        if v < starts[low + 2])

    unstable_detail = []
    type_of = [None] * starts[deepest + 2]
    ordered = sorted(classes.values(), key=first_member)
    for idx, members in enumerate(ordered):
        name = "T%d" % idx
        for v in members:
            type_of[v] = name

    unresolved = []
    for n in range(core_levels, len(tilings)):
        colours = rounds[deepest - n]
        by = defaultdict(set)   # colour -> types of the core tiles with it
        for u in core:
            by[colours[u]].add(type_of[u])
        for v in history.level_tiles(n):
            cands = by.get(colours[v], set())
            if len(cands) == 1:
                type_of[v] = next(iter(cands))
            else:
                unresolved.append((history.name(v), v, sorted(cands)))
    for name, v, cands in sorted(unresolved):
        unstable_detail.append("tile %s unresolved among %s" % (name, cands))
        type_of[v] = "T?%s" % (cands,)

    # each type from its first tile; every tile with children in the window
    # must subdivide as its type's first tile does
    types, internal_of = {}, {}
    for v in vertices:
        name = type_of[v]
        if v >= window and name in types:
            continue   # no children in the window to compare
        children, internal = Counter(), Counter()
        if v < window:
            children.update(type_of[c] for c in kids(v))
            internal.update((tuple(sorted((type_of[a], type_of[b]))), label)
                            for a, b, label in internal_pairs.get(v, ()))
        rt = types.get(name)
        if rt is None:
            types[name] = RuleType(name, support(moves[v]), _shape(ball, v),
                                   children, v)
            internal_of[name] = internal
        elif rt.children != children or internal_of[name] != internal:
            unstable_detail.append(
                "type %s has inconsistent subdivisions (%s vs %s)"
                % (name, dict(rt.children), dict(children)))
    stable = stable and not unstable_detail
    types = [types[name] for name in sorted(types)]

    # coalesce across sign symmetry / graph automorphisms: start from
    # (clique size, shape) and refine by children until consistent
    co = {t.name: ("c", len(t.clique), t.shape) for t in types}
    while True:
        nxt = {}
        for t in types:
            ch = tuple(sorted((co[c], m) for c, m in t.children.items()))
            nxt[t.name] = (co[t.name], ch)
        if len(set(nxt.values())) == len(set(co.values())):
            break
        co = nxt
    co_sorted = sorted(set(co.values()), key=lambda v: str(v))
    letter = {v: chr(ord("A") + i) for i, v in enumerate(co_sorted)}
    coalesced_of = {t.name: letter[co[t.name]] for t in types}
    for t in types:
        t.coalesced = coalesced_of[t.name]

    coalesced_children = {}
    coalesce_ok = True
    for t in types:
        cc = Counter()
        for c, m in t.children.items():
            cc[coalesced_of[c]] += m
        prev = coalesced_children.setdefault(t.coalesced, cc)
        if prev != cc and t.children:
            coalesce_ok = False
    if not coalesce_ok:
        unstable_detail.append("coalesced classes have inconsistent children")

    split_report = {}
    for t in types:
        key = "clique=%s shape=%s" % (
            "".join(graph.generators[i] for i in t.clique), t.shape)
        split_report[key] = split_report.get(key, 0) + 1

    interface_classes = _interface_classes(history, type_of)

    return SubdivisionRule(
        graph=graph, types=types,
        type_of=[type_of[t.first:t.first + t.nonideal_count] for t in tilings],
        coalesced_of=coalesced_of, coalesced_children=coalesced_children,
        stable=stable, unstable_detail=unstable_detail,
        interface_classes=interface_classes,
        split_report=split_report)


def _interface_classes(history, type_of):
    """Interface persistence for the mesh certificate, as the set of
    (interface class, continuation class) pairs; `type_of` is indexed by
    vertex and a class is (sorted type pair, label).

    The interface between two tiles continues, at the next level, as the
    adjacency instances between their respective children.  Every observed
    continuation is recorded: this over-approximates true ridge persistence
    (an interface may split into several arcs), so acyclicity of the
    resulting digraph still soundly certifies that every crossing is
    eventually subdivided away.
    """
    tilings, pred, members = history.tilings, history.ball.pred, history.members

    def iclass(a, b, label):
        return (tuple(sorted((type_of[a], type_of[b]))), LABELS[label])

    pairs = set()
    for t, nt in zip(tilings, tilings[1:]):
        nxt_by_parents = defaultdict(set)   # parent pair -> continuations
        for a, b, label in nt.edges():
            a, b = nt.first + a, nt.first + b
            pa, pb = pred[a], pred[b]
            if pa != pb and members[a] and members[b]:
                nxt_by_parents[min(pa, pb), max(pa, pb)].add(
                    iclass(a, b, label))
        for a, b, label in t.edges():
            a, b = t.first + a, t.first + b
            if members[a] and members[b]:
                key = iclass(a, b, label)
                pairs.update((key, c) for c in nxt_by_parents.get((a, b), ()))
    return pairs


# ---------------------------------------------------------------------------
# the per-type subdivision descriptor


def descriptor_crosscheck(rule: SubdivisionRule, history: HistoryGraph):
    """Compare each stable type's empirical child multiset, counted by the
    covered clique, with the descriptor's prediction.  Returns a list of
    mismatch records; an empty list means full agreement."""
    graph, moves = rule.graph, history.ball.pred_move
    # a type's first tile has children in the observed window when it lies
    # below the deepest level
    window = history.ball.starts[len(history.tilings)]
    mismatches = []
    for rt in rule.types:
        if rt.example >= window:
            continue
        desc = inflation_descriptor(graph, moves[rt.example])
        expected = Counter(desc.child_clique_counter())
        got = Counter(support(moves[c]) for c in history.children(rt.example))
        if got != expected:
            mismatches.append({
                "type": rt.name,
                "expected": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(expected.items())},
                "observed": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(got.items())},
            })
    return mismatches
