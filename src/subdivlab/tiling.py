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
i of `ball.levels[n + 1]`, whose ball index is `ball.starts[n + 1] + i`, and
its name, covered move and parent are read off the ball's arrays at that
index.  A level stores the parent's index into level
n - 1 and an ideal flag of each non-ideal tile (`Tiling.restricted` sets
flags).  Its edges are index pairs with a label code, one per shared cell,
and each tile's neighbours are compressed rows (an offset array, an index
array and a label array) built once from the edges.  A name such as `t3|a^-4 b^-1|0`, the cells, shape and covered
clique are read off the ball when asked for.  Ideal tiles are not stored:
the level keeps their count, and `Tiling.ideal_tiles` forms them from the
ball, with their parents' names, in a fixed order.

Rule extraction refines the initial partition (covered clique, region shape)
by child-type multisets and by the adjacency structure *among* the children,
until the partition is stable across the observed levels.  Within-level
neighbour degrees are deliberately not used: they vary with the position of
a tile in the sphere, while the subdivision behaviour does not.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import words
from .balls import Ball, InvariantViolation, visible_region
from .graphs import (DefiningGraph, cell_str, ideal_facets,
                     inflation_descriptor, support)

# edge labels by code, in name order: "flat" joins tiles whose covered cells
# have the same codimension, "containment" nested ones one apart
LABELS = ("containment", "flat", "other")


class Tiling:
    """The non-ideal tiles of one level as parallel arrays, its edges and
    each tile's neighbour row; a tile is an index into the arrays."""

    def __init__(self, ball, level, parent, ideal_count, instances, ideal=None,
                 rows=None):
        self.ball, self.graph, self.level = ball, ball.graph, level
        self.parent = parent   # the parent's index into level - 1; -1 at level 0
        self.ideal = bytearray(len(parent)) if ideal is None else ideal
        self.ideal_count = ideal_count   # truncation faces, formed on demand
        # one entry per shared cell, (tile1 * tiles + tile2) * 4 + label code
        # with tile1 < tile2: read through `edges`
        self.instances = instances
        # (start, neighbour, label): tile i's neighbours, ascending by
        # (index, label code), are entries start[i]..start[i + 1] - 1
        self.rows = _neighbor_rows(self) if rows is None else rows

    @property
    def tiles(self):
        """Every tile: the stored ones, then the ideal ones in `ideal_tiles`
        order."""
        return range(len(self.parent) + self.ideal_count)

    def nonideal(self):
        if 1 in self.ideal:
            return [i for i, flag in enumerate(self.ideal) if not flag]
        return range(len(self.parent))

    def edges(self):
        """(tile1, tile2, label code) of each adjacency instance."""
        n = len(self.parent)
        return (((key >> 2) // n, (key >> 2) % n, key & 3)
                for key in self.instances)

    def neighbors(self, i):
        """Indices of tile i's neighbours, ascending; a neighbour met
        through edges of two labels is listed twice."""
        start, nbr, _ = self.rows
        return nbr[start[i]:start[i + 1]]

    def adjacency(self, names):
        """Each stored tile's (neighbour name, label) pairs, sorted; `names`
        maps a tile index to its name (a range gives the indices)."""
        start, nbr, label = self.rows
        entries = list(zip(map(names.__getitem__, nbr),
                           map(LABELS.__getitem__, label)))
        start = start.tolist()
        return [sorted(entries[s:e]) for s, e in zip(start, start[1:])]

    def owner_of(self, i):
        return self.ball.levels[self.level + 1][i]

    def _first(self):
        # the ball index of tile 0's owner
        return self.ball.starts[self.level + 1]

    def covered_move(self, i):
        return self.ball.pred_move[self._first() + i]

    def covered_clique(self, i):
        return support(self.covered_move(i))

    def cells(self, i):
        cells, _ = self.ball.record(self._first() + i).region
        return cells

    def shape(self, i):
        cells, ideals = self.ball.record(self._first() + i).region
        return (tuple(sorted(len(c) for c in cells)), len(ideals))

    def name(self, i):
        return _nonideal_name(self.level, self.ball.names[self._first() + i])

    def names(self):
        """The name of each stored tile, by index."""
        first = self._first()
        return [_nonideal_name(self.level, name) for name
                in self.ball.names[first:first + len(self.parent)]]

    def parent_names(self):
        """The name of each stored tile's parent, by index; None at level 0,
        whose parent is the origin."""
        if self.level == 0:
            return [None] * len(self.parent)
        first, names = self._first(), self.ball.names
        return [_nonideal_name(self.level - 1, names[p]) for p
                in self.ball.pred[first:first + len(self.parent)]]

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

    def restricted(self, members):
        """The same tiles, with every non-ideal tile whose owner's flag in
        `members` (a bytearray over the ball index) is unset flagged ideal;
        this tiling itself when that flags none.  Edges and neighbour rows
        are shared with this tiling: every reader drops ideal neighbours."""
        first = self._first()
        flags = bytearray(f or not m for f, m in zip(
            self.ideal, members[first:first + len(self.parent)]))
        if flags == self.ideal:
            return self
        return Tiling(self.ball, self.level, self.parent, self.ideal_count,
                      self.instances, flags, self.rows)


def _neighbor_rows(tiling):
    # each (tile, neighbour, label) once, as one int that sorts in that order
    n = len(tiling.parent)
    keys = set(tiling.instances)
    keys.update((b * n + a) * 4 + label for a, b, label in tiling.edges())
    keys = sorted(keys)
    return (array("i", [bisect_left(keys, 4 * n * i) for i in range(n + 1)]),
            array("i", [(key >> 2) % n for key in keys]),
            bytearray(key & 3 for key in keys))


def _nonideal_name(level, owner_nf):
    # the "|0" is the index of the owner's one region, kept in every name
    return "t%d|%s|0" % (level, owner_nf)


def build_tiling(ball: Ball, n: int) -> Tiling:
    """Tiling at level n (the flat structure of the sphere of radius n+1).

    It reads the ball up to level n + 1 and no further, so `ball.N` must be
    at least n + 1.  Parent indices point into the level-(n-1) tiling, read
    off the ball alone: a tile's parent is its owner's predecessor's rank in
    `ball.levels[n]`, its ball index less that level's start."""
    if ball.N < n + 1:
        raise ValueError("ball too shallow: need level %d, have %d" % (n + 1, ball.N))
    level = ball.levels[n + 1]
    start = ball.starts[n]
    ideal_count = len(ideal_facets(ball.graph)) * ball.starts[n + 2]
    parent = array("i")
    for i, g in enumerate(level, ball.starts[n + 1]):
        ideal_count -= len(visible_region(ball, n + 1, g)[1])
        p = ball.pred[i]
        if n > 0 and ball.pred_move[i] not in ball.record(p).visible:
            raise InvariantViolation("covered cell missing from the parent "
                                     "tiling", ball.names[i], n + 1)
        parent.append(p - start if n > 0 else -1)
    tiles = len(level)
    instances = array("q", [(a * tiles + b) * 4 + label for a, b, label, _
                            in _compute_adjacency(ball, n)])
    return Tiling(ball, n, parent, ideal_count, instances)


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


ROOT = -1   # the origin vertex


class HistoryGraph:
    """Dual graphs of all levels plus vertical subdivision edges.

    A vertex is a tile's index in its level plus that level's offset, the
    number of tiles stored on the levels before it.  The vertices are the
    non-ideal tiles; an origin vertex, ROOT, stands for the base complex (it
    is the parent of every level-0 tile and carries the identity element)
    and is excluded from tile-count identities.  Children lists are
    compressed rows built from the levels' parent arrays, in vertex order.
    """

    def __init__(self, tilings):
        self.tilings = list(tilings)
        self.offsets = [0]
        self.vertex_level = bytearray()   # vertex -> its level
        vertices, parents = [], []   # a vertex's parent is ROOT at level 0
        for n, t in enumerate(self.tilings):
            off = self.offsets[-1]
            vertices += [off + i for i in t.nonideal()]
            parents += [self.offsets[-2] + t.parent[i] if n else ROOT
                        for i in t.nonideal()]
            self.offsets.append(off + len(t.parent))
            self.vertex_level += bytes([n]) * len(t.parent)
        total = self.offsets[-1]
        self.vertices = range(total) if len(vertices) == total else vertices
        order = sorted(range(len(vertices)), key=parents.__getitem__)   # stable
        self._kids = array("i", [vertices[k] for k in order])
        parents = [parents[k] for k in order]
        self._kid_start = array("i", [bisect_left(parents, v)
                                      for v in range(ROOT, total + 1)])

    def locate(self, v):
        """(level, index in that level) of vertex v."""
        n = self.vertex_level[v]
        return n, v - self.offsets[n]

    def children(self, v):
        """The non-ideal children of vertex v (or of ROOT), in vertex order."""
        return self._kids[self._kid_start[v + 1]:self._kid_start[v + 2]]

    def level_tiles(self, n):
        return [self.offsets[n] + i for i in self.tilings[n].nonideal()]

    def horizontal_neighbors(self, v):
        n, i = self.locate(v)
        t, off = self.tilings[n], self.offsets[n]
        return [off + j for j in t.neighbors(i) if not t.ideal[j]]

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
    internal: Counter
    count: int
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
    interface_classes: dict    # see mesh certificate
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
    """Partition-refinement extraction of the subdivision rule from the
    history's non-ideal tiles and their children.  Signatures are lists
    indexed by vertex; where a tie is broken, it is broken by tile name."""
    tilings = history.tilings
    if len(tilings) < 3:
        raise ValueError("need at least 3 consecutive levels")
    graph = tilings[0].graph
    deepest = len(tilings) - 1
    level = history.vertex_level
    offsets = history.offsets
    vertices = history.vertices
    kids = history.children

    internal_pairs = defaultdict(list)  # parent -> [(child1, child2, label)]
    for n in range(1, len(tilings)):
        t, flags, pflags = tilings[n], tilings[n].ideal, tilings[n - 1].ideal
        off, poff = offsets[n], offsets[n - 1]
        for a, b, label in t.edges():
            if not (flags[a] or flags[b]):
                pa = t.parent[a]
                if pa == t.parent[b] and not pflags[pa]:
                    internal_pairs[poff + pa].append((off + a, off + b,
                                                      LABELS[label]))

    # depth-limited signatures, starting from (covered clique, shape), which
    # depend on the covering move only
    raw = {}
    raw_sig = [None] * offsets[-1]
    for v in vertices:
        n, i = history.locate(v)
        t = tilings[n]
        key = t.covered_move(i)
        if key not in raw:
            raw[key] = ("raw", t.covered_clique(i), t.shape(i))
        raw_sig[v] = raw[key]
    sig = [raw_sig]

    def refine_once(prev_sig):
        nxt = list(prev_sig)
        for v in vertices:
            if level[v] < deepest:
                ch = tuple(sorted(prev_sig[c] for c in kids(v)))
                internal = tuple(sorted(
                    (tuple(sorted((prev_sig[a], prev_sig[b]))), lab)
                    for a, b, lab in internal_pairs.get(v, ())))
                nxt[v] = (prev_sig[v], ch, internal)
        return nxt

    def partition_on(signature, universe):
        groups = defaultdict(list)
        for v in universe:
            groups[signature[v]].append(v)
        return frozenset(frozenset(g) for g in groups.values())

    stable = False
    j_stable = None
    for j in range(deepest):
        sig.append(refine_once(sig[-1]))
        universe = [v for v in vertices if level[v] <= deepest - (j + 1)]
        if partition_on(sig[j + 1], universe) == partition_on(sig[j], universe):
            stable = True
            j_stable = j
            break
    if j_stable is None:
        j_stable = len(sig) - 1

    # final types from the stable signature on tiles with enough depth below
    final_sig = sig[j_stable]
    core = [v for v in vertices if level[v] <= deepest - j_stable]
    classes = defaultdict(list)
    for v in core:
        classes[final_sig[v]].append(v)

    def first_member(members):
        # (level, name) of the first member: members are in vertex order,
        # so the lowest level is the first member's
        low = level[members[0]]
        return low, min(history.name(v) for v in members if level[v] == low)

    unstable_detail = []
    type_of = [None] * offsets[-1]
    ordered = sorted(classes.values(), key=first_member)
    for idx, members in enumerate(ordered):
        name = "T%d" % idx
        for v in members:
            type_of[v] = name

    # deep tiles: resolve through the deepest signature they support
    types_by_sig = {}   # depth -> signature -> types of the core tiles with it
    unresolved = []
    for v in vertices:
        if type_of[v] is not None:
            continue
        depth = deepest - level[v]
        if depth not in types_by_sig:
            by = types_by_sig[depth] = defaultdict(set)
            for u in core:
                by[sig[depth][u]].add(type_of[u])
        cands = types_by_sig[depth].get(sig[depth][v], set())
        if len(cands) == 1:
            type_of[v] = next(iter(cands))
        else:
            unresolved.append((history.name(v), v, sorted(cands)))
    for name, v, cands in sorted(unresolved):
        unstable_detail.append("tile %s unresolved among %s" % (name, cands))
        type_of[v] = "T?%s" % (cands,)

    # per-type data, consistency of child multisets
    data = {}
    for v in vertices:
        name = type_of[v]
        rec = data.get(name)
        if rec is None:
            _, clique, shape = raw_sig[v]
            rec = data[name] = {"clique": clique, "shape": shape, "count": 0,
                                "children": None, "internal": None,
                                "example": v}
        rec["count"] += 1
        if level[v] < deepest:
            ch = Counter(type_of[c] for c in kids(v))
            internal = Counter((tuple(sorted((type_of[a], type_of[b]))), lab)
                               for a, b, lab in internal_pairs.get(v, ()))
            if rec["children"] is None:
                rec["children"] = ch
                rec["internal"] = internal
            elif rec["children"] != ch or rec["internal"] != internal:
                unstable_detail.append(
                    "type %s has inconsistent subdivisions (%s vs %s)"
                    % (name, dict(rec["children"]), dict(ch)))
    stable = stable and not unstable_detail

    types = [RuleType(name=name, clique=rec["clique"], shape=rec["shape"],
                      children=rec["children"] or Counter(),
                      internal=rec["internal"] or Counter(),
                      count=rec["count"], example=rec["example"])
             for name, rec in sorted(data.items())]

    # coalesce across sign symmetry / graph automorphisms: start from
    # (clique size, shape) and refine by children until consistent
    co = {t.name: ("c", len(t.clique), t.shape) for t in types}
    children_by_name = {t.name: t.children for t in types}
    while True:
        nxt = {}
        for t in types:
            ch = tuple(sorted((co[c], m) for c, m in children_by_name[t.name].items()))
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
        type_of=[type_of[offsets[n]:offsets[n + 1]] for n in range(len(tilings))],
        coalesced_of=coalesced_of, coalesced_children=coalesced_children,
        stable=stable, unstable_detail=unstable_detail,
        interface_classes=interface_classes,
        split_report=split_report)


def _interface_classes(history, type_of):
    """Interface persistence data for the mesh certificate; `type_of` is
    indexed by vertex.

    The interface between two tiles continues, at the next level, as the
    adjacency instances between their respective children.  Every observed
    continuation is recorded: this over-approximates true ridge persistence
    (an interface may split into several arcs), so acyclicity of the
    resulting digraph still soundly certifies that every crossing is
    eventually subdivided away.
    """
    tilings, offsets = history.tilings, history.offsets

    def iclass(a, b, label):
        return (tuple(sorted((type_of[a], type_of[b]))), LABELS[label])

    classes = {}
    for lvl in range(len(tilings) - 1):
        t, nt = tilings[lvl], tilings[lvl + 1]
        off, noff = offsets[lvl], offsets[lvl + 1]
        nxt_by_parents = defaultdict(list)   # parent pair -> continuations
        for a, b, label in nt.edges():
            if not (nt.ideal[a] or nt.ideal[b]):
                pa, pb = nt.parent[a], nt.parent[b]
                if pa != pb:
                    nxt_by_parents[min(pa, pb), max(pa, pb)].append(
                        iclass(noff + a, noff + b, label))
        for a, b, label in t.edges():
            if t.ideal[a] or t.ideal[b]:
                continue
            key = iclass(off + a, off + b, label)
            rec = classes.get(key)
            if rec is None:
                rec = classes[key] = {"count": 0, "continuations": Counter()}
            rec["count"] += 1
            rec["continuations"].update(nxt_by_parents.get((a, b), ()))
    return classes


# ---------------------------------------------------------------------------
# the per-type subdivision descriptor


def descriptor_crosscheck(rule: SubdivisionRule, history: HistoryGraph):
    """Compare each stable type's empirical child multiset, counted by the
    covered clique, with the descriptor's prediction.  Returns a list of
    mismatch records; an empty list means full agreement."""
    graph = rule.graph
    tilings = history.tilings
    # per type, the empirical children of its first tile at a level that has
    # children in the observed window
    deepest = len(tilings) - 1
    reps = {}
    for v in history.vertices:
        n, i = history.locate(v)
        if n < deepest:
            reps.setdefault(rule.type_of[n][i], v)
    mismatches = []
    for rt in rule.types:
        if rt.name not in reps:
            continue
        n, i = history.locate(rt.example)
        desc = inflation_descriptor(graph, tilings[n].covered_move(i))
        expected = Counter(desc.child_clique_counter())
        got = Counter(tilings[n + 1].covered_clique(c - history.offsets[n + 1])
                      for c in history.children(reps[rt.name]))
        if got != expected:
            mismatches.append({
                "type": rt.name,
                "expected": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(expected.items())},
                "observed": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(got.items())},
            })
    return mismatches
