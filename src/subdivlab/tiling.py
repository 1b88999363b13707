"""Tiles, tilings, the history graph, empirical rule extraction and its
cross-check against the subdivision descriptor.

The level-n tiling is the flat structure of the sphere one step further out:
every element g of level n+1 contributes one tile per connected component of
its visible region, and every truncation face of a domain already inside the
ball persists as an ideal tile.  Two non-ideal tiles are adjacent when their
regions share an exposed cell lying in exactly two domains of the ball; the
edge is labelled by how the tiles' covered cells relate (same codimension,
or nested with codimension difference one).  Regions, flat cells and the
parent tile all come from the ball's per-covering-move record
(`Ball.local`), so a tiling needs no earlier level, and an element costs
one group product per flat cell of codimension two or more that it owns.

Rule extraction refines the initial partition (covered clique, region shape)
by child-type multisets and by the adjacency structure *among* the children,
until the partition is stable across the observed levels.  Within-level
neighbour degrees are deliberately not used: they vary with the position of
a tile in the sphere, while the subdivision behaviour does not.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple

from .balls import Ball, InvariantViolation, visible_region
from .graphs import (Cell, DefiningGraph, cell_str, ideal_facets,
                     inflation_descriptor, support)


@dataclass(slots=True)
class Tile:
    id: str
    level: int
    owner: tuple
    owner_nf: str
    cells: tuple = ()
    attached_ideal: tuple = ()
    ideal: bool = False
    ideal_facet: Cell | None = None
    covered_move: Cell | None = None
    covered_clique: tuple | None = None
    parent_id: str | None = None

    def shape(self):
        return (tuple(sorted(len(c) for c in self.cells)), len(self.attached_ideal))


class Edge(NamedTuple):
    """One adjacency instance: a cell shared by two non-ideal tiles."""
    tile1: str            # tile1 < tile2
    tile2: str
    label: str            # "flat" (same codim) or "containment"


class Tiling:
    """The tiles of one level and its edges, one per shared cell; each
    tile's sorted (neighbour id, label) list is built once from the edges."""

    def __init__(self, level, graph, tiles, instances, adjacency=None):
        self.level = level
        self.graph = graph
        self.tiles = tiles
        self.by_id = {t.id: t for t in tiles}
        self.instances = instances
        self.adjacency = (_neighbor_lists(instances) if adjacency is None
                          else adjacency)

    def nonideal(self):
        return [t for t in self.tiles if not t.ideal]

    def ideal_tiles(self):
        return [t for t in self.tiles if t.ideal]

    def neighbors(self, tid):
        return self.adjacency.get(tid, ())

    def restricted(self, owners):
        """The same tiles, with every non-ideal tile whose owner is not in
        `owners` flagged ideal; this tiling itself when that flags none.
        Edges and neighbour lists are shared with this tiling: every reader
        drops ideal neighbours."""
        if all(tile.ideal or tile.owner in owners for tile in self.tiles):
            return self
        tiles = [tile if tile.ideal or tile.owner in owners
                 else replace(tile, ideal=True) for tile in self.tiles]
        return Tiling(self.level, self.graph, tiles, self.instances,
                      self.adjacency)


def _neighbor_lists(instances):
    pairs = defaultdict(set)
    for a, b, label in instances:
        pairs[a].add((b, label))
        pairs[b].add((a, label))
    return {tid: sorted(p) for tid, p in pairs.items()}


# Ids are interned: a tile's id, its children's parent ids and the ids in
# every edge, history and rule map are one string object, across levels too.
def _nonideal_id(level, owner_nf, comp):
    return sys.intern("t%d|%s|%d" % (level, owner_nf, comp))


def _ideal_id(graph, owner_nf, facet):
    return sys.intern("i|%s|%s" % (owner_nf, cell_str(graph, facet)))


def build_tiling(ball: Ball, n: int) -> Tiling:
    """Tiling at level n (the flat structure of the sphere of radius n+1).

    It reads the ball up to level n + 1 and no further, so `ball.N` must be
    at least n + 1.  Parent ids name tiles of the level-(n-1) tiling, read
    off the ball alone."""
    if ball.N < n + 1:
        raise ValueError("ball too shallow: need level %d, have %d" % (n + 1, ball.N))
    graph = ball.graph
    tiles = []
    cliques = {}   # covering move -> its covered clique
    parents = {}   # owner -> parent of its tiles: the tile its covered cell is in
    for g in ball.levels[n + 1]:
        regions = visible_region(ball, n + 1, g)
        g_nf = ball.nf_string(g)
        pred = ball.pred[g]
        move = ball.pred_move[g]
        if n > 0:
            comp = ball.local(pred).component.get(move)
            if comp is None:
                raise InvariantViolation("covered cell missing from the parent "
                                         "tiling", g_nf, n + 1)
            parents[g] = _nonideal_id(n - 1, ball.nf_string(pred), comp)
        clique = cliques.get(move)
        if clique is None:
            clique = cliques[move] = support(move)
        for r in regions:
            tiles.append(Tile(id=_nonideal_id(n, g_nf, r.index), level=n, owner=g,
                              owner_nf=g_nf, cells=r.cells,
                              attached_ideal=r.attached_ideal, covered_move=move,
                              covered_clique=clique, parent_id=parents.get(g)))
    instances = [Edge(a, b, label)
                 for a, b, label, _ in _compute_adjacency(ball, n, tiles)]

    # ideal tiles: truncation faces of every domain in the ball, except the
    # ones still glued into their owner's fresh region.  The parent of a face
    # that was an ideal tile one level up is that tile, itself; of a face
    # then glued into its fresh owner's region, that region's tile; and of a
    # face born at level n + 1, its owner's parent tile.
    facets = ideal_facets(graph)
    if facets:
        for lvl in range(n + 2):
            for g in ball.levels[lvl]:
                g_nf = ball.nf_string(g)
                component = ball.local(g).component if lvl >= n else {}
                for f in facets:
                    comp = component.get(f)
                    if lvl == n + 1 and comp is not None:
                        continue
                    tid = _ideal_id(graph, g_nf, f)
                    if n == 0:
                        parent_id = None
                    elif lvl == n + 1:
                        parent_id = parents[g]
                    elif comp is not None:
                        parent_id = _nonideal_id(n - 1, g_nf, comp)
                    else:
                        parent_id = tid
                    tiles.append(Tile(id=tid, level=n, owner=g, owner_nf=g_nf,
                                      ideal=True, ideal_facet=f, parent_id=parent_id))

    return Tiling(n, graph, tiles, instances)


def _compute_adjacency(ball: Ball, n: int, tiles):
    """Yield (tile1, tile2, label, shared cell) for the exposed cells lying
    in exactly two domains of B(n+1); `tiles` are the level's non-ideal
    tiles, each owner's in region order.

    Such a cell of g is flat: besides g it lies in h = g * s0 only.  It is
    taken from the side whose owner comes first by nf_key, and that owner is
    its canonical (lowest level, then nf_key) domain, as every further
    domain of the cell lies outside B(n+1); the shared cell is yielded as
    (that owner, signs).  Which regions of g and h the cell touches, and the
    label, depend only on the covering moves of g and h, so they are worked
    out once per (move of g, cell, move of h)."""
    level = ball.levels[n + 1]
    rank = {g: i for i, g in enumerate(level)}   # levels are in nf_key order
    ids = [[] for _ in level]                    # tile ids by region index
    for tile in tiles:
        ids[rank[tile.owner]].append(tile.id)
    local = [ball.local(g) for g in level]
    move = ball.pred_move
    joins = {}   # (move of g, cell, move of h) -> (regions of g, of h, label)
    for i, g in enumerate(level):
        for cell, s0 in local[i].flat:
            if len(cell) < 2:
                continue
            h = ball.apply(g, s0)
            j = rank.get(h)
            if j is None:
                raise InvariantViolation("flat cell %s leaves the sphere"
                                         % cell_str(ball.graph, cell),
                                         ball.nf_string(g), n + 1)
            if j < i:
                continue  # processed from the other side
            key = (move[g], cell, move[h])
            join = joins.get(key)
            if join is None:
                join = joins[key] = (_join(cell, s0, local[i], local[j])
                                     + (_edge_label(move[g], move[h]),))
            comps_g, comps_h, label = join
            sides = {ids[i][c] for c in comps_g}
            sides.update(ids[j][c] for c in comps_h)
            for a, b in combinations(sorted(sides), 2):
                yield a, b, label, (g, cell)


def _join(cell, s0, local_g, local_h):
    """The regions of g and of h = g * s0 holding a codimension-one subcell
    of the flat cell (g, cell)."""
    flipped = frozenset(s0)
    cell_h = tuple((k, -e if (k, e) in flipped else e) for k, e in cell)
    sides = []
    for c, rec in ((cell, local_g), (cell_h, local_h)):
        subcells = (tuple(p for p in c if p[0] != drop) for drop, _ in s0)
        sides.append(tuple(comp for comp in map(rec.component.get, subcells)
                           if comp is not None))
    return tuple(sides)


def _edge_label(move_g, move_h) -> str:
    kg, kh = len(move_g), len(move_h)
    if kg == kh:
        return "flat"
    if abs(kg - kh) == 1:
        return "containment"
    return "other"


def build_tilings(ball: Ball, count: int):
    """Tilings for levels 0..count-1."""
    return [build_tiling(ball, n) for n in range(count)]


# ---------------------------------------------------------------------------
# history graph


ROOT_ID = "origin"


class HistoryGraph:
    """Dual graphs of all levels plus vertical subdivision edges.

    Vertices are the non-ideal tiles; an origin vertex for the base complex
    is kept separately (it is the parent of every level-0 tile and carries
    the identity element) and is excluded from tile-count identities.
    """

    def __init__(self, tilings):
        self.tilings = list(tilings)
        self.children = defaultdict(list)
        self.vertices = []
        self.tile_index = {}   # id -> non-ideal tile
        for t in self.tilings:
            for tile in t.nonideal():
                self.vertices.append(tile.id)
                self.tile_index[tile.id] = tile
                parent = tile.parent_id if tile.level > 0 else ROOT_ID
                self.children[parent].append(tile.id)

    def level_tiles(self, n):
        return self.tilings[n].nonideal()

    def horizontal_neighbors(self, tid):
        tile = self.tile_index[tid]
        return [o for o, _ in self.tilings[tile.level].neighbors(tid)
                if o in self.tile_index]


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
    example: str
    coalesced: str = ""


@dataclass
class SubdivisionRule:
    graph: DefiningGraph
    types: list
    type_of: dict              # tile id -> refined type name
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


def _raw_key(tile):
    return ("raw", tile.covered_clique, tile.shape())


def extract_rule(history: HistoryGraph) -> SubdivisionRule:
    """Partition-refinement extraction of the subdivision rule from the
    history's non-ideal tiles and their children."""
    tilings = history.tilings
    if len(tilings) < 3:
        raise ValueError("need at least 3 consecutive levels")
    graph = tilings[0].graph
    tiles = history.tile_index
    deepest = len(tilings) - 1
    kids = history.children   # read with .get: adds no keys to the graph's map

    internal_pairs = defaultdict(list)  # parent id -> [(child1, child2, label)]
    for t in tilings[1:]:
        for inst in t.instances:
            a, b = inst.tile1, inst.tile2
            if a in tiles and b in tiles:
                pa, pb = tiles[a].parent_id, tiles[b].parent_id
                if pa is not None and pa == pb and pa in tiles:
                    internal_pairs[pa].append((a, b, inst.label))

    # depth-limited signatures
    sig = [{tid: _raw_key(tile) for tid, tile in tiles.items()}]

    def refine_once(prev_sig):
        nxt = {}
        for tid, tile in tiles.items():
            if tile.level < deepest:
                ch = tuple(sorted(prev_sig[c] for c in kids.get(tid, ())))
                internal = tuple(sorted(
                    (tuple(sorted((prev_sig[a], prev_sig[b]))), lab)
                    for a, b, lab in internal_pairs[tid]))
                nxt[tid] = (prev_sig[tid], ch, internal)
            else:
                nxt[tid] = prev_sig[tid]
        return nxt

    def partition_on(signature, universe):
        groups = defaultdict(list)
        for tid in universe:
            groups[signature[tid]].append(tid)
        return frozenset(frozenset(v) for v in groups.values())

    stable = False
    j_stable = None
    for j in range(deepest):
        sig.append(refine_once(sig[-1]))
        universe = [tid for tid, tile in tiles.items()
                    if tile.level <= deepest - (j + 1)]
        if partition_on(sig[j + 1], universe) == partition_on(sig[j], universe):
            stable = True
            j_stable = j
            break
    if j_stable is None:
        j_stable = len(sig) - 1

    # final types from the stable signature on tiles with enough depth below
    final_sig = sig[j_stable]
    core = [tid for tid, tile in tiles.items() if tile.level <= deepest - j_stable]
    classes = defaultdict(list)
    for tid in core:
        classes[final_sig[tid]].append(tid)

    unstable_detail = []
    type_of = {}
    ordered = sorted(classes.items(),
                     key=lambda kv: min((tiles[t].level, t) for t in kv[1]))
    names = {}
    for idx, (s, members) in enumerate(ordered):
        name = "T%d" % idx
        names[s] = name
        for tid in members:
            type_of[tid] = name

    # deep tiles: resolve through the deepest signature they support
    for tid, tile in sorted(tiles.items()):
        if tid in type_of:
            continue
        depth = deepest - tile.level
        cands = {type_of[u] for u in core if sig[depth][u] == sig[depth][tid]}
        if len(cands) == 1:
            type_of[tid] = cands.pop()
        else:
            unstable_detail.append(
                "tile %s unresolved among %s" % (tid, sorted(cands)))
            type_of[tid] = "T?%s" % (sorted(cands),)

    # per-type data, consistency of child multisets
    data = {}
    for tid, tile in tiles.items():
        name = type_of[tid]
        rec = data.setdefault(name, {"clique": tile.covered_clique,
                                     "shape": tile.shape(), "count": 0,
                                     "children": None, "internal": None,
                                     "example": tid})
        rec["count"] += 1
        if tile.level < deepest:
            ch = Counter(type_of[c] for c in kids.get(tid, ()))
            internal = Counter((tuple(sorted((type_of[a], type_of[b]))), lab)
                               for a, b, lab in internal_pairs[tid])
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

    interface_classes = _interface_classes(tilings, tiles, type_of)

    return SubdivisionRule(
        graph=graph, types=types, type_of=type_of,
        coalesced_of=coalesced_of, coalesced_children=coalesced_children,
        stable=stable, unstable_detail=unstable_detail,
        interface_classes=interface_classes,
        split_report=split_report)


def _interface_classes(tilings, tiles, type_of):
    """Interface persistence data for the mesh certificate.

    The interface between two tiles continues, at the next level, as the
    adjacency instances between their respective children.  Every observed
    continuation is recorded: this over-approximates true ridge persistence
    (an interface may split into several arcs), so acyclicity of the
    resulting digraph still soundly certifies that every crossing is
    eventually subdivided away.
    """
    def iclass(inst):
        return (tuple(sorted((type_of[inst.tile1], type_of[inst.tile2]))),
                inst.label)

    classes = {}
    for lvl in range(len(tilings) - 1):
        cur = [i for i in tilings[lvl].instances
               if i.tile1 in tiles and i.tile2 in tiles]
        nxt_by_parents = defaultdict(list)
        for i in tilings[lvl + 1].instances:
            if i.tile1 in tiles and i.tile2 in tiles:
                pa = tiles[i.tile1].parent_id
                pb = tiles[i.tile2].parent_id
                if pa != pb and pa is not None and pb is not None:
                    nxt_by_parents[tuple(sorted((pa, pb)))].append(i)
        for inst in cur:
            key = iclass(inst)
            rec = classes.setdefault(key, {"count": 0, "continuations": Counter(),
                                           "witness": (inst.tile1, inst.tile2)})
            rec["count"] += 1
            cont = nxt_by_parents.get(tuple(sorted((inst.tile1, inst.tile2))), [])
            for c in cont:
                rec["continuations"][iclass(c)] += 1
    return classes


# ---------------------------------------------------------------------------
# the per-type subdivision descriptor


def descriptor_crosscheck(rule: SubdivisionRule, history: HistoryGraph):
    """Compare each stable type's empirical child multiset, counted by the
    covered clique, with the descriptor's prediction.  Returns a list of
    mismatch records; an empty list means full agreement."""
    graph = rule.graph
    tiles = history.tile_index
    # per type, the empirical children of its first tile at a level that has
    # children in the observed window
    deepest = len(history.tilings) - 1
    reps = {}
    for tid in history.vertices:
        if tiles[tid].level < deepest:
            reps.setdefault(rule.type_of.get(tid), tid)
    mismatches = []
    for rt in rule.types:
        tile = tiles.get(rt.example)
        if tile is None or tile.covered_move is None or rt.name not in reps:
            continue
        desc = inflation_descriptor(graph, tile.covered_move)
        expected = Counter(desc.child_clique_counter())
        got = Counter(tiles[c].covered_clique
                      for c in history.children.get(reps[rt.name], ()))
        if got != expected:
            mismatches.append({
                "type": rt.name,
                "expected": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(expected.items())},
                "observed": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(got.items())},
            })
    return mismatches
