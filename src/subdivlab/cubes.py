"""Cube complexes over a defining graph: local-isometry checking, basepoint
lifting, pruning of the ambient history to a subgroup, and bounded-depth
cone types of history graphs.

A complex is given by vertices, directed edges labelled by generators, and
squares listed as four oriented edge references tracing a closed path whose
labels alternate between two commuting generators.  An edge's sign and a
reference's orientation are 1 or -1.  A 3-cube, which only strict mode
reads, is a vertex and its corner germs, each [generator name, 1 or -1].
The local-isometry check is the usual link condition: no repeated outgoing
or incoming label at a vertex, and every pair of germs carrying distinct
commuting labels must span a square corner.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain, combinations, product

from . import words
from .balls import Ball
from .graphs import DefiningGraph
from .tiling import ROOT, HistoryGraph, SubdivisionRule, extract_rule


class CubeSpecError(ValueError):
    pass


class StarConvexityViolation(RuntimeError):
    def __init__(self, element_str):
        super().__init__("lift set is not star convex at %s" % element_str)
        self.element = element_str


@dataclass
class Edge:
    id: str
    src: str
    dst: str
    label: int    # generator index
    sign: int     # +1: reads the generator from src to dst; -1 reversed


class CubeComplexSpec:
    def __init__(self, graph: DefiningGraph, vertices, edges, squares,
                 cubes=(), basepoint=None):
        self.graph = graph
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise CubeSpecError("need at least one vertex")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise CubeSpecError("duplicate vertices")
        self.edges = {}
        for e in edges:
            if e.id in self.edges:
                raise CubeSpecError("duplicate edge id %r" % e.id)
            if e.src not in vset or e.dst not in vset:
                raise CubeSpecError("edge %r references unknown vertex" % e.id)
            self.edges[e.id] = e
        self.squares = [tuple(sq) for sq in squares]
        self.cubes = list(cubes)
        self.basepoint = basepoint if basepoint is not None else self.vertices[0]
        if self.basepoint not in vset:
            raise CubeSpecError("unknown basepoint %r" % self.basepoint)

    # a germ at a vertex is a signed label (x, +1) for an edge reading x
    # outward, (x, -1) for one reading x inward
    def germs_at(self, v):
        out = []
        for eid in sorted(self.edges):
            e = self.edges[eid]
            a, b = (e.src, e.dst) if e.sign > 0 else (e.dst, e.src)
            if a == v:
                out.append(((e.label, 1), eid))
            if b == v:
                out.append(((e.label, -1), eid))
        return out

    def square_corners(self, sq):
        """Corner germ-pairs of one square: [(vertex, germ1, germ2) x4]."""
        if len(sq) != 4:
            raise CubeSpecError("square %r needs 4 edge references" % (sq,))
        refs = []
        for ref in sq:
            if isinstance(ref, (list, tuple)):
                if len(ref) != 2:
                    raise CubeSpecError("square reference %r is not "
                                        "[edge id, orientation]" % (ref,))
                eid, orient = ref
            else:
                eid, orient = ref, 1
            if not isinstance(eid, str) or eid not in self.edges:
                raise CubeSpecError("square references unknown edge %r" % (eid,))
            refs.append((self.edges[eid], _sign(orient, "square orientation")))
        # walk the path; each edge traversed forward (+1) or backward (-1)
        corners = []
        v = None
        for idx in range(4):
            e, o = refs[idx]
            start, end = (e.src, e.dst) if e.sign * o > 0 else (e.dst, e.src)
            if v is None:
                v = start
            elif start != v:
                raise CubeSpecError("square %r does not trace a closed path" % (sq,))
            # germ read when leaving v along this traversal
            leave = (e.label, 1 if e.sign * o > 0 else -1)
            eprev, oprev = refs[idx - 1]
            arrive = (eprev.label, -1 if eprev.sign * oprev > 0 else 1)
            corners.append((v, arrive, leave))
            v = end
        e0, o0 = refs[0]
        start0 = e0.src if e0.sign * o0 > 0 else e0.dst
        if v != start0:
            raise CubeSpecError("square %r does not close up" % (sq,))
        labels = {e.label for e, _ in refs}
        if len(labels) != 2:
            raise CubeSpecError("square %r must alternate two labels" % (sq,))
        x, y = sorted(labels)
        if not self.graph.commute(x, y):
            raise CubeSpecError("square %r glues non-commuting labels" % (sq,))
        return corners


def _sign(value, what):
    # the JSON numbers 1 and -1 only: int() would read 1.5, true and "1"
    if type(value) is not int or value not in (1, -1):
        raise CubeSpecError("%s must be 1 or -1, got %r" % (what, value))
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise CubeSpecError("%s must be a list, got %r" % (what, value))
    return value


def _name(value, what):
    """A vertex or label name: any JSON scalar, as those are hashable."""
    if isinstance(value, (list, dict)):
        raise CubeSpecError("%s must be a string or number, got %r" % (what, value))
    return value


def parse_cube_spec(graph: DefiningGraph, data) -> CubeComplexSpec:
    if not isinstance(data, dict):
        raise CubeSpecError("cube complex input must be a JSON object")
    vertices = [_name(v, "vertex") for v in _list(data.get("vertices", []), "vertices")]
    edges = []
    for i, e in enumerate(_list(data.get("edges", []), "edges")):
        if not isinstance(e, dict):
            raise CubeSpecError("edge %r must be a JSON object" % (e,))
        label = _name(e.get("label"), "edge label")
        if label not in graph.index:
            raise CubeSpecError("unknown edge label %r" % label)
        edges.append(Edge(id=str(e.get("id", "e%d" % i)),
                          src=_name(e["from"], "edge end"),
                          dst=_name(e["to"], "edge end"), label=graph.index[label],
                          sign=_sign(e.get("sign", 1), "edge sign")))
    squares = [_list(sq, "square") for sq in _list(data.get("squares", []), "squares")]
    cubes = []
    for c in _list(data.get("cubes", []), "cubes"):
        if not isinstance(c, dict):
            raise CubeSpecError("cube %r must be a JSON object" % (c,))
        germs = []
        for germ in _list(c.get("germs", []), "cube germs"):
            if len(_list(germ, "cube germ")) != 2:
                raise CubeSpecError("cube germ %r is not [label, sign]" % (germ,))
            label = _name(germ[0], "cube germ label")
            if label not in graph.index:
                raise CubeSpecError("unknown cube germ label %r" % (label,))
            germs.append([graph.index[label], _sign(germ[1], "cube germ sign")])
        cubes.append({"vertex": _name(c.get("vertex"), "cube vertex"),
                      "germs": germs})
    return CubeComplexSpec(graph, vertices, edges, squares, cubes=cubes,
                           basepoint=_name(data.get("basepoint"), "basepoint"))


def salvetti_spec(graph: DefiningGraph, subset=None) -> CubeComplexSpec:
    """The one-vertex complex of the graph group itself (or of the subgroup
    generated by an induced subset of generators): one loop per generator,
    one commutator square per edge."""
    gens = sorted(graph.index[g] if isinstance(g, str) else g
                  for g in (subset if subset is not None else range(graph.d)))
    edges = [Edge(id="e_%s" % graph.generators[i], src="v", dst="v",
                  label=i, sign=1) for i in gens]
    squares = []
    for i, j in graph.edge_pairs:
        if i in gens and j in gens:
            ei, ej = "e_%s" % graph.generators[i], "e_%s" % graph.generators[j]
            squares.append([[ei, 1], [ej, 1], [ei, -1], [ej, -1]])
    cubes = []
    for trip in combinations(gens, 3):
        if graph.is_clique(trip):
            for signs in product((1, -1), repeat=3):
                cubes.append({"vertex": "v",
                              "germs": [[i, s] for i, s in zip(trip, signs)]})
    return CubeComplexSpec(graph, ["v"], edges, squares, cubes=cubes)


def check_local_isometry(spec: CubeComplexSpec, graph: DefiningGraph,
                         strict: bool = False):
    """Returns None when the complex immerses locally isometrically into the
    one-vertex complex of the graph group; otherwise a violation string.

    Strict mode additionally demands a declared 3-cube wherever three germs
    at a vertex are pairwise commuting and pairwise spanned by squares.
    """
    corner_pairs = defaultdict(set)  # vertex -> {frozenset of 2 germs}
    try:
        for sq in spec.squares:
            for v, arrive, leave in spec.square_corners(sq):
                corner_pairs[v].add(frozenset((arrive, leave)))
    except CubeSpecError as exc:
        return "malformed square: %s" % exc
    for v in spec.vertices:
        germs = spec.germs_at(v)
        seen = Counter(g for g, _ in germs)
        for g, cnt in seen.items():
            if cnt > 1:
                return ("link not injective at %s: germ %s appears %d times"
                        % (v, _germ_str(graph, g), cnt))
        glist = sorted(seen)
        for a in glist:
            for b in glist:
                if a >= b:
                    continue
                if a[0] == b[0]:
                    continue  # inverse pair of one loop spans no square
                if not graph.commute(a[0], b[0]):
                    continue
                if frozenset((a, b)) not in corner_pairs[v]:
                    return ("not full at %s: commuting germs %s, %s span no square"
                            % (v, _germ_str(graph, a), _germ_str(graph, b)))
        if strict:
            declared = {(c.get("vertex"), frozenset(map(tuple, c.get("germs", ()))))
                        for c in spec.cubes}
            for triple in combinations(glist, 3):
                if len({g[0] for g in triple}) != 3:
                    continue
                if not all(graph.commute(x[0], y[0])
                           for x, y in combinations(triple, 2)):
                    continue
                if not all(frozenset((x, y)) in corner_pairs[v]
                           for x, y in combinations(triple, 2)):
                    continue
                if (v, frozenset(triple)) not in declared:
                    return ("strict mode: corner cube missing at %s for germs %s"
                            % (v, [_germ_str(graph, g) for g in triple]))
    return None


def _germ_str(graph, germ):
    return graph.generators[germ[0]] + ("+" if germ[1] > 0 else "-")


@dataclass
class LiftSet:
    members: bytearray      # ball index -> 1 if the element lifts
    level_sizes: list       # per level 0..n_max: how many of its elements lift

    def size(self):
        return sum(self.level_sizes)


def lift_basepoints(spec: CubeComplexSpec, graph: DefiningGraph,
                    ball: Ball, n_max: int) -> LiftSet:
    """Breadth-first lifting: walk the complex while multiplying the group
    element; every element of the ball realized at some vertex is a lift of
    the basepoint into the subgroup's cover.  The walk stays inside
    B(n_max): from an element of level n_max it takes only the letters of
    its in-ball pattern, so a product outside the ball is never formed.
    `n_max` is at most the ball's depth."""
    if n_max > ball.N:
        raise ValueError("ball too shallow: need level %d, have %d" % (n_max, ball.N))
    violation = check_local_isometry(spec, graph)
    if violation is not None:
        raise CubeSpecError(violation)
    # vertex -> [(germ, far end)], in `germs_at` order
    steps = {v: [] for v in spec.vertices}
    for eid in sorted(spec.edges):
        e = spec.edges[eid]
        a, b = (e.src, e.dst) if e.sign > 0 else (e.dst, e.src)
        steps[a].append(((e.label, 1), b))
        steps[b].append(((e.label, -1), a))
    # vertex -> flags over the ball index: the (vertex, element) pairs reached
    seen = {v: bytearray(ball.size()) for v in spec.vertices}
    seen[spec.basepoint][0] = 1
    frontier = deque([(spec.basepoint, 0)])
    members = bytearray(ball.size())
    while frontier:
        v, i = frontier.popleft()
        members[i] = 1
        n = bisect_right(ball.starts, i) - 1
        g = ball.levels[n][i - ball.starts[n]]
        # one letter moves a level at most: only level n_max can leave B(n_max)
        inside = ball.record(i).pattern if n == n_max else None
        for germ, w in steps[v]:
            if inside is not None and (germ,) not in inside:
                continue
            j = ball.index[words.apply_letters(g, graph, (germ,))]
            if not seen[w][j]:
                seen[w][j] = 1
                frontier.append((w, j))
    return LiftSet(members, [members.count(1, ball.starts[n], ball.starts[n + 1])
                             for n in range(n_max + 1)])


@dataclass
class PruneResult:
    history: HistoryGraph
    rule: SubdivisionRule | None   # None below three levels
    tile_counts: list
    containment: dict


def prune_history(ambient: HistoryGraph, lifts: LiftSet,
                  ambient_rule: SubdivisionRule | None = None) -> PruneResult:
    """The ambient history's tiles over lifted elements, as a history over
    the same tilings with the lift set as its members, and its rule (none
    below three levels, as for the ambient tilings).  When every tile's
    owner lifts, the result holds the ambient history itself and
    `ambient_rule`, if given.

    Aborts when the lift set is not closed under the ball's predecessor map
    (a tile over an unlifted element would subdivide into a lifted one)."""
    ball, members = ambient.ball, lifts.members
    levels = len(ambient.tilings)
    for i in range(ball.starts[1], ball.starts[len(lifts.level_sizes)]):
        if members[i] and not members[ball.pred[i]]:
            raise StarConvexityViolation(ball.names[i])
    if members.find(0, ball.starts[1], ball.starts[levels + 1]) < 0:
        history, rule = ambient, ambient_rule
    else:
        history, rule = HistoryGraph(ambient.tilings, members), None
    if rule is None and levels >= 3:
        rule = extract_rule(history)
    containment = {"mapping": {}, "injective": True, "children_consistent": True}
    if ambient_rule is not None:
        mapping = {}
        consistent = True
        for p, a in zip(chain.from_iterable(rule.type_of),
                        chain.from_iterable(ambient_rule.type_of)):
            if p is None or a is None:
                continue
            if p in mapping and mapping[p] != a:
                consistent = False
            mapping[p] = a
        injective = len(set(mapping.values())) == len(mapping)
        containment = {"mapping": dict(sorted(mapping.items())),
                       "injective": injective and consistent,
                       "children_consistent": rule.stable}
    return PruneResult(history=history, rule=rule,
                       tile_counts=[len(history.level_tiles(n))
                                    for n in range(levels)],
                       containment=containment)


# ---------------------------------------------------------------------------
# bounded-depth cone types


def cone_types(history: HistoryGraph, k: int):
    """Partition of history-graph vertices by the isomorphism signature of
    their depth-k descendant-and-horizontal neighbourhood.

    This approximates the true cone types from below: signatures
    are computed by iterated colour refinement on the induced subgraph, and
    only vertices with k full levels below them are classified."""
    levels = len(history.tilings)
    max_classified = levels - 1 - k
    # colour keys nest one level deeper each round; interning them to ints,
    # in one table for all cones, keeps hashing cheap and colours comparable
    interned = {}

    def intern(key):
        return interned.setdefault(key, len(interned))

    def cone_signature(root, root_level):
        nodes = {root: 0}
        frontier = [root]
        for step in range(k):
            nxt = []
            for u in frontier:
                for c in history.children(u):
                    if c not in nodes:
                        nodes[c] = step + 1
                        nxt.append(c)
            frontier = nxt
        edges = defaultdict(set)
        for u in nodes:
            for c in history.children(u):
                if c in nodes:
                    edges[u].add(("v", c))
                    edges[c].add(("v^", u))
            if u != ROOT:
                for o in history.horizontal_neighbors(u):
                    if o in nodes:
                        edges[u].add(("h", o))
        color = {u: intern(("L", lvl)) for u, lvl in nodes.items()}
        for _ in range(len(nodes)):
            nxt = {u: intern((color[u], tuple(sorted((lab, color[v])
                                                     for lab, v in edges[u]))))
                   for u in nodes}
            if len(set(nxt.values())) == len(set(color.values())):
                color = nxt
                break
            color = nxt
        return (color[root], tuple(sorted(Counter(color.values()).items())))

    by_level = defaultdict(dict)
    if -1 + k <= levels - 1:
        sig = cone_signature(ROOT, -1)
        by_level[-1][sig] = 1
    for lvl in range(0, max_classified + 1):
        counts = Counter()
        for v in history.level_tiles(lvl):
            counts[cone_signature(v, lvl)] += 1
        by_level[lvl] = dict(counts)
    class_counts = {lvl: len(sigs) for lvl, sigs in sorted(by_level.items())}
    all_sigs = set()
    for sigs in by_level.values():
        all_sigs |= set(sigs)
    stab_levels = [lvl for lvl in class_counts if lvl >= 0]
    stabilized = (len(stab_levels) >= 2 and
                  class_counts[stab_levels[-1]] == class_counts[stab_levels[-2]])
    return {"classes_per_level": class_counts,
            "total_classes": len(all_sigs),
            "stabilized": stabilized,
            "depth": k}
