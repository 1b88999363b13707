from collections import deque

import pytest

from subdivlab.cubes import (CubeComplexSpec, CubeSpecError, Edge, LiftSet,
                             StarConvexityViolation, check_local_isometry,
                             cone_types, lift_basepoints, parse_cube_spec,
                             prune_history, salvetti_spec)
from subdivlab.balls import build_ball
from subdivlab.graphs import DefiningGraph
from subdivlab.invariants import ends, growth
from subdivlab.tiling import build_history, build_tilings, extract_rule
from subdivlab import words
from subdivlab.words import empty_state
from conftest import get_ball, get_rule, get_tilings, nf_key, path3, square


def loop_a_spec(graph):
    return CubeComplexSpec(graph, ["v"], [Edge("e_a", "v", "v", 0, 1)], [])


def test_local_isometry_ok_cases():
    g = square()
    assert check_local_isometry(salvetti_spec(g), g) is None
    assert check_local_isometry(loop_a_spec(g), g) is None


def test_local_isometry_fullness_violation():
    g = square()
    spec = CubeComplexSpec(g, ["v"], [Edge("e_a", "v", "v", 0, 1),
                                      Edge("e_b", "v", "v", 1, 1)], [])
    out = check_local_isometry(spec, g)
    assert out is not None and "not full" in out


def test_local_isometry_link_injectivity():
    g = square()
    spec = CubeComplexSpec(g, ["v", "w"],
                           [Edge("e1", "v", "w", 0, 1),
                            Edge("e2", "v", "w", 0, 1)], [])
    out = check_local_isometry(spec, g)
    assert out is not None and "not injective" in out


def test_malformed_square():
    g = square()
    spec = CubeComplexSpec(g, ["v"], [Edge("e_a", "v", "v", 0, 1)],
                           [[["e_a", 1], ["e_a", 1], ["e_a", -1], ["e_a", -1]]])
    out = check_local_isometry(spec, g)
    assert out is not None and "malformed" in out


def test_parse_cube_spec_errors():
    g = square()
    with pytest.raises(CubeSpecError):
        parse_cube_spec(g, {"vertices": ["v"],
                            "edges": [{"from": "v", "to": "v", "label": "q"}]})
    with pytest.raises(CubeSpecError):
        parse_cube_spec(g, {"vertices": [],
                            "edges": []})


def test_lift_loop_a():
    g = square()
    ball = get_ball("square")
    lifts = lift_basepoints(loop_a_spec(g), g, ball, 6)
    assert lifts.level_sizes() == [1, 2, 2, 2, 2, 2, 2]


def test_lift_full_salvetti_is_everything():
    g = square()
    ball = get_ball("square")
    lifts = lift_basepoints(salvetti_spec(g), g, ball, 4)
    assert lifts.level_sizes() == ball.sphere_sizes()[:5]


def test_lift_induced_subgraph_matches_sub_ball():
    p = path3()
    ball = get_ball("path3")
    lifts = lift_basepoints(salvetti_spec(p, ["a", "z"]), p, ball, 4)
    # the a-z subgroup is a rank-2 lattice: spheres 8n under diagonal moves
    assert lifts.level_sizes() == [1, 8, 16, 24, 32]


def _lift_reference(spec, graph, ball, n_max):
    """The lifting search as first written: every product enters the
    frontier and one outside B(n_max) is dropped when it is popped; each
    level is sorted by normal form.  Returns (levels, members), members
mapping each lifted element to the first vertex it was realized at."""
    steps = {v: [] for v in spec.vertices}
    for eid in sorted(spec.edges):
        e = spec.edges[eid]
        a, b = (e.src, e.dst) if e.sign > 0 else (e.dst, e.src)
        steps[a].append(((e.label, 1), b))
        steps[b].append(((e.label, -1), a))
    start = (spec.basepoint, words.empty_state(graph))
    seen = {start}
    frontier = deque([start])
    members = {}
    while frontier:
        v, g = frontier.popleft()
        lvl = ball.level(g)
        if lvl is None or lvl > n_max:
            continue
        if g not in members:
            members[g] = v
        for germ, w in steps[v]:
            state = (w, words.apply_letters(g, graph, (germ,)))
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    levels = [[] for _ in range(n_max + 1)]
    for g in members:
        levels[ball.level(g)].append(g)
    for lvl in levels:
        lvl.sort(key=lambda s: nf_key(
            words.syllables_of_state(ball.graph, s)))
    return levels, members


@pytest.mark.parametrize("which", ["loop-a", "salvetti", "salvetti-az",
                                   "salvetti-az-shallow"])
def test_lift_matches_the_first_search(which):
    if which == "loop-a":
        graph, ball, spec = square(), get_ball("square"), loop_a_spec(square())
    elif which == "salvetti":
        graph, ball, spec = square(), get_ball("square"), salvetti_spec(square())
    else:
        graph, ball = path3(), get_ball("path3")
        spec = salvetti_spec(graph, ["a", "z"])
    n_max = 3 if which == "salvetti-az-shallow" else ball.N
    lifts = lift_basepoints(spec, graph, ball, n_max)
    levels, members = _lift_reference(spec, graph, ball, n_max)
    assert lifts.levels == levels
    # one flag per ball element; the lift set no longer keeps the first
    # vertex each element was realized at, so that is not compared
    flags = bytearray(g in members for level in ball.levels for g in level)
    assert lifts.members == flags
    assert lifts.size() == len(members)


def test_lift_needs_the_ball_deep_enough():
    g = square()
    with pytest.raises(ValueError, match="too shallow"):
        lift_basepoints(loop_a_spec(g), g, get_ball("square"), 7)


def test_prune_loop_a():
    g = square()
    ball = get_ball("square")
    ts = get_tilings("square")
    rule = get_rule("square")
    lifts = lift_basepoints(loop_a_spec(g), g, ball, ball.N)
    pr = prune_history(build_history(ts), lifts, ball, rule)
    assert pr.tile_counts == [2, 2, 2, 2]
    assert pr.tile_counts == [len(lifts.levels[n + 1]) for n in range(4)]
    assert pr.containment["injective"]
    pg = growth(pr.tilings, pr.rule)
    assert pg.classification() == ("polynomial", 0)
    pe = ends(pr.tilings)
    assert pe.verdict == 2


def test_prune_full_salvetti_is_identity():
    g = square()
    ball = get_ball("square")
    ts = get_tilings("square")
    rule = get_rule("square")
    lifts = lift_basepoints(salvetti_spec(g), g, ball, ball.N)
    history = build_history(ts)
    pr = prune_history(history, lifts, ball, rule)
    # no tile is re-flagged: the ambient history and rule, not copies
    assert pr.history is history and pr.rule is rule
    assert pr.tile_counts == [len(t.nonideal()) for t in ts]
    assert pr.rule.stable
    assert {t.name for t in pr.rule.types} == {t.name for t in rule.types}
    mapping = pr.containment["mapping"]
    assert all(k == v for k, v in mapping.items())


def test_prune_induced_matches_standalone():
    p = path3()
    ball = get_ball("path3")
    ts = get_tilings("path3")
    rule = get_rule("path3")
    lifts = lift_basepoints(salvetti_spec(p, ["a", "z"]), p, ball, ball.N)
    pr = prune_history(build_history(ts), lifts, ball, rule)
    standalone = [len(t.nonideal()) for t in get_tilings("square")]
    assert pr.tile_counts == standalone
    pg = growth(pr.tilings, pr.rule)
    sg = growth(get_tilings("square"), get_rule("square"))
    assert pg.counts == sg.counts
    assert pg.classification() == sg.classification()
    assert ends(pr.tilings).verdict == ends(get_tilings("square")).verdict == 1


def test_prune_star_convexity_violation():
    g = square()
    ball = get_ball("square")
    ts = get_tilings("square")
    lifts = lift_basepoints(loop_a_spec(g), g, ball, ball.N)
    # drop the level-1 elements: level-2 members lose their predecessors
    members = bytearray(lifts.members)
    members[ball.starts[1]:ball.starts[2]] = bytes(len(ball.levels[1]))
    broken = LiftSet(levels=[lifts.levels[0], []] + lifts.levels[2:],
                     members=members)
    with pytest.raises(StarConvexityViolation) as err:
        prune_history(build_history(ts), broken, ball)
    # the first level-2 member, in ball order, names the violation
    assert err.value.element == ball.nf_string(lifts.levels[2][0])


def test_cone_types_free3():
    h = build_history(get_tilings("free3", 3))
    out = cone_types(h, 1)
    assert out["total_classes"] == 2
    assert out["stabilized"]


def test_cone_types_triangle_stabilizes_at_three():
    h = build_history(get_tilings("triangle"))
    out = cone_types(h, 1)
    per_level = {lvl: n for lvl, n in out["classes_per_level"].items() if lvl >= 0}
    assert set(per_level.values()) == {3}
    assert out["stabilized"]


K4 = DefiningGraph(["a", "b", "c", "d"],
                   [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
                    ["c", "d"]])
C4 = DefiningGraph(["a", "b", "c", "d"],
                   [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]])


# the full dicts as computed before colours were interned to ints
@pytest.mark.parametrize("graph,levels,k,expected", [
    (K4, 3, 1, ({-1: 1, 0: 4, 1: 4}, 5, True)),
    (K4, 3, 2, ({-1: 1, 0: 4}, 5, False)),
    (C4, 3, 1, ({-1: 1, 0: 2, 1: 2}, 3, True)),
    (C4, 3, 2, ({-1: 1, 0: 2}, 3, False)),
    (path3(), 4, 1, ({-1: 1, 0: 3, 1: 3, 2: 3}, 4, True)),
    (path3(), 4, 2, ({-1: 1, 0: 3, 1: 3}, 4, True)),
], ids=["k4-1", "k4-2", "c4-1", "c4-2", "path3-1", "path3-2"])
def test_cone_types_pinned(graph, levels, k, expected):
    h = build_history(build_tilings(build_ball(graph, levels), levels))
    per_level, total, stabilized = expected
    assert cone_types(h, k) == {"classes_per_level": per_level,
                                "total_classes": total,
                                "stabilized": stabilized, "depth": k}


def test_cone_types_pruned_loop_a():
    g = square()
    ball = get_ball("square")
    ts = get_tilings("square")
    lifts = lift_basepoints(loop_a_spec(g), g, ball, ball.N)
    pr = prune_history(build_history(ts), lifts, ball)
    out = cone_types(pr.history, 1)
    assert out["total_classes"] == 2


def test_strict_mode_cube_fullness():
    from subdivlab.graphs import DefiningGraph
    tri = DefiningGraph(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])
    full = salvetti_spec(tri)
    assert check_local_isometry(full, tri, strict=True) is None
    stripped = CubeComplexSpec(tri, full.vertices, list(full.edges.values()),
                               full.squares, cubes=[])
    out = check_local_isometry(stripped, tri, strict=True)
    assert out is not None and "cube missing" in out
    # non-strict mode does not require the 3-cubes
    assert check_local_isometry(stripped, tri) is None
