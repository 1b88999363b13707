import dataclasses
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from subdivlab import build_ball
from subdivlab.balls import InvariantViolation
from subdivlab.graphs import DefiningGraph
from subdivlab.invariants import (ECC_BLOCK, _bfs, _dual_graph, _eccentricities,
                                  _inversion_orbits, _level_diameter,
                                  classify_counts,
                                  divergence_diameter, ends, growth,
                                  largest_real_root, mesh_certificate,
                                  minimal_recurrence, polynomial_degree,
                                  spectral_radius_exceeds_one)
from subdivlab.tiling import Tiling, build_history, build_tilings, extract_rule
from conftest import (all_graphs_up_to_iso, get_ball, get_rule, get_tilings,
                      graph_from_edges)


def test_minimal_recurrence():
    assert minimal_recurrence([1, 5, 25, 125, 625]) == [Fraction(5)]
    # second differences constant: order-3 recurrence 3,-3,1
    seq = [24 * n * n + 2 for n in range(1, 8)]
    rec = minimal_recurrence(seq)
    assert rec == [Fraction(3), Fraction(-3), Fraction(1)]
    fib = [1, 1, 2, 3, 5, 8, 13, 21]
    assert minimal_recurrence(fib) == [Fraction(1), Fraction(1)]


def test_minimal_recurrence_needs_a_verifying_term():
    # order 1 is the highest order 4 terms can verify, and 3, 1, 4 already
    # break it; order 2 (-1/11, 15/11) would fit all 4 terms with none left
    # to check it
    assert minimal_recurrence([3, 1, 4, 1]) is None
    assert minimal_recurrence([1, 2, 4], max_order=5) == [Fraction(2)]


def test_largest_real_root():
    assert largest_real_root([5]) == 5
    # (x - 3)^2 (x - 1): a double root, found exactly
    root = largest_real_root([7, -15, 9])
    assert root == 3 and type(root) is int
    assert largest_real_root([4, -6, 4, -1]) == 1          # (x - 1)^4
    assert largest_real_root([1, 1]) == 1.618034           # x^2 - x - 1
    assert largest_real_root([0, 2]) == 1.414214           # x^2 - 2
    assert largest_real_root([Fraction(5, 2), -1]) == 2    # (x - 2)(x - 1/2)
    assert largest_real_root([0, -1]) is None              # x^2 + 1


def test_polynomial_degree():
    assert polynomial_degree([2, 2, 2, 2]) == 0
    assert polynomial_degree([26, 98, 218, 386]) == 2
    assert polynomial_degree([6, 30, 150]) is None


def test_classify_counts_dichotomy():
    assert classify_counts([26, 98, 218, 386, 602]) == ("polynomial", 2)
    assert classify_counts([6, 30, 150, 750]) == ("exponential", 5)
    assert classify_counts([2, 2, 2, 2]) == ("polynomial", 0)
    # F2 x Z sphere counts: exponential with rate 3 (a short window only
    # bounds it from above by successive ratios)
    kind, ratio = classify_counts([14, 70, 286, 1078, 3886])
    assert kind == "exponential" and ratio is not None and float(ratio) > 1


def test_spectral_radius_test():
    assert not spectral_radius_exceeds_one({"A": {"A": 1}})
    assert spectral_radius_exceeds_one({"A": {"A": 5}})
    assert not spectral_radius_exceeds_one(
        {"A": {"A": 1}, "B": {"A": 2, "B": 1}, "C": {"A": 3, "B": 3, "C": 1}})
    assert spectral_radius_exceeds_one({"A": {"B": 1}, "B": {"A": 1, "B": 1}})


def test_growth_reports():
    g = growth(get_tilings("triangle"), get_rule("triangle"))
    assert g.classification() == ("polynomial", 2)
    assert g.counts == [26, 98, 218, 386]
    g = growth(get_tilings("free3"), get_rule("free3"))
    assert g.classification() == ("exponential", 5)
    assert g.counts == [6, 30, 150, 750]
    g = growth(get_tilings("single"), get_rule("single"))
    assert g.classification() == ("polynomial", 0)
    assert g.counts == [2, 2, 2, 2]
    g = growth(get_tilings("path3"), get_rule("path3"))
    assert g.kind == "exponential"
    g = growth(get_tilings("edge_plus_vertex"), get_rule("edge_plus_vertex"))
    assert g.kind == "exponential"


def test_growth_ratios_from_the_rule():
    # integer ratios stay ints; path3's 3 is a double root of
    # (x - 3)^2 (x - 1); edge_plus_vertex's is the largest root of
    # x^3 - 3x^2 - 13x - 1; c4 is the 4-cycle
    for name, count, ratio in (("free3", None, 5), ("c4", 3, 9),
                               ("path3", None, 3),
                               ("edge_plus_vertex", None, 5.428639)):
        g = growth(get_tilings(name, count), get_rule(name, count))
        assert g.classification() == ("exponential", ratio), name
        assert type(g.ratio) is type(ratio), name
    g = growth(get_tilings("path3"), get_rule("path3"))
    assert g.recurrence == ["7", "-15", "9"]


def test_growth_k4_three_levels():
    g = growth(get_tilings("k4", 3), get_rule("k4", 3))
    assert g.recurrence == ["4", "-6", "4", "-1"]          # (x - 1)^4
    # the degree is still fitted to the observed counts, and 3 are too few;
    # perfbench/expected.json pins the k4-clique workload's classification
    # at ["polynomial", null]
    assert g.classification() == ("polynomial", None)


def test_rule_replay_matches_tile_counts_every_small_graph():
    # every defining graph on up to four generators: 4 levels for d <= 3,
    # 3 for d = 4
    for d in (1, 2, 3, 4):
        levels = 4 if d <= 3 else 3
        for edges in all_graphs_up_to_iso(d):
            tilings = build_tilings(build_ball(graph_from_edges(d, edges),
                                               levels), levels)
            rule = extract_rule(build_history(tilings))
            assert rule.stable, (d, edges)
            counts0 = Counter(rule.coalesced_of[rule.type_of[0][i]]
                              for i in tilings[0].nonideal())
            assert rule.replay(counts0, levels - 1) == \
                [len(t.nonideal()) for t in tilings], (d, edges)
            growth(tilings, rule)


def test_growth_replay_mismatch_raises():
    rule = get_rule("free3")
    broken = dataclasses.replace(rule, coalesced_children={"A": {"A": 4}})
    with pytest.raises(InvariantViolation,
                       match="replay gives 24 non-ideal tiles, the tiling "
                             "has 30 at tiling \\(level 1\\)"):
        growth(get_tilings("free3"), broken)


def test_growth_counts_match_spheres():
    for name in ("triangle", "path3", "free3", "edge_plus_vertex"):
        ball = get_ball(name)
        g = growth(get_tilings(name), get_rule(name))
        assert g.counts == ball.sphere_sizes()[1:len(g.counts) + 1]


def test_growth_underdetermined():
    with pytest.raises(ValueError):
        growth(get_tilings("triangle", 3))


def test_ends_verdicts():
    assert ends(get_tilings("triangle")).verdict == 1
    assert ends(get_tilings("path3")).verdict == 1
    assert ends(get_tilings("single")).verdict == 2
    f = ends(get_tilings("free3"))
    assert f.verdict == "unbounded" and f.counts == [6, 30, 150, 750]
    assert ends(get_tilings("edge_plus_vertex")).verdict == "unbounded"
    assert ends(get_tilings("square")).verdict == 1


def test_mesh_certificates():
    assert mesh_certificate(get_rule("free3")).certified
    m = mesh_certificate(get_rule("triangle"))
    assert not m.certified and m.orbit
    m = mesh_certificate(get_rule("single"))
    assert not m.certified
    assert not mesh_certificate(get_rule("path3")).certified
    assert not mesh_certificate(get_rule("edge_plus_vertex")).certified


def test_divergence_triangle_linear():
    d = divergence_diameter(get_tilings("triangle"))
    assert d.verdict == "linear"
    assert d.diameters == [6, 12, 18, 24]
    assert d.mode == "exact"
    assert d.degree == 1


def test_divergence_path3_linear():
    d = divergence_diameter(get_tilings("path3"))
    assert d.verdict == "linear"
    assert all(x != "inf" for x in d.diameters)
    assert d.degree == 1


def test_divergence_free3_disconnected():
    d = divergence_diameter(get_tilings("free3"))
    assert (d.verdict, d.degree) == ("disconnected", None)
    assert all(x == "inf" for x in d.diameters)


def test_divergence_witness_paths_are_valid():
    ts = get_tilings("triangle")
    d = divergence_diameter(ts)
    for lvl, wit in enumerate(d.witnesses):
        assert wit is not None
        src, dst, path = wit
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == d.diameters[lvl]
        t = ts[lvl]
        index = {t.name(i): i for i in t.nonideal()}
        for a, b in zip(path, path[1:]):
            assert index[b] in t.neighbors(index[a])


def _all_sources_diameter(tiling):
    """Reference: a full BFS with predecessors from every tile; the first
    source of largest eccentricity wins."""
    names = tiling.names()
    ids = [names[i] for i in tiling.nonideal()]
    idset = set(ids)
    adj = {names[i]: sorted(names[o] for o in tiling.neighbors(i)
                            if names[o] in idset)
           for i in tiling.nonideal()}
    if not ids:
        return 0, None
    if len(_bfs(adj, ids[0])[0]) != len(ids):
        return "inf", None
    best = (-1, None, None)
    for src in ids:
        dist, prev = _bfs(adj, src)
        far = max(dist.items(), key=lambda kv: (kv[1], kv[0]))
        if far[1] > best[0]:
            best = (far[1], src, (far[0], prev))
    diam, src, (dst, prev) = best
    path = []
    cur = dst
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    return diam, (src, dst, list(reversed(path)))


@pytest.mark.parametrize("name", ["triangle", "path3", "single",
                                  "edge_plus_vertex", "square"])
def test_exact_diameter_matches_all_sources_reference(name):
    for t in get_tilings(name):
        assert _level_diameter(t) == _all_sources_diameter(t)


def test_exact_diameter_disconnected():
    t = get_tilings("free3")[1]
    assert _level_diameter(t) == _all_sources_diameter(t) == ("inf", None)


def test_eccentricities_small_graphs():
    assert _eccentricities([[]], range(1)) == [0]
    assert _eccentricities([[1], [0, 2], [1, 3], [2]], range(4)) == [3, 2, 2, 3]
    # a 5-cycle with duplicate adjacency entries
    five = [[1, 4, 1], [0, 2], [1, 3], [2, 4], [3, 0]]
    assert _eccentricities(five, range(5)) == [2] * 5


def test_eccentricities_span_several_blocks():
    # a 65 x 65 grid: 4,225 vertices, more than one block of sources
    side = 65
    n = side * side
    assert n > ECC_BLOCK
    nbrs = [[] for _ in range(n)]
    for x in range(side):
        for y in range(side):
            v = x * side + y
            if x + 1 < side:
                nbrs[v].append(v + side)
                nbrs[v + side].append(v)
            if y + 1 < side:
                nbrs[v].append(v + 1)
                nbrs[v + 1].append(v)
    last = side - 1
    every = _eccentricities(nbrs, range(n))
    assert every == [max(x, last - x) + max(y, last - y)
                     for x in range(side) for y in range(side)]
    # a subset of the sources, in reverse and still in two blocks, gets the
    # values those sources get in the all-source run
    some = [v for v in reversed(range(n)) if v % 100]
    assert len(some) > ECC_BLOCK
    assert _eccentricities(nbrs, some) == [every[s] for s in some]
    few = list(range(3, n, 97))
    assert _eccentricities(nbrs, few) == [every[s] for s in few]


# the path a-b-c-d: connected, not a join, with diameters growing quadratically
P4 = DefiningGraph(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])


@pytest.mark.parametrize("name", ["c4", "k4", "path3", "p4"])
def test_orbit_eccentricities_match_every_source(name):
    if name == "p4":
        tilings = build_tilings(build_ball(P4, 3), 3)
    else:
        tilings = get_tilings(name, None if name == "path3" else 3)
    for t in tilings:
        tiles, nbrs, pos = _dual_graph(t)
        first = _inversion_orbits(t, tiles, nbrs, pos)
        sources = [v for v, f in enumerate(first) if f == v]
        if t.level > 0:
            assert len(sources) < len(tiles)
        ecc_of = dict(zip(sources, _eccentricities(nbrs, sources)))
        assert ([ecc_of[f] for f in first]
                == _eccentricities(nbrs, range(len(tiles))))


def test_inversion_check_catches_a_missing_edge():
    t = get_tilings("path3")[2]
    # one dual-graph edge is every instance of one pair of tiles
    pair = next(t.edges())[:2]
    kept = array("q", [key for key, edge in zip(t.instances, t.edges())
                       if edge[:2] != pair])
    cut = Tiling(t.ball, t.level, t.ideal_count, kept)
    with pytest.raises(InvariantViolation,
                       match=r"inversion of [azb] does not map the neighbours "
                             r"of tile t2\|") as exc:
        _level_diameter(cut)
    assert exc.value.level == 2
    assert exc.value.element in {cut.name(i) for i in cut.nonideal()}
