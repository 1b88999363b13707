"""Acceptance suite: one test per criterion, each printing a PASS line with
the checked values.  Every check is exact: integer equality, or an exact
verdict read off integers."""

import json
import random
import time
from collections import Counter

import pytest

from subdivlab import words
from subdivlab.balls import CapExceeded, build_ball
from subdivlab.cubes import lift_basepoints, prune_history, salvetti_spec
from subdivlab.graphs import DefiningGraph
from subdivlab.invariants import (classify_counts, divergence_diameter, ends,
                                  growth, mesh_certificate)
from subdivlab.oracles import (f2xz_sphere_sizes, free_sphere_sizes,
                               lattice_sphere_sizes)
from subdivlab.tiling import (build_history, build_tilings,
                              descriptor_crosscheck, extract_rule)
from subdivlab.words import parse_word, state_of_word
from conftest import (all_graphs_up_to_iso, edge_plus_vertex, free3,
                      get_ball, get_rule, get_tilings, graph_from_edges,
                      path3, single, triangle)

from subdivlab.cubes import CubeComplexSpec, Edge


def ok(n, msg):
    print("PASS: criterion %d - %s" % (n, msg))


def test_criterion_1_tile_type_counts():
    expectations = [
        ("triangle", triangle(), 3),
        ("free3", free3(), 1),
        ("path3", path3(), 3),
    ]
    for name, graph, want in expectations:
        t0 = time.monotonic()
        ball = build_ball(graph, 5)
        ts = build_tilings(ball, 3)
        rule = extract_rule(build_history(ts))
        elapsed = time.monotonic() - t0
        coalesced = rule.coalesced_names()
        assert len(coalesced) == want, name
        # level-0 shape classes for the path graph
        if name == "path3":
            shapes = {ts[0].shape(i) for i in ts[0].nonideal()}
            assert len(shapes) == 3
        assert elapsed < 10.0, "%s took %.1fs" % (name, elapsed)
    ok(1, "coalesced tile types: triangle=3, free3=1, path3=3 shape classes"
          " (each under 10 s)")


def test_criterion_2_subdivision_replay():
    rule = get_rule("triangle")
    assert rule.coalesced_children == {
        "A": {"A": 1}, "B": {"A": 2, "B": 1}, "C": {"A": 3, "B": 3, "C": 1}}
    ts = get_tilings("triangle")
    counts = Counter(rule.coalesced_of[rule.type_of[0][i]]
                     for i in ts[0].nonideal())
    assert dict(counts) == {"A": 6, "B": 12, "C": 8}
    cur = dict(counts)
    totals = [sum(cur.values())]
    for _ in range(3):
        nxt = Counter()
        for name, k in cur.items():
            for ch, m in rule.coalesced_children[name].items():
                nxt[ch] += k * m
        cur = nxt
        totals.append(sum(cur.values()))
    assert totals == [26, 98, 218, 386]

    frule = get_rule("free3")
    assert frule.coalesced_children == {"A": {"A": 5}}
    ftotals = [6]
    for _ in range(3):
        ftotals.append(ftotals[-1] * 5)
    assert ftotals == [6, 30, 150, 750]
    assert [len(t.nonideal()) for t in get_tilings("free3")] == ftotals
    ok(2, "replay 26->98->218->386 (A->A, B->2A+B, C->3A+3B+C) and"
          " 6->30->150->750 (A->5A), exact")


def test_criterion_3_tile_count_equals_sphere(class_tilings):
    for name in ("triangle", "path3", "free3", "edge_plus_vertex"):
        ball = get_ball(name)
        tilings = get_tilings(name, 5)   # levels 0..4
        for t in tilings:
            assert len(t.nonideal()) == len(ball.levels[t.level + 1]), \
                (name, t.level)
    # the theorem behind the count: an element's tile holds all of its
    # convex cells, so its visible region is one component
    tiles = 0
    for d in (1, 2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            for t in class_tilings(d, edges, 3):
                for i in t.nonideal():
                    convex = t.ball.local(t.owner_of(i)).convex
                    assert set(t.cells(i)) == set(convex), (d, edges, t.name(i))
                    tiles += 1
    ok(3, "non-ideal tile count at level n equals sphere size at n+1,"
          " n <= 4, four graphs, exact; each of %d tiles holds all its"
          " owner's convex cells, 18 graphs with d <= 4, 3 levels" % tiles)


def test_criterion_4_oracle_equivalence():
    # lattice oracle for complete graphs, d <= 3
    for d in (1, 2, 3):
        names = [chr(ord("a") + i) for i in range(d)]
        g = DefiningGraph(names, [[a, b] for i, a in enumerate(names)
                                  for b in names[i + 1:]])
        assert build_ball(g, 4).sphere_sizes() == lattice_sphere_sizes(d, 4)
    # reduced-word oracle for free groups, k <= 3
    for k in (1, 2, 3):
        names = [chr(ord("a") + i) for i in range(k)]
        g = DefiningGraph(names, [])
        assert build_ball(g, 4).sphere_sizes() == free_sphere_sizes(k, 4)
    # coordinate-pair oracle for the path graph; values frozen from the
    # oracle itself
    oracle = f2xz_sphere_sizes(4)
    assert oracle == [1, 14, 70, 286, 1078]
    assert get_ball("path3").sphere_sizes()[:5] == oracle
    ok(4, "builder levels match the lattice, reduced-word and"
          " coordinate-pair oracles exactly, n <= 4"
          " (path oracle: 1, 14, 70, 286, 1078)")


def test_criterion_5_growth_dichotomy(class_tilings):
    g = growth(get_tilings("triangle"), get_rule("triangle"))
    assert g.classification() == ("polynomial", 2)
    g = growth(get_tilings("free3"), get_rule("free3"))
    assert g.classification() == ("exponential", 5)
    g = growth(get_tilings("edge_plus_vertex"), get_rule("edge_plus_vertex"))
    assert g.kind == "exponential"

    rng = random.Random(20260811)
    sample = []
    for d in (2, 3):
        sample.extend((d, e) for e in all_graphs_up_to_iso(d))
    d4 = all_graphs_up_to_iso(4)
    sample.append((4, []))                      # free
    sample.append((4, d4[-1]))                  # complete
    sample.extend((4, rng.choice(d4)) for _ in range(3))
    ran, skipped = 0, 0
    for d, edges in sample:
        graph = graph_from_edges(d, edges)
        try:
            ball = build_ball(graph, 6, cap=200000)
        except CapExceeded:
            skipped += 1
            continue
        kind, value = classify_counts(ball.sphere_sizes()[1:])
        assert kind in ("polynomial", "exponential"), (edges, kind)
        ran += 1
    assert ran >= 8

    # the growth theorem on every class with d <= 4, from a stable rule:
    # polynomial exactly for the complete graphs, of degree d - 1; three
    # levels do not yet fix the degree of K3 and K4
    classes = 0
    for d in (1, 2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            tilings = class_tilings(d, edges, 3)
            rule = extract_rule(build_history(tilings))
            assert rule.stable, (d, edges)
            g = growth(tilings, rule)
            complete = graph_from_edges(d, edges).is_complete()
            assert (g.kind == "polynomial") == complete, (d, edges, g.kind)
            if complete:
                assert g.degree == (None if d >= 3 else d - 1), (d, g.degree)
            classes += 1
    assert classes == 18
    ok(5, "dichotomy: triangle polynomial(2), free3 exponential(5),"
          " edge+vertex exponential; %d randomized graphs (d <= 4, N = 6)"
          " classified with no third class (%d over cap, skipped);"
          " polynomial exactly for the complete graphs on %d classes"
          " (d <= 4, 3 levels, stable rules)" % (ran, skipped, classes))


def test_criterion_6_ends(class_tilings):
    assert ends(get_tilings("triangle")).verdict == 1
    assert ends(get_tilings("path3")).verdict == 1
    assert ends(get_tilings("single")).verdict == 2
    assert ends(get_tilings("free3")).verdict == "unbounded"
    assert ends(get_tilings("edge_plus_vertex")).verdict == "unbounded"

    checked = 0
    for d in (1, 2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            graph = graph_from_edges(d, edges)
            verdict = ends(class_tilings(d, edges, 3), window=3).verdict
            disconnected = _is_disconnected(graph)
            assert (verdict == "unbounded") == disconnected, (d, edges, verdict)
            if not disconnected:
                assert verdict == (2 if d == 1 else 1), (d, edges, verdict)
            checked += 1
    assert checked == 18
    ok(6, "ends verdicts 1/1/2/unbounded/unbounded; unbounded iff the"
          " defining graph is disconnected on %d graphs with d <= 4, 3 levels"
          % checked)


def _connected(adj):
    """Whether the graph with these neighbour bitmasks is connected."""
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(adj)):
            if (adj[i] >> j) & 1 and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(adj)


def _is_disconnected(graph):
    return not _connected(graph.adj)


def _is_join(graph):
    """The generators split into two nonempty sets that commute with each
    other: the complement graph is disconnected."""
    full = (1 << graph.d) - 1
    return not _connected([full & ~a & ~(1 << i)
                           for i, a in enumerate(graph.adj)])


def test_criterion_7_mesh(class_tilings):
    denied_with_orbit = 0
    granted = 0
    for d in (2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            rule = extract_rule(build_history(class_tilings(d, edges, 3)))
            assert rule.stable, edges
            m = mesh_certificate(rule)
            if edges:
                assert not m.certified, (d, edges)
                assert m.orbit, (d, edges)
                denied_with_orbit += 1
            else:
                assert m.certified, (d, edges)
                granted += 1
    # the one-generator group: its two tiles never subdivide
    m1 = mesh_certificate(get_rule("single"))
    assert not m1.certified
    ok(7, "mesh certificate granted for the %d edgeless graphs (d >= 2) and"
          " denied with an explicit persistent orbit for all %d graphs"
          " containing an edge (d <= 4); single-generator case denied"
          % (granted, denied_with_orbit))


def test_criterion_8_divergence(class_tilings):
    d3 = divergence_diameter(get_tilings("triangle", 5))
    assert all(x != "inf" for x in d3.diameters)
    assert (d3.verdict, d3.degree) == ("linear", 1)

    dp = divergence_diameter(get_tilings("path3"))
    assert all(x != "inf" for x in dp.diameters)
    assert (dp.verdict, dp.degree) == ("linear", 1)

    # P4 is no join: its diameters grow quadratically (see the join-theorem
    # test), which 3 levels cannot yet tell
    p4 = divergence_diameter(class_tilings(4, [(0, 1), (1, 2), (2, 3)], 3))
    assert (p4.verdict, p4.degree) == ("undetermined", None)

    df = divergence_diameter(get_tilings("free3"))
    assert all(x == "inf" for x in df.diameters[1:])

    # witnesses re-checkable from the tilings
    for name, rep in (("triangle", d3), ("path3", dp)):
        tilings = get_tilings(name, len(rep.diameters))
        for lvl, wit in enumerate(rep.witnesses):
            src, dst, path = wit
            assert len(path) - 1 == rep.diameters[lvl]
            t = tilings[lvl]
            index = {t.name(i): i for i in t.nonideal()}
            for a, b in zip(path, path[1:]):
                assert index[b] in t.neighbors(index[a])
    ok(8, "triangle diameters %s and path diameters %s of degree exactly 1"
          " with verified witness paths; P4 %s undetermined;"
          " free3 infinite at every level >= 1"
          % (d3.diameters, dp.diameters, p4.diameters))


def test_criterion_8_join_theorem(class_tilings):
    # Behrstock-Charney: for a connected defining graph, divergence is linear
    # if the graph is a join and quadratic otherwise
    diameters = {}
    for d in (2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            graph = graph_from_edges(d, edges)
            if _is_disconnected(graph):
                continue
            rep = divergence_diameter(class_tilings(d, edges, 4))
            want = ("linear", 1) if _is_join(graph) else ("quadratic", 2)
            assert (rep.verdict, rep.degree) == want, (d, edges, rep.diameters)
            diameters[str(edges)] = (rep.verdict, rep.diameters)
    # the 9 connected classes on 2-4 generators: 8 joins and P4
    verdicts = sorted(v for v, _ in diameters.values())
    assert verdicts == ["linear"] * 8 + ["quadratic"]
    ok(8, "divergence linear (degree 1) on the 8 connected joins and"
          " quadratic (degree 2) on P4, d <= 4, 4 levels: %s" % diameters)


def test_criterion_9_special_pruning():
    sq = DefiningGraph(["a", "b"], [["a", "b"]])
    ball = get_ball("square")
    ts = get_tilings("square")
    rule = get_rule("square")

    loop_a = CubeComplexSpec(sq, ["v"], [Edge("e_a", "v", "v", 0, 1)], [])
    lifts = lift_basepoints(loop_a, sq, ball, ball.N)
    # raises on any violation
    pr = prune_history(build_history(ts), lifts, ball, rule)
    assert pr.tile_counts == [2, 2, 2, 2]
    assert ends(pr.tilings).verdict == 2

    full = lift_basepoints(salvetti_spec(sq), sq, ball, ball.N)
    pr_full = prune_history(build_history(ts), full, ball, rule)
    assert pr_full.tile_counts == [len(t.nonideal()) for t in ts]
    assert all(k == v for k, v in pr_full.containment["mapping"].items())

    p = path3()
    pball = get_ball("path3")
    pts = get_tilings("path3")
    prule = get_rule("path3")
    ind = lift_basepoints(salvetti_spec(p, ["a", "z"]), p, pball, pball.N)
    pr_ind = prune_history(build_history(pts), ind, pball, prule)
    standalone = [len(t.nonideal()) for t in ts]
    assert pr_ind.tile_counts == standalone
    assert growth(pr_ind.tilings, pr_ind.rule).counts == \
        growth(ts, rule).counts
    ok(9, "loop-a pruning: growth [2,2,2,2], ends 2; full complex is the"
          " identity; induced subgraph matches the standalone subgroup"
          " level-by-level; star convexity holds with zero violations")


def test_criterion_10_discrepancies_reported():
    # descriptor cross-check: zero mismatches for the stable types
    assert descriptor_crosscheck(get_rule("triangle"),
                                 build_history(get_tilings("triangle"))) == []
    assert descriptor_crosscheck(get_rule("free3"),
                                 build_history(get_tilings("free3"))) == []

    # predecessor-level mismatches exist for the path graph and include the
    # a z^2 b class
    ball = get_ball("path3")
    mismatches = ball.predecessor_mismatches
    examples = ball.predecessor_mismatch_examples
    assert mismatches > 0
    assert len(examples) > 0
    g = path3()
    state = state_of_word(g, parse_word(g, "a z^2 b"))
    nf = words.syllables_of_state(g, state)
    lvl = ball.level(state)
    assert lvl is not None
    pred_lvl = ball.level(state_of_word(g, words.predecessor_word(nf)))
    assert pred_lvl == lvl  # not one lower: the recorded discrepancy class

    # the counters and the octagon split table are surfaced in the report
    rule = get_rule("path3")
    octagon_keys = [k for k in rule.split_report if "clique=z " in k]
    assert octagon_keys, rule.split_report
    octagon_split = rule.split_report[octagon_keys[0]]
    import json as _json
    import subprocess, sys, tempfile, os
    from subdivlab.cli import main as cli_main
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "path.json")
        with open(inp, "w") as f:
            _json.dump({"generators": ["a", "z", "b"],
                        "edges": [["a", "z"], ["b", "z"]]}, f)
        out = os.path.join(tmp, "out")
        assert cli_main(["run", inp, "--levels", "3", "--out", out]) == 0
        report = _json.load(open(os.path.join(out, "report.json")))
    counters = report["meta"]["counters"]
    assert counters["predecessor_level_mismatches"] > 0
    assert counters["predecessor_mismatch_examples"]
    assert counters["descriptor_mismatches"] == 0
    assert counters["covering_multiplicity_gt1"] == 0
    assert "split_report" in report["rule"]
    ok(10, "cross-check clean for triangle/free3; path predecessor"
           " mismatches reported (count %d, includes the a z^2 b class);"
           " octagon class split table surfaced (refined count %d)"
           % (counters["predecessor_level_mismatches"], octagon_split))
