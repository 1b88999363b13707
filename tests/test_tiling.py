import gc
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from subdivlab import words
from subdivlab.balls import InvariantViolation, build_ball
from subdivlab.graphs import DefiningGraph, cell_str, support
from subdivlab.tiling import (LABELS, ROOT, _compute_adjacency, build_history,
                              build_tiling, build_tilings,
                              descriptor_crosscheck, extract_rule,
                              inflation_descriptor)
from conftest import (all_graphs_up_to_iso, free3, get_ball, get_rule,
                      get_tilings, json_text, path3, triangle)


def test_tile_counts_triangle():
    ts = get_tilings("triangle")
    assert [len(t.nonideal()) for t in ts] == [26, 98, 218, 386]
    assert Counter(len(ts[0].covered_clique(i)) for i in ts[0].nonideal()) == \
        {1: 6, 2: 12, 3: 8}
    assert all(list(t.ideal_tiles()) == [] for t in ts)
    assert all(len(t.tiles) == len(t.nonideal()) for t in ts)


def test_tile_counts_path3():
    ts = get_tilings("path3")
    assert [len(t.nonideal()) for t in ts] == [14, 70, 286, 1078]
    shapes = Counter(ts[0].shape(i)[0] for i in ts[0].nonideal())
    assert shapes == {(1,): 2, (1, 1, 1): 4, (1, 1, 1, 1, 2, 2, 2): 8}


def test_tile_counts_free3():
    ts = get_tilings("free3", 3)
    assert [len(t.nonideal()) for t in ts] == [6, 30, 150]
    rule = get_rule("free3", 3)
    assert len({rule.coalesced_of[rule.type_of[1][i]]
                for i in ts[1].nonideal()}) == 1


def test_count_identity_matches_sphere():
    for name in ("triangle", "path3", "free3", "edge_plus_vertex"):
        ball = get_ball(name)
        ts = get_tilings(name)
        for t in ts:
            assert len(t.nonideal()) == len(ball.levels[t.level + 1])


def test_ideal_tiles_persist():
    ts = get_tilings("free3", 3)
    ids0 = {name for name, _, _, _ in ts[0].ideal_tiles()}
    ids1 = {name for name, _, _, _ in ts[1].ideal_tiles()}
    assert ids0 <= ids1
    # a persisting ideal tile is its own parent
    for name, _, _, parent in ts[1].ideal_tiles():
        if name in ids0:
            assert parent == name
    # the count the level keeps is the number formed
    for t in ts:
        assert t.ideal_count == len(list(t.ideal_tiles()))
        assert len(t.tiles) == len(t.nonideal()) + t.ideal_count


def test_parent_partition():
    ts = get_tilings("triangle")
    for lvl in range(1, len(ts)):
        parents = {ts[lvl - 1].name(i) for i in ts[lvl - 1].nonideal()}
        names = ts[lvl].parent_names()
        for i in ts[lvl].nonideal():
            assert names[i] in parents
            # the parent index names the same tile
            assert ts[lvl - 1].name(ts[lvl].parent[i]) == names[i]
    # children of distinct tiles are disjoint by construction (unique parent)


def test_adjacency_symmetric_and_local():
    for name in ("triangle", "path3"):
        ball = get_ball(name)
        ts = get_tilings(name)
        t = ts[1]
        adjacency = t.adjacency(range(len(t.parent)))
        for i in t.nonideal():
            for other, label in adjacency[i]:
                assert (i, label) in adjacency[other]
                # owners differ by one diagonal move
                g = t.owner_of(i)
                h = t.owner_of(other)
                if t.ideal[other]:
                    continue
                assert any(ball.apply(g, m) == h for m in ball.moves)


def adjacency_both_sides(ball, n):
    """(tile1, tile2, label code) of each cell of codimension two or more
    lying in exactly two domains of B(n+1), read off each owner's in-ball
    pattern and visible cells, with the product formed from both sides of
    the cell: the reference for `_compute_adjacency`."""
    level, first = ball.levels[n + 1], ball.starts[n + 1]
    move = ball.pred_move[first:first + len(level)]
    seen, edges = set(), []
    for i, g in enumerate(level):
        pattern = ball.local(g).pattern
        for cell in ball.moves:
            inside = [c for r in range(1, len(cell) + 1)
                      for c in combinations(cell, r) if c in pattern]
            if len(cell) < 2 or len(inside) != 1:
                continue
            s0 = inside[0]
            j = ball.index[ball.apply(g, s0)] - first
            assert 0 <= j < len(level)
            mirror = tuple((k, -e) if (k, e) in s0 else (k, e)
                           for k, e in cell)
            if j < i:
                # the same cell, met first from the other side
                assert (j, mirror, i) in seen
                continue
            seen.add((i, cell, j))
            if all(any(tuple(p for p in c if p[0] != drop)
                       in ball.local(x).visible for drop, _ in s0)
                   for c, x in ((cell, g), (mirror, level[j]))):
                gap = abs(len(move[i]) - len(move[j]))
                edges.append((i, j, LABELS.index(
                    ("flat", "containment")[gap] if gap < 2 else "other")))
    return edges


def test_adjacency_matches_both_sides_reference(class_tilings):
    for d in (1, 2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            for t in class_tilings(d, edges, 3):
                assert list(t.edges()) == \
                    adjacency_both_sides(t.ball, t.level), (d, edges, t.level)


def test_one_product_per_shared_cell(class_tilings, monkeypatch):
    kernel = words.apply_letters
    for d in (1, 2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            ball = class_tilings(d, edges, 3)[0].ball
            for n in range(3):
                level = ball.levels[n + 1]
                # the in-ball patterns are formed and spot-checked already
                flats = sum(len(ball.local(g).flat) for g in level)
                calls = []
                monkeypatch.setattr(words, "apply_letters", lambda *args:
                                    calls.append(args) or kernel(*args))
                tiling = build_tiling(ball, n)
                monkeypatch.setattr(words, "apply_letters", kernel)
                # each shared cell is listed by both of its owners
                assert 2 * len(calls) == flats, (d, edges, n)
                assert len(tiling.instances) <= len(calls)


def test_adjacency_flat_record_faults_raise():
    ball = build_ball(triangle(), 3)
    n = 1
    level, first = ball.levels[n + 1], ball.starts[n + 1]
    # the first element with a flat cell meets all of its flat cells first
    i = next(i for i, g in enumerate(level) if ball.local(g).flat)
    name, move = ball.names[first + i], ball.pred_move[first + i]
    rec = ball._local[move]
    cell, _, mirror = rec.flat[0]
    back = tuple((k, -e) for k, e in move)   # the product is g's predecessor
    for flat, what in (
            (rec.flat[1:], "flat cell %s met from one side only"),
            (((cell, back, mirror),) + rec.flat[1:],
             "flat cell %s leaves the sphere")):
        ball._local[move] = replace(rec, flat=flat)
        with pytest.raises(InvariantViolation) as err:
            build_tiling(ball, n)
        assert err.value.element == name and err.value.level == n + 1
        assert what % cell_str(ball.graph, cell) in str(err.value)


def test_adjacency_labels():
    ts = get_tilings("triangle")
    labels = {LABELS[lab] for _, _, lab in ts[1].edges()}
    assert labels == {"flat", "containment"}


def test_build_tiling_requires_depth():
    # level n reads the ball up to level n + 1 and no further
    ball = get_ball("single")
    with pytest.raises(ValueError):
        build_tiling(ball, ball.N)
    assert build_tiling(ball, ball.N - 1).level == ball.N - 1


@pytest.mark.parametrize("name", ["triangle", "path3", "free3",
                                  "edge_plus_vertex", "square"])
def test_tilings_need_no_deeper_ball(name):
    # a ball exactly as deep as the tilings serialises identically to the
    # two-layers-deeper one the shared fixtures use
    deep = get_tilings(name)
    shallow = build_tilings(build_ball(get_ball(name).graph, len(deep)),
                            len(deep))
    assert [json_text(t) for t in shallow] == [json_text(t) for t in deep]


@pytest.mark.parametrize("name", ["triangle", "path3", "free3",
                                  "edge_plus_vertex", "square"])
def test_build_tiling_alone_matches_chained(name):
    # parent ids come from the ball, not from the tiling one level up
    ball = get_ball(name)
    for n, chained in enumerate(get_tilings(name)):
        assert json_text(build_tiling(ball, n)) == json_text(chained)


@pytest.mark.parametrize("name", ["path3", "free3", "edge_plus_vertex"])
def test_ideal_tile_parents(name):
    ball = get_ball(name)
    ts = get_tilings(name)
    assert ts[0].parent_names() == [None] * len(ts[0].nonideal())
    assert all(parent is None for _, _, _, parent in ts[0].ideal_tiles())
    for n in range(1, len(ts)):
        prev = ts[n - 1]
        prev_ideal = {name for name, _, _, _ in prev.ideal_tiles()}
        attached = {(prev.owner_of(i), f): prev.name(i) for i in prev.nonideal()
                    for f in ball.local(prev.owner_of(i)).region[1]}
        holding = {(prev.owner_of(i), c): prev.name(i) for i in prev.nonideal()
                   for c in prev.cells(i)}
        for tid, g, f, parent in ts[n].ideal_tiles():
            if tid in prev_ideal:
                expected = tid
            elif (g, f) in attached:
                expected = attached[g, f]
            else:   # born with its owner: inside the owner's parent tile
                i = ball.index[g]
                pred = ball.levels[n][ball.pred[i] - ball.starts[n]]
                expected = holding[pred, ball.pred_move[i]]
            assert parent == expected, tid


def test_history_free3():
    ts = get_tilings("free3", 2)
    h = build_history(ts)
    assert len(h.vertices) == 6 + 30
    roots = h.children(ROOT)
    assert len(roots) == 6 and h.name(ROOT) == "origin"
    for v in roots:
        assert len(h.children(v)) == 5
        assert h.horizontal_neighbors(v) == []


def test_history_triangle():
    ts = get_tilings("triangle", 2)
    h = build_history(ts)
    assert len(h.vertices) == 26 + 98
    # sphere dual graphs are connected at both levels
    for lvl in (0, 1):
        tiles = h.level_tiles(lvl)
        seen = {tiles[0]}
        frontier = [tiles[0]]
        while frontier:
            cur = frontier.pop()
            for o in h.horizontal_neighbors(cur):
                if o not in seen:
                    seen.add(o)
                    frontier.append(o)
        assert len(seen) == len(tiles)


def test_history_single_generator_is_two_rays():
    ts = get_tilings("single")
    h = build_history(ts)
    for lvl in range(len(ts)):
        tiles = h.level_tiles(lvl)
        assert len(tiles) == 2
        for v in tiles:
            assert h.horizontal_neighbors(v) == []
            if lvl + 1 < len(ts):
                assert len(h.children(v)) == 1


def test_extract_rule_triangle():
    rule = get_rule("triangle")
    assert rule.stable
    assert len(rule.types) == 7            # one per clique, raw
    assert sorted(set(rule.coalesced_of.values())) == ["A", "B", "C"]
    assert rule.coalesced_children == {
        "A": {"A": 1}, "B": {"A": 2, "B": 1}, "C": {"A": 3, "B": 3, "C": 1}}
    ts = get_tilings("triangle")
    counts0 = Counter(rule.coalesced_of[rule.type_of[0][i]]
                      for i in ts[0].nonideal())
    # replay through the coalesced multisets reproduces the exact counts
    cur = dict(counts0)
    totals = [sum(cur.values())]
    for _ in range(3):
        nxt = Counter()
        for name, k in cur.items():
            for ch, m in rule.coalesced_children[name].items():
                nxt[ch] += k * m
        cur = nxt
        totals.append(sum(cur.values()))
    assert totals == [26, 98, 218, 386]


def test_restricted_reflags_tiles_and_shares_adjacency():
    ts = get_tilings("path3", 3)
    ball = ts[1].ball
    owners = {ts[1].owner_of(i) for i in ts[1].nonideal()[::2]}

    def flags(owners):
        # one byte per ball element, set for the given owners
        return bytearray(g in owners for level in ball.levels for g in level)

    r = ts[1].restricted(flags(owners))
    assert r.rows is ts[1].rows and r.instances is ts[1].instances
    assert r.names() == ts[1].names() and len(r.tiles) == len(ts[1].tiles)
    assert set(r.nonideal()) == \
        {i for i in ts[1].nonideal() if ts[1].owner_of(i) in owners}
    # the base tiling keeps its own flags
    assert not any(ts[1].ideal)
    # a restriction that flags no tile is the tiling itself
    assert ts[1].restricted(flags({ts[1].owner_of(i)
                                   for i in ts[1].nonideal()})) is ts[1]


def test_tilings_stay_compact():
    # path3 at depth 5, the tilings of the benchmark's path3-special run
    ball = build_ball(path3(), 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tilings = build_tilings(ball, 5)
        gc.collect()   # empties the free lists, which tracemalloc counts
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    tiles = sum(len(t.tiles) for t in tilings)
    assert tiles == 13018
    # ~21 B per tile: index arrays, with names and ideal tiles formed on
    # demand
    assert used <= 100 * tiles, used / tiles


@pytest.mark.parametrize("name,levels,tiles,instances,nonideal", [
    ("c4", 3, 5328, 12480, 2808),
    ("k4", 3, 2400, 13536, 2400),
    ("path3", 5, 13018, 14560, 5334),
    ("triangle", 5, 1330, 3360, 1330),
])
def test_tracer_reads_the_workload_counts(name, levels, tiles, instances,
                                          nonideal):
    # the benchmark's tracer reads len(t.tiles), len(t.instances) and
    # len(t.nonideal()) off build_tilings' result, summed over the levels of
    # the workloads c4-sparse, k4-clique, path3-special and tri-export
    ts = get_tilings(name, levels)
    assert sum(len(t.tiles) for t in ts) == tiles
    assert sum(len(t.instances) for t in ts) == instances
    assert sum(len(t.nonideal()) for t in ts) == nonideal


def test_extract_rule_reads_the_history_without_adding_children():
    h = build_history(get_tilings("path3", 3))
    kids = [list(h.children(v)) for v in [ROOT, *h.vertices]]
    rule = extract_rule(h)
    descriptor_crosscheck(rule, h)
    assert [list(h.children(v)) for v in [ROOT, *h.vertices]] == kids
    # every vertex is typed, and no other tile
    typed = [h.offsets[n] + i for n, types in enumerate(rule.type_of)
             for i, name in enumerate(types) if name is not None]
    assert typed == list(h.vertices)


def test_extract_rule_free3():
    rule = get_rule("free3")
    assert rule.stable
    assert rule.coalesced_children == {"A": {"A": 5}}


def test_extract_rule_path3():
    rule = get_rule("path3")
    assert rule.stable
    assert len(set(rule.coalesced_of.values())) == 3
    # the octagon class does not split under refinement: one refined type
    # per raw class
    assert all(v == 1 for v in rule.split_report.values())
    assert len(rule.types) == 5


def test_requires_three_levels():
    ts = get_tilings("triangle", 2)
    with pytest.raises(ValueError):
        extract_rule(build_history(ts))


def test_descriptor_triangle():
    tri = triangle()
    a, b, c = 0, 1, 2
    d = inflation_descriptor(tri, ((a, 1),))
    assert len(d.children) == 1 and d.children[0] == ((a, -1),)
    assert len(d.collapsed) == 8
    d3 = inflation_descriptor(tri, ((a, 1), (b, 1), (c, 1)))
    assert len(d3.children) == 7 and len(d3.collapsed) == 0
    sizes = Counter(len(w) for w in d3.children)
    assert sizes == {1: 3, 2: 3, 3: 1}


def test_descriptor_free3():
    f = free3()
    d = inflation_descriptor(f, ((0, 1),))
    assert len(d.children) == 5
    assert len(d.collapsed) == 0   # ideal ridges suppress same-round collapse


def test_descriptor_path3():
    p = path3()
    a, z, b = 0, 1, 2
    assert len(inflation_descriptor(p, ((z, 1),)).children) == 1
    d = inflation_descriptor(p, ((a, 1), (z, 1))).children
    assert len(d) == 7
    assert Counter(tuple(support(w)) for w in d) == \
        {(a,): 1, (z,): 1, (b,): 2, (a, z): 1, (z, b): 2}


def test_descriptor_rejects_ideal():
    with pytest.raises(ValueError):
        inflation_descriptor(path3(), ((0, 1), (2, 1)))


def test_descriptor_crosscheck_clean():
    for name in ("triangle", "path3", "free3", "edge_plus_vertex"):
        rule = get_rule(name)
        ts = get_tilings(name)
        assert descriptor_crosscheck(rule, build_history(ts)) == []
