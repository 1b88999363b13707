import tracemalloc
from collections import Counter

import pytest

from subdivlab.balls import build_ball
from subdivlab.exports import tiling_to_json
from subdivlab.graphs import DefiningGraph, support
from subdivlab.tiling import (HistoryGraph, build_history, build_tiling,
                              build_tilings, descriptor_crosscheck,
                              extract_rule, inflation_descriptor)
from subdivlab.words import nf_key
from conftest import (free3, get_ball, get_rule, get_tilings, path3,
                      triangle)


def test_tile_counts_triangle():
    ts = get_tilings("triangle")
    assert [len(t.nonideal()) for t in ts] == [26, 98, 218, 386]
    assert Counter(len(t.covered_clique) for t in ts[0].nonideal()) == \
        {1: 6, 2: 12, 3: 8}
    assert all(len(t.ideal_tiles()) == 0 for t in ts)


def test_tile_counts_path3():
    ts = get_tilings("path3")
    assert [len(t.nonideal()) for t in ts] == [14, 70, 286, 1078]
    shapes = Counter(t.shape()[0] for t in ts[0].nonideal())
    assert shapes == {(1,): 2, (1, 1, 1): 4, (1, 1, 1, 1, 2, 2, 2): 8}


def test_tile_counts_free3():
    ts = get_tilings("free3", 3)
    assert [len(t.nonideal()) for t in ts] == [6, 30, 150]
    rule = get_rule("free3", 3)
    assert len({rule.coalesced_of[rule.type_of[t.id]]
                for t in ts[1].nonideal()}) == 1


def test_count_identity_matches_sphere():
    for name in ("triangle", "path3", "free3", "edge_plus_vertex"):
        ball = get_ball(name)
        ts = get_tilings(name)
        for t in ts:
            assert len(t.nonideal()) == len(ball.levels[t.level + 1])


def test_ideal_tiles_persist():
    ts = get_tilings("free3", 3)
    ids0 = {t.id for t in ts[0].ideal_tiles()}
    ids1 = {t.id for t in ts[1].ideal_tiles()}
    assert ids0 <= ids1
    # a persisting ideal tile is its own parent
    for t in ts[1].ideal_tiles():
        if t.id in ids0:
            assert t.parent_id == t.id


def test_parent_partition():
    ts = get_tilings("triangle")
    for lvl in range(1, len(ts)):
        parents = {t.id for t in ts[lvl - 1].nonideal()}
        for tile in ts[lvl].nonideal():
            assert tile.parent_id in parents
    # children of distinct tiles are disjoint by construction (unique parent)


def test_adjacency_symmetric_and_local():
    for name in ("triangle", "path3"):
        ball = get_ball(name)
        ts = get_tilings(name)
        t = ts[1]
        for tile in t.nonideal():
            for other, label in t.neighbors(tile.id):
                assert (tile.id, label) in t.adjacency[other]
                # owners differ by one diagonal move
                g = t.by_id[tile.id].owner
                h = t.by_id[other].owner
                if t.by_id[other].ideal:
                    continue
                assert any(ball.apply(g, m) == h for m in ball.moves)


def test_adjacency_labels():
    ts = get_tilings("triangle")
    labels = {lab for inst in ts[1].instances for lab in [inst.label]}
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
    assert [tiling_to_json(t) for t in shallow] == \
        [tiling_to_json(t) for t in deep]


@pytest.mark.parametrize("name", ["triangle", "path3", "free3",
                                  "edge_plus_vertex", "square"])
def test_build_tiling_alone_matches_chained(name):
    # parent ids come from the ball, not from the tiling one level up
    ball = get_ball(name)
    for n, chained in enumerate(get_tilings(name)):
        assert tiling_to_json(build_tiling(ball, n)) == tiling_to_json(chained)


@pytest.mark.parametrize("name", ["path3", "free3", "edge_plus_vertex"])
def test_ideal_tile_parents(name):
    ball = get_ball(name)
    ts = get_tilings(name)
    assert all(t.parent_id is None for t in ts[0].tiles)
    for n in range(1, len(ts)):
        prev = ts[n - 1]
        attached = {(t.owner, f): t.id for t in prev.nonideal()
                    for f in t.attached_ideal}
        holding = {(t.owner, c): t.id for t in prev.nonideal() for c in t.cells}
        for tile in ts[n].ideal_tiles():
            g, f = tile.owner, tile.ideal_facet
            if tile.id in prev.by_id and prev.by_id[tile.id].ideal:
                expected = tile.id
            elif (g, f) in attached:
                expected = attached[g, f]
            else:   # born with its owner: inside the owner's parent tile
                expected = holding[ball.pred[g], ball.pred_move[g]]
            assert tile.parent_id == expected, tile.id


def test_history_free3():
    ts = get_tilings("free3", 2)
    h = build_history(ts)
    assert len(h.vertices) == 6 + 30
    roots = h.children["origin"]
    assert len(roots) == 6
    for tid in roots:
        assert len(h.children[tid]) == 5
        assert h.horizontal_neighbors(tid) == []


def test_history_triangle():
    ts = get_tilings("triangle", 2)
    h = build_history(ts)
    assert len(h.vertices) == 26 + 98
    # sphere dual graphs are connected at both levels
    for lvl in (0, 1):
        tiles = [t.id for t in h.level_tiles(lvl)]
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
        for t in tiles:
            assert h.horizontal_neighbors(t.id) == []
            if lvl + 1 < len(ts):
                assert len(h.children[t.id]) == 1


def test_extract_rule_triangle():
    rule = get_rule("triangle")
    assert rule.stable
    assert len(rule.types) == 7            # one per clique, raw
    assert sorted(set(rule.coalesced_of.values())) == ["A", "B", "C"]
    assert rule.coalesced_children == {
        "A": {"A": 1}, "B": {"A": 2, "B": 1}, "C": {"A": 3, "B": 3, "C": 1}}
    ts = get_tilings("triangle")
    counts0 = Counter(rule.coalesced_of[rule.type_of[t.id]]
                      for t in ts[0].nonideal())
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
    owners = {t.owner for t in ts[1].nonideal()[::2]}
    r = ts[1].restricted(owners)
    assert r.adjacency is ts[1].adjacency and r.instances is ts[1].instances
    assert [t.id for t in r.tiles] == [t.id for t in ts[1].tiles]
    assert {t.id for t in r.nonideal()} == \
        {t.id for t in ts[1].nonideal() if t.owner in owners}
    # the base tiling keeps its own flags
    assert all(not t.ideal for t in ts[1].tiles if t.covered_move is not None)
    # a restriction that flags no tile is the tiling itself
    assert ts[1].restricted({t.owner for t in ts[1].tiles}) is ts[1]


def test_tilings_share_ids_and_stay_compact():
    # path3 at depth 5, the tilings of the benchmark's path3-special run
    ball = build_ball(path3(), 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tilings = build_tilings(ball, 5)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    tiles = sum(len(t.tiles) for t in tilings)
    assert tiles == 13018
    # ~470 B per tile; per-side id strings, edge objects with their shared
    # cell and per-tile neighbour sets took ~920
    assert used <= 650 * tiles, used / tiles
    # one string object per distinct tile id, wherever the id is held
    history = build_history(tilings)
    ids = list(history.vertices) + list(history.tile_index)
    for parent, kids in history.children.items():
        ids += [parent] + kids
    for t in tilings:
        ids += [tile.id for tile in t.tiles]
        ids += [tile.parent_id for tile in t.tiles if tile.parent_id]
        for edge in t.instances:
            ids += edge[:2]
        for tid, pairs in t.adjacency.items():
            ids += [tid] + [o for o, _ in pairs]
    assert len({id(s) for s in ids}) == len(set(ids))


def test_extract_rule_reads_the_history_without_adding_children():
    h = build_history(get_tilings("path3", 3))
    keys = set(h.children)
    rule = extract_rule(h)
    descriptor_crosscheck(rule, h)
    assert set(h.children) == keys
    assert set(rule.type_of) == set(h.vertices)


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
