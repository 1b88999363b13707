"""The tiling JSON, DOT and SVG exports, written from per-level text pieces,
are byte for byte the reference exports in `conftest` (whole texts built
from sorted (name, label) lists and sets of name pairs), and the tiling JSON
is what `json.dumps(..., sort_keys=True, indent=2)` writes for the whole
level."""

import gc
import tracemalloc
from array import array

from subdivlab import DefiningGraph, build_ball
from subdivlab.cubes import lift_basepoints, prune_history, salvetti_spec
from subdivlab.exports import (LevelLabels, history_to_dot, tiling_to_dot,
                               tiling_to_json, tiling_to_svg)
from subdivlab.tiling import Tiling, build_history, build_tilings, extract_rule
from conftest import (all_graphs_up_to_iso, export_text, get_ball,
                      get_tilings, history_dot_reference, path3,
                      tiling_dot_reference, tiling_json_reference,
                      tiling_svg_reference)


def check_exports(history, rule):
    """Every export of every level of `history`, with one `LevelLabels`
    per level shared as a run shares it, equals the reference."""
    labels = []
    for t in history.tilings:
        level = LevelLabels(t)
        assert (export_text(tiling_to_json, t, rule, labels=level)
                == tiling_json_reference(t, rule)), t.level
        for seed in (0, 1):
            assert (export_text(tiling_to_svg, t, rule, seed=seed,
                                labels=level)
                    == tiling_svg_reference(t, rule, seed=seed)), t.level
        assert (export_text(tiling_to_dot, t, rule, labels=level)
                == tiling_dot_reference(t, rule)), t.level
        level.keep_for_history()
        labels.append(level)
    reference = history_dot_reference(history)
    assert export_text(history_to_dot, history, labels=labels) == reference
    assert export_text(history_to_dot, history) == reference


def test_exports_match_reference_on_every_small_graph(class_tilings):
    for d in range(1, 5):
        for edges in all_graphs_up_to_iso(d):
            history = build_history(class_tilings(d, edges, 3))
            check_exports(history, extract_rule(history))


def test_exports_match_reference_on_restricted_tilings():
    # path3 lifted to the subgroup on {a, z}, as special mode prunes it: the
    # tiles over unlifted elements are flagged ideal and keep their edges
    graph, ball = path3(), get_ball("path3")
    history = build_history(get_tilings("path3", 4))
    lifts = lift_basepoints(salvetti_spec(graph, ["a", "z"]), graph, ball, 4)
    pruned = prune_history(history, lifts, ball)
    assert any(any(t.ideal) for t in pruned.tilings)
    check_exports(pruned.history, pruned.rule)
    # every other element dropped: an ideal tile also comes before a
    # non-ideal neighbour by index, which the subgroup's pruning never gives
    halved = build_history([t.restricted(bytearray(
        i % 2 for i in range(ball.starts[-1]))) for t in history.tilings])
    assert any(t.ideal[i] and not t.ideal[j]
               for t in halved.tilings for i, j, _ in t.edges())
    check_exports(halved, None)


def test_pair_with_two_labels_is_one_edge():
    # no small graph joins two tiles by edges of two labels, but a pair's
    # entries must still give one DOT and SVG edge, styled by its first label
    ts = get_tilings("triangle", 3)
    t = ts[1]
    a, b, code = next(t.edges())
    n, other = len(t.ideal), 0 if code else 1
    doubled = Tiling(t.ball, t.level, t.ideal_count,
                     array("q", list(t.instances) + [(a * n + b) * 4 + other]))
    assert len(doubled.rows[1]) == len(t.rows[1]) + 2
    check_exports(build_history([ts[0], doubled]), None)


def test_exports_match_reference_without_rule_and_without_tiles():
    check_exports(build_history(get_tilings("path3", 3)), None)
    empty = Tiling(get_tilings("triangle", 3)[0].ball, 0, 0, array("q"),
                   bytearray())
    assert (export_text(tiling_to_json, empty)
            == '{\n  "level": 0,\n  "tiles": []\n}')
    assert export_text(tiling_to_dot, empty) == tiling_dot_reference(empty)
    assert export_text(tiling_to_svg, empty) == tiling_svg_reference(empty)


def test_exports_match_reference_on_escaped_generators():
    # names that JSON escapes (non-ASCII, a backslash) and that DOT and SVG
    # print as they are
    graph = DefiningGraph(["α", "b\\", "c<&"], [["α", "b\\"]])
    history = build_history(build_tilings(build_ball(graph, 3), 3))
    check_exports(history, extract_rule(history))
    text = export_text(tiling_to_json, history.tilings[1])
    assert "\\u03b1" in text and "b\\\\" in text and "α" not in text


def test_history_dot_orders_parents_by_name_past_ten_levels():
    # "t10|..." sorts before "t1|...": the levels' name prefixes order the
    # parents, not the level numbers
    history = build_history(build_tilings(build_ball(
        DefiningGraph(["a"], []), 12), 12))
    assert (export_text(history_to_dot, history)
            == history_dot_reference(history))


def test_dot_and_svg_hold_no_whole_text(tmp_path):
    # written line by line: with the level's labels formed, the DOT export
    # holds about 4 B per tile and the SVG about 190 B (each tile's
    # coordinates and its place on the circle), where each held its whole
    # text, its lines and a set of name pairs (about 600 B per tile here)
    t = build_tilings(build_ball(DefiningGraph(
        ["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]]), 4), 4)[3]
    labels = LevelLabels(t)
    for attr in ("rows", "ideal", "parents"):
        getattr(labels, attr)
    for export, budget in ((tiling_to_dot, 16), (tiling_to_svg, 256)):
        gc.collect()
        tracemalloc.start()
        try:
            with open(tmp_path / export.__name__, "w") as f:
                export(t, f, labels=labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget * len(t.tiles), (export.__name__, peak)
