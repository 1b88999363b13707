import json
import math
import os
import re
import tempfile
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from subdivlab import exports, oracles
from subdivlab.cli import RunConfig, main, make_parser
from subdivlab.exports import SVG_SIZE, LevelLabels, tiling_to_svg
from subdivlab.tiling import Tiling
from conftest import get_rule, get_tilings, json_text


TRIANGLE = {"generators": ["a", "b", "c"],
            "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}
FREE3 = {"generators": ["a", "b", "c"], "edges": []}
LOOP_A = {"defining_graph": {"generators": ["a", "b"], "edges": [["a", "b"]]},
          "vertices": ["v"],
          "edges": [{"id": "e_a", "from": "v", "to": "v", "label": "a"}],
          "squares": []}


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_run_triangle(tmp_path):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    out = str(tmp_path / "out")
    assert main(["run", inp, "--levels", "3", "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["growth"]["counts"] == [26, 98, 218]
    assert report["ends"]["verdict"] == 1
    assert report["mesh"]["certified"] is False
    assert report["divergence"]["verdict"] == "linear"
    assert report["divergence"]["degree"] == 1
    assert report["meta"]["counters"]["descriptor_mismatches"] == 0


def test_run_free3(tmp_path):
    inp = write(tmp_path, "free3.json", FREE3)
    out = str(tmp_path / "out")
    assert main(["run", inp, "--levels", "3", "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["growth"]["counts"] == [6, 30, 150]
    assert report["ends"]["verdict"] == "unbounded"
    assert report["mesh"]["certified"] is True


def test_run_special_loop_a(tmp_path):
    inp = write(tmp_path, "loop_a.json", LOOP_A)
    out = str(tmp_path / "out")
    assert main(["run", inp, "--mode", "special", "--levels", "3",
                 "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    sp = report["special"]
    assert sp["tile_counts"] == [2, 2, 2]
    assert sp["ends"]["verdict"] == 2
    assert sp["star_convex"] is True


def test_run_special_below_three_levels(tmp_path):
    inp = write(tmp_path, "loop_a.json", LOOP_A)
    out = str(tmp_path / "out")
    assert main(["run", inp, "--mode", "special", "--levels", "2",
                 "--out", out]) == 0
    sp = json.loads((tmp_path / "out" / "report.json").read_text())["special"]
    assert sp["tile_counts"] == [2, 2]
    assert "rule_stable" not in sp and "ends" not in sp


# path3 with only the a and z loops and their square: kept tiles border
# dropped ones at every level
PATH3_AZ = {"defining_graph": {"generators": ["a", "z", "b"],
                               "edges": [["a", "z"], ["b", "z"]]},
            "vertices": ["v"],
            "edges": [{"id": "e_a", "from": "v", "to": "v", "label": "a"},
                      {"id": "e_z", "from": "v", "to": "v", "label": "z"}],
            "squares": [[["e_a", 1], ["e_z", 1], ["e_a", -1], ["e_z", -1]]]}


@pytest.mark.parametrize("data,special", [
    (PATH3_AZ, {
        "star_convex": True, "tile_counts": [8, 16, 24, 32, 40],
        "containment": {"children_consistent": True, "injective": True,
                        "mapping": {"T0": "T0", "T1": "T1", "T2": "T4"}},
        "cone_types": {"classes_per_level": {"-1": 1, "0": 2, "1": 2,
                                             "2": 2, "3": 2},
                       "depth": 1, "stabilized": True, "total_classes": 3},
        "rule_stable": True,
        "growth": {"classification": ["polynomial", 1],
                   "counts": [8, 16, 24, 32, 40]},
        "ends": {"counts": [1, 1, 1, 1, 1], "verdict": 1}}),
    (LOOP_A, {
        "star_convex": True, "tile_counts": [2, 2, 2, 2, 2],
        "containment": {"children_consistent": True, "injective": True,
                        "mapping": {"T0": "T1"}},
        "cone_types": {"classes_per_level": {"-1": 1, "0": 1, "1": 1,
                                             "2": 1, "3": 1},
                       "depth": 1, "stabilized": True, "total_classes": 2},
        "rule_stable": True,
        "growth": {"classification": ["polynomial", 0],
                   "counts": [2, 2, 2, 2, 2]},
        "ends": {"counts": [2, 2, 2, 2, 2], "verdict": 2}}),
], ids=["path3-az", "loop-a"])
def test_special_partial_lift_pinned(tmp_path, data, special):
    inp = write(tmp_path, "complex.json", data)
    assert main(["run", inp, "--mode", "special", "--levels", "5",
                 "--out", str(tmp_path / "o")]) == 0
    sp = json.loads((tmp_path / "o" / "report.json").read_text())["special"]
    del sp["lift_level_sizes"]
    assert sp == special


PATH3_FULL = dict(
    PATH3_AZ,
    edges=PATH3_AZ["edges"] + [{"id": "e_b", "from": "v", "to": "v",
                                "label": "b"}],
    squares=PATH3_AZ["squares"] + [[["e_b", 1], ["e_z", 1], ["e_b", -1],
                                    ["e_z", -1]]])


def test_special_full_lift_is_the_ambient_run(tmp_path):
    # the whole ball lifts to the full complex: its special section reads
    # the ambient cone types, growth and ends
    inp = write(tmp_path, "complex.json", PATH3_FULL)
    assert main(["run", inp, "--mode", "special", "--levels", "4",
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    sp = report["special"]
    assert sp["lift_level_sizes"] == report["sphere_sizes"]
    assert sp["tile_counts"] == report["growth"]["counts"] == [14, 70, 286, 1078]
    assert sp["cone_types"] == report["cone_types"]
    assert sp["growth"] == {k: report["growth"][k]
                            for k in ("counts", "classification")}
    assert sp["ends"] == {k: report["ends"][k] for k in ("counts", "verdict")}
    assert sp["rule_stable"] is report["rule"]["stable"] is True
    mapping = sp["containment"]["mapping"]
    assert mapping and all(k == v for k, v in mapping.items())


def test_run_parser_defaults_are_the_config_defaults():
    args = make_parser().parse_args(["run", "x"])
    config = RunConfig("x")
    assert (args.mode, args.levels, args.cap, args.out,
            tuple(args.export.split(",")), args.ends_window,
            args.strict_cubes, args.layout_seed, args.cone_depth) == \
        (config.mode, config.levels, config.cap, config.out_dir,
         config.exports, config.ends_window, config.strict_cubes,
         config.layout_seed, config.cone_depth)


def test_exit_code_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p), "--levels", "3", "--out", str(tmp_path / "o")]) == 2
    q = tmp_path / "bad2.json"
    q.write_text(json.dumps({"generators": ["a", "a"], "edges": []}))
    assert main(["run", str(q), "--levels", "3", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf-8", "deeply-nested"])
@pytest.mark.parametrize("command", ["run", "oracle"])
def test_unreadable_json_exits_2(tmp_path, capsys, content, command):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    extra = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(p), "--levels", "3"] + extra) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_cap(tmp_path):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    assert main(["run", inp, "--levels", "3", "--cap", "10",
                 "--out", str(tmp_path / "o")]) == 3


def test_exit_code_star_convexity(tmp_path, monkeypatch):
    from subdivlab import cli
    from subdivlab.cubes import StarConvexityViolation

    def boom(*a, **k):
        raise StarConvexityViolation("a^2")

    monkeypatch.setattr(cli, "prune_history", boom)
    inp = write(tmp_path, "loop_a.json", LOOP_A)
    assert main(["run", inp, "--mode", "special", "--levels", "3",
                 "--out", str(tmp_path / "o")]) == 4


def test_failed_export_leaves_no_temporary_file(tmp_path, monkeypatch):
    from subdivlab import cli

    def boom(*a, **k):
        raise RuntimeError("export failed")

    # called inside the block that writes level_00.json through its .tmp
    monkeypatch.setattr(cli, "tiling_to_json", boom)
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match="export failed"):
        main(["run", inp, "--levels", "3", "--out", str(out),
              "--export", "tilings"])
    assert (out / "report.json").exists()
    assert (out / "tilings").is_dir()
    assert sorted(out.rglob("*.tmp")) == []


def test_determinism_byte_identical(tmp_path):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    for sub in ("o1", "o2"):
        assert main(["run", inp, "--levels", "3", "--out",
                     str(tmp_path / sub),
                     "--export", "tilings,dot,svg,reports"]) == 0
    for rel in ("report.json", "counts.csv", "svg/level_00.svg",
                "dot/level_01.dot", "tilings/level_02.json"):
        a = (tmp_path / "o1" / rel).read_bytes()
        b = (tmp_path / "o2" / rel).read_bytes()
        assert a == b, rel


@pytest.mark.parametrize("flag,value,message", [
    ("--cone-depth", "-1", "cone depth"),
    ("--ends-window", "0", "ends window"),
    ("--export", "svg,bogus", "unknown export bogus"),
])
def test_bad_run_options_exit_2(tmp_path, capsys, flag, value, message):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    assert main(["run", inp, "--levels", "3", flag, value,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_oracle_negative_levels_exit_2(tmp_path, capsys):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    assert main(["oracle", inp, "--levels", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "levels" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("data", [
    {"generators": ["a", "b"], "edges": [[["a"], "b"]]},
    {"generators": ["a", "b"], "edges": [["a", {"b": 1}]]},
    # the generator "a b" and the element a*b would share the name "a b"
    {"generators": ["a", "b", "a b"], "edges": [["a", "b"]]},
    # "|" separates the syllables of an element's name
    {"generators": ["a", "|"], "edges": []},
    # parse_word reads "a^2" as a squared
    {"generators": ["a", "a^2"], "edges": []},
    # an empty name
    {"generators": ["a", ""], "edges": []},
    # '"' breaks the quoting of names in the DOT export
    {"generators": ["a", 'a"b'], "edges": []},
    # "1" is the identity's name
    {"generators": ["1", "b"], "edges": []},
], ids=["list-edge-end", "object-edge-end", "space-in-name", "bar-name",
        "caret-in-name", "empty-name", "quote-in-name", "identity-name"])
def test_malformed_graph_input_exits_2(tmp_path, capsys, data):
    inp = write(tmp_path, "bad.json", data)
    assert main(["run", inp, "--levels", "3",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_bad_complex_exits_before_the_ball(tmp_path, capsys, monkeypatch):
    from subdivlab import cli

    def no_ball(*a, **k):
        raise AssertionError("the ambient ball was built")

    monkeypatch.setattr(cli, "build_ball", no_ball)
    # two commuting loops without their commutator square: not full
    bad = dict(LOOP_A, edges=LOOP_A["edges"] + [
        {"id": "e_b", "from": "v", "to": "v", "label": "b"}])
    inp = write(tmp_path, "bad.json", bad)
    assert main(["run", inp, "--mode", "special", "--levels", "3",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: not full at v")


TORUS = {"defining_graph": {"generators": ["a", "z"], "edges": [["a", "z"]]},
         "vertices": ["v"],
         "edges": [{"id": "e_a", "from": "v", "to": "v", "label": "a"},
                   {"id": "e_z", "from": "v", "to": "v", "label": "z"}],
         "squares": [[["e_a", 1], ["e_z", 1], ["e_a", -1], ["e_z", -1]]]}


@pytest.mark.parametrize("data", [
    [LOOP_A],
    dict(LOOP_A, edges=[dict(LOOP_A["edges"][0], sign="x")]),
    dict(TORUS, squares=[[["e_a", "up"], ["e_z", 1], ["e_a", -1],
                                ["e_z", -1]]]),
    dict(TORUS, squares=[[["e_a", 1], ["e_z", 1]]]),
    dict(LOOP_A, edges=["e_a"]),
    dict(LOOP_A, edges={"e_a": LOOP_A["edges"][0]}),
    dict(LOOP_A, vertices=[["v"]]),
    dict(TORUS, squares=[5]),
    dict(TORUS, squares=[[["e_a"], ["e_z", 1], ["e_a", -1], ["e_z", -1]]]),
    dict(TORUS, squares=[[[["e_a"], 1], ["e_z", 1], ["e_a", -1], ["e_z", -1]]]),
    dict(LOOP_A, defining_graph={"generators": ["a", "b"],
                                 "edges": [[["a"], "b"]]}),
], ids=["top-level-list", "edge-sign", "square-orientation", "two-edge-square",
        "edge-not-object", "edges-not-list", "list-vertex", "square-not-list",
        "one-item-reference", "list-edge-id", "list-graph-edge-end"])
def test_malformed_special_input_exits_2(tmp_path, capsys, data):
    inp = write(tmp_path, "bad.json", data)
    assert main(["run", inp, "--mode", "special", "--levels", "3",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _nest(inner):
    return (st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=3),
    _nest, max_leaves=8)


def _slots(node):
    """(container, key) of every value inside a JSON object or list."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def _complexes(draw):
    """A complex over LOOP_A's defining graph, well formed in shape, with
    up to two of its values replaced by JSON of any shape."""
    vertices = draw(st.lists(st.sampled_from(["v", "w"]), min_size=1,
                             max_size=2, unique=True))
    ends = st.sampled_from(vertices)
    edges = [{"id": eid, "from": draw(ends), "to": draw(ends),
              "label": draw(st.sampled_from(["a", "b"])),
              "sign": draw(st.sampled_from([1, -1]))}
             for eid in ["e_a", "e_b", "e_c"][:draw(st.integers(0, 3))]]
    reference = st.tuples(st.sampled_from(["e_a", "e_b", "e_c"]),
                          st.sampled_from([1, -1])).map(list)
    squares = draw(st.lists(st.lists(reference, min_size=4, max_size=4),
                            max_size=1))
    data = {"vertices": vertices, "edges": edges, "squares": squares}
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(list(_slots(data))))
        container[key] = draw(_JSON)
    return dict(data, defining_graph=LOOP_A["defining_graph"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=_complexes(), levels=st.integers(1, 2),
       cap=st.sampled_from([200, 24, 8]), strict=st.booleans())
def test_special_input_fuzz_keeps_exit_contract(data, levels, cap, strict):
    # B(1) and B(2) of Z^2 hold 9 and 25 elements: some caps are passed
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "complex.json")
        with open(inp, "w") as f:
            json.dump(data, f)
        argv = ["run", inp, "--mode", "special", "--levels", str(levels),
                "--cap", str(cap), "--out", os.path.join(tmp, "o")]
        assert main(argv + ["--strict-cubes"] * strict) in (0, 2, 3, 4)


@st.composite
def _graphs(draw):
    """A defining graph on up to three generators, with up to two of its
    values replaced by JSON of any shape."""
    generators = ["a", "b", "c"][:draw(st.integers(1, 3))]
    pairs = [[x, y] for i, x in enumerate(generators) for y in generators[i + 1:]]
    data = {"generators": generators,
            "edges": draw(st.lists(st.sampled_from(pairs), unique_by=tuple,
                                   max_size=3)) if pairs else []}
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(list(_slots(data))))
        container[key] = draw(_JSON)
    return data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=_graphs(), levels=st.integers(1, 2),
       cap=st.sampled_from([200, 24, 8]),
       export=st.lists(st.sampled_from(["tilings", "dot", "svg", "reports",
                                        "bogus", ""]), max_size=2))
def test_raag_input_fuzz_keeps_exit_contract(data, levels, cap, export):
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "graph.json")
        with open(inp, "w") as f:
            json.dump(data, f)
        argv = ["run", inp, "--levels", str(levels), "--cap", str(cap),
                "--export", ",".join(export), "--out", os.path.join(tmp, "o")]
        assert main(argv) in (0, 2, 3, 4)


def test_diameter_mode_flag_is_gone(tmp_path):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    with pytest.raises(SystemExit) as err:
        main(["run", inp, "--diameter-mode", "exact",
              "--out", str(tmp_path / "o")])
    assert err.value.code == 2


def test_oracle_subcommand(tmp_path, capsys):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    assert main(["oracle", inp, "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "S(3) = 218" in out
    inp2 = write(tmp_path, "pathlike.json",
                 {"generators": ["a", "z", "b", "c"],
                  "edges": [["a", "z"], ["b", "z"], ["c", "z"]]})
    assert main(["oracle", inp2, "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "no independent oracle" in out


def test_oracle_past_the_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracles, "DEFAULT_CAP", 100)
    inp = write(tmp_path, "path3.json", {"generators": ["a", "z", "b"],
                                         "edges": [["a", "z"], ["b", "z"]]})
    assert main(["oracle", inp, "--levels", "8"]) == 3
    err = capsys.readouterr().err
    assert "cap 100 exceeded while building level 3" in err
    assert "[1, 14, 70]" in err


def tiling_from_json(data):
    """Re-import an exported tiling as a lightweight isomorphic structure."""
    class Imported:
        pass

    imp = Imported()
    imp.level = data["level"]
    imp.tiles = data["tiles"]
    imp.by_id = {t["id"]: t for t in data["tiles"]}
    imp.adjacency = {t["id"]: sorted(map(tuple, t["adjacent"])) for t in data["tiles"]}
    return imp


def tiling_isomorphic(tiling, imported) -> bool:
    """Relabelling-equality check between a built tiling and a re-import:
    the same names, and per tile the same neighbours with labels, ideal
    flag and parent."""
    names = tiling.names()
    tiles = [(name, [tuple(p) for p in adjacent], bool(flag), parent)
             for name, adjacent, flag, parent in zip(
                 names, tiling.adjacency(names), tiling.ideal,
                 tiling.parent_names())]
    tiles += [(name, [], True, parent)
              for name, _, _, parent in tiling.ideal_tiles()]
    if sorted(t[0] for t in tiles) != sorted(imported.by_id):
        return False
    for name, adjacent, ideal, parent in tiles:
        if adjacent != imported.adjacency[name]:
            return False
        rec = imported.by_id[name]
        if rec["ideal"] != ideal or rec["parent"] != parent:
            return False
    return True


def test_tiling_roundtrip():
    ts = get_tilings("path3", 3)
    rule = get_rule("path3", 3)
    data = json.loads(json_text(ts[1], rule))
    imported = tiling_from_json(data)
    assert tiling_isomorphic(ts[1], imported)


def test_streamed_json_matches_json_dump():
    # written one tile record at a time, byte for byte what json.dump
    # writes for the whole object; with ideal tiles (path3), a rule, none,
    # and no tile at all
    tilings = get_tilings("path3", 3)
    empty = Tiling(get_tilings("triangle", 3)[0].ball, 0, array("i"), 0,
                   array("q"))
    for tiling, rule in ((tilings[1], get_rule("path3", 3)),
                         (tilings[2], None), (empty, None)):
        records = exports._tile_records(tiling, rule, LevelLabels(tiling))
        whole = {"level": tiling.level, "tiles": list(records)}
        assert json_text(tiling, rule) == json.dumps(whole, sort_keys=True,
                                                     indent=2)
    assert json_text(empty) == '{\n  "level": 0,\n  "tiles": []\n}'


def test_ideal_tiles_formed_once_per_level(tmp_path, monkeypatch):
    # the JSON, DOT and SVG exports of a level share one list of its ideal
    # tiles, formed as the run reaches the level
    ideal_tiles, calls = Tiling.ideal_tiles, []
    monkeypatch.setattr(Tiling, "ideal_tiles", lambda self: calls.append(
        self.level) or ideal_tiles(self))
    inp = write(tmp_path, "free3.json", FREE3)
    assert main(["run", inp, "--levels", "3", "--out", str(tmp_path / "o"),
                 "--export", "tilings,dot,svg"]) == 0
    assert calls == [0, 1, 2]


def test_svg_content():
    ts = get_tilings("triangle", 3)
    rule = get_rule("triangle", 3)
    svg = tiling_to_svg(ts[0], rule, seed=0)
    assert svg.count("<circle") == 26 + 3   # tiles + legend entries
    assert svg.count("type ") == 3
    empty = tiling_to_svg(get_tilings("free3", 3)[0], None, seed=1)
    assert empty.startswith("<svg")


def _tile_slots(svg, n):
    """Slot on the layout circle of each stroked tile circle, in drawing
    order, checking that every centre lies on that circle."""
    centre, radius = SVG_SIZE / 2, 0.45 * SVG_SIZE
    slots = []
    for x, y in re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="5" '
                           r'fill="#\w+" stroke=', svg):
        dx, dy = float(x) - centre, float(y) - centre
        assert abs(math.hypot(dx, dy) - radius) < 0.01
        slot = math.atan2(dy, dx) / (2 * math.pi) * n
        assert abs(slot - round(slot)) < 1e-3
        slots.append(round(slot) % n)
    return slots


def test_svg_layout_orders_by_parent():
    level = get_tilings("triangle", 3)[2]
    rule = get_rule("triangle", 3)
    n = len(level.tiles)
    slots = _tile_slots(tiling_to_svg(level, rule, seed=0), n)
    assert sorted(slots) == list(range(n))
    by_parent = {}
    # the triangle has no ideal tiles: the circles are the stored tiles'
    for parent, slot in zip(level.parent_names(), slots):
        by_parent.setdefault(parent, []).append(slot)
    assert len(by_parent) > 1
    for group in by_parent.values():
        assert sorted(group) == list(range(min(group), min(group) + len(group)))
    shifted = _tile_slots(tiling_to_svg(level, rule, seed=1), n)
    assert shifted == [(slot + 1) % n for slot in slots]
