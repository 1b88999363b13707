import json
import os

import pytest

from subdivlab.cli import main
from subdivlab.exports import (tiling_from_json, tiling_isomorphic,
                               tiling_to_json, tiling_to_svg)
from conftest import get_rule, get_tilings


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


def test_exit_code_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p), "--levels", "3", "--out", str(tmp_path / "o")]) == 2
    q = tmp_path / "bad2.json"
    q.write_text(json.dumps({"generators": ["a", "a"], "edges": []}))
    assert main(["run", str(q), "--levels", "3", "--out", str(tmp_path / "o")]) == 2


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
])
def test_bad_run_options_exit_2(tmp_path, capsys, flag, value, message):
    inp = write(tmp_path, "triangle.json", TRIANGLE)
    assert main(["run", inp, "--levels", "3", flag, value,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
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
], ids=["top-level-list", "edge-sign", "square-orientation", "two-edge-square"])
def test_malformed_special_input_exits_2(tmp_path, capsys, data):
    inp = write(tmp_path, "bad.json", data)
    assert main(["run", inp, "--mode", "special", "--levels", "3",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


def test_tiling_roundtrip():
    ts = get_tilings("path3", 3)
    rule = get_rule("path3", 3)
    data = json.loads(json.dumps(tiling_to_json(ts[1], rule)))
    imported = tiling_from_json(data)
    assert tiling_isomorphic(ts[1], imported)


def test_svg_content():
    ts = get_tilings("triangle", 3)
    rule = get_rule("triangle", 3)
    svg = tiling_to_svg(ts[0], rule, seed=0)
    assert svg.count("<circle") == 26 + 3   # tiles + legend entries
    assert svg.count("type ") == 3
    empty = tiling_to_svg(get_tilings("free3", 3)[0], None, seed=1)
    assert empty.startswith("<svg")
