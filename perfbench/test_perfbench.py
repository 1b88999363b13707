"""Tests of the benchmark's own code: self times, the run checker and the
patching done by the tracer."""

import copy
import csv
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracer  # noqa: E402


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "r"}


def test_self_times_nested_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 11.0, 0),   # overlaps b and outlives its parent
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(5.0)


def test_recorder_nests_spans_and_counts_calls():
    ticks = iter(range(100))
    rec = tracer.Recorder("r", clock=lambda: float(next(ticks)))
    leaf = rec.counter("m.leaf", lambda x: x)
    inner = rec.span("m.inner", lambda: leaf(1) + leaf(2))
    outer = rec.span("m.outer", lambda: inner() * 2)
    assert outer() == 6
    res = rec.result()
    assert [(s["name"], s["parent"]) for s in res["spans"]] == [
        ("m.outer", None), ("m.inner", 0)]
    assert res["counts"] == {"m.leaf.calls": 2}
    own = tracer.self_times(res["spans"])
    root = res["spans"][0]
    assert sum(own) == pytest.approx(root["end"] - root["start"])


def _module_attrs():
    import subdivlab.cli
    import subdivlab.tiling
    import subdivlab.words
    return {m.__name__: dict(vars(m))
            for m in (subdivlab.cli, subdivlab.tiling, subdivlab.words)}


def _same(before, after):
    return all(before[m].keys() == after[m].keys()
               and all(before[m][k] is after[m][k] for k in before[m])
               for m in before)


def test_patching_restores_module_attributes():
    before = _module_attrs()
    with tracer.patched(tracer.Recorder("r")):
        assert not _same(before, _module_attrs())
    assert _same(before, _module_attrs())


def test_patching_restores_module_attributes_after_error():
    before = _module_attrs()
    with pytest.raises(RuntimeError):
        with tracer.patched(tracer.Recorder("r")):
            raise RuntimeError("boom")
    assert _same(before, _module_attrs())


def test_traced_run_writes_the_same_report(tmp_path):
    from subdivlab import cli
    argv = ["run", str(HERE / "inputs" / "triangle.json"), "--levels", "3"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    rec = tracer.Recorder("r")
    with tracer.patched(rec):
        assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
    assert (checker.report_digest(str(tmp_path / "plain"))
            == checker.report_digest(str(tmp_path / "traced")))
    res = rec.result()
    names = {s["name"] for s in res["spans"]}
    assert {"cli.run", "balls.build_ball", "tiling.build_tilings",
            "invariants.divergence_diameter", "exports.report_json"} <= names
    assert res["counts"]["words.apply_letters.calls"] > 0
    assert res["counts"]["tiling.visible_region.calls"] > 0
    root = res["spans"][0]
    assert root["name"] == "cli.run"
    assert sum(tracer.self_times(res["spans"])) == pytest.approx(
        root["end"] - root["start"])


K4 = json.loads((HERE / "expected.json").read_text())["k4-clique"]
K4_SPHERES = [1, 80, 544, 1776, 4160, 8080]


def _fake_output(out_dir, expected, spheres):
    levels = expected["levels"]
    report = {
        "sphere_sizes": spheres,
        "growth": {"classification": expected["growth_classification"]},
        "ends": {"verdict": expected["ends_verdict"]},
        "mesh": {"certified": expected["mesh_certified"]},
        "divergence": {"diameters": expected["divergence_diameters"],
                       "mode": expected["divergence_mode"]},
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f)
    with open(os.path.join(out_dir, "counts.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["level", "nonideal_tiles", "ideal_tiles"])
        for n in range(levels):
            w.writerow([n, spheres[n + 1], 0])
    return report


def test_checker_accepts_seed_output(tmp_path):
    _fake_output(str(tmp_path), K4, K4_SPHERES)
    assert checker.check_run(0, str(tmp_path), K4, K4_SPHERES[:4]) == []


def test_checker_rejects_altered_diameter(tmp_path):
    report = _fake_output(str(tmp_path), K4, K4_SPHERES)
    report = copy.deepcopy(report)
    report["divergence"]["diameters"][1] += 1
    (tmp_path / "report.json").write_text(json.dumps(report))
    problems = checker.check_run(0, str(tmp_path), K4, K4_SPHERES[:4])
    assert len(problems) == 1 and "divergence_diameters" in problems[0]


def test_checker_rejects_nonzero_exit(tmp_path):
    _fake_output(str(tmp_path), K4, K4_SPHERES)
    assert checker.check_run(3, str(tmp_path), K4, K4_SPHERES[:4]) == [
        "exit code 3"]


def test_checker_rejects_wrong_sphere_sizes(tmp_path):
    wrong = K4_SPHERES[:2] + [545] + K4_SPHERES[3:]
    _fake_output(str(tmp_path), K4, wrong)
    problems = checker.check_run(0, str(tmp_path), K4, K4_SPHERES[:4])
    assert len(problems) == 1 and "oracle" in problems[0]
