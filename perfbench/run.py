"""The subdivlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs `subdivlab run` as a
fresh child process, one at a time (closed loop, one client), starting a new
child until S seconds have passed.  Every child's output is checked
(checker.py); a run that exits non-zero or fails the check counts as failed.

--trace 0 reports the end-to-end metrics:
    wall_s       spawn-to-exit time of one run (median over the children)
    tiles_per_s  non-ideal tiles of all output levels (counts.csv) / wall_s
    peak_rss_mb  the child's ru_maxrss (median)
    setup_s      interpreter start, `import subdivlab.cli` and parsing the
                 workload input, in a process of its own (median of several)
--trace 1 alternates untraced and traced children (tracer.py) and reports
per-layer self times and counts, medians over the traced children, and the
tracing overhead: traced wall time minus the untraced median.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# A child still running this long after the benchmark started is killed and
# counted as failed, so that the benchmark itself ends within 180 s.
HARD_LIMIT_S = 170.0
# setup_s is ~0.1 s and jittery, so it is the median of this many spawns.
SETUP_SPAWNS = 15

RUN_CODE = "import sys; from subdivlab.cli import main; sys.exit(main())"
SETUP_CODE = ("import sys; from subdivlab import cli; "
              "cli._load_input(cli.RunConfig(input_path=sys.argv[1], mode=sys.argv[2]))")


@dataclass(frozen=True)
class Workload:
    input: str
    mode: str
    flags: tuple
    seeded: bool = False    # the seed is passed on as --layout-seed


# Each workload loads a different layer (times from the commit that added
# the benchmark, 2 cores, Python 3.11):
WORKLOADS = {
    # 235,225 ball elements; build_ball is ~85% of 22 s and nearly all of
    # the 457 MB peak.  Exports and cubes do almost nothing.
    "c4-sparse": Workload("c4.json", "raag",
                          ("--levels", "3", "--export", "reports")),
    # 80 diagonal moves per element: tilings, rule and diameter carry the
    # largest share; memory stays small.
    "k4-clique": Workload("k4.json", "raag",
                          ("--levels", "3", "--export", "reports")),
    # The full one-vertex complex of a-z-b: every ball element lifts, so
    # lifting, pruning and the second rule/cone-type pass all do real work;
    # the exact diameter runs one BFS per tile (3,886 at the deepest level).
    "path3-special": Workload("path3_special.json", "special",
                              ("--levels", "5")),
    # The force-directed SVG layout (O(tiles^2)) is ~85% of the run; the
    # only workload that writes exports.  The only one with random input.
    "tri-export": Workload("triangle.json", "raag",
                           ("--levels", "5", "--export",
                            "tilings,dot,svg,reports"), seeded=True),
}

END_TO_END_UNITS = {"wall_s": "s", "tiles_per_s": "tiles/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "balls.build_ball.s": "s", "balls.elements": "count",
    "balls.elements_per_s": "1/s", "balls.rss_growth_mb": "MB",
    "balls.bytes_per_element": "B",
    "words.apply_letters.calls": "count",
    "words.syllables_of_state.calls": "count",
    "tiling.build_tilings.s": "s", "tiling.visible_region.calls": "count",
    "tiling.tiles": "count", "tiling.adjacency_instances": "count",
    "tiling.build_history.s": "s", "tiling.extract_rule.s": "s",
    "tiling.rule_types": "count", "tiling.descriptor_crosscheck.s": "s",
    "invariants.divergence_diameter.s": "s",
    "invariants.diameter_tiles": "count",
    "invariants.divergence_mode": "flag",
    "invariants.growth.s": "s", "invariants.ends.s": "s",
    "invariants.mesh_certificate.s": "s",
    "cubes.check_local_isometry.s": "s", "cubes.lift_basepoints.s": "s",
    "cubes.lifts": "count", "cubes.prune_history.s": "s",
    "cubes.cone_types.s": "s",
    "exports.tiling_to_svg.s": "s", "exports.tiling_to_json.s": "s",
    "exports.tiling_to_dot.s": "s", "exports.history_to_dot.s": "s",
    "exports.counts_csv.s": "s", "exports.report_json.s": "s",
    "exports.bytes": "B",
    "cli.run.s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Bench:
    """One workload's children, their failures and report digests."""

    def __init__(self, name, seed, started):
        self.name = name
        self.workload = WORKLOADS[name]
        self.started = started
        self.input = str(HERE / "inputs" / self.workload.input)
        self.flags = list(self.workload.flags)
        if self.workload.seeded:
            self.flags += ["--layout-seed", str(seed)]
        self.compare_digest = not self.workload.seeded or seed == 0
        with open(HERE / "expected.json") as f:
            self.expected = json.load(f)[name]
        self.oracle = _oracle_sizes(self.input, self.workload.mode,
                                    self.expected["levels"])
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.count = 0
        self.failures = []
        self.digests = set()

    def spawn(self, argv):
        """Run one child to its end: (seconds, exit code, peak RSS in kB)."""
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(max(left, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss

    def run_child(self, traced=False):
        """One checked `subdivlab run`; returns (seconds, rss_kb, out_dir,
        spans) or None when the run failed."""
        self.count += 1
        out = self.work / ("run_%03d" % self.count)
        spans_path = self.work / ("spans_%03d.json" % self.count)
        cli_argv = ["run", self.input, "--mode", self.workload.mode,
                    "--out", str(out)] + self.flags
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                    "%s/%d" % (self.name, self.count)] + cli_argv
        else:
            argv = [sys.executable, "-c", RUN_CODE] + cli_argv
        seconds, code, rss_kb = self.spawn(argv)
        problems = checker.check_run(code, str(out), self.expected, self.oracle)
        if not problems:
            self.digests.add(checker.report_digest(str(out)))
            if len(self.digests) > 1:
                problems.append("report.json differs between runs")
        if problems:
            self.failures.append("run %d: %s" % (self.count, "; ".join(problems)))
            return None
        spans = None
        if traced:
            with open(spans_path) as f:
                spans = json.load(f)
        return seconds, rss_kb, out, spans

    def setup_seconds(self):
        argv = [sys.executable, "-c", SETUP_CODE, self.input, self.workload.mode]
        samples = []
        for i in range(SETUP_SPAWNS + 1):
            seconds, code, _ = self.spawn(argv)
            if code != 0:
                self.count += 1
                self.failures.append("setup spawn exited %d" % code)
                return None
            if i:   # the first spawn warms the bytecode and file caches
                samples.append(seconds)
        return samples


def _oracle_sizes(path, mode, levels):
    from subdivlab.graphs import parse_graph_json
    from subdivlab.oracles import oracle_sphere_sizes
    with open(path) as f:
        data = json.load(f)
    graph = parse_graph_json(data["defining_graph"] if mode == "special" else data)
    return oracle_sphere_sizes(graph, levels)


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def layer_metrics(result, out_dir):
    """Per-layer metrics of one traced run."""
    spans = result["spans"]
    own = tracer.self_times(spans)
    busy = {}
    for span, s in zip(spans, own):
        busy[span["name"]] = busy.get(span["name"], 0.0) + s
    counts = result["counts"]
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        if name.endswith(".s") and name != "cli.run.s":
            m[name] = busy.get(name[:-2], 0.0)
        elif name in counts:
            m[name] = float(counts[name])
    root = next(s for s in spans if s["name"] == "cli.run")
    m["cli.run.s"] = root["end"] - root["start"]
    m["cli.self_s"] = busy["cli.run"]
    build = next(s for s in spans if s["name"] == "balls.build_ball")
    growth_kb = build["maxrss_kb_end"] - build["maxrss_kb_start"]
    m["balls.rss_growth_mb"] = growth_kb / 1024.0
    elements = m["balls.elements"]
    m["balls.elements_per_s"] = elements / m["balls.build_ball.s"]
    m["balls.bytes_per_element"] = growth_kb * 1024.0 / elements
    m["exports.bytes"] = float(sum(p.stat().st_size for p in out_dir.rglob("*")
                                   if p.is_file()))
    m["self_sum_s"] = sum(own)
    return m


def measure(bench, seconds, trace):
    """Closed loop for `seconds`; returns the metrics dict."""
    if not trace:
        setup = bench.setup_seconds()
        if setup is None:
            return {}
    loop_start = time.perf_counter()
    walls, rss, rates, traced = [], [], [], []
    while not bench.failures:
        res = bench.run_child()
        if res is None:
            break
        wall, rss_kb, out, _ = res
        walls.append(wall)
        rss.append(rss_kb / 1024.0)
        rates.append(sum(checker.nonideal_tiles(str(out))) / wall)
        shutil.rmtree(out)
        if trace:
            res = bench.run_child(traced=True)
            if res is None:
                break
            wall, _, out, spans = res
            m = layer_metrics(spans, out)
            m["trace.wall_s"] = wall
            traced.append(m)
            shutil.rmtree(out)
        if time.perf_counter() - loop_start >= seconds:
            break
    if bench.failures:
        return {}
    if trace:
        med = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        med["trace.overhead_s"] = med.pop("trace.wall_s") - statistics.median(walls)
        med["untraced_wall_s"] = statistics.median(walls)
        return med
    return {"wall_s": statistics.median(walls), "wall_samples": walls,
            "tiles_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup), "setup_samples": len(setup)}


def report(bench, m, trace):
    print("workload %s  children %d  failed %d"
          % (bench.name, bench.count, len(bench.failures)))
    for line in bench.failures:
        print("  FAILED " + line)
    if not m:
        return
    if trace:
        total = m["cli.run.s"]
        for name in sorted(PER_LAYER_UNITS, key=lambda k: -m[k] if k.endswith(".s") else 0):
            share = ("  %5.1f%% of cli.run" % (100 * m[name] / total)
                     if name.endswith(".s") and name != "cli.run.s" else "")
            print("  %-34s %14.4f %-6s%s" % (name, m[name], PER_LAYER_UNITS[name], share))
        print("  self times sum to %.4f s of cli.run.s %.4f s; untraced wall "
              "%.4f s" % (m["self_sum_s"], total, m["untraced_wall_s"]))
    else:
        walls = m["wall_samples"]
        pct = tail(walls)
        print("  wall_s       %.4f s median of %d runs; %s" % (
            m["wall_s"], len(walls),
            "p%.1f %.4f s" % pct if pct else
            "no percentile has ten samples beyond it"))
        print("  tiles_per_s  %.2f tiles/s" % m["tiles_per_s"])
        print("  peak_rss_mb  %.1f MB" % m["peak_rss_mb"])
        print("  setup_s      %.4f s median of %d spawns" % (m["setup_s"], m["setup_samples"]))
    print("  failed_runs  %d/%d" % (len(bench.failures), bench.count))
    for digest in sorted(bench.digests):
        note = ""
        if bench.compare_digest:
            same = digest == bench.expected["report_digest"]
            note = " (same as recorded)" if same else " (CHANGED from recorded)"
        print("  report_digest %s%s" % (digest, note))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "subdivlab" / "cli.py").is_file():
        print("error: no subdivlab source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import subdivlab
    if Path(subdivlab.__file__).resolve().parent != SRC / "subdivlab":
        print("error: subdivlab imported from %s, not from %s"
              % (subdivlab.__file__, SRC), file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, started)
    m = measure(bench, args.seconds, bool(args.trace))
    report(bench, m, bool(args.trace))
    shutil.rmtree(bench.work, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.count,
        "failed": len(bench.failures),
        "metrics": {k: {"value": m[k], "unit": u} for k, u in units.items()
                    if k in m},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
