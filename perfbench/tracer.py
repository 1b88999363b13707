"""Layer tracing of one `subdivlab run`, from outside the program.

The functions `subdivlab.cli` calls are wrapped by rebinding their names on
the imported modules; nothing under `src/` changes.  Spans and counts stay in
memory and are written once, when the run ends.

Run as a script this is a traced `subdivlab run`:

    python3 perfbench/tracer.py SPANS.json RUN_ID run INPUT [subdivlab flags]

with `src/` on PYTHONPATH.  It exits with the run's exit code.
"""

from __future__ import annotations

import importlib
import itertools
import json
import resource
import sys
import time
from contextlib import contextmanager

# `cli.run` and the names it calls from the other modules; each call becomes
# a span named "<defining module>.<function>", e.g. "balls.build_ball".
CLI_LAYERS = (
    "run", "build_ball",
    "build_tilings", "build_history", "extract_rule", "descriptor_crosscheck",
    "growth", "ends", "divergence_diameter", "mesh_certificate",
    "check_local_isometry", "lift_basepoints", "prune_history", "cone_types",
    "report_json", "counts_csv", "tiling_to_json", "tiling_to_dot",
    "history_to_dot", "tiling_to_svg",
)

# (module, name): functions whose calls are only counted, under the name of
# the module they are patched on.  Their callers look them up in that
# module at call time, so rebinding the module attribute catches every call.
COUNTED = (
    ("subdivlab.words", "apply_letters"),
    ("subdivlab.words", "syllables_of_state"),
    ("subdivlab.tiling", "visible_region"),
)


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _layer_name(fn):
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


def _sizes(name, args, out):
    """Work counts read off a layer's arguments and result."""
    if name == "balls.build_ball":
        return {"balls.elements": out.size()}
    if name == "tiling.build_tilings":
        return {"tiling.tiles": sum(len(t.tiles) for t in out),
                "tiling.adjacency_instances": sum(len(t.instances) for t in out)}
    if name == "tiling.extract_rule":
        return {"tiling.rule_types": len(out.types)}
    if name == "invariants.divergence_diameter":
        exact = out.mode == "exact"
        return {"invariants.diameter_tiles":
                sum(len(t.nonideal()) for t in args[0]) if exact else 0,
                "invariants.divergence_mode": 1 if exact else 0}
    if name == "cubes.lift_basepoints":
        return {"cubes.lifts": out.size()}
    return {}


class Recorder:
    """Spans (name, start, end, parent, run id) and counts of one run."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []
        self._calls = {}

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = {"name": name, "run": self.run_id,
                   "parent": self._stack[-1] if self._stack else None,
                   "maxrss_kb_start": _maxrss_kb(), "start": self.clock()}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = self.clock()
                rec["maxrss_kb_end"] = _maxrss_kb()
                self._stack.pop()
            for key, value in _sizes(name, args, out).items():
                self.counts[key] = self.counts.get(key, 0) + value
            return out
        return wrapper

    def counter(self, name, fn):
        calls = self._calls.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)
        return wrapper

    def result(self):
        counts = dict(self.counts)
        for name, calls in self._calls.items():
            # next() on an itertools.count returns how many calls came before
            counts[name + ".calls"] = next(calls)
        return {"run": self.run_id, "spans": self.spans, "counts": counts}


@contextmanager
def patched(recorder):
    """Wrap the traced functions for the duration of the block."""
    cli = importlib.import_module("subdivlab.cli")
    saved = []
    try:
        for attr in CLI_LAYERS:
            fn = getattr(cli, attr)
            saved.append((cli, attr, fn))
            setattr(cli, attr, recorder.span(_layer_name(fn), fn))
        for modname, attr in COUNTED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            name = "%s.%s" % (modname.rsplit(".", 1)[-1], attr)
            setattr(mod, attr, recorder.counter(name, fn))
        yield recorder
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def main(argv):
    spans_path, run_id, cli_argv = argv[0], argv[1], argv[2:]
    recorder = Recorder(run_id)
    with patched(recorder):
        from subdivlab import cli
        code = cli.main(cli_argv)
    with open(spans_path, "w") as f:
        json.dump(recorder.result(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
