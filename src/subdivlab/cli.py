"""Command-line entry points.

  subdivlab run <input> --mode raag|special --levels N [options]
  subdivlab oracle <input> --levels N

Exit codes: 0 success (a warning flag may be set in the report), 2 parse
error, 3 resource cap exceeded, 4 star-convexity violation in special mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import __version__
from .balls import DEFAULT_CAP, CapExceeded, build_ball
from .cubes import (CubeSpecError, StarConvexityViolation, check_local_isometry,
                    cone_types, lift_basepoints, parse_cube_spec, prune_history)
from .exports import (LevelLabels, counts_csv, history_to_dot, report_json,
                      tiling_to_dot, tiling_to_json, tiling_to_svg)
from .graphs import GraphError, parse_graph_json
from .invariants import divergence_diameter, ends, growth, mesh_certificate
from .oracles import oracle_family, oracle_sphere_sizes
from .tiling import (build_history, build_tilings, descriptor_crosscheck,
                     extract_rule)
from .words import WordError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_STAR = 4

EXPORTS = ("tilings", "dot", "svg", "reports")


@dataclass
class RunConfig:
    input_path: str
    mode: str = "raag"
    levels: int = 5
    cap: int = DEFAULT_CAP
    out_dir: str = "out"
    exports: tuple = ("reports",)
    ends_window: int = 3
    strict_cubes: bool = False
    layout_seed: int = 0
    cone_depth: int = 1

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be positive")
        if self.ends_window < 1:
            raise ValueError("ends window must be >= 1")
        if self.cone_depth < 0:
            raise ValueError("cone depth must be >= 0")
        unknown = [x for x in self.exports if x not in EXPORTS]
        if unknown:
            raise ValueError("unknown export %s (known: %s)"
                             % (",".join(unknown), ",".join(EXPORTS)))


@contextmanager
def _atomic_open(path):
    """A file to write `path` through: a temporary file that replaces `path`
    when the block ends, and is removed if the block raises."""
    tmp = path + ".tmp"
    f = open(tmp, "w")
    try:
        with f:
            yield f
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def _atomic_write(path, text):
    with _atomic_open(path) as f:
        f.write(text)


def _load_input(config: RunConfig):
    with open(config.input_path) as f:
        data = json.load(f)
    if config.mode == "special":
        if not isinstance(data, dict):
            raise CubeSpecError("cube complex input must be a JSON object")
        graph = parse_graph_json(data.get("defining_graph", {}))
        spec = parse_cube_spec(graph, data)
        return graph, spec
    graph = parse_graph_json(data)
    return graph, None


def run(config: RunConfig) -> int:
    """Build everything the configuration asks for; returns the exit code."""
    try:
        graph, spec = _load_input(config)
    except (GraphError, CubeSpecError, WordError, json.JSONDecodeError,
            UnicodeDecodeError, RecursionError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    os.makedirs(config.out_dir, exist_ok=True)
    if config.mode == "special":
        violation = check_local_isometry(spec, graph, strict=config.strict_cubes)
        if violation is not None:
            print("error: %s" % violation, file=sys.stderr)
            return EXIT_PARSE
    # --levels counts tiling levels 0..L-1; level n reads the ball up to
    # level n + 1, so the ball is exactly L deep
    try:
        ball = build_ball(graph, config.levels, cap=config.cap)
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAP

    tilings = build_tilings(ball, config.levels)
    history = build_history(tilings)
    rule = extract_rule(history) if config.levels >= 3 else None

    report = {
        "meta": {
            "tool_version": __version__,
            "graph_hash": graph.hash_hex(),
            "generators": list(graph.generators),
            "levels": config.levels,
            "cap": config.cap,
            "layout_seed": config.layout_seed,
            "warnings": [],
            "counters": {
                "predecessor_level_mismatches": ball.predecessor_mismatches,
                "predecessor_mismatch_examples":
                    ball.predecessor_mismatch_examples,
                "covering_multiplicity_gt1": ball.multi_cover,
            },
        },
        "sphere_sizes": ball.sphere_sizes(),
    }

    if rule is not None:
        crosscheck = descriptor_crosscheck(rule, history)
        report["rule"] = {
            "stable": rule.stable,
            "refined_types": len(rule.types),
            "coalesced_types": rule.coalesced_names(),
            "children": {k: dict(sorted(v.items()))
                         for k, v in sorted(rule.coalesced_children.items())},
            "split_report": rule.split_report,
            "descriptor_mismatches": crosscheck,
        }
        report["meta"]["counters"]["descriptor_mismatches"] = len(crosscheck)
        if not rule.stable:
            report["meta"]["warnings"].append("refinement unstable")
            report["rule"]["unstable_detail"] = rule.unstable_detail

    if rule is not None and (len(tilings) >= 4 or rule.stable):
        g = growth(tilings, rule)
        report["growth"] = {
            "counts": g.counts, "counts_by_type": g.counts_by_type,
            "classification": list(g.classification()),
            "recurrence": g.recurrence, "transition": g.transition,
        }
        if len(tilings) < 4:
            report["meta"]["warnings"].append(
                "growth fit underdetermined: more levels requested")
    if len(tilings) >= 3:
        e = ends(tilings, window=config.ends_window)
        report["ends"] = {"counts": e.counts, "verdict": e.verdict,
                          "window": e.window}
        d = divergence_diameter(tilings)
        report["divergence"] = {
            "diameters": d.diameters, "mode": d.mode, "verdict": d.verdict,
            "degree": d.degree,
            "witnesses": [list(w[:2]) if w else None for w in d.witnesses],
            "witness_paths": [w[2] if w else None for w in d.witnesses],
        }
    if rule is not None and rule.stable:
        m = mesh_certificate(rule)
        report["mesh"] = {"certified": m.certified, "orbit": m.orbit}
    report["cone_types"] = cone_types(history, config.cone_depth)

    if config.mode == "special":
        lifts = lift_basepoints(spec, graph, ball, config.levels)
        try:
            pruned = prune_history(history, lifts, ball, rule)
        except StarConvexityViolation as exc:
            print("error: %s" % exc, file=sys.stderr)
            report["special"] = {"star_convex": False, "violation": str(exc)}
            _atomic_write(os.path.join(config.out_dir, "report.json"),
                          report_json(report))
            return EXIT_STAR
        # every tile's owner lifts: the pruned history is the ambient one,
        # and so are its cone types, growth and ends
        same = pruned.history is history
        section = {
            "star_convex": True,
            "lift_level_sizes": lifts.level_sizes,
            "tile_counts": pruned.tile_counts,
            "containment": pruned.containment,
            "cone_types": (report["cone_types"] if same else
                           cone_types(pruned.history, config.cone_depth)),
        }
        if pruned.rule is not None:
            section["rule_stable"] = pruned.rule.stable
            if len(pruned.tilings) >= 4 or pruned.rule.stable:
                pg = g if same else growth(pruned.tilings, pruned.rule)
                section["growth"] = {"counts": pg.counts,
                                     "classification": list(pg.classification())}
            pe = e if same else ends(pruned.tilings, window=config.ends_window)
            section["ends"] = {"counts": pe.counts, "verdict": pe.verdict}
        report["special"] = section

    _atomic_write(os.path.join(config.out_dir, "report.json"), report_json(report))

    # level by level: a level's names, name order and ideal tiles are formed
    # once for all of its exports, and history.dot reads every level's names
    for x in ("tilings", "dot", "svg"):
        if x in config.exports:
            os.makedirs(os.path.join(config.out_dir, x), exist_ok=True)
    labels = []
    for t in tilings:
        level = LevelLabels(t)
        name = "level_%02d." % t.level
        if "tilings" in config.exports:
            with _atomic_open(os.path.join(config.out_dir, "tilings",
                                           name + "json")) as f:
                tiling_to_json(t, f, rule, labels=level)
                f.write("\n")
        if "svg" in config.exports:
            with _atomic_open(os.path.join(config.out_dir, "svg",
                                           name + "svg")) as f:
                tiling_to_svg(t, f, rule, seed=config.layout_seed, labels=level)
        if "dot" in config.exports:
            with _atomic_open(os.path.join(config.out_dir, "dot",
                                           name + "dot")) as f:
                tiling_to_dot(t, f, rule, labels=level)
            level.keep_for_history()
            labels.append(level)
    if "dot" in config.exports:
        with _atomic_open(os.path.join(config.out_dir, "dot",
                                       "history.dot")) as f:
            history_to_dot(history, f, labels=labels)
    if "reports" in config.exports:
        _atomic_write(os.path.join(config.out_dir, "counts.csv"),
                      counts_csv(tilings, rule))
    return EXIT_OK


def oracle_main(args) -> int:
    if args.levels < 0:
        print("error: levels must be >= 0", file=sys.stderr)
        return EXIT_PARSE
    try:
        with open(args.input) as f:
            graph = parse_graph_json(json.load(f))
    except (GraphError, json.JSONDecodeError, UnicodeDecodeError,
            RecursionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    family = oracle_family(graph)
    if family is None:
        print("no independent oracle for this defining graph "
              "(supported: complete, edgeless, path on three generators)")
        return EXIT_OK
    try:
        sizes = oracle_sphere_sizes(graph, args.levels)
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    print("oracle family: %s" % family)
    for n, s in enumerate(sizes):
        print("S(%d) = %d" % (n, s))
    return EXIT_OK


def make_parser():
    p = argparse.ArgumentParser(prog="subdivlab")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="build tilings and reports")
    runp.add_argument("input")
    runp.add_argument("--mode", choices=("raag", "special"),
                      default=RunConfig.mode)
    runp.add_argument("--levels", type=int, default=RunConfig.levels)
    runp.add_argument("--cap", type=int, default=RunConfig.cap)
    runp.add_argument("--out", default=RunConfig.out_dir)
    runp.add_argument("--export", default=",".join(RunConfig.exports),
                      help="comma list: " + ",".join(EXPORTS))
    runp.add_argument("--ends-window", type=int, default=RunConfig.ends_window)
    runp.add_argument("--strict-cubes", action="store_true")
    runp.add_argument("--layout-seed", type=int, default=RunConfig.layout_seed)
    runp.add_argument("--cone-depth", type=int, default=RunConfig.cone_depth)

    orp = sub.add_parser("oracle", help="independent brute-force sphere sizes")
    orp.add_argument("input")
    orp.add_argument("--levels", type=int, default=4)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "oracle":
        return oracle_main(args)
    try:
        config = RunConfig(
            input_path=args.input, mode=args.mode, levels=args.levels,
            cap=args.cap, out_dir=args.out,
            exports=tuple(x for x in args.export.split(",") if x),
            ends_window=args.ends_window, strict_cubes=args.strict_cubes,
            layout_seed=args.layout_seed, cone_depth=args.cone_depth)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
