"""Correctness check of one `subdivlab run` output directory.

Every check reads fields whose meaning is fixed: the exit code, the
non-ideal tile counts of `counts.csv`, the first `levels + 1` sphere sizes,
and the verdicts of `report.json`.  The expected verdicts were recorded from
the program at the commit that introduced the benchmark (`expected.json`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import xml.etree.ElementTree as ET

_DOT_NODE = re.compile(r'^  "([^"]+)" \[style=(solid|dashed), label="[^"]*"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -- "([^"]+)" \[style=(solid|dotted)\];$')


def report_digest(out_dir):
    with open(os.path.join(out_dir, "report.json"), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def nonideal_tiles(out_dir):
    """Non-ideal tiles per level, from counts.csv."""
    with open(os.path.join(out_dir, "counts.csv"), newline="") as f:
        return [int(row["nonideal_tiles"]) for row in csv.DictReader(f)]


def _dot_tiles(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("graph ") or lines[-1] != "}":
        raise ValueError("not a DOT graph")
    nodes, edges = set(), []
    for line in lines[1:-1]:
        m = _DOT_NODE.match(line)
        if m:
            nodes.add(m.group(1))
            continue
        m = _DOT_EDGE.match(line)
        if not m:
            raise ValueError("unparsed DOT line %r" % line)
        edges.append((m.group(1), m.group(2)))
    if any(a not in nodes or b not in nodes for a, b in edges):
        raise ValueError("edge to an undeclared node")
    return len(nodes)


def _svg_tiles(path):
    # tiles are drawn with an outline; legend swatches have none
    root = ET.parse(path).getroot()
    return sum(1 for c in root.iter("{http://www.w3.org/2000/svg}circle")
               if "stroke" in c.attrib)


def _json_tiles(path):
    with open(path) as f:
        return len(json.load(f)["tiles"])


_EXPORTS = (("tilings", "json", _json_tiles), ("dot", "dot", _dot_tiles),
            ("svg", "svg", _svg_tiles))


def check_run(exit_code, out_dir, expected, oracle_sizes=None):
    """Return the list of problems with one run; empty means correct."""
    if exit_code != 0:
        return ["exit code %d" % exit_code]
    problems = []
    try:
        with open(os.path.join(out_dir, "report.json")) as f:
            report = json.load(f)
        tiles = nonideal_tiles(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return ["unreadable output: %s" % exc]
    levels = expected["levels"]
    spheres = report.get("sphere_sizes", [])
    if len(tiles) != levels:
        problems.append("counts.csv has %d levels, want %d" % (len(tiles), levels))
    elif spheres[1:levels + 1] != tiles:
        problems.append("non-ideal tiles %s differ from sphere sizes %s"
                        % (tiles, spheres[1:levels + 1]))
    if oracle_sizes is not None and spheres[:levels + 1] != oracle_sizes:
        problems.append("sphere sizes %s differ from oracle %s"
                        % (spheres[:levels + 1], oracle_sizes))

    special = report.get("special", {})
    got = {
        "growth_classification": report.get("growth", {}).get("classification"),
        "ends_verdict": report.get("ends", {}).get("verdict"),
        "mesh_certified": report.get("mesh", {}).get("certified"),
        "divergence_diameters": report.get("divergence", {}).get("diameters"),
        "divergence_mode": report.get("divergence", {}).get("mode"),
        "special_tile_counts": special.get("tile_counts"),
        "special_star_convex": special.get("star_convex"),
    }
    for key, value in got.items():
        if value != expected.get(key):
            problems.append("%s is %r, want %r" % (key, value, expected.get(key)))

    for sub, ext, count in _EXPORTS:
        if sub not in expected.get("exports", ()):
            continue
        for n, want in enumerate(expected["level_tiles"]):
            path = os.path.join(out_dir, sub, "level_%02d.%s" % (n, ext))
            try:
                have = count(path)
            except (OSError, ValueError, ET.ParseError) as exc:
                problems.append("%s: %s" % (path, exc))
                continue
            if have != want:
                problems.append("%s has %d tiles, want %d" % (path, have, want))
    return problems
