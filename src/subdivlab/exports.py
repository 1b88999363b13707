"""Deterministic artifact exports: tiling JSON, DOT, an SVG of each level's
tiles on a circle ordered by parent, report JSON and CSV count tables.  Tile
names and ideal tiles are formed here, from the ball, once per exported
level: a `LevelLabels` holds them for every export of that level.  The
tiling JSON is written one tile record at a time."""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from functools import cached_property

from .graphs import cell_str
from .tiling import ROOT

SVG_SIZE = 640   # width and height of the drawing, in px


class LevelLabels:
    """One tiling's tile names, parent names, sorted neighbour rows and
    ideal tiles, each formed on first use and then shared by the exports
    that take it."""

    def __init__(self, tiling):
        self.tiling = tiling

    @cached_property
    def names(self):
        return self.tiling.names()

    @cached_property
    def parents(self):
        return self.tiling.parent_names()

    @cached_property
    def adjacency(self):
        return self.tiling.adjacency(self.names)

    @cached_property
    def ideal(self):
        return list(self.tiling.ideal_tiles())


def _types(tiling, rule):
    """Each stored tile's refined type; None for an ideal one or no rule."""
    if rule is None:
        return [None] * len(tiling.parent)
    return [None if flag else name
            for flag, name in zip(tiling.ideal, rule.type_of[tiling.level])]


def _tile_records(tiling, rule, labels):
    """The JSON record of each tile: the stored ones, then the ideal ones."""
    ball, gens = tiling.ball, tiling.graph.generators
    first = ball.starts[tiling.level + 1]   # tile 0's ball index
    owners = ball.names[first:first + len(tiling.parent)]
    for i, (name, owner, parent, adjacent, type_name) in enumerate(zip(
            labels.names, owners, labels.parents, labels.adjacency,
            _types(tiling, rule))):
        rec = {"id": name, "level": tiling.level, "owner": owner,
               "ideal": bool(tiling.ideal[i]), "parent": parent,
               "adjacent": [list(p) for p in adjacent]}
        if not tiling.ideal[i]:
            rec["cells"] = [[[gens[k], s] for k, s in c] for c in tiling.cells(i)]
            rec["covered_clique"] = [gens[k] for k in tiling.covered_clique(i)]
            if rule is not None:
                rec["type"] = type_name
                rec["type_coalesced"] = rule.coalesced_of.get(type_name)
        yield rec
    for name, owner, facet, parent in labels.ideal:
        yield {"id": name, "level": tiling.level,
               "owner": ball.nf_string(owner), "ideal": True,
               "parent": parent, "adjacent": [],
               "facet": cell_str(tiling.graph, facet)}


def tiling_to_json(tiling, out, rule=None, labels=None):
    """Write the level's tiles to the text file `out` as the JSON object
    {"level", "tiles"}, one tile record at a time: byte for byte what
    `json.dump(..., sort_keys=True, indent=2)` writes for the whole
    object."""
    records = _tile_records(tiling, rule, labels or LevelLabels(tiling))
    # a record sits two levels deep, and no JSON string holds a raw newline
    encode = json.JSONEncoder(sort_keys=True, indent=2).encode
    out.write('{\n  "level": %d,\n  "tiles": [' % tiling.level)
    sep = "\n    "
    for rec in records:
        out.write(sep + encode(rec).replace("\n", "\n    "))
        sep = ",\n    "
    out.write("]\n}" if sep == "\n    " else "\n  ]\n}")


def tiling_to_dot(tiling, rule=None, name="tiling", labels=None):
    lines = ["graph %s {" % name]
    labels = labels or LevelLabels(tiling)
    names = labels.names
    nodes = list(zip(names, tiling.ideal, _types(tiling, rule)))
    nodes += [(tid, True, None) for tid, _, _, _ in labels.ideal]
    for tid, ideal, type_name in nodes:
        label = tid
        if rule is not None and not ideal:
            label += "\\n%s" % rule.coalesced_of.get(type_name, "")
        lines.append('  "%s" [style=%s, label="%s"];'
                     % (tid, "dashed" if ideal else "solid", label))
    seen = set()
    for tid, adjacent in zip(names, labels.adjacency):
        for o, lab in adjacent:
            key = tuple(sorted((tid, o)))
            if key in seen:
                continue
            seen.add(key)
            style = "solid" if lab == "flat" else "dotted"
            lines.append('  "%s" -- "%s" [style=%s];' % (key[0], key[1], style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def history_to_dot(history, name="history", labels=None):
    """`labels`, if given, holds a `LevelLabels` per tiling of `history`."""
    lines = ["digraph %s {" % name, '  "%s";' % history.name(ROOT)]
    labels = labels or [LevelLabels(t) for t in history.tilings]
    names = [level.names for level in labels]
    flat = [tid for level in names for tid in level]   # by vertex
    lines += ['  "%s";' % flat[v] for v in history.vertices]
    # subdivision edges, parents and children in name order
    parents = [(history.name(ROOT), ROOT)]
    parents += [(flat[v], v) for v in range(history.offsets[-2])]
    for parent, v in sorted(parents):
        for k in sorted(flat[c] for c in history.children(v)):
            lines.append('  "%s" -> "%s";' % (parent, k))
    for n, t in enumerate(history.tilings):
        seen = set()
        adjacency = labels[n].adjacency
        for i in t.nonideal():
            for o, _ in adjacency[i]:
                key = tuple(sorted((names[n][i], o)))
                if key not in seen:
                    seen.add(key)
                    lines.append('  "%s" -> "%s" [dir=none, style=dashed];' % key)
    lines.append("}")
    return "\n".join(lines) + "\n"


def tiling_to_svg(tiling, rule=None, seed=0, labels=None):
    """Tiles evenly spaced on a circle, sorted by (parent name, name) so
    that the children of one tile sit side by side; `seed` rotates the start
    by whole steps.  Distances carry no metric meaning."""
    labels = labels or LevelLabels(tiling)
    names = labels.names
    # (name, parent name, refined type, ideal) of every tile, stored first
    tiles = list(zip(names, labels.parents, _types(tiling, rule),
                     tiling.ideal))
    tiles += [(tid, parent, None, True)
              for tid, _, _, parent in labels.ideal]
    order = sorted(tiles, key=lambda t: (t[1] or "", t[0]))
    n = max(len(order), 1)
    centre, radius = SVG_SIZE / 2, 0.45 * SVG_SIZE
    pos = {}
    for k, t in enumerate(order):
        angle = 2 * math.pi * (k + seed) / n
        pos[t[0]] = (round(centre + radius * math.cos(angle), 3),
                     round(centre + radius * math.sin(angle), 3))
    edges = {tuple(sorted((tid, o)))
             for tid, adjacent in zip(names, labels.adjacency)
             for o, _ in adjacent}

    legend = []
    if rule is not None:
        legend = rule.coalesced_names()
    out = io.StringIO()
    out.write('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">\n'
              % (SVG_SIZE, SVG_SIZE + 20 * (len(legend) + 1)))
    out.write('<!-- circular layout ordered by parent, seed=%d; '
              'distances carry no meaning -->\n' % seed)
    for a, b in sorted(edges):
        xa, ya = pos[a]
        xb, yb = pos[b]
        out.write('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#888"/>\n'
                  % (xa, ya, xb, yb))
    palette = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
               "#aa3377", "#bbbbbb"]
    for tid, _, type_name, ideal in tiles:
        x, y = pos[tid]
        color = "#dddddd"
        if type_name is not None:
            co = rule.coalesced_of.get(type_name)
            if co is not None and co in legend:
                color = palette[legend.index(co) % len(palette)]
        dash = ' stroke-dasharray="3,3"' if ideal else ""
        out.write('<circle cx="%s" cy="%s" r="5" fill="%s" stroke="#333"%s/>\n'
                  % (x, y, color, dash))
    for i, name in enumerate(legend):
        y = SVG_SIZE + 15 + 20 * i
        out.write('<circle cx="12" cy="%d" r="5" fill="%s"/>'
                  '<text x="24" y="%d" font-size="12">type %s</text>\n'
                  % (y, palette[i % len(palette)], y + 4, name))
    out.write("</svg>\n")
    return out.getvalue()


def counts_csv(tilings, rule=None):
    out = io.StringIO()
    w = csv.writer(out)
    names = rule.coalesced_names() if rule is not None else []
    w.writerow(["level", "nonideal_tiles", "ideal_tiles"] + ["type_%s" % n for n in names])
    for t in tilings:
        tiles = t.nonideal()
        row = [t.level, len(tiles), len(t.tiles) - len(tiles)]
        if rule is not None:
            c = Counter()
            for i in tiles:
                c[rule.coalesced_of.get(rule.type_of[t.level][i])] += 1
            row += [c.get(n, 0) for n in names]
        w.writerow(row)
    return out.getvalue()


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
