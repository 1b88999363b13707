"""Deterministic artifact exports: tiling JSON (with re-import), DOT, an SVG
of each level's tiles on a circle ordered by parent, report JSON and CSV
count tables."""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

from .graphs import cell_str

SVG_SIZE = 640   # width and height of the drawing, in px


def tiling_to_json(tiling, rule=None):
    tiles = []
    for t in tiling.tiles:
        rec = {
            "id": t.id,
            "level": t.level,
            "owner": t.owner_nf,
            "ideal": t.ideal,
            "parent": t.parent_id,
            "adjacent": [[o, lab] for o, lab in tiling.neighbors(t.id)],
        }
        if not t.ideal:
            rec["cells"] = [
                [[tiling.graph.generators[i], s] for i, s in c] for c in t.cells]
            rec["covered_clique"] = [tiling.graph.generators[i]
                                     for i in t.covered_clique]
            if rule is not None:
                name = rule.type_of.get(t.id)
                rec["type"] = name
                rec["type_coalesced"] = rule.coalesced_of.get(name)
        else:
            rec["facet"] = cell_str(tiling.graph, t.ideal_facet)
        tiles.append(rec)
    return {"level": tiling.level, "tiles": tiles}


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
    """Relabelling-equality check between a built tiling and a re-import."""
    ids = sorted(t.id for t in tiling.tiles)
    if ids != sorted(imported.by_id):
        return False
    for t in tiling.tiles:
        if sorted(tiling.neighbors(t.id)) != imported.adjacency[t.id]:
            return False
        rec = imported.by_id[t.id]
        if rec["ideal"] != t.ideal or rec["parent"] != t.parent_id:
            return False
    return True


def tiling_to_dot(tiling, rule=None, name="tiling"):
    lines = ["graph %s {" % name]
    for t in tiling.tiles:
        style = "dashed" if t.ideal else "solid"
        label = t.id
        if rule is not None and not t.ideal:
            label += "\\n%s" % rule.coalesced_of.get(rule.type_of.get(t.id), "")
        lines.append('  "%s" [style=%s, label="%s"];' % (t.id, style, label))
    seen = set()
    for t in tiling.tiles:
        for o, lab in tiling.neighbors(t.id):
            key = tuple(sorted((t.id, o)))
            if key in seen:
                continue
            seen.add(key)
            style = "solid" if lab == "flat" else "dotted"
            lines.append('  "%s" -- "%s" [style=%s];' % (key[0], key[1], style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def history_to_dot(history, name="history"):
    lines = ["digraph %s {" % name, '  "origin";']
    for t in history.tilings:
        for tile in t.nonideal():
            lines.append('  "%s";' % tile.id)
    for parent, kids in sorted(history.children.items()):
        for k in sorted(kids):
            lines.append('  "%s" -> "%s";' % (parent, k))
    for t in history.tilings:
        seen = set()
        for tile in t.nonideal():
            for o, _ in t.neighbors(tile.id):
                key = tuple(sorted((tile.id, o)))
                if key not in seen:
                    seen.add(key)
                    lines.append('  "%s" -> "%s" [dir=none, style=dashed];' % key)
    lines.append("}")
    return "\n".join(lines) + "\n"


def tiling_to_svg(tiling, rule=None, seed=0):
    """Tiles evenly spaced on a circle, sorted by (parent id, id) so that the
    children of one tile sit side by side; `seed` rotates the start by whole
    steps.  Distances carry no metric meaning."""
    order = sorted(tiling.tiles, key=lambda t: (t.parent_id or "", t.id))
    n = max(len(order), 1)
    centre, radius = SVG_SIZE / 2, 0.45 * SVG_SIZE
    pos = {}
    for k, t in enumerate(order):
        angle = 2 * math.pi * (k + seed) / n
        pos[t.id] = (round(centre + radius * math.cos(angle), 3),
                     round(centre + radius * math.sin(angle), 3))
    edges = set()
    for t in tiling.tiles:
        for o, _ in tiling.neighbors(t.id):
            edges.add(tuple(sorted((t.id, o))))

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
    for t in tiling.tiles:
        x, y = pos[t.id]
        color = "#dddddd"
        if rule is not None and not t.ideal:
            co = rule.coalesced_of.get(rule.type_of.get(t.id))
            if co is not None and co in legend:
                color = palette[legend.index(co) % len(palette)]
        dash = ' stroke-dasharray="3,3"' if t.ideal else ""
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
        row = [t.level, len(t.nonideal()), len(t.ideal_tiles())]
        if rule is not None:
            c = Counter()
            for tile in t.nonideal():
                name = rule.type_of.get(tile.id)
                c[rule.coalesced_of.get(name)] += 1
            row += [c.get(n, 0) for n in names]
        w.writerow(row)
    return out.getvalue()


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
