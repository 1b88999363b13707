"""Deterministic artifact exports: tiling JSON, DOT, an SVG of each level's
tiles on a circle ordered by parent, report JSON and CSV count tables.

The tiling JSON, DOT and SVG exports write to an open text file as they
go, and read each level's names in one order.  A `LevelLabels` forms them
once per exported level, from the ball: each stored tile's name, its JSON
string and its rank in name order, and each tile's neighbours sorted by
(name rank, label code).  The exports read them by tile index and meet
each edge once: DOT at the end with the smaller index, SVG at the end with
the smaller rank, so no set of name pairs is built.

A tiling JSON record of a stored tile is one `%`-format of pieces formed
once per level (quoted names and neighbour entries' heads), once per
covered move (the cells and covered clique) or once per refined type (the
type and its coalesced type); the last two are encoded by `json` and
re-indented.  The file is byte for byte what `json.dump(...,
sort_keys=True, indent=2)` writes for the whole level, which with an
indent runs the pure-Python encoder on every value."""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from collections import Counter
from functools import cached_property
from itertools import pairwise
from json.encoder import encode_basestring_ascii as quote

from .graphs import cell_str
from .tiling import LABELS, ROOT

SVG_SIZE = 640   # width and height of the drawing, in px
FLAT = LABELS.index("flat")


class LevelLabels:
    """One tiling's names in one order, each formed on first use and then
    shared by the exports of its level: the stored tiles' names, their JSON
    strings, their name order and rank, their parents' names, each tile's
    neighbour row in (name rank, label code) order, and the ideal tiles."""

    def __init__(self, tiling):
        self.tiling = tiling

    @cached_property
    def names(self):
        return self.tiling.names()

    @cached_property
    def quoted(self):
        """Each stored tile's name as a JSON string, as `json` writes it."""
        return list(map(quote, self.names))

    @cached_property
    def order(self):
        """The stored tiles' indices in name order."""
        names = self.names
        return array("i", sorted(range(len(names)), key=names.__getitem__))

    @cached_property
    def rank(self):
        """Each stored tile's place in `order`, by index."""
        rank = array("i", bytes(4 * len(self.order)))
        for r, i in enumerate(self.order):
            rank[i] = r
        return rank

    @cached_property
    def parents(self):
        return self.tiling.parent_names()

    @cached_property
    def rows(self):
        """(neighbour index array, label codes): `Tiling.rows` with each
        row re-sorted by (name rank, label code), so tile i's neighbours are
        still entries start[i]..start[i + 1] - 1 of its offset array."""
        start, nbr, label = self.tiling.rows
        rank = self.rank
        keys = [rank[j] * 4 + lab for j, lab in zip(nbr, label)]
        rows = []
        for s, e in pairwise(start):
            rows += sorted(keys[s:e])
        return (array("i", [self.order[k >> 2] for k in rows]),
                bytes([k & 3 for k in rows]))

    @cached_property
    def ideal(self):
        return list(self.tiling.ideal_tiles())

    def keep_for_history(self):
        """Drop what only the level's own exports read: `history_to_dot`
        reads the names, order, rank and rows."""
        for attr in ("quoted", "parents", "ideal"):
            self.__dict__.pop(attr, None)


def _types(tiling, rule):
    """Each stored tile's refined type; None for an ideal one or no rule."""
    if rule is None:
        return [None] * len(tiling.ideal)
    return [None if flag else name
            for flag, name in zip(tiling.ideal, rule.type_of[tiling.level])]


def _members(obj):
    """The members of the JSON object `obj` as `json.dump(...,
    sort_keys=True, indent=2)` writes them in a tile record, six spaces in."""
    text = json.JSONEncoder(sort_keys=True, indent=2).encode(obj)
    return "    " + text[2:-2].replace("\n", "\n    ")


# a record sits two levels deep in the file, its members six spaces in, and
# its keys are in sorted order
_STORED = ('{\n      "adjacent": %s,\n%s      "id": %s,\n      "ideal": %s,\n'
           '      "level": %d,\n      "owner": %s,\n      "parent": %s%s\n    }')
_IDEAL = ('{\n      "adjacent": [],\n      "facet": %s,\n      "id": %s,\n'
          '      "ideal": true,\n      "level": %d,\n      "owner": %s,\n'
          '      "parent": %s\n    }')
# a neighbour entry is its name's head, then its label's tail
_HEAD = '\n        [\n          %s,\n          '
_TAIL = tuple('"%s"\n        ]' % label for label in LABELS)


def _records(tiling, rule, labels):
    """The JSON text of each tile record: the stored tiles', then the ideal
    ones'."""
    ball, gens, level = tiling.ball, tiling.graph.generators, tiling.level
    first = tiling.first
    owners = ball.names[first:first + len(tiling.ideal)]
    heads = [_HEAD % q for q in labels.quoted]
    start, (nbr, codes) = tiling.rows[0], labels.rows
    cells = {}   # covered move -> its "cells" and "covered_clique" members
    types = {}   # refined type -> its "type" and "type_coalesced" members
    for i, (name, owner, parent, type_name) in enumerate(zip(
            labels.quoted, owners, labels.parents, _types(tiling, rule))):
        s, e = start[i], start[i + 1]
        adjacent = ("[%s\n      ]" % ",".join([
            heads[j] + _TAIL[code] for j, code in zip(nbr[s:e], codes[s:e])])
            if e > s else "[]")
        parent = "null" if parent is None else quote(parent)
        if tiling.ideal[i]:
            yield _STORED % (adjacent, "", name, "true", level, quote(owner),
                             parent, "")
            continue
        move = ball.pred_move[first + i]
        covered = cells.get(move)
        if covered is None:
            covered = cells[move] = _members({
                "cells": [[[gens[k], sign] for k, sign in cell]
                          for cell in tiling.cells(i)],
                "covered_clique": [gens[k] for k in tiling.covered_clique(i)],
            }) + ",\n"
        typed = ""
        if rule is not None:
            typed = types.get(type_name)
            if typed is None:
                typed = types[type_name] = ",\n" + _members({
                    "type": type_name,
                    "type_coalesced": rule.coalesced_of.get(type_name)})
        yield _STORED % (adjacent, covered, name, "false", level, quote(owner),
                         parent, typed)
    for name, owner, facet, parent in labels.ideal:
        yield _IDEAL % (quote(cell_str(tiling.graph, facet)), quote(name),
                        level, quote(ball.nf_string(owner)),
                        "null" if parent is None else quote(parent))


def tiling_to_json(tiling, out, rule=None, labels=None):
    """Write the level's tiles to the text file `out` as the JSON object
    {"level", "tiles"}, one tile record at a time: byte for byte what
    `json.dump(..., sort_keys=True, indent=2)` writes for the whole
    object."""
    out.write('{\n  "level": %d,\n  "tiles": [' % tiling.level)
    sep = "\n    "
    for rec in _records(tiling, rule, labels or LevelLabels(tiling)):
        out.write(sep)
        out.write(rec)
        sep = ",\n    "
    out.write("]\n}" if sep == "\n    " else "\n  ]\n}")


def tiling_to_dot(tiling, out, rule=None, name="tiling", labels=None):
    """Write the level to the text file `out` as a DOT graph: a node per
    tile, the stored ones then the ideal ones, and an edge per neighbour
    pair, met at the end with the smaller index, styled by the pair's first
    label."""
    labels = labels or LevelLabels(tiling)
    names, rank = labels.names, labels.rank
    out.write("graph %s {\n" % name)
    for tid, ideal, type_name in zip(names, tiling.ideal, _types(tiling, rule)):
        label = tid
        if rule is not None and not ideal:
            label += "\\n%s" % rule.coalesced_of.get(type_name, "")
        out.write('  "%s" [style=%s, label="%s"];\n'
                  % (tid, "dashed" if ideal else "solid", label))
    for tid, _, _, _ in labels.ideal:
        out.write('  "%s" [style=dashed, label="%s"];\n' % (tid, tid))
    start, (nbr, codes) = tiling.rows[0], labels.rows
    for i, (tid, r, (s, e)) in enumerate(zip(names, rank, pairwise(start))):
        prev = i
        # a pair's entries sit together, its first label first
        for j, code in zip(nbr[s:e], codes[s:e]):
            if j > i and j != prev:
                a, b = (tid, names[j]) if r < rank[j] else (names[j], tid)
                out.write('  "%s" -- "%s" [style=%s];\n'
                          % (a, b, "solid" if code == FLAT else "dotted"))
            prev = j
    out.write("}\n")


def history_to_dot(history, out, name="history", labels=None):
    """Write the history graph to the text file `out` as a DOT digraph: a
    node per vertex, the subdivision edges with parents and children in
    name order, then each level's horizontal edges.  `labels`, if given,
    holds a `LevelLabels` per tiling of `history`."""
    labels = labels or [LevelLabels(t) for t in history.tilings]
    out.write("digraph %s {\n" % name)
    out.write('  "%s";\n' % history.name(ROOT))
    for t, level in zip(history.tilings, labels):
        for i in t.nonideal():
            out.write('  "%s";\n' % level.names[i])

    def children(v, n):
        # the children of vertex v, which lie on level n, in name order
        names, rank = labels[n].names, labels[n].rank
        first = labels[n].tiling.first
        return [names[c - first] for c
                in sorted(history.children(v), key=lambda c: rank[c - first])]

    for k in children(ROOT, 0):
        out.write('  "%s" -> "%s";\n' % (history.name(ROOT), k))
    # a level's names all begin "t<n>|", and that prefix orders the levels
    for n in sorted(range(len(labels) - 1), key="t%d|".__mod__):
        names, first = labels[n].names, labels[n].tiling.first
        for i in labels[n].order:
            for k in children(first + i, n + 1):
                out.write('  "%s" -> "%s";\n' % (names[i], k))
    for t, level in zip(history.tilings, labels):
        names, rank, ideal = level.names, level.rank, t.ideal
        start, nbr = t.rows[0], level.rows[0]
        for i in t.nonideal():
            tid, r, prev = names[i], rank[i], i
            # a pair is met at its first non-ideal end by index
            for j in nbr[start[i]:start[i + 1]]:
                if j != prev and (j > i or ideal[j]):
                    a, b = (tid, names[j]) if r < rank[j] else (names[j], tid)
                    out.write('  "%s" -> "%s" [dir=none, style=dashed];\n'
                              % (a, b))
                prev = j
    out.write("}\n")


def tiling_to_svg(tiling, out, rule=None, seed=0, labels=None):
    """Write the level to the text file `out` as an SVG: tiles evenly
    spaced on a circle, sorted by (parent name, name) so that the children
    of one tile sit side by side; `seed` rotates the start by whole steps.
    Distances carry no metric meaning.  Each tile's coordinates are
    formatted once, and each edge is met at the end with the smaller rank,
    so the lines come out in name order."""
    labels = labels or LevelLabels(tiling)
    # every tile's name and parent name, the stored ones first
    tids = labels.names + [tid for tid, _, _, _ in labels.ideal]
    parents = labels.parents + [parent for _, _, _, parent in labels.ideal]
    count = len(tids)
    n = max(count, 1)
    centre, radius = SVG_SIZE / 2, 0.45 * SVG_SIZE
    xs, ys = [None] * count, [None] * count
    for k, t in enumerate(sorted(range(count),
                                 key=lambda t: (parents[t] or "", tids[t]))):
        angle = 2 * math.pi * (k + seed) / n
        xs[t] = str(round(centre + radius * math.cos(angle), 3))
        ys[t] = str(round(centre + radius * math.sin(angle), 3))

    legend = []
    if rule is not None:
        legend = rule.coalesced_names()
    out.write('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">\n'
              % (SVG_SIZE, SVG_SIZE + 20 * (len(legend) + 1)))
    out.write('<!-- circular layout ordered by parent, seed=%d; '
              'distances carry no meaning -->\n' % seed)
    start, nbr, rank = tiling.rows[0], labels.rows[0], labels.rank
    for r, i in enumerate(labels.order):
        prev = i
        for j in nbr[start[i]:start[i + 1]]:
            if j != prev and rank[j] > r:
                out.write('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#888"/>\n'
                          % (xs[i], ys[i], xs[j], ys[j]))
            prev = j
    palette = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
               "#aa3377", "#bbbbbb"]
    fill = {co: palette[k % len(palette)] for k, co in enumerate(legend)}
    for t, type_name in enumerate(_types(tiling, rule)):
        color = "#dddddd"
        if type_name is not None:
            color = fill.get(rule.coalesced_of.get(type_name), color)
        dash = ' stroke-dasharray="3,3"' if tiling.ideal[t] else ""
        out.write('<circle cx="%s" cy="%s" r="5" fill="%s" stroke="#333"%s/>\n'
                  % (xs[t], ys[t], color, dash))
    for t in range(len(tiling.ideal), count):
        out.write('<circle cx="%s" cy="%s" r="5" fill="#dddddd" stroke="#333"'
                  ' stroke-dasharray="3,3"/>\n' % (xs[t], ys[t]))
    for i, name in enumerate(legend):
        y = SVG_SIZE + 15 + 20 * i
        out.write('<circle cx="12" cy="%d" r="5" fill="%s"/>'
                  '<text x="24" y="%d" font-size="12">type %s</text>\n'
                  % (y, palette[i % len(palette)], y + 4, name))
    out.write("</svg>\n")


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
