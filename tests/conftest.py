import io
import json
import math
from itertools import combinations, permutations

import pytest

from subdivlab import DefiningGraph, build_ball
from subdivlab.exports import SVG_SIZE, tiling_to_json
from subdivlab.graphs import cell_str
from subdivlab.tiling import (LABELS, ROOT, build_history, build_tiling,
                              build_tilings, extract_rule)
from subdivlab.words import WordError


def triangle():
    return DefiningGraph(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])


def path3():
    return DefiningGraph(["a", "z", "b"], [["a", "z"], ["b", "z"]])


def free3():
    return DefiningGraph(["a", "b", "c"], [])


def single():
    return DefiningGraph(["a"], [])


def edge_plus_vertex():
    # one commuting pair plus an isolated generator
    return DefiningGraph(["a", "b", "c"], [["b", "c"]])


def square():
    return DefiningGraph(["a", "b"], [["a", "b"]])


def c4():
    # the 4-cycle a-b-c-d-a
    return DefiningGraph(["a", "b", "c", "d"],
                         [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]])


def k4():
    return DefiningGraph(["a", "b", "c", "d"],
                         [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
                          ["b", "d"], ["c", "d"]])


_BALLS = {}
_TILINGS = {}
_RULES = {}

_SPECS = {
    "triangle": (triangle, 6),
    "path3": (path3, 6),
    "free3": (free3, 6),
    "single": (single, 6),
    "edge_plus_vertex": (edge_plus_vertex, 6),
    "square": (square, 6),
    # balls of 3 levels, read as 3 tilings
    "c4": (c4, 3),
    "k4": (k4, 3),
}


def get_ball(name):
    if name not in _BALLS:
        factory, depth = _SPECS[name]
        _BALLS[name] = build_ball(factory(), depth)
    return _BALLS[name]


def get_tilings(name, count=None):
    ball = get_ball(name)
    if count is None:
        count = ball.N - 2
    key = (name, count)
    if key not in _TILINGS:
        _TILINGS[key] = build_tilings(ball, count)
    return _TILINGS[key]


def json_text(tiling, rule=None):
    """The tiling's JSON export, as the text the run writes."""
    return export_text(tiling_to_json, tiling, rule)


def export_text(export, *args, **kwargs):
    """The text that `export` writes to its file (its second argument)."""
    out = io.StringIO()
    export(args[0], out, *args[1:], **kwargs)
    return out.getvalue()


def get_rule(name, count=None):
    tilings = get_tilings(name, count)
    key = (name, len(tilings))
    if key not in _RULES:
        _RULES[key] = extract_rule(build_history(tilings))
    return _RULES[key]


@pytest.fixture(scope="session")
def balls():
    return {name: get_ball(name) for name in _SPECS}


def _canonical_edges(d, edges):
    return min(tuple(sorted(tuple(sorted((p[i], p[j]))) for i, j in edges))
               for p in permutations(range(d)))


def all_graphs_up_to_iso(d):
    """Representative edge sets of every isomorphism class on d vertices."""
    pairs = list(combinations(range(d), 2))
    seen = set()
    reps = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        canon = _canonical_edges(d, edges)
        if canon not in seen:
            seen.add(canon)
            reps.append(edges)
    return reps


@pytest.fixture(scope="module")
def class_tilings():
    """`class_tilings(d, edges, count)`: the first `count` tilings of the
    defining graph on d vertices with these edges (balls capped at 300000),
    or of the first isomorphic graph asked for: the cache key is canonical.

    Tiling n reads the ball to depth n + 1 only.  So the first 3 tilings
    come from a depth-3 ball, once per isomorphism class, and the tests of
    one module that sweep every small defining graph share them (about
    50 MB for the 18 classes on up to 4 generators, freed with the module).
    Deeper levels are built on request from a ball as deep as they read,
    and not kept: a 4th level holds more than the first 3 together."""
    cache = {}

    def get(d, edges, count):
        key = (d, _canonical_edges(d, edges))
        if key not in cache:
            graph = graph_from_edges(d, edges)
            cache[key] = graph, build_tilings(build_ball(graph, 3, cap=300000), 3)
        graph, tilings = cache[key]
        tilings = tilings[:count]
        if count > 3:
            ball = build_ball(graph, count, cap=300000)
            tilings += [build_tiling(ball, n) for n in range(3, count)]
        return tilings
    return get


def graph_from_edges(d, edges):
    names = [chr(ord("a") + i) for i in range(d)]
    return DefiningGraph(names, [[names[i], names[j]] for i, j in edges])


# -- normal-form word helpers: the ball takes an element's sort key and
# audit predecessor from its state (`words.sort_key`,
# `words.predecessor_state`); these are the references it is tested against


def nf_to_word(nf):
    letters = []
    for syll in nf:
        for i, e in syll:
            letters.extend([(i, 1 if e > 0 else -1)] * abs(e))
    return tuple(letters)


def word_length(nf) -> int:
    return sum(abs(e) for syll in nf for _, e in syll)


def nf_key(nf):
    """Total canonical order on elements used for every tie-break."""
    return (word_length(nf), len(nf), nf)


def predecessor_word(nf):
    """Drop the leftmost diagonal generator of the first syllable's chain,
    i.e. decrement every exponent of maximal absolute value by one; returns
    a word, not yet normalized."""
    if not nf:
        raise WordError("identity has no predecessor")
    first = nf[0]
    m = max(abs(e) for _, e in first)
    new_first = tuple(
        (i, e - (1 if e > 0 else -1)) if abs(e) == m else (i, e) for i, e in first)
    new_first = tuple((i, e) for i, e in new_first if e != 0)
    rest = ((new_first,) if new_first else ()) + nf[1:]
    return nf_to_word(rest)


# -- export references: the exports as they were written before they came to
# be formed from per-level text pieces, each building its whole text (or
# record dicts) from sorted (name, label) adjacency lists and sets of name
# pairs; the exports are tested byte for byte against them


def adjacency(tiling, names):
    """Each stored tile's (neighbour name, label) pairs, sorted; `names`
    maps a tile index to its name (a range gives the indices)."""
    start, nbr, label = tiling.rows
    entries = list(zip(map(names.__getitem__, nbr),
                       map(LABELS.__getitem__, label)))
    start = start.tolist()
    return [sorted(entries[s:e]) for s, e in zip(start, start[1:])]


def _types_reference(tiling, rule):
    if rule is None:
        return [None] * len(tiling.ideal)
    return [None if flag else name
            for flag, name in zip(tiling.ideal, rule.type_of[tiling.level])]


def tile_records_reference(tiling, rule):
    """The JSON record dict of each tile: the stored ones, then the ideal
    ones."""
    ball, gens = tiling.ball, tiling.graph.generators
    first = ball.starts[tiling.level + 1]
    owners = ball.names[first:first + len(tiling.ideal)]
    names = tiling.names()
    for i, (name, owner, parent, adjacent, type_name) in enumerate(zip(
            names, owners, tiling.parent_names(), adjacency(tiling, names),
            _types_reference(tiling, rule))):
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
    for name, owner, facet, parent in tiling.ideal_tiles():
        yield {"id": name, "level": tiling.level,
               "owner": ball.nf_string(owner), "ideal": True,
               "parent": parent, "adjacent": [],
               "facet": cell_str(tiling.graph, facet)}


def tiling_json_reference(tiling, rule=None):
    """The tiling JSON as `json.dumps` writes the whole level."""
    return json.dumps({"level": tiling.level,
                       "tiles": list(tile_records_reference(tiling, rule))},
                      sort_keys=True, indent=2)


def tiling_dot_reference(tiling, rule=None, name="tiling"):
    lines = ["graph %s {" % name]
    names = tiling.names()
    nodes = list(zip(names, tiling.ideal, _types_reference(tiling, rule)))
    nodes += [(tid, True, None) for tid, _, _, _ in tiling.ideal_tiles()]
    for tid, ideal, type_name in nodes:
        label = tid
        if rule is not None and not ideal:
            label += "\\n%s" % rule.coalesced_of.get(type_name, "")
        lines.append('  "%s" [style=%s, label="%s"];'
                     % (tid, "dashed" if ideal else "solid", label))
    seen = set()
    for tid, adjacent in zip(names, adjacency(tiling, names)):
        for o, lab in adjacent:
            key = tuple(sorted((tid, o)))
            if key in seen:
                continue
            seen.add(key)
            style = "solid" if lab == "flat" else "dotted"
            lines.append('  "%s" -- "%s" [style=%s];' % (key[0], key[1], style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def history_dot_reference(history, name="history"):
    lines = ["digraph %s {" % name, '  "%s";' % history.name(ROOT)]
    names = [t.names() for t in history.tilings]
    flat = {t.first + i: tid for t, level in zip(history.tilings, names)
            for i, tid in enumerate(level)}   # by vertex
    lines += ['  "%s";' % flat[v] for v in history.vertices]
    parents = [(history.name(ROOT), ROOT)]
    parents += [(flat[v], v) for v in range(history.tilings[0].first,
                                            history.tilings[-1].first)]
    for parent, v in sorted(parents):
        for k in sorted(flat[c] for c in history.children(v)):
            lines.append('  "%s" -> "%s";' % (parent, k))
    for n, t in enumerate(history.tilings):
        seen = set()
        rows = adjacency(t, names[n])
        for i in t.nonideal():
            for o, _ in rows[i]:
                key = tuple(sorted((names[n][i], o)))
                if key not in seen:
                    seen.add(key)
                    lines.append('  "%s" -> "%s" [dir=none, style=dashed];' % key)
    lines.append("}")
    return "\n".join(lines) + "\n"


def tiling_svg_reference(tiling, rule=None, seed=0):
    names = tiling.names()
    tiles = list(zip(names, tiling.parent_names(),
                     _types_reference(tiling, rule), tiling.ideal))
    tiles += [(tid, parent, None, True)
              for tid, _, _, parent in tiling.ideal_tiles()]
    order = sorted(tiles, key=lambda t: (t[1] or "", t[0]))
    n = max(len(order), 1)
    centre, radius = SVG_SIZE / 2, 0.45 * SVG_SIZE
    pos = {}
    for k, t in enumerate(order):
        angle = 2 * math.pi * (k + seed) / n
        pos[t[0]] = (round(centre + radius * math.cos(angle), 3),
                     round(centre + radius * math.sin(angle), 3))
    edges = {tuple(sorted((tid, o)))
             for tid, adjacent in zip(names, adjacency(tiling, names))
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
