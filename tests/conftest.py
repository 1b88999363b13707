import copy
import io
import json
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, permutations, product

import pytest

from subdivlab import DefiningGraph, build_ball
from subdivlab.exports import SVG_SIZE, tiling_to_json
from subdivlab.graphs import cell_str, inflation_descriptor, support
from subdivlab.tiling import (LABELS, ROOT, Tiling, _shape, build_history,
                              build_tiling, build_tilings, extract_rule)
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


def genus5_surface():
    """The closed genus-5 surface in the graph group of the 5-cycle
    (Servatius, Droms and Servatius, Proc. AMS 106, 1989), as a cube
    complex input.  Generators a0..a4, with a_i commuting with a_(i+1 mod 5);
    the vertices are the sign vectors {+, -}^5; each vertex with + in place
    i has an a_i edge to the vertex with - there; and each commuting pair
    has a square at each vertex with + in both places.  That is 32
    vertices, 80 edges and 40 squares (Euler characteristic -8), and every
    vertex link is the 5-cycle."""
    gens = ["a%d" % i for i in range(5)]
    vertices = ["".join(p) for p in product("+-", repeat=5)]

    def flip(v, i):
        return v[:i] + "-+"[v[i] == "-"] + v[i + 1:]

    def edge(v, i):   # the a_i edge out of v, which has + in place i
        return "e%d%s" % (i, v)

    edges = [{"id": edge(v, i), "from": v, "to": flip(v, i), "label": gens[i]}
             for v in vertices for i in range(5) if v[i] == "+"]
    squares = [[[edge(v, i), 1], [edge(flip(v, i), j), 1],
                [edge(flip(v, j), i), -1], [edge(v, j), -1]]
               for i in range(5) for j in [(i + 1) % 5]
               for v in vertices if v[i] == v[j] == "+"]
    return {"defining_graph": {"generators": gens,
                               "edges": [[gens[i], gens[(i + 1) % 5]]
                                         for i in range(5)]},
            "vertices": vertices, "edges": edges, "squares": squares}


_BALLS = {}
_TILINGS = {}
_HISTORIES = {}
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


def empty_tiling():
    """A level-0 tiling with no tile: the triangle's (which has no ideal
    facet), over a copy of its ball whose level 1 is empty."""
    ball = copy.copy(get_ball("triangle"))
    ball.levels, ball.starts = ball.levels[:1] + [[]], [0, 1, 1]
    return Tiling(ball, 0, 0, array("q"))


def json_text(tiling, rule=None):
    """The tiling's JSON export, as the text the run writes."""
    return export_text(tiling_to_json, tiling, rule)


def export_text(export, *args, **kwargs):
    """The text that `export` writes to its file (its second argument)."""
    out = io.StringIO()
    export(args[0], out, *args[1:], **kwargs)
    return out.getvalue()


def get_history(name, count=None):
    tilings = get_tilings(name, count)
    key = (name, len(tilings))
    if key not in _HISTORIES:
        _HISTORIES[key] = build_history(tilings)
    return _HISTORIES[key]


def get_rule(name, count=None):
    key = (name, len(get_tilings(name, count)))
    if key not in _RULES:
        _RULES[key] = extract_rule(get_history(name, count))
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
        return [None] * tiling.nonideal_count
    return rule.type_of[tiling.level]


def tile_records_reference(tiling, rule):
    """The JSON record dict of each tile: the stored ones, then the ideal
    ones."""
    ball, gens = tiling.ball, tiling.graph.generators
    first = ball.starts[tiling.level + 1]
    owners = ball.names[first:first + tiling.nonideal_count]
    names = tiling.names()
    for i, (name, owner, parent, adjacent, type_name) in enumerate(zip(
            names, owners, tiling.parent_names(), adjacency(tiling, names),
            _types_reference(tiling, rule))):
        rec = {"id": name, "level": tiling.level, "owner": owner,
               "ideal": False, "parent": parent,
               "adjacent": [list(p) for p in adjacent],
               "cells": [[[gens[k], s] for k, s in c] for c in tiling.cells(i)],
               "covered_clique": [gens[k] for k in tiling.covered_clique(i)]}
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
    nodes = [(tid, False, type_name) for tid, type_name
             in zip(names, _types_reference(tiling, rule))]
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
    vertex_names = {flat[v] for v in history.vertices}
    parents = [(history.name(ROOT), ROOT)]
    parents += [(flat[v], v) for v in range(history.tilings[0].first,
                                            history.tilings[-1].first)]
    for parent, v in sorted(parents):
        for k in sorted(flat[c] for c in history.children(v)):
            lines.append('  "%s" -> "%s";' % (parent, k))
    for n, t in enumerate(history.tilings):
        seen = set()
        rows = adjacency(t, names[n])
        for v in history.level_tiles(n):
            for o, _ in rows[v - t.first]:
                key = tuple(sorted((flat[v], o)))
                if key not in seen and o in vertex_names:
                    seen.add(key)
                    lines.append('  "%s" -> "%s" [dir=none, style=dashed];' % key)
    lines.append("}")
    return "\n".join(lines) + "\n"


def tiling_svg_reference(tiling, rule=None, seed=0):
    names = tiling.names()
    tiles = [(tid, parent, type_name, False) for tid, parent, type_name
             in zip(names, tiling.parent_names(),
                    _types_reference(tiling, rule))]
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


# -- rule reference: the rule as it was extracted before its rounds came to
# be int colours, with nested-tuple signatures compared as partitions,
# per-type records, per-interface-class counts and a representative map in
# the descriptor cross-check; `extract_rule` is tested against it


@dataclass
class RuleTypeReference:
    name: str
    clique: tuple
    shape: tuple
    children: Counter
    internal: Counter
    count: int
    example: int
    coalesced: str = ""


@dataclass
class RuleReference:
    types: list
    type_of: list
    coalesced_of: dict
    coalesced_children: dict
    stable: bool
    unstable_detail: list
    interface_classes: dict   # class -> {"count", "continuations"}
    split_report: dict


def rule_reference(history):
    tilings = history.tilings
    graph = tilings[0].graph
    ball = history.ball
    starts, pred = ball.starts, ball.pred
    deepest = len(tilings) - 1
    vertices = history.vertices
    kids = history.children
    members = history.members

    internal_pairs = defaultdict(list)
    for t in tilings[1:]:
        for a, b, label in t.edges():
            a, b = t.first + a, t.first + b
            pa = pred[a]
            if pa == pred[b] and members[a] and members[b]:
                internal_pairs[pa].append((a, b, LABELS[label]))

    raw = {}
    raw_sig = [None] * starts[deepest + 2]
    for v in vertices:
        key = ball.pred_move[v]
        if key not in raw:
            raw[key] = ("raw", support(key), _shape(ball, v))
        raw_sig[v] = raw[key]
    sig = [raw_sig]
    below = starts[deepest + 1]

    def refine_once(prev_sig):
        nxt = list(prev_sig)
        for v in vertices:
            if v < below:
                ch = tuple(sorted(prev_sig[c] for c in kids(v)))
                internal = tuple(sorted(
                    (tuple(sorted((prev_sig[a], prev_sig[b]))), lab)
                    for a, b, lab in internal_pairs.get(v, ())))
                nxt[v] = (prev_sig[v], ch, internal)
        return nxt

    def partition_on(signature, universe):
        groups = defaultdict(list)
        for v in universe:
            groups[signature[v]].append(v)
        return frozenset(frozenset(g) for g in groups.values())

    stable = False
    j_stable = None
    for j in range(deepest):
        sig.append(refine_once(sig[-1]))
        universe = [v for v in vertices if v < starts[deepest - j + 1]]
        if partition_on(sig[j + 1], universe) == partition_on(sig[j], universe):
            stable = True
            j_stable = j
            break
    if j_stable is None:
        j_stable = len(sig) - 1

    final_sig = sig[j_stable]
    core_levels = len(tilings) - j_stable
    core = [v for v in vertices if v < starts[core_levels + 1]]
    classes = defaultdict(list)
    for v in core:
        classes[final_sig[v]].append(v)

    def first_member(group):
        low = history.locate(group[0])[0]
        return low, min(history.name(v) for v in group
                        if v < starts[low + 2])

    unstable_detail = []
    type_of = [None] * starts[deepest + 2]
    for idx, group in enumerate(sorted(classes.values(), key=first_member)):
        for v in group:
            type_of[v] = "T%d" % idx

    unresolved = []
    for n in range(core_levels, len(tilings)):
        depth = deepest - n
        by = defaultdict(set)
        for u in core:
            by[sig[depth][u]].add(type_of[u])
        for v in history.level_tiles(n):
            cands = by.get(sig[depth][v], set())
            if len(cands) == 1:
                type_of[v] = next(iter(cands))
            else:
                unresolved.append((history.name(v), v, sorted(cands)))
    for name, v, cands in sorted(unresolved):
        unstable_detail.append("tile %s unresolved among %s" % (name, cands))
        type_of[v] = "T?%s" % (cands,)

    data = {}
    for v in vertices:
        name = type_of[v]
        rec = data.get(name)
        if rec is None:
            _, clique, shape = raw_sig[v]
            rec = data[name] = {"clique": clique, "shape": shape, "count": 0,
                                "children": None, "internal": None,
                                "example": v}
        rec["count"] += 1
        if v < below:
            ch = Counter(type_of[c] for c in kids(v))
            internal = Counter((tuple(sorted((type_of[a], type_of[b]))), lab)
                               for a, b, lab in internal_pairs.get(v, ()))
            if rec["children"] is None:
                rec["children"] = ch
                rec["internal"] = internal
            elif rec["children"] != ch or rec["internal"] != internal:
                unstable_detail.append(
                    "type %s has inconsistent subdivisions (%s vs %s)"
                    % (name, dict(rec["children"]), dict(ch)))
    stable = stable and not unstable_detail

    types = [RuleTypeReference(
        name=name, clique=rec["clique"], shape=rec["shape"],
        children=rec["children"] or Counter(),
        internal=rec["internal"] or Counter(),
        count=rec["count"], example=rec["example"])
        for name, rec in sorted(data.items())]

    co = {t.name: ("c", len(t.clique), t.shape) for t in types}
    while True:
        nxt = {t.name: (co[t.name], tuple(sorted((co[c], m) for c, m
                                                 in t.children.items())))
               for t in types}
        if len(set(nxt.values())) == len(set(co.values())):
            break
        co = nxt
    letter = {v: chr(ord("A") + i)
              for i, v in enumerate(sorted(set(co.values()), key=str))}
    coalesced_of = {t.name: letter[co[t.name]] for t in types}
    for t in types:
        t.coalesced = coalesced_of[t.name]

    coalesced_children = {}
    coalesce_ok = True
    for t in types:
        cc = Counter()
        for c, m in t.children.items():
            cc[coalesced_of[c]] += m
        prev = coalesced_children.setdefault(t.coalesced, cc)
        if prev != cc and t.children:
            coalesce_ok = False
    if not coalesce_ok:
        unstable_detail.append("coalesced classes have inconsistent children")

    split_report = {}
    for t in types:
        key = "clique=%s shape=%s" % (
            "".join(graph.generators[i] for i in t.clique), t.shape)
        split_report[key] = split_report.get(key, 0) + 1

    def iclass(a, b, label):
        return (tuple(sorted((type_of[a], type_of[b]))), LABELS[label])

    interface_classes = {}
    for t, nt in zip(tilings, tilings[1:]):
        nxt_by_parents = defaultdict(list)
        for a, b, label in nt.edges():
            a, b = nt.first + a, nt.first + b
            pa, pb = pred[a], pred[b]
            if pa != pb and members[a] and members[b]:
                nxt_by_parents[min(pa, pb), max(pa, pb)].append(
                    iclass(a, b, label))
        for a, b, label in t.edges():
            a, b = t.first + a, t.first + b
            if not (members[a] and members[b]):
                continue
            rec = interface_classes.setdefault(
                iclass(a, b, label), {"count": 0, "continuations": Counter()})
            rec["count"] += 1
            rec["continuations"].update(nxt_by_parents.get((a, b), ()))

    return RuleReference(
        types=types,
        type_of=[type_of[t.first:t.first + t.nonideal_count] for t in tilings],
        coalesced_of=coalesced_of, coalesced_children=coalesced_children,
        stable=stable, unstable_detail=unstable_detail,
        interface_classes=interface_classes, split_report=split_report)


def descriptor_crosscheck_reference(ref, history):
    """The descriptor mismatches, each type's children read at the first
    tile of that type on a level with children in the window."""
    graph, moves = history.tilings[0].graph, history.ball.pred_move
    reps = {}
    for t, types in zip(history.tilings[:-1], ref.type_of):
        for i in t.nonideal():
            reps.setdefault(types[i], t.first + i)
    mismatches = []
    for rt in ref.types:
        if rt.name not in reps:
            continue
        expected = Counter(inflation_descriptor(graph, moves[rt.example])
                           .child_clique_counter())
        got = Counter(support(moves[c])
                      for c in history.children(reps[rt.name]))
        if got != expected:
            mismatches.append({
                "type": rt.name,
                "expected": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(expected.items())},
                "observed": {"".join(graph.generators[i] for i in k): v
                             for k, v in sorted(got.items())},
            })
    return mismatches


def mesh_orbit_reference(ref):
    """The mesh certificate's cycle, [] when granted, read off the
    reference's per-class continuation counters."""
    edges = defaultdict(set)
    for t in ref.types:
        if sum(t.children.values()) == 1:
            edges[("tile", t.name)].add(("tile", next(iter(t.children))))
    for key, rec in ref.interface_classes.items():
        for cont in rec["continuations"]:
            edges[("iface",) + key].add(("iface",) + cont)
    color, stack = {}, []

    def dfs(u):
        color[u] = 1
        stack.append(u)
        for v in sorted(edges.get(u, ())):
            if color.get(v) == 1:
                return stack[stack.index(v):] + [v]
            if v not in color:
                got = dfs(v)
                if got:
                    return got
        color[u] = 2
        stack.pop()
        return None

    for u in sorted(edges):
        if u not in color:
            cyc = dfs(u)
            if cyc:
                return [list(x) for x in cyc]
    return []
