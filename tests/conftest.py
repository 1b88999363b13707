import io
from itertools import combinations, permutations

import pytest

from subdivlab import DefiningGraph, build_ball
from subdivlab.exports import tiling_to_json
from subdivlab.tiling import build_history, build_tiling, build_tilings, extract_rule
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
    out = io.StringIO()
    tiling_to_json(tiling, out, rule)
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
