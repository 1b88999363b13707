import pytest

from subdivlab import DefiningGraph, build_ball
from subdivlab.tiling import build_history, build_tilings, extract_rule


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


def get_rule(name, count=None):
    tilings = get_tilings(name, count)
    key = (name, len(tilings))
    if key not in _RULES:
        _RULES[key] = extract_rule(build_history(tilings))
    return _RULES[key]


@pytest.fixture(scope="session")
def balls():
    return {name: get_ball(name) for name in _SPECS}


def all_graphs_up_to_iso(d):
    """Representative edge sets of every isomorphism class on d vertices."""
    from itertools import combinations, permutations
    verts = list(range(d))
    pairs = list(combinations(verts, 2))
    seen = set()
    reps = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if (mask >> i) & 1)
        canon = min(
            tuple(sorted(tuple(sorted((p[i], p[j]))) for i, j in edges))
            for p in permutations(verts))
        if canon not in seen:
            seen.add(canon)
            reps.append(sorted(edges))
    return reps


def graph_from_edges(d, edges):
    names = [chr(ord("a") + i) for i in range(d)]
    return DefiningGraph(names, [[names[i], names[j]] for i, j in edges])
