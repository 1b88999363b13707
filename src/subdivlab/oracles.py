"""Independent brute-force sphere-size oracles.

These deliberately avoid the piling/normal-form machinery: each recognized
family gets its own element representation, so agreement with the ball
builder is a genuine cross-check.

Supported families:
  * complete graphs  -> integer lattice Z^d under the L-infinity metric,
  * edgeless graphs  -> reduced words in a free group (all 2d letters are
                        moves, each move one letter),
  * the path a-z-b   -> coordinate pairs (reduced word in two letters,
                        integer height), moves = letter, height step, or both.
"""

from __future__ import annotations

from collections import deque

from .balls import DEFAULT_CAP, CapExceeded
from .graphs import DefiningGraph


def lattice_sphere_sizes(d: int, n_max: int):
    """|S(n)| in Z^d with moves = all nonzero sign vectors: (2n+1)^d - (2n-1)^d."""
    out = [1]
    for n in range(1, n_max + 1):
        out.append((2 * n + 1) ** d - (2 * n - 1) ** d)
    return out


def free_sphere_sizes(k: int, n_max: int):
    """|S(n)| in the free group F_k with the 2k standard letters: 2k(2k-1)^(n-1)."""
    out = [1]
    for n in range(1, n_max + 1):
        out.append(2 * k * (2 * k - 1) ** (n - 1) if k > 0 else 0)
    return out


def f2xz_sphere_sizes(n_max: int):
    """|S(n)| for the path graph a-z-b (free group times Z) by breadth-first
    search over coordinate pairs (reduced two-letter word, integer height).

    Moves: append a letter x^e, shift height by delta, or both at once
    (x in {a, b}, e, delta in {+1, -1}).  Raises CapExceeded once more
    than `balls.DEFAULT_CAP` elements are found."""
    moves = []
    for x in (0, 1):
        for e in (1, -1):
            moves.append(((x, e), 0))
            for delta in (1, -1):
                moves.append(((x, e), delta))
    for delta in (1, -1):
        moves.append((None, delta))

    def step(word, letter):
        if letter is None:
            return word
        if word and word[-1] == (letter[0], -letter[1]):
            return word[:-1]
        return word + (letter,)

    start = ((), 0)
    level = {start: 0}
    frontier = deque([start])
    sizes = [1]
    for n in range(1, n_max + 1):
        nxt = deque()
        while frontier:
            word, h = frontier.popleft()
            for letter, delta in moves:
                q = (step(word, letter), h + delta)
                if q not in level:
                    level[q] = n
                    nxt.append(q)
            if len(level) > DEFAULT_CAP:
                raise CapExceeded(DEFAULT_CAP, sizes)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes


_PATH3 = "path a-z-b"


def oracle_family(graph: DefiningGraph):
    """Classify the graph into one of the supported oracle families."""
    if graph.is_complete():
        return "lattice"
    if graph.is_edgeless():
        return "free"
    if graph.d == 3 and len(graph.edge_pairs) == 2:
        degs = [0] * 3
        for i, j in graph.edge_pairs:
            degs[i] += 1
            degs[j] += 1
        if sorted(degs) == [1, 1, 2]:
            return "path3"
    return None


def oracle_sphere_sizes(graph: DefiningGraph, n_max: int):
    """Sphere sizes from the applicable independent oracle, or None."""
    family = oracle_family(graph)
    if family == "lattice":
        return lattice_sphere_sizes(graph.d, n_max)
    if family == "free":
        return free_sphere_sizes(graph.d, n_max)
    if family == "path3":
        return f2xz_sphere_sizes(n_max)
    return None
