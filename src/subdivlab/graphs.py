"""Defining graphs and the signed-cell model of their cubical fundamental domain.

A graph group (right-angled Artin group) is given by a finite simple graph:
vertices are generators, edges mark commuting pairs.  The group acts on a
space tiled by copies of a single fundamental domain modelled on the cube
[-1,1]^d.  A boundary cell of the cube is recorded by the sign vector of the
coordinates it pins, i.e. a nonempty assignment of +1/-1 to some generators.
Cells whose pinned generators do not pairwise commute are *ideal*: they are
truncated away and their truncation faces never get glued to anything.  Cells
whose pinned generators form a clique survive; the closed cell pinned by k
signed generators is shared by the 2^k domains reachable by partial diagonal
moves across it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

# hashlib maps in OpenSSL's libcrypto, a few MB for one digest per run; take
# the lean built-in module first, as the standard library's random.py does
try:
    from _sha2 import sha256          # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256    # Python 3.10 and 3.11
    except ImportError:               # a build without the built-in hashes
        from hashlib import sha256

# A cell (equivalently a signed set / diagonal move) is a tuple of
# (generator index, sign) pairs sorted by index, sign in {+1, -1}.
Cell = tuple


class GraphError(ValueError):
    """Raised for malformed defining-graph input."""


class DefiningGraph:
    """Immutable defining graph with a fixed, total generator order.

    The given generator order is preserved verbatim: it drives every
    canonical tie-break downstream (normal forms, predecessor choice,
    export ordering), so two runs on the same input are byte-identical.
    """

    def __init__(self, generators, edges):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise GraphError("duplicate generator names")
        if not generators:
            raise GraphError("need at least one generator")
        for g in generators:
            # element names join generators with " ", syllables with " | "
            # and powers with "^", and name the identity "1"; the DOT export
            # quotes names with '"'
            if g in ("", "1") or any(ch.isspace() or ch in '^|"' for ch in g):
                raise GraphError("bad generator name %r: a name is nonempty, "
                                 "not \"1\", and has no whitespace, '^', '|' "
                                 "or '\"'" % g)
        self.generators = generators
        self.d = len(generators)
        self.index = {g: i for i, g in enumerate(generators)}
        seen = set()
        pairs = []
        for e in edges:
            a, b = e
            if a not in self.index or b not in self.index:
                raise GraphError("edge references unknown generator: %r" % (e,))
            i, j = self.index[a], self.index[b]
            if i == j:
                raise GraphError("self-loop on %r" % a)
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError("duplicate edge %r" % (e,))
            seen.add(key)
            pairs.append(key)
        self.edge_pairs = tuple(sorted(pairs))
        # adjacency bitmasks; a generator is NOT adjacent to itself
        self.adj = [0] * self.d
        for i, j in self.edge_pairs:
            self.adj[i] |= 1 << j
            self.adj[j] |= 1 << i
        # complement (non-commuting partners), excluding self
        self.noncommuters = [
            [j for j in range(self.d) if j != i and not (self.adj[i] >> j) & 1]
            for i in range(self.d)
        ]
        # the moves and ideal facets, formed on first use: see
        # `diagonal_elements` and `ideal_facets`
        self._moves = self._facets = None

    def commute(self, i, j):
        return i == j or bool((self.adj[i] >> j) & 1)

    def is_clique(self, indices):
        idx = tuple(indices)
        for a, b in combinations(idx, 2):
            if not (self.adj[a] >> b) & 1:
                return False
        return True

    def is_edgeless(self):
        return not self.edge_pairs

    def is_complete(self):
        return len(self.edge_pairs) == self.d * (self.d - 1) // 2

    def canonical_json(self):
        return json.dumps(
            {"generators": list(self.generators),
             "edges": [[self.generators[i], self.generators[j]] for i, j in self.edge_pairs]},
            sort_keys=True, separators=(",", ":"))

    def hash_hex(self):
        """The first 16 hex digits of SHA-256 of `canonical_json`."""
        return sha256(self.canonical_json().encode()).hexdigest()[:16]

    def __eq__(self, other):
        return (isinstance(other, DefiningGraph)
                and self.generators == other.generators
                and self.edge_pairs == other.edge_pairs)

    def __hash__(self):
        return hash((self.generators, self.edge_pairs))

    def __repr__(self):
        return "DefiningGraph(%r, %r)" % (list(self.generators), self.edge_pairs)


def parse_graph_json(data) -> DefiningGraph:
    """Parse {"generators": [...], "edges": [[a,b], ...]}; strict validation."""
    if not isinstance(data, dict):
        raise GraphError("graph input must be a JSON object")
    gens = data.get("generators")
    edges = data.get("edges", [])
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise GraphError('"generators" must be a list of names')
    if not isinstance(edges, list):
        raise GraphError('"edges" must be a list of pairs')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(x, str) for x in e)):
            raise GraphError("each edge must be a pair of names, got %r" % (e,))
    return DefiningGraph(gens, edges)


# ---------------------------------------------------------------------------
# cells


def support(cell: Cell):
    return tuple(i for i, _ in cell)


def cell_is_ideal(graph: DefiningGraph, cell: Cell) -> bool:
    """A cell is ideal iff its support is not a clique (it got truncated)."""
    return not graph.is_clique(support(cell))


def cells_intersect(v: Cell, w: Cell) -> bool:
    """Closed cells of one cube meet iff no generator carries opposite signs."""
    dv = dict(v)
    for i, s in w:
        if dv.get(i, s) != s:
            return False
    return True


def join_cells(v: Cell, w: Cell):
    """Smallest cell contained in both closed cells, or None on sign conflict."""
    dv = dict(v)
    for i, s in w:
        if dv.setdefault(i, s) != s:
            return None
    return tuple(sorted(dv.items()))


def enumerate_cliques(graph: DefiningGraph):
    """All nonempty cliques, each once, ordered by (size, lexicographic)."""
    out = []
    for size in range(1, graph.d + 1):
        for combo in combinations(range(graph.d), size):
            if graph.is_clique(combo):
                out.append(combo)
    return out


def signed_cells(graph: DefiningGraph, indices):
    """All sign choices on a fixed support, in canonical (+1 before -1) order."""
    cells = []
    for signs in product((1, -1), repeat=len(indices)):
        cells.append(tuple(zip(indices, signs)))
    return cells


def diagonal_elements(graph: DefiningGraph):
    """All spherical signed sets (equivalently: non-ideal cells, or the moves
    of the diagonal generating set), canonically ordered.  One tuple per
    graph, formed on first use."""
    if graph._moves is None:
        graph._moves = tuple(cell for clique in enumerate_cliques(graph)
                             for cell in signed_cells(graph, clique))
    return graph._moves


def ideal_facets(graph: DefiningGraph):
    """Maximal ideal cells: non-adjacent generator pairs with signs.  These
    are the truncation faces of the fundamental domain.  One tuple per
    graph, formed on first use."""
    if graph._facets is None:
        graph._facets = tuple(cell for i, j in combinations(range(graph.d), 2)
                              if not (graph.adj[i] >> j) & 1
                              for cell in signed_cells(graph, (i, j)))
    return graph._facets


@dataclass
class Descriptor:
    sigma: Cell
    children: list    # cells of the subdivision (the surviving complement)
    collapsed: list   # would-be candidates removed by same-round collapse

    def child_clique_counter(self):
        return Counter(support(w) for w in self.children)


def inflation_descriptor(graph: DefiningGraph, sigma: Cell) -> Descriptor:
    """Subdivision of the tile type of a non-ideal cell, read off the
    fundamental domain alone: a cell w survives into the subdivision iff
    each of its pinned generators is pinned oppositely in sigma or fails to
    commute with all of sigma's support; cells behind the gluing whose extra
    generators commute with sigma collapse during the round instead."""
    if cell_is_ideal(graph, sigma):
        raise ValueError("ideal cell has no subdivision")
    sup = support(sigma)
    anti = {(i, -s) for i, s in sigma}
    # the (generator, sign) pairs a surviving cell may pin
    allowed = anti | {(i, s) for i in range(graph.d) if i not in sup
                      and not all(graph.commute(i, j) for j in sup)
                      for s in (1, -1)}
    moves = diagonal_elements(graph)
    children = [w for w in moves if allowed.issuperset(w)]
    collapsed = [w for w in moves
                 if anti.issubset(w) and not allowed.issuperset(w)]
    return Descriptor(sigma=sigma, children=children, collapsed=collapsed)


def cell_str(graph: DefiningGraph, cell: Cell) -> str:
    return " ".join(
        "%s%s" % (graph.generators[i], "+" if s > 0 else "-") for i, s in cell)
