import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from subdivlab.graphs import (DefiningGraph, GraphError, cell_is_ideal,
                              cells_intersect, diagonal_elements,
                              enumerate_cliques, ideal_facets, join_cells,
                              parse_graph_json)
from conftest import (all_graphs_up_to_iso, free3, graph_from_edges, path3,
                      triangle)


def test_clique_enumeration():
    assert len(enumerate_cliques(triangle())) == 7
    g = path3()
    cliques = enumerate_cliques(g)
    names = [tuple(g.generators[i] for i in c) for c in cliques]
    assert names == [("a",), ("z",), ("b",), ("a", "z"), ("z", "b")]
    assert len(enumerate_cliques(free3())) == 3


def test_clique_counts_complete_and_edgeless():
    for d in range(1, 5):
        names = [chr(ord("a") + i) for i in range(d)]
        complete = DefiningGraph(names, [[a, b] for i, a in enumerate(names)
                                         for b in names[i + 1:]])
        assert len(enumerate_cliques(complete)) == 2 ** d - 1
        assert len(diagonal_elements(complete)) == 3 ** d - 1
        edgeless = DefiningGraph(names, [])
        assert len(diagonal_elements(edgeless)) == 2 * d


def test_diagonal_element_counts():
    assert len(diagonal_elements(triangle())) == 26
    assert len(diagonal_elements(path3())) == 14
    assert len(diagonal_elements(free3())) == 6


def test_ideal_predicate():
    g = path3()
    a, z, b = 0, 1, 2
    assert cell_is_ideal(g, ((a, 1), (b, 1)))
    assert not cell_is_ideal(g, ((a, 1), (z, -1)))
    assert not cell_is_ideal(triangle(), ((0, 1), (1, 1), (2, 1)))


def test_ideal_monotone():
    g = path3()
    for cell in [((0, 1), (2, 1)), ((0, 1), (1, 1), (2, 1)),
                 ((0, -1), (2, 1), (1, -1))]:
        assert cell_is_ideal(g, tuple(sorted(cell)))


def test_cells_intersect():
    assert cells_intersect(((0, 1),), ((0, 1), (1, 1)))
    assert not cells_intersect(((0, 1),), ((0, -1),))
    assert cells_intersect(((0, 1), (1, 1)), ((1, 1), (2, -1)))


def _interval_oracle(v, w, d):
    # closed faces of [-1,1]^d intersect iff their coordinate intervals do
    for i in range(d):
        dv, dw = dict(v), dict(w)
        lo1, hi1 = ((dv[i], dv[i]) if i in dv else (-1, 1))
        lo2, hi2 = ((dw[i], dw[i]) if i in dw else (-1, 1))
        if max(lo1, lo2) > min(hi1, hi2):
            return False
    return True


cells_st = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(st.integers(0, d - 1), st.sampled_from((1, -1))),
                 min_size=1, max_size=d, unique_by=lambda p: p[0]),
        st.lists(st.tuples(st.integers(0, d - 1), st.sampled_from((1, -1))),
                 min_size=1, max_size=d, unique_by=lambda p: p[0])))


@given(cells_st)
def test_cells_intersect_matches_interval_oracle(data):
    d, v, w = data
    v, w = tuple(sorted(v)), tuple(sorted(w))
    assert cells_intersect(v, w) == _interval_oracle(v, w, d)
    assert cells_intersect(v, w) == cells_intersect(w, v)
    assert cells_intersect(v, v)


def test_join_cells():
    assert join_cells(((0, 1),), ((1, -1),)) == ((0, 1), (1, -1))
    assert join_cells(((0, 1),), ((0, -1),)) is None


def test_ideal_facets():
    assert len(ideal_facets(path3())) == 4      # the one non-edge, signed
    assert len(ideal_facets(free3())) == 12
    assert ideal_facets(triangle()) == ()


def test_moves_and_facets_formed_once_per_graph():
    g = path3()   # a, z, b
    moves, facets = diagonal_elements(g), ideal_facets(g)
    # one tuple each, handed to every caller, in canonical order: cliques
    # by (size, generator order), + before -
    assert diagonal_elements(g) is moves and ideal_facets(g) is facets
    assert type(moves) is tuple and type(facets) is tuple
    assert moves[:6] == (((0, 1),), ((0, -1),), ((1, 1),), ((1, -1),),
                         ((2, 1),), ((2, -1),))
    assert moves[6:8] == (((0, 1), (1, 1)), ((0, 1), (1, -1)))
    assert facets == (((0, 1), (2, 1)), ((0, 1), (2, -1)),
                      ((0, -1), (2, 1)), ((0, -1), (2, -1)))


def test_parse_rejects_bad_input():
    with pytest.raises(GraphError):
        parse_graph_json({"generators": ["a", "a"], "edges": []})
    with pytest.raises(GraphError):
        parse_graph_json({"generators": ["a", "b"], "edges": [["a", "x"]]})
    with pytest.raises(GraphError):
        parse_graph_json({"generators": ["a", "b"],
                          "edges": [["a", "b"], ["b", "a"]]})
    with pytest.raises(GraphError):
        parse_graph_json({"generators": ["a"], "edges": [["a", "a"]]})


def test_graph_hash_stable():
    g1 = parse_graph_json(json.loads('{"generators": ["a","z","b"], "edges": [["a","z"],["b","z"]]}'))
    g2 = path3()
    assert g1.hash_hex() == g2.hash_hex()
    assert g1.hash_hex() != triangle().hash_hex()
    # the digests printed before the hash came from the built-in module
    assert g1.hash_hex() == "1961fc67cc731702"
    assert triangle().hash_hex() == "0ac1528b83e36774"
    # hashlib is the reference: the digest is plain SHA-256 whichever
    # module computes it
    classes = 0
    for d in (1, 2, 3, 4):
        for edges in all_graphs_up_to_iso(d):
            g = graph_from_edges(d, edges)
            assert g.hash_hex() == hashlib.sha256(
                g.canonical_json().encode()).hexdigest()[:16], (d, edges)
            classes += 1
    assert classes == 18
