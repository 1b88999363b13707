import pytest
from hypothesis import given, settings, strategies as st

from subdivlab.graphs import cell_is_ideal
from subdivlab.words import (WordError, nf_key, nf_str, nf_to_word,
                             parse_word, predecessor_word, state_of_word,
                             syllables_of_state)
from conftest import free3, path3, triangle


# -- normal-form arithmetic, the reference these tests exercise ------------


def normalize(graph, word):
    """Canonical normal form; equal exactly on words of the same element."""
    return syllables_of_state(graph, state_of_word(graph, word))


def equals(graph, u, v):
    return state_of_word(graph, u) == state_of_word(graph, v)


def t_chain(nf):
    """Full diagonal-generator chain of a normal form: each syllable's
    chain, smallest set first."""
    out = []
    for syll in nf:
        for r in range(max(abs(e) for _, e in syll), 0, -1):
            out.append(tuple((i, 1 if e > 0 else -1)
                             for i, e in syll if abs(e) >= r))
    return out


def tlen(nf):
    """The total chain length: the number of predecessor steps to the
    identity."""
    return sum(max(abs(e) for _, e in syll) for syll in nf)


def predecessor(graph, nf):
    """Normal form of `predecessor_word`: dropping a chain entry may let
    syllables merge."""
    return normalize(graph, predecessor_word(nf))


def translate(graph, nf, cell):
    """Normal form of (element * t_cell) for a spherical signed set."""
    cell = tuple(sorted(cell))
    if cell_is_ideal(graph, cell):
        raise WordError("not a spherical set: %r" % (cell,))
    return normalize(graph, nf_to_word(nf) + cell)


def test_single_syllable_with_chain():
    g = triangle()
    nf = normalize(g, parse_word(g, "a^5 b^-2 c^3"))
    assert nf == (((0, 5), (1, -2), (2, 3)),)
    assert tlen(nf) == 5
    chain = t_chain(nf)
    a, b, c = 0, 1, 2
    assert chain == [((a, 1),), ((a, 1),), ((a, 1), (c, 1)),
                     ((a, 1), (b, -1), (c, 1)), ((a, 1), (b, -1), (c, 1))]
    # the chain multiplies back to the element
    flat = tuple(p for cell in chain for p in cell)
    assert equals(g, flat, parse_word(g, "a^5 b^-2 c^3"))


def test_free_group_singletons():
    g = free3()
    nf = normalize(g, parse_word(g, "a b a b"))
    assert len(nf) == 4
    assert all(len(s) == 1 for s in nf)


def test_central_generator_merges():
    g = path3()
    nf = normalize(g, parse_word(g, "a z b z"))
    assert nf_str(g, nf) == "a z^2 | b"
    assert tlen(nf) == 3


def test_equals():
    g = path3()
    assert equals(g, parse_word(g, "a z b"), parse_word(g, "a b z"))
    f = free3()
    assert not equals(f, parse_word(f, "a b"), parse_word(f, "b a"))
    assert equals(f, parse_word(f, "a a^-1"), ())


def test_translate():
    g = triangle()
    a = g.index["a"]
    nf = normalize(g, parse_word(g, "a^3"))
    out = translate(g, nf, ((a, 1),))
    assert out == (((a, 4),),) and tlen(out) == 4
    assert translate(g, normalize(g, parse_word(g, "a")), ((a, -1),)) == ()
    p = path3()
    az = normalize(p, parse_word(p, "a z"))
    out = translate(p, az, ((p.index["b"], 1), (p.index["z"], 1)))
    assert out == normalize(p, parse_word(p, "a b z^2"))
    assert tlen(out) == 3


def test_translate_rejects_nonspherical():
    p = path3()
    with pytest.raises(WordError):
        translate(p, (), ((p.index["a"], 1), (p.index["b"], 1)))


def test_predecessor():
    g = triangle()
    nf = normalize(g, parse_word(g, "a^5 b^-2 c^3"))
    assert predecessor(g, nf) == normalize(g, parse_word(g, "a^4 b^-2 c^3"))
    assert predecessor(g, normalize(g, parse_word(g, "a"))) == ()
    p = path3()
    nf = normalize(p, parse_word(p, "a z^2 b"))
    assert predecessor(p, nf) == normalize(p, parse_word(p, "a z b"))
    with pytest.raises(WordError):
        predecessor(p, ())


def test_predecessor_chain_reaches_identity():
    g = path3()
    for text in ["a z^2 b", "a^3 z b^-2", "z^4", "a b a b"]:
        nf = normalize(g, parse_word(g, text))
        steps = 0
        while nf:
            nf = predecessor(g, nf)
            steps += 1
        assert steps == tlen(normalize(g, parse_word(g, text)))


# -- exhaustive rewriting oracle --------------------------------------------


def _minimal_representatives(graph, word):
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                x, y = w[i], w[i + 1]
                if x[0] == y[0] and x[1] == -y[1]:
                    cand = w[:i] + w[i + 2:]
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
                elif x[0] != y[0] and graph.commute(x[0], y[0]):
                    cand = w[:i] + (y, x) + w[i + 2:]
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    m = min(len(w) for w in seen)
    return frozenset(w for w in seen if len(w) == m)


def _oracle_equal(graph, u, v):
    return bool(_minimal_representatives(graph, u) & _minimal_representatives(graph, v))


GRAPHS = [triangle(), path3(), free3()]

letters_st = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), letters_st, letters_st)
def test_equals_matches_rewriting_oracle(gi, u, v):
    g = GRAPHS[gi]
    u, v = tuple(u), tuple(v)
    assert equals(g, u, v) == _oracle_equal(g, u, v)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=10))
def test_normalize_idempotent(gi, w):
    g = GRAPHS[gi]
    nf = normalize(g, tuple(w))
    assert normalize(g, nf_to_word(nf)) == nf


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=10))
def test_normalize_preserves_abelianization(gi, w):
    g = GRAPHS[gi]
    nf = normalize(g, tuple(w))
    expect = [0, 0, 0]
    for i, s in w:
        expect[i] += s
    got = [0, 0, 0]
    for syll in nf:
        for i, e in syll:
            got[i] += e
    assert got == expect


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=8),
    st.integers(0, 30))
def test_translate_tlen_bound(gi, w, pick):
    from subdivlab.graphs import diagonal_elements
    g = GRAPHS[gi]
    moves = diagonal_elements(g)
    t = moves[pick % len(moves)]
    nf = normalize(g, tuple(w))
    out = translate(g, nf, t)
    assert abs(tlen(out) - tlen(nf)) <= max(1, len(t))


def test_nf_key_orders_by_length_first():
    g = path3()
    k1 = nf_key(normalize(g, parse_word(g, "z^2")))
    k2 = nf_key(normalize(g, parse_word(g, "a z^2")))
    assert k1 < k2


def test_parse_word_errors():
    g = path3()
    with pytest.raises(WordError):
        parse_word(g, "q")
    with pytest.raises(WordError):
        parse_word(g, "a^0")
