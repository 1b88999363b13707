import pytest
from hypothesis import given, settings, strategies as st

from subdivlab import words
from subdivlab.balls import InvariantViolation, build_ball
from subdivlab.graphs import cell_is_ideal
from subdivlab.words import (WordError, apply_letters, empty_state, nf_key,
                             nf_str, nf_to_word, parse_word, predecessor_word,
                             state_of_word, syllables_of_state)
from conftest import all_graphs_up_to_iso, free3, graph_from_edges, path3, triangle


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


# -- the list-based group product and normal form, references for the
# tuple-sharing kernel in `words` ------------------------------------------


def push_letter(piles, graph, i, s):
    """Push one letter onto mutable piles (lists), cancelling eagerly."""
    p = piles[i]
    if p and p[-1] == -s:
        p.pop()
        for j in graph.noncommuters[i]:
            piles[j].pop()
    else:
        p.append(s)
        for j in graph.noncommuters[i]:
            piles[j].append(0)


def apply_letters_reference(state, graph, letters):
    piles = [list(p) for p in state]
    for i, s in letters:
        push_letter(piles, graph, i, s)
    return tuple(map(tuple, piles))


def syllables_reference(graph, state):
    """Greedy maximal spherical decomposition over list copies of the
    piles, popping fronts through a closure."""
    piles = [list(p) for p in state]
    head = [0] * graph.d
    remaining = words.state_length(state)
    adj = graph.adj

    def pop_front(i):
        head[i] += 1
        for j in graph.noncommuters[i]:
            if piles[j][head[j]] != 0:
                raise InvariantViolation("blocked pile without a marker",
                                         repr(state))
            head[j] += 1

    out = []
    while remaining:
        exps = {}
        mask = 0
        changed = True
        while changed:
            changed = False
            for i in range(graph.d):
                while head[i] < len(piles[i]) and piles[i][head[i]] != 0:
                    s = piles[i][head[i]]
                    if i in exps:
                        if s * exps[i] <= 0:
                            raise InvariantViolation(
                                "opposite signs in one syllable", repr(state))
                    elif mask & ~adj[i] & ~(1 << i):
                        break
                    exps[i] = exps.get(i, 0) + s
                    mask |= 1 << i
                    pop_front(i)
                    remaining -= 1
                    changed = True
        out.append(tuple(sorted(exps.items())))
    return tuple(out)


def inverse(letters):
    return tuple((i, -s) for i, s in reversed(letters))


@pytest.fixture(scope="module")
def class_balls():
    """A depth-4 ball of each of the 18 defining graphs with d <= 4, up to
    isomorphism."""
    return [build_ball(graph_from_edges(d, edges), 4, cap=300000)
            for d in (1, 2, 3, 4) for edges in all_graphs_up_to_iso(d)]


def test_kernel_matches_list_reference(class_balls):
    # every element of the depth-3 ball times every move, on 18 graphs
    products = 0
    for ball in class_balls:
        graph = ball.graph
        for level in ball.levels[:4]:
            for g in level:
                for t in ball.moves:
                    gt = apply_letters(g, graph, t)
                    assert gt == apply_letters_reference(g, graph, t)
                    assert apply_letters(gt, graph, inverse(t)) == g
                    products += 1
    assert products > 200000


def test_kernel_shares_untouched_piles():
    g = path3()
    a, z, b = (g.index[x] for x in "azb")
    state = state_of_word(g, parse_word(g, "a z b"))
    out = apply_letters(state, g, ((z, 1),))
    # z commutes with a and b: their piles are the input's own tuples
    assert out[a] is state[a] and out[b] is state[b]
    assert out[z] == state[z] + (1,)
    assert type(out) is tuple and all(type(p) is tuple for p in out)


def test_syllables_match_reference(class_balls):
    # every element of the depth-4 ball, on 18 graphs
    for ball in class_balls:
        for level in ball.levels:
            for g in level:
                assert syllables_of_state(ball.graph, g) == \
                    syllables_reference(ball.graph, g)


def test_syllables_violations_match_reference():
    g = path3()   # a, z, b: a and b do not commute
    # a's letter with no marker on b's pile, and opposite signs on a's pile
    for state in (((1,), (), (1,)), ((1, -1), (), (0, 0))):
        with pytest.raises(InvariantViolation) as err:
            syllables_of_state(g, state)
        with pytest.raises(InvariantViolation) as ref:
            syllables_reference(g, state)
        assert str(err.value) == str(ref.value)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), letters_st, letters_st)
def test_kernel_matches_reference_on_words(gi, u, v):
    g = GRAPHS[gi]
    u, v = tuple(u), tuple(v)
    state = state_of_word(g, u)
    out = apply_letters(state, g, v)
    assert out == apply_letters_reference(state, g, v)
    assert out == apply_letters_reference(empty_state(g), g, u + v)
    assert apply_letters(out, g, inverse(v)) == state
