"""Words, piling states and canonical normal forms.

Elements are represented internally by a stack state ("piling"): one stack
per generator, holding that generator's own letters as +1/-1 entries and a 0
placeholder for every letter of a non-commuting generator.  Pushing a letter
cancels eagerly against its inverse when nothing non-commuting sits between
them, so the state is a complete invariant: two words give the same state
iff they define the same group element.

The human-facing normal form decomposes an element into *syllables*:
maximal blocks lying in a spherical subgroup.  The letters at the fronts
of the piles pairwise commute, and a syllable is exactly the set of them,
each with the run of letters behind it on its pile: `syllables_of_state`
takes each syllable in one sweep over the piles.  Each syllable with
exponent vector e expands into a chain of diagonal generators
t_{S_m} ... t_{S_1} with S_r = {g : |e_g| >= r} (smallest set first), so
S_m <= ... <= S_1 are nested.  Dropping the leftmost chain entry of the
first syllable gives the normal-form predecessor, whose state
`predecessor_state` peels off the element's own state; the ball audits it
against its levels.  The ball scans each normal form once, to sort
(`sort_key`), name and audit an element, and keeps only the name
(`nf_str`).
"""

from __future__ import annotations

import re

from .graphs import DefiningGraph

# Letter: (generator index, sign).  Word: tuple of letters.
# State: tuple over generators of tuples of {+1,-1,0}.
# Syllable: tuple of (generator index, nonzero exponent), sorted by index.
# NormalForm: tuple of syllables.


class WordError(ValueError):
    pass


_TOKEN = re.compile(r"^([^\^\s]+)(?:\^(-?\d+))?$")


def parse_word(graph: DefiningGraph, text: str):
    """Parse word literals like "a^5 b^-2 c^3" into a letter tuple."""
    letters = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise WordError("bad token %r" % tok)
        name, exp = m.group(1), m.group(2)
        if name not in graph.index:
            raise WordError("unknown generator %r" % name)
        k = int(exp) if exp is not None else 1
        if k == 0:
            raise WordError("zero exponent in %r" % tok)
        sign = 1 if k > 0 else -1
        letters.extend([(graph.index[name], sign)] * abs(k))
    return tuple(letters)


def empty_state(graph: DefiningGraph):
    return tuple(() for _ in range(graph.d))


def apply_letters(state, graph: DefiningGraph, letters):
    """Right-multiply a state by a letter sequence; returns a new state.

    A letter cancels against its inverse on top of its own pile, popping a
    0 marker off each non-commuting pile, or is pushed, with a 0 marker on
    each of them.  Only the piles a letter touches are rebuilt: every other
    pile tuple of the result is the one in `state`."""
    piles = list(state)
    noncommuters = graph.noncommuters
    for i, s in letters:
        p = piles[i]
        if p and p[-1] == -s:
            piles[i] = p[:-1]
            for j in noncommuters[i]:
                piles[j] = piles[j][:-1]
        else:
            piles[i] = p + (s,)
            for j in noncommuters[i]:
                piles[j] = piles[j] + (0,)
    return tuple(piles)


# bound at import: `apply_letters`, the module attribute, may be replaced by
# a wrapper counting products of ball elements by moves, and a word's state
# is not such a product
_apply_letters = apply_letters


def state_of_word(graph: DefiningGraph, word):
    return _apply_letters(empty_state(graph), graph, word)


def _violation(what, state):
    from .balls import InvariantViolation   # balls imports this module
    raise InvariantViolation(what, repr(state))


def syllables_of_state(graph: DefiningGraph, state):
    """The normal form of a piling state, in one sweep per syllable.

    A letter at the front of its pile has no letter of a non-commuting
    generator before it, so two such letters commute: the syllable is
    exactly the set of piles whose front entry is a letter, each giving the
    run of letters at its front (the Cartier-Foata normal form, Cartier and
    Foata, LNM 85, 1969; Viennot's heaps of pieces, 1986).  The sweep takes
    them in generator order, and each letter taken drops the front 0 marker
    of every pile not commuting with it; a letter that this uncovers on a
    later pile waits for the next syllable.
    """
    head = [0] * graph.d   # per pile, the index of its front entry
    adj, noncommuters = graph.adj, graph.noncommuters
    out = []
    while True:
        syllable = []
        taken = 0   # bit i: pile i gave letters to this syllable
        for i, p in enumerate(state):
            k = h = head[i]
            n = len(p)
            if k == n or not p[k] or taken & ~adj[i]:
                continue
            s = p[k]
            k += 1
            while k < n and p[k] == s:
                k += 1
            e = k - h
            for j in noncommuters[i]:
                # the front of a blocked pile is necessarily a 0 marker
                q, f = state[j], head[j]
                if len(q) < f + e or any(q[f:f + e]):
                    _violation("blocked pile without a marker", state)
                head[j] = f + e
            if k < n and p[k]:
                # an opposite sign cannot be at the front inside one syllable
                _violation("opposite signs in one syllable", state)
            head[i] = k
            taken |= 1 << i
            syllable.append((i, s * e))
        if not syllable:
            return tuple(out)
        out.append(tuple(syllable))


def predecessor_state(graph: DefiningGraph, state, first):
    """The state of the normal-form predecessor of `state`, whose normal
    form starts with the syllable `first`: the leftmost diagonal generator
    of that syllable's chain dropped, i.e. every exponent of largest
    absolute value moved one step toward 0.

    Those letters are at the front of their piles, so the predecessor's
    piles are the state's with the front letter of each such generator
    removed, and one leading 0 marker, its own, of each pile that does not
    commute with it.  The other piles are the state's own tuples."""
    m = max(abs(e) for _, e in first)
    piles = list(state)
    noncommuters = graph.noncommuters
    for i, e in first:
        if e == m or e == -m:
            piles[i] = piles[i][1:]
            for j in noncommuters[i]:
                piles[j] = piles[j][1:]
    return tuple(piles)


def sort_key(nf, bound):
    """Bytes that order the normal forms of a level's elements as (word
    length, syllable count, normal form) does: the canonical order.

    They hold the length, the count, then each syllable's (generator + 1,
    exponent + bound) pairs and a 0 that ends it, so a syllable sorts before
    its extensions.  `bound` is at least the word length, so every value
    lies in 0 .. 2 bound, and all keys made with one bound have one width
    per value; the ball passes n d on level n, as each of n diagonal moves
    has at most d letters."""
    length = 0
    values = []
    for syllable in nf:
        for i, e in syllable:
            values += (i + 1, e + bound)
            length += abs(e)
        values.append(0)
    values[:0] = (length, len(nf))
    if bound < 128:
        return bytes(values)
    width = ((2 * bound).bit_length() + 7) // 8
    return b"".join(v.to_bytes(width, "big") for v in values)


def nf_str(graph: DefiningGraph, nf) -> str:
    if not nf:
        return "1"
    parts = []
    for syll in nf:
        factors = []
        for i, e in syll:
            factors.append(graph.generators[i] + ("" if e == 1 else "^%d" % e))
        parts.append(" ".join(factors))
    return " | ".join(parts)
