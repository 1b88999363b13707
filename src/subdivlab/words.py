"""Words, piling states and canonical normal forms.

Elements are represented internally by a stack state ("piling"): one stack
per generator, holding that generator's own letters as +1/-1 entries and a 0
placeholder for every letter of a non-commuting generator.  Pushing a letter
cancels eagerly against its inverse when nothing non-commuting sits between
them, so the state is a complete invariant: two words give the same state
iff they define the same group element.

The human-facing normal form decomposes an element into *syllables*:
maximal blocks lying in a spherical subgroup, extracted greedily in
generator order.  Each syllable with exponent vector e expands into a chain
of diagonal generators t_{S_m} ... t_{S_1} with S_r = {g : |e_g| >= r}
(smallest set first), so S_m <= ... <= S_1 are nested.  Dropping the
leftmost chain entry of the first syllable gives the normal-form predecessor
word (`predecessor_word`), which the ball audits against its levels.  The
ball forms each normal form once, to sort, name and audit an element, and
keeps only the name (`nf_str`).
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


def state_length(state) -> int:
    """Number of genuine letters (word length of the reduced word)."""
    return sum(1 for p in state for x in p if x)


def _violation(what, state):
    from .balls import InvariantViolation   # balls imports this module
    raise InvariantViolation(what, repr(state))


def syllables_of_state(graph: DefiningGraph, state):
    """Greedy maximal spherical decomposition of a piling state.

    Scans front-available letters in generator order; a letter joins the
    current syllable iff its generator commutes with every generator already
    admitted (or is one of them), repeating until the syllable stops growing.
    """
    head = [0] * graph.d   # per pile, the index of its front entry
    remaining = state_length(state)
    adj, noncommuters = graph.adj, graph.noncommuters
    out = []
    while remaining:
        exps = {}
        mask = 0
        changed = True
        while changed:
            changed = False
            for i, p in enumerate(state):
                k = head[i]
                while k < len(p) and p[k] != 0:
                    s = p[k]
                    if i in exps:
                        # same-sign absorption; an opposite sign cannot be
                        # front-available inside one syllable
                        if s * exps[i] <= 0:
                            _violation("opposite signs in one syllable", state)
                    elif mask & ~adj[i] & ~(1 << i):
                        break  # fails to commute with an admitted generator
                    exps[i] = exps.get(i, 0) + s
                    mask |= 1 << i
                    k += 1
                    for j in noncommuters[i]:
                        # the front of a blocked pile is necessarily a 0 marker
                        if state[j][head[j]] != 0:
                            _violation("blocked pile without a marker", state)
                        head[j] += 1
                    remaining -= 1
                    changed = True
                head[i] = k
        out.append(tuple(sorted(exps.items())))
    return tuple(out)


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
