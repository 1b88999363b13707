"""Quasi-isometry invariants computed from tilings: growth with its
polynomial/exponential dichotomy, ends, a combinatorial hyperbolicity
certificate (mesh), and level diameters bounding divergence.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, pairwise

from .balls import InvariantViolation


# ---------------------------------------------------------------------------
# recurrences and the growth dichotomy


def minimal_recurrence(seq, max_order=None):
    """Smallest-order linear recurrence with rational coefficients satisfied
    by the whole integer sequence, or None if none fits the data.

    Returns (coeffs c_1..c_r) with s(n) = c_1 s(n-1) + ... + c_r s(n-r).
    Order r is accepted only when at least one term beyond the 2r that
    determine it also satisfies it, so n terms try orders up to (n - 1) // 2.
    """
    seq = [Fraction(x) for x in seq]
    n = len(seq)
    if max_order is None:
        max_order = (n - 1) // 2
    for r in range(1, max_order + 1):
        rows = n - r
        if rows <= r:
            break
        # solve the first r windows, then verify on the rest
        mat = [[seq[i + j] for j in range(r)] + [seq[i + r]] for i in range(rows)]
        coeffs = _solve_exact(mat, r)
        if coeffs is None:
            continue
        ok = all(sum(c * seq[i + j] for j, c in enumerate(coeffs)) == seq[i + r]
                 for i in range(rows))
        if ok:
            return coeffs[::-1]  # newest lag first: s(n) = c_1 s(n-1) + ...
    return None


def _solve_exact(rows, r):
    """Gaussian elimination over the rationals; None if inconsistent."""
    m = [row[:] for row in rows]
    piv = []
    col = 0
    ri = 0
    while col < r and ri < len(m):
        sel = next((k for k in range(ri, len(m)) if m[k][col] != 0), None)
        if sel is None:
            col += 1
            continue
        m[ri], m[sel] = m[sel], m[ri]
        inv = Fraction(1, 1) / m[ri][col]
        m[ri] = [x * inv for x in m[ri]]
        for k in range(len(m)):
            if k != ri and m[k][col] != 0:
                f = m[k][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[ri])]
        piv.append(col)
        ri += 1
        col += 1
    for k in range(ri, len(m)):
        if m[k][r] != 0:
            return None
    sol = [Fraction(0)] * r
    for i, c in enumerate(piv):
        sol[c] = m[i][r]
    return sol


def polynomial_degree(seq):
    """Degree k if the k-th finite differences are constant (with at least
    two witnesses); None otherwise."""
    cur = list(seq)
    k = 0
    while len(cur) >= 2:
        if len(set(cur)) == 1:
            return k
        cur = [b - a for a, b in zip(cur, cur[1:])]
        k += 1
    return None


def spectral_radius_exceeds_one(children: dict) -> bool:
    """Exact test for a nonnegative integer type-transition system: growth is
    exponential iff some strongly connected component is not a plain cycle
    (a vertex with two outgoing in-component edge-ends, or any multiplicity
    two)."""
    nodes = sorted(children)
    index = {t: i for i, t in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for t, ch in children.items():
        for c, m in ch.items():
            if c in index:
                adj[index[t]].append((index[c], m))

    # Tarjan SCC
    sccs = _sccs(len(nodes), adj)
    for comp in sccs:
        comp_set = set(comp)
        internal = [(u, v, m) for u in comp for v, m in adj[u] if v in comp_set]
        if not internal:
            continue
        if len(internal) < len(comp):
            continue
        outdeg = Counter(u for u, _, _ in internal)
        if any(m > 1 for _, _, m in internal) or any(outdeg[u] > 1 for u in comp):
            return True
        # every vertex exactly one unit edge: a disjoint union of cycles
    return False


def _sccs(n, adj):
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    out = []
    counter = [0]

    def strongconnect(v0):
        work = [(v0, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i][0]
                if index[w] is None:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                elif onstack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    for v in range(n):
        if index[v] is None:
            strongconnect(v)
    return out


def largest_real_root(rec):
    """Largest real root of x^r - c_1 x^(r-1) - ... - c_r, the characteristic
    polynomial of the recurrence coefficients `rec` (newest lag first), or
    None if it has no real root.

    Exact over Fraction: a Sturm sequence of the square-free part counts the
    distinct roots above any point, and bisection from the Cauchy bound
    narrows the largest root to width 1e-9.  An integer root is returned as
    an int, any other root as a float rounded to 6 decimals."""
    p = [Fraction(1)] + [-Fraction(c) for c in rec]
    q = _divmod(p, _gcd(p, _derivative(p)))[0]
    chain = [q, _derivative(q)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    hi = 1 + math.ceil(max(abs(c) for c in p))
    lo = -hi
    top = _sign_changes(chain, hi)
    if _sign_changes(chain, lo) == top:
        return None
    # invariant: the largest root lies in (lo, hi]
    while hi - lo > Fraction(1, 10 ** 9):
        mid = (lo + hi) / 2
        if _sign_changes(chain, mid) > top:
            lo = mid
        else:
            hi = mid
    k = math.floor(hi)
    if _value(q, k) == 0 and _sign_changes(chain, k) == top:
        return k
    return round(float((lo + hi) / 2), 6)


# polynomials over Fraction: coefficient lists, highest degree first, with a
# nonzero leading coefficient


def _value(p, x):
    v = 0
    for c in p:
        v = v * x + c
    return v


def _sign_changes(chain, x):
    signs = [v > 0 for v in (_value(p, x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _derivative(p):
    d = len(p) - 1
    return [c * (d - i) for i, c in enumerate(p[:-1])]


def _divmod(a, b):
    quot = []
    while len(a) >= len(b):
        f = a[0] / b[0]
        quot.append(f)
        a = [x - f * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    while a and a[0] == 0:
        a = a[1:]
    return quot, a


def _gcd(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


@dataclass
class GrowthReport:
    counts: list                 # non-ideal tile counts per level
    counts_by_type: list         # per level: {type: count}
    recurrence: list | None      # rational coefficients as strings
    transition: dict | None      # coalesced type -> {type: multiplicity}
    kind: str                    # "polynomial" | "exponential"
    degree: int | None = None
    ratio: object = None

    def classification(self):
        if self.kind == "polynomial":
            return ("polynomial", self.degree)
        return ("exponential", self.ratio)


def classify_counts(seq):
    """The dichotomy on a raw count sequence: polynomial when some finite
    difference order is constant, exponential otherwise.  Never a third
    class.  The exponential ratio is the largest real root of the verified
    fitted recurrence (`largest_real_root`); without one, the last
    successive ratio."""
    deg = polynomial_degree(seq)
    if deg is not None:
        return ("polynomial", deg)
    rec = minimal_recurrence(seq)
    if rec is not None:
        return ("exponential", largest_real_root(rec))
    ratio = round(seq[-1] / seq[-2], 6) if len(seq) >= 2 and seq[-2] else None
    return ("exponential", ratio)


def growth(history, rule=None) -> GrowthReport:
    """Growth data from the tiles of a history graph, level by level.

    With a stable rule, the recurrence and the ratio are exact.  The rule
    replays its coalesced child multisets from the level-0 counts for
    max(2k + 1, levels) levels, k the number of coalesced types, and must
    reproduce every observed count (else `InvariantViolation`).  By
    Cayley-Hamilton the totals satisfy a recurrence of order at most k, so
    2k + 1 of them determine and verify the minimal one.  The dichotomy is
    decided on the integer transition system, the ratio is the largest real
    root of the recurrence, and the degree is still fitted to the observed
    counts (`polynomial_degree`, None when they are too few).

    Without a stable rule everything is fitted (`classify_counts`), which
    needs at least 4 levels.
    """
    stable = rule is not None and rule.stable
    if len(history.tilings) < 4 and not stable:
        raise ValueError("fit underdetermined: more levels requested")
    levels = [history.level_tiles(n) for n in range(len(history.tilings))]
    counts = list(map(len, levels))
    by_type = []
    if rule is not None:
        for t, tiles in zip(history.tilings, levels):
            c = Counter()
            types = rule.type_of[t.level]
            for v in tiles:
                name = types[v - t.first]
                c[rule.coalesced_of.get(name, name)] += 1
            by_type.append(dict(sorted(c.items())))
    transition = None
    if stable:
        children = rule.coalesced_children
        transition = {k: dict(sorted(v.items()))
                      for k, v in sorted(children.items())}
        totals = rule.replay(by_type[0],
                             max(2 * len(children) + 1, len(counts)) - 1)
        for level, (got, want) in enumerate(zip(totals, counts)):
            if got != want:
                raise InvariantViolation(
                    "rule replay gives %d non-ideal tiles, the tiling has %d"
                    % (got, want), "tiling", level)
        rec = minimal_recurrence(totals)
        if spectral_radius_exceeds_one(children):
            kind, value = "exponential", largest_real_root(rec)
        else:
            kind, value = "polynomial", polynomial_degree(counts)
    else:
        rec = minimal_recurrence(counts)
        kind, value = classify_counts(counts)
    if kind == "polynomial":
        return GrowthReport(counts, by_type, _rec_strs(rec), transition,
                            "polynomial", degree=value)
    return GrowthReport(counts, by_type, _rec_strs(rec), transition,
                        "exponential", ratio=value)


def _rec_strs(rec):
    return None if rec is None else [str(c) for c in rec]


# ---------------------------------------------------------------------------
# ends


@dataclass
class EndsReport:
    counts: list
    verdict: object    # 0 | 1 | 2 | "unbounded" | "undetermined"
    window: int


def _components(tiling, members):
    """Connected components of the dual graph at one level on the tiles
    whose owners `members` flags: their number, and each stored tile's
    component (-1 for one not flagged)."""
    member = members[tiling.first:tiling.first + tiling.nonideal_count]
    parent = list(range(len(member)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tiles = list(compress(range(len(member)), member))
    for i in tiles:
        for j in tiling.neighbors(i):
            if member[j]:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    comp_of = [-1] * len(member)
    number = {}   # root -> component, numbered by first tile
    for i in tiles:
        comp_of[i] = number.setdefault(find(i), len(number))
    return len(number), comp_of


def ends(history, window: int = 3) -> EndsReport:
    """Components of each level of the history graph, and the number of
    ends read off the last `window` levels."""
    tilings = history.tilings
    if len(tilings) < 3:
        raise ValueError("need at least 3 levels")
    data = [_components(t, history.members) for t in tilings]
    counts = [c for c, _ in data]
    # parent mapping between consecutive levels of the window
    bijective = True
    for lvl in range(len(tilings) - window + 1, len(tilings)):
        if lvl <= 0:
            continue
        _, comp_of = data[lvl]
        _, comp_parent = data[lvl - 1]
        mapping = defaultdict(set)
        t, pfirst = tilings[lvl], tilings[lvl - 1].first
        pred = t.ball.pred
        for i, c in enumerate(comp_of):
            p = comp_parent[pred[t.first + i] - pfirst]   # parent's component
            if c >= 0 and p >= 0:
                mapping[c].add(p)
        images = [v for v in mapping.values()]
        flat = set()
        for v in images:
            if len(v) != 1:
                bijective = False
            flat |= v
        if len(flat) != counts[lvl - 1] or len(mapping) != counts[lvl]:
            bijective = False
    tail = counts[-window:]
    if len(tail) == window and len(set(tail)) == 1 and bijective:
        verdict = tail[-1]
    elif len(tail) == window and all(a < b for a, b in zip(tail, tail[1:])):
        verdict = "unbounded"
    else:
        verdict = "undetermined"
    return EndsReport(counts, verdict, window)


# ---------------------------------------------------------------------------
# mesh certificate


@dataclass
class MeshReport:
    certified: bool
    orbit: list          # cycle of persistence-digraph nodes, if denied


def mesh_certificate(rule) -> MeshReport:
    """Combinatorial certificate that the mesh shrinks: no tile type may
    pass to a single child covering the whole tile, and no interface class
    may continue forever as a single unsubdivided instance.  Any cycle among
    these persistence moves denies the certificate."""
    if not rule.stable:
        raise ValueError("mesh certificate needs a stable rule")
    edges = defaultdict(set)
    for t in rule.types:
        if sum(t.children.values()) == 1:
            child = next(iter(t.children))
            edges[("tile", t.name)].add(("tile", child))
    for key, cont in rule.interface_classes:
        edges[("iface",) + key].add(("iface",) + cont)

    # cycle detection
    color = {}
    stack = []

    def dfs(u):
        color[u] = 1
        stack.append(u)
        for v in sorted(edges.get(u, ())):
            if color.get(v) == 1:
                i = stack.index(v)
                return stack[i:] + [v]
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
                return MeshReport(False, [list(x) for x in cyc])
    return MeshReport(True, [])


# ---------------------------------------------------------------------------
# divergence via level diameters

# sources per bit-parallel pass of _eccentricities: masks are 512 B wide
ECC_BLOCK = 4096

# the degree of the diameters, read exactly by polynomial_degree; None when no
# finite-difference order is constant within the levels
DIVERGENCE_VERDICTS = {None: "undetermined", 1: "linear", 2: "quadratic"}


@dataclass
class DivergenceReport:
    diameters: list      # int or "inf" per level
    witnesses: list      # per level: (tile1, tile2, path) or None
    mode: str            # always "exact"; report.json carries it
    degree: int | None   # polynomial_degree(diameters); None if disconnected
    verdict: str         # "linear" | "quadratic" | "undetermined" |
                         # "disconnected" | "polynomial" (any other degree)


def _bfs(adj, src):
    dist = {src: 0}
    prev = {src: None}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                prev[v] = u
                q.append(v)
    return dist, prev


def _eccentricities(nbrs, sources):
    """Eccentricities of `sources`, in their order, in a connected graph
    given as int adjacency lists.  The sources run in blocks of ECC_BLOCK;
    within a block their breadth-first searches run at once, level by level:
    bit k of a vertex's mask marks it within the current radius of the
    block's source k.  A vertex's next mask is the union of its own and its
    neighbours' masks, so one pass per block keeps two mask arrays, each of
    at most n * ECC_BLOCK / 8 bytes."""
    n = len(nbrs)
    ecc = [0] * len(sources)
    for base in range(0, len(sources), ECC_BLOCK):
        reached = [0] * n
        for k, s in enumerate(sources[base:base + ECC_BLOCK]):
            reached[s] |= 1 << k
        level = 0
        while True:
            level += 1
            nxt = []
            grown = 0
            for v in range(n):
                was = got = reached[v]
                for u in nbrs[v]:
                    got |= reached[u]
                nxt.append(got)
                grown |= got ^ was    # sources exactly `level` away from v
            if not grown:
                break
            reached = nxt
            while grown:
                low = grown & -grown
                ecc[base + low.bit_length() - 1] = level
                grown ^= low
    return ecc


def _dual_graph(tiling):
    """Each tile's neighbours, ascending, as a list per tile."""
    start, nbr, _ = tiling.rows
    return [nbr[s:e].tolist() for s, e in pairwise(start)]


def _inversion_orbits(tiling, nbrs):
    """For each tile, the first tile of its orbit under the d generator
    inversions.

    Inverting generator i is a group automorphism that maps the diagonal
    moves to themselves, so it maps the tiling onto itself: a tile's image
    is the tile of the owner with pile i negated, and must hold the tile's
    first cell with sign i flipped.  Each of the d maps must be one-to-one
    and carry every neighbour list onto its image's; else
    InvariantViolation.  `nbrs` is `_dual_graph`'s."""
    graph, index, first = tiling.graph, tiling.ball.index, tiling.first
    n, name = len(nbrs), tiling.name
    owner = tiling.ball.levels[tiling.level + 1]
    cells = [tiling.cells(i) for i in range(n)]
    root = list(range(n))   # union-find; a root is its set's first tile

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i in range(graph.d):
        what = "inversion of %s" % graph.generators[i]
        flipped = {}   # cell -> the cell with sign i flipped
        perm = []
        hit = bytearray(n)
        for v, g in enumerate(owner):
            k = index.get(g[:i] + (tuple([-x for x in g[i]]),) + g[i + 1:],
                          -1) - first   # the image's tile
            cell = flipped.get(cells[v][0])
            if cell is None:
                cell = flipped[cells[v][0]] = tuple(
                    (j, -e if j == i else e) for j, e in cells[v][0])
            if not 0 <= k < n or cell not in cells[k]:
                raise InvariantViolation("%s finds no image of tile %s"
                                         % (what, name(v)), name(v), tiling.level)
            if hit[k]:
                raise InvariantViolation("%s maps tile %s onto a tile already hit"
                                         % (what, name(v)), name(v), tiling.level)
            hit[k] = 1
            perm.append(k)
        for v, w in enumerate(perm):
            if sorted(map(perm.__getitem__, nbrs[v])) != nbrs[w]:
                raise InvariantViolation(
                    "%s does not map the neighbours of tile %s onto those of "
                    "its image %s" % (what, name(v), name(w)),
                    name(v), tiling.level)
            if w > v:
                a, b = find(v), find(w)
                if a != b:
                    root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def _level_diameter(tiling):
    nbrs = _dual_graph(tiling)
    if not nbrs:
        return 0, None
    first = _inversion_orbits(tiling, nbrs)
    if len(_bfs(nbrs, 0)[0]) != len(nbrs):
        return "inf", None
    # a tile's eccentricity is its orbit's, so one source per orbit is swept.
    # The first tile of largest eccentricity is the first of its orbit, so it
    # is a source; only it needs the full BFS with predecessors, for the
    # witness, which walks neighbours and breaks ties in name order.
    sources = [v for v, f in enumerate(first) if f == v]
    eccs = _eccentricities(nbrs, sources)
    src = sources[eccs.index(max(eccs))]
    names = tiling.names()
    for vs in nbrs:
        vs.sort(key=names.__getitem__)
    dist, prev = _bfs(nbrs, src)
    dst = max(dist, key=lambda v: (dist[v], names[v]))
    path = []
    cur = dst
    while cur is not None:
        path.append(names[cur])
        cur = prev[cur]
    return dist[dst], (names[src], names[dst], list(reversed(path)))


def divergence_diameter(tilings) -> DivergenceReport:
    """Exact dual-graph diameter and witness path of every level, and the
    divergence read off them with no fit.

    A disconnected level makes the verdict "disconnected".  Otherwise the
    verdict is the diameters' exact degree (`polynomial_degree`): for a
    connected defining graph, divergence is linear when the graph is a join
    and quadratic otherwise (Behrstock-Charney, Math. Ann. 352, 2012), and
    the diameters show degree 1 or 2 accordingly once there are enough
    levels; "undetermined" until then (P4 at 3 levels: [6, 16, 30]).

    The d generator inversions are checked as automorphisms of each level's
    dual graph, and eccentricities are swept from one tile per orbit: a
    level of n tiles costs one bit-parallel pass per ECC_BLOCK (4,096)
    orbits, with two mask arrays of at most n * 512 B each."""
    if len(tilings) < 3:
        raise ValueError("need at least 3 levels")
    diameters = []
    witnesses = []
    for t in tilings:
        diam, wit = _level_diameter(t)
        diameters.append(diam)
        witnesses.append(wit)
    if "inf" in diameters:
        return DivergenceReport(diameters, witnesses, "exact", None,
                                "disconnected")
    degree = polynomial_degree(diameters)
    return DivergenceReport(diameters, witnesses, "exact", degree,
                            DIVERGENCE_VERDICTS.get(degree, "polynomial"))
