"""Torus-fixed-point counting on bipartite support quivers.

With a type-one (all dimensions 1) vector, the stable torus fixed points are
spanning trees that pass an exact slope test on source subsets, so Euler
characteristics reduce to weighted tree counts.  This module enumerates the
trees (contraction/deletion over the stably ordered arrow list), counts them
by the matrix-tree theorem, evaluates the stability weight, and implements
the two recursive constructions on the quiver side: glueing semistable
pieces at a fresh sink, and the square rule that extends a datum of
dimension type (d-1, d) to d*d data of type (d, d+1).

The stable count ``chi_trees`` builds no tree.  It decides stability one
arrow at a time, from the vertex counts on either side of it, and counts the
stable trees of every support by one memoized recursion on subtree vertex
counts; see ``_count_stable_trees``.  The per-tree sum over
``spanning_trees`` and ``stability_weight`` is kept as a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, prod

from .quiver import Quiver, _Frozen, n_support


class SpanningTree(_Frozen):
    """A spanning tree of a support quiver, as a set of arrow indices.

    Parallel arrows are distinct choices, so trees are indexed into
    ``quiver.arrows`` rather than stored as vertex pairs.
    """

    __slots__ = ("quiver", "arrow_indices")

    def __init__(self, quiver, arrow_indices):
        arrow_indices = tuple(sorted(arrow_indices))
        n = len(quiver.vertices)
        if len(arrow_indices) != n - 1:
            raise ValueError("a spanning tree on %d vertices needs %d arrows" % (n, n - 1))
        parent = {v: v for v in quiver.ids}
        for idx in arrow_indices:
            s, t = quiver.arrows[idx]
            rs, rt = _find(parent, s), _find(parent, t)
            if rs == rt:
                raise ValueError("arrow subset contains a cycle")
            parent[rs] = rt
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "arrow_indices", arrow_indices)

    def arrow_pairs(self):
        return tuple(self.quiver.arrows[i] for i in self.arrow_indices)

    def neighbors(self):
        """source -> set of sink neighbours inside the tree."""
        adj = {}
        for s, t in self.arrow_pairs():
            adj.setdefault(s, set()).add(t)
        return adj

    def sigma(self, source_subset):
        """Total level of the tree-neighbourhood of a set of sources."""
        adj = self.neighbors()
        levels = self.quiver.levels()
        hood = set()
        for s in source_subset:
            hood |= adj.get(s, set())
        return sum(levels[v] for v in hood)


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _all_spanning_trees(num_vertices, edges):
    """All spanning trees of a multigraph, as tuples of edge indices.

    ``edges`` is a list of (index, u, v); enumeration is deterministic
    contraction/deletion on the first edge of the stably ordered list.
    """
    out = []

    def connected(universe, edges):
        parent = {v: v for v in universe}
        comps = len(universe)
        for _, u, v in edges:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(universe, edges, chosen):
        if len(universe) == 1:
            out.append(tuple(chosen))
            return
        if len(edges) < len(universe) - 1 or not connected(universe, edges):
            return
        idx, u, v = edges[0]
        rest = edges[1:]
        if u == v:
            rec(universe, rest, chosen)
            return
        # include: contract v into u, dropping arrows that become loops
        merged = []
        for i, a, b in rest:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                merged.append((i, a2, b2))
        rec(universe - {v}, merged, chosen + [idx])
        # exclude
        rec(universe, rest, chosen)

    universe = frozenset(range(num_vertices))
    if num_vertices:
        rec(universe, edges, [])
    return out


def spanning_trees_of(Q):
    """All spanning trees of a quiver's underlying multigraph."""
    index = {v: k for k, v in enumerate(Q.ids)}
    edges = [(k, index[s], index[t]) for k, (s, t) in enumerate(Q.arrows)]
    return [SpanningTree(Q, idxs) for idxs in _all_spanning_trees(len(Q.ids), edges)]


def spanning_trees(r):
    """Spanning trees of the bipartite support quiver of a refinement.

    Disconnected support yields no trees (empty list, not an error).
    """
    Q, _, _ = n_support(r)
    return spanning_trees_of(Q)


def _bipartite_classes(Q):
    """Sources are vertices receiving no arrow (so a lone vertex is a
    source, matching its role as a (1, 0) piece), sinks are the rest."""
    targets = {t for _, t in Q.arrows}
    sources = tuple(v for v in Q.ids if v not in targets)
    sinks = tuple(v for v in Q.ids if v in targets)
    return sources, sinks


def _slope_test(weights, masks, e, strict):
    """Whether sigma(I) d > e |I| (>= unless ``strict``) holds, in integers,
    for every nonempty proper subset I of the sources.

    Source k has level ``weights[k]`` and its sinks as the bitmask
    ``masks[k]``, in which a sink of level w holds w bits; d is the sum of
    the source levels and ``e`` that of the sink levels.  One DP over the
    subsets (as bitmasks) gives each subset's neighbourhood, the rest's
    or'ed with its lowest source's mask, and its level |I|; then
    sigma(I) = sum_w w #(level-w sinks in hood(I)) = popcount(hood(I)).
    """
    m = len(weights)
    d = sum(weights)
    hood = [0] * (1 << m)
    size = [0] * (1 << m)
    for subset in range(1, (1 << m) - 1):
        low = subset & -subset
        k = low.bit_length() - 1
        rest = subset ^ low
        hood[subset] = near = hood[rest] | masks[k]
        size[subset] = weight = size[rest] + weights[k]
        sigma = near.bit_count() * d
        if sigma < e * weight or strict and sigma == e * weight:
            return False
    return True


def _quiver_slope_test(Q, adjacency, strict):
    """The slope test of the all-ones representation of ``Q`` restricted to
    the arrows in ``adjacency`` (source -> set of sinks)."""
    sources, sinks = _bipartite_classes(Q)
    levels = Q.levels()
    bits, e = {}, 0
    for t in sinks:
        bits[t] = ((1 << levels[t]) - 1) << e
        e += levels[t]
    masks = [sum(bits[t] for t in adjacency.get(s, ())) for s in sources]
    return _slope_test([levels[s] for s in sources], masks, e, strict)


def stability_weight(T):
    """1 if the tree is a localization datum, else 0.

    The test is sigma_I'(T) > (e/d) |I'| for every nonempty proper subset I'
    of the sources, all in exact arithmetic.
    """
    return 1 if _quiver_slope_test(T.quiver, T.neighbors(), True) else 0


def chi_trees(r):
    """Number of stable spanning trees of the support quiver of ``r``.

    Equals the Euler characteristic of the stable type-one moduli space;
    depends on the refinement only through its weight multiplicities per
    side, so those are the arguments of the memoized count, which lists no
    tree (the per-tree sum over ``spanning_trees`` is the test oracle).
    """
    r.check_nonempty()
    return _count_stable_trees(*_support_key(r))


def _support_key(r):
    """The sorted (weight, multiplicity) pairs of the sources and of the
    sinks of the support quiver of ``r``, which fix it up to isomorphism."""
    return tuple(tuple(sorted(r.weight_multiplicities(side).items())) for side in (1, 2))


def _labelled_tree_count(sources, sinks):
    """Number of spanning trees of the support quiver with the given
    (weight, multiplicity) pairs, parallel arrows counted as distinct.  The support
    is complete bipartite with w_s w_t arrows per pair, so by the
    matrix-tree theorem the count is prod(levels) d^(n-1) e^(m-1) for m
    sources of total level d and n sinks of total level e."""
    m, n = sum(c for _, c in sources), sum(c for _, c in sinks)
    d, e = sum(w * c for w, c in sources), sum(w * c for w, c in sinks)
    return prod(w ** c for w, c in sources + sinks) * d ** (n - 1) * e ** (m - 1)


@cache
def _count_stable_trees(sources, sinks):
    """Stable spanning trees of the support quiver with the given sorted
    (weight, multiplicity) pairs of sources and sinks, counted without
    building a tree.

    Stability is decided one arrow at a time.  Let d and e be the source
    and sink level totals.  Cutting an arrow s -> t into a sink t that is
    not a leaf leaves a part holding s, of sink level total A and source
    level total B; the tree is stable iff every such part has d A < e B.
    Necessity: the sources of the other part have all their neighbours on
    their side, and their slope test gives the inequality.  Sufficiency:
    the parts hanging off the sinks next to a connected source set I are of
    this kind, and their inequalities add up to d sigma(I) > e |I|.  Rooted
    at a fixed source, this asks every subtree for d A - e B < 0 if its
    root is a source and > 0 if its root is a sink; a leaf sink passes.

    So the count is one recursion on count vectors n, one entry per colour
    (side, level), sources first.  It is evaluated on demand: filling in
    every count vector would take time quadratic in the number of sinks.

    - ``tree(c, n)``: passing trees on a fixed labelled vertex set with
      counts n, rooted at a fixed vertex of colour c;
    - ``child(c, k)``: trees on counts k hanging from a vertex of colour c,
      each of the k_j roots of colour j joined by w_c w_j parallel arrows;
    - ``kids(c, n)``: sets of trees covering n below a vertex of colour c.
      The one holding the first source left takes k, in
      C(n_f - 1, k_f - 1) prod_(i != f) C(n_i, k_i) ways.  With no source
      left, a source's children are leaf sinks, and a sink has none.
    """
    levels = tuple(w for w, _ in sources + sinks)
    m = len(sources)
    d = sum(w * c for w, c in sources)
    e = sum(w * c for w, c in sinks)
    gain = tuple(-e * w for w, _ in sources) + tuple(d * w for w, _ in sinks)
    sides = (range(m), range(m, len(levels)))

    @cache
    def tree(c, n):
        slope = sum(g * x for g, x in zip(gain, n))
        if slope >= 0 if c < m else slope <= 0:
            return 0
        return kids(c, n[:c] + (n[c] - 1,) + n[c + 1:])

    @cache
    def child(c, k):
        return levels[c] * sum(k[j] * levels[j] * tree(j, k) for j in sides[c < m] if k[j])

    @cache
    def kids(c, n):
        first = next((i for i in sides[0] if n[i]), None)
        if first is None:  # leaf sinks; below a sink, n is empty here
            return prod((levels[c] * levels[j]) ** n[j] for j in sides[1])
        ranges = [range(x + 1) for x in n]
        ranges[first] = range(1, n[first] + 1)
        total = 0
        for low in product(*ranges[:m]):
            # below a sink every tree holds a source, so one that takes
            # every source left takes everything
            highs = (n[m:],) if c >= m and low == n[:m] else product(*ranges[m:])
            for k in (low + high for high in highs):
                branch = child(c, k)
                if branch:
                    # C(n_f - 1, k_f - 1) = C(n_f, k_f) k_f / n_f
                    labels = prod(map(comb, n, k)) * k[first] // n[first]
                    total += labels * branch * kids(c, tuple(x - y for x, y in zip(n, k)))
        return total

    counts = tuple(c for _, c in sources + sinks)
    try:
        return kids(0, (counts[0] - 1,) + counts[1:])
    finally:
        # the three caches refer to each other through their closure cells:
        # empty the cells, so reference counting frees the caches now
        del tree, child, kids


def admissible_decompositions(d, e, w):
    """All w-admissible decompositions of (d, e), canonically ordered.

    Tuples ((d_1,e_1),...,(d_n,e_n)) with d_i >= 1, e_i >= 0, sum d_i = d,
    w + sum e_i = e, slopes e_i/d_i weakly increasing, and the strict
    glueing inequality (w + sum_{i<=k} e_i) / (sum_{i<=k} d_i) > e_{k+1}/d_{k+1}
    at every cut.  Pieces of equal slope commute for these conditions, so a
    single representative per multiset is returned (nondecreasing (d_i, e_i)
    within equal-slope runs).
    """
    if d < 1 or w < 1 or e < w:
        raise ValueError("need d >= 1 and e >= w >= 1")
    return list(_admissible_decompositions(d, e, w))


@cache
def _admissible_decompositions(d, e, w):
    """:func:`admissible_decompositions` of valid (d, e, w), as a tuple."""
    out = []

    def rec(d_rem, e_rem, prev, big_d, big_e, acc):
        if d_rem == 0:
            if e_rem == 0:
                out.append(tuple(acc))
            return
        for di in range(1, d_rem + 1):
            for ei in range(0, e_rem + 1):
                if prev is not None:
                    pd, pe = prev
                    if ei * pd < pe * di:
                        continue
                    if ei * pd == pe * di and (di, ei) < (pd, pe):
                        continue
                if acc and (w + big_e) * di <= ei * big_d:
                    continue
                rec(d_rem - di, e_rem - ei, (di, ei), big_d + di, big_e + ei,
                    acc + [(di, ei)])

    rec(d, e - w, None, 0, 0, [])
    return tuple(out)


class GluedTuple(_Frozen):
    """Disjoint components joined at a fresh level-w sink that receives one
    arrow from every component source."""

    __slots__ = ("quiver", "new_sink", "components")

    def __init__(self, quiver, new_sink, components):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "new_sink", new_sink)
        object.__setattr__(self, "components", components)


def _adjacency(Q):
    adj = {}
    for s, t in Q.arrows:
        adj.setdefault(s, set()).add(t)
    return adj


def is_semistable_type_one(Q):
    """Weak slope test for the all-ones representation of ``Q``."""
    return _quiver_slope_test(Q, _adjacency(Q), False)


def is_stable_type_one(Q):
    """Strict slope test for the all-ones representation of ``Q``."""
    return _quiver_slope_test(Q, _adjacency(Q), True)


def glue(components, w):
    """Glue semistable type-one components at a new sink of level ``w``.

    ``components`` is a sequence of (Quiver, all-ones dimension vector)
    pairs with disjoint vertex sets.  Their dimension types must form a
    w-admissible decomposition and each component must be semistable; the
    glued tuple is then checked to be stable (an exact assertion, not an
    assumption).
    """
    if w < 1:
        raise ValueError("sink level must be >= 1")
    quivers = []
    for comp in components:
        Q, dim = comp if isinstance(comp, tuple) else (comp, None)
        if dim is not None and any(dim.get(v, 0) != 1 for v in Q.ids):
            raise ValueError("components must carry the all-ones dimension vector")
        quivers.append(Q)
    if not quivers:
        raise ValueError("nothing to glue")

    seen = set()
    for Q in quivers:
        for v in Q.ids:
            if v in seen:
                raise ValueError("components share vertex %r" % (v,))
            seen.add(v)

    types = []
    for Q in quivers:
        levels = Q.levels()
        srcs, snks = _bipartite_classes(Q)
        di = sum(levels[v] for v in srcs)
        ei = sum(levels[v] for v in snks)
        if di == 0:
            raise ValueError("component has no sources")
        types.append((di, ei))
        if not is_semistable_type_one(Q):
            raise ValueError("component of type %r is not semistable" % ((di, ei),))

    d = sum(t[0] for t in types)
    e = w + sum(t[1] for t in types)
    # admissibility is order-free within equal slopes, so compare the
    # canonically sorted types against the canonical enumeration
    key = tuple(sorted(types, key=lambda t: (Fraction(t[1], t[0]), t)))
    if key not in set(admissible_decompositions(d, e, w)):
        raise ValueError("%r is not a %d-admissible decomposition of (%d, %d)"
                         % (types, w, d, e))

    sink = ("snk", w, "glued")
    while sink in seen:
        sink = sink + ("x",)
    verts = []
    arrows = []
    for Q in quivers:
        verts.extend(Q.vertices)
        arrows.extend(Q.arrows)
        arrows.extend((s, sink) for s in _bipartite_classes(Q)[0])
    verts.append((sink, w))
    glued = Quiver(tuple(verts), tuple(arrows))
    if not is_stable_type_one(glued):
        raise ArithmeticError("glued tuple failed the stability predicate")
    return GluedTuple(glued, sink, tuple(quivers))


# -- the (d, d+1) family -------------------------------------------------------


def type_one_support(n_sources, n_sinks):
    """Complete bipartite level-one support with the standard tokens."""
    srcs = [("src", 1, k) for k in range(1, n_sources + 1)]
    snks = [("snk", 1, k) for k in range(1, n_sinks + 1)]
    verts = [(v, 1) for v in srcs + snks]
    arrows = [(s, t) for s in srcs for t in snks]
    return Quiver(tuple(verts), tuple(arrows))


def stable_trees(Q):
    """Brute-force list of weight-one spanning trees (the oracle side)."""
    return [T for T in spanning_trees_of(Q) if stability_weight(T)]


def _tree_path(pairs, start, goal):
    """Vertex path between two vertices of a tree given as arrow pairs."""
    adj = {}
    for s, t in pairs:
        adj.setdefault(s, []).append(t)
        adj.setdefault(t, []).append(s)
    stack = [(start, (start,))]
    seen = {start}
    while stack:
        v, path = stack.pop()
        if v == goal:
            return path
        for nxt in adj.get(v, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + (nxt,)))
    raise ValueError("vertices not connected")


def _square_extensions(base_pairs, sinks, new_source):
    """All semistable square tuples obtained by adding ``new_source`` to a
    tree datum of type (k-1, k): k single-arrow additions plus 2*C(k,2)
    arrow exchanges along the sink-to-sink path.  Returns a list of
    (arrow pair frozenset, degree-one source)."""
    out = []
    for j in sinks:
        out.append((frozenset(base_pairs) | {(new_source, j)}, new_source))
    for j1, j2 in combinations(sinks, 2):
        if not base_pairs:
            continue
        path = _tree_path(base_pairs, j1, j2)
        for jk, jnext in ((path[0], path[1]), (path[-1], path[-2])):
            # jnext is the path-adjacent source whose arrow into jk is removed
            removed = (jnext, jk)
            arrows = (frozenset(base_pairs) - {removed}) | {
                (new_source, j1), (new_source, j2)}
            out.append((arrows, jnext))
    return out


def dd1_extensions(base):
    """All d*d localization data of type (d, d+1) over a base of type (d-1, d).

    ``base`` is a SpanningTree on the standard type-one support with d-1
    sources and d sinks.  A source ("src", 1, d) is added by the square
    rules, and the new sink ("snk", 1, d+1) is glued at the unique
    degree-one source of each square.  Every output is verified to be a
    stable spanning tree and the count is asserted to be exactly d**2.
    """
    Q = base.quiver
    # the standard support carries structured ids, which disambiguates the
    # degenerate (0, 1) base whose lone sink has no incident arrows at all
    sinks = sorted((v for v in Q.ids if v[0] == "snk"), key=lambda v: v[2])
    sources = sorted((v for v in Q.ids if v[0] == "src"), key=lambda v: v[2])
    d = len(sinks)
    if len(sources) != d - 1 or any(l != 1 for _, l in Q.vertices):
        raise ValueError("base must be a type-one datum of dimension type (d-1, d)")
    if stability_weight(base) != 1:
        raise ValueError("base is not a localization datum")

    support = type_one_support(d, d + 1)
    arrow_index = {pair: i for i, pair in enumerate(support.arrows)}
    new_source = ("src", 1, d)
    glue_sink = ("snk", 1, d + 1)

    out = []
    seen = set()
    for pairs, deg1 in _square_extensions(set(base.arrow_pairs()), sinks, new_source):
        full = pairs | {(deg1, glue_sink)}
        idxs = frozenset(arrow_index[p] for p in full)
        if idxs in seen:
            continue
        seen.add(idxs)
        tree = SpanningTree(support, tuple(idxs))
        if stability_weight(tree) != 1:
            raise ArithmeticError("square extension failed the stability test")
        out.append(tree)
    if len(out) != d * d:
        raise ArithmeticError("expected %d extensions, got %d" % (d * d, len(out)))
    return out


def _ordered_partitions(items, sizes):
    """Assignments of ``items`` into consecutive blocks of the given sizes."""
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for block in combinations(items, first):
        remaining = [x for x in items if x not in block]
        for tail in _ordered_partitions(remaining, rest):
            yield (tuple(block),) + tail


def dd1_family(d):
    """Stable trees of type (d, d+1), grouped by 1-admissible decomposition.

    For each decomposition of (d, d+1) into slope-one pieces (d_i, d_i),
    the pieces are built on disjoint source/sink blocks by the square rule
    over type-(d_i - 1, d_i) data and glued at the last sink.  Values are
    frozensets of arrow-index frozensets on the standard support.
    """
    support = type_one_support(d, d + 1)
    arrow_index = {pair: i for i, pair in enumerate(support.arrows)}
    srcs = [("src", 1, k) for k in range(1, d + 1)]
    snks = [("snk", 1, k) for k in range(1, d + 1)]
    glue_sink = ("snk", 1, d + 1)

    def squares_on(block_srcs, block_snks):
        """Semistable (k, k) squares on a labelled sub-support."""
        k = len(block_srcs)
        new_source = max(block_srcs, key=lambda v: v[2])
        base_srcs = [v for v in block_srcs if v != new_source]
        sub = Quiver(
            tuple((v, 1) for v in base_srcs + list(block_snks)),
            tuple((s, t) for s in base_srcs for t in block_snks),
        )
        results = []
        if not base_srcs:
            # type (0, 1) base: the empty tree
            bases = [frozenset()]
        else:
            bases = [frozenset(T.arrow_pairs()) for T in stable_trees(sub)]
        for base_pairs in bases:
            ext = _square_extensions(set(base_pairs), list(block_snks), new_source)
            if len(ext) != k * k:
                raise ArithmeticError("piece of size %d gave %d squares" % (k, len(ext)))
            results.extend(ext)
        return results

    family = {}
    for decomp in admissible_decompositions(d, d + 1, 1):
        sizes = [di for di, _ in decomp]
        trees = set()
        for src_blocks in _ordered_partitions(srcs, sizes):
            for snk_blocks in _ordered_partitions(snks, sizes):
                options = [squares_on(list(a), list(b))
                           for a, b in zip(src_blocks, snk_blocks)]
                for combo in product(*options):
                    arrows = set()
                    for pairs, deg1 in combo:
                        arrows |= pairs
                        arrows.add((deg1, glue_sink))
                    trees.add(frozenset(arrow_index[p] for p in arrows))
        family[decomp] = frozenset(trees)
    return family
