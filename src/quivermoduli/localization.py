"""Torus-fixed-point counting on bipartite support quivers.

With a type-one (all dimensions 1) vector, the stable torus fixed points are
spanning trees that pass an exact slope test on source subsets, so Euler
characteristics reduce to weighted tree counts.  This module enumerates the
trees (contraction/deletion over the stably ordered arrow list), counts them
by the matrix-tree theorem, evaluates the stability weight, and implements
the two recursive constructions on the quiver side: glueing semistable
pieces at a fresh sink, and the square rule that extends a datum of
dimension type (d-1, d) to d*d data of type (d, d+1).

The stable count ``chi_trees`` lists labelled trees only on the smallest
supports.  Otherwise it generates the level-coloured core shapes up to
relabelling within a level, weights each by its labelled copies, and runs
one bitmask slope test (``_slope_test``, which every stability predicate
here shares) per shape and leaf split; see ``_count_by_shapes``.  The
per-tree sum is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod

from .quiver import Quiver, Refinement, n_support
from .symfunc import weighted_splits


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a support quiver, as a set of arrow indices.

    Parallel arrows are distinct choices, so trees are indexed into
    ``quiver.arrows`` rather than stored as vertex pairs.
    """

    quiver: Quiver
    arrow_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "arrow_indices", tuple(sorted(self.arrow_indices)))
        n = len(self.quiver.vertices)
        if len(self.arrow_indices) != n - 1:
            raise ValueError("a spanning tree on %d vertices needs %d arrows" % (n, n - 1))
        parent = {v: v for v in self.quiver.ids}
        for idx in self.arrow_indices:
            s, t = self.quiver.arrows[idx]
            rs, rt = _find(parent, s), _find(parent, t)
            if rs == rt:
                raise ValueError("arrow subset contains a cycle")
            parent[rs] = rt

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


def spanning_tree_count(Q):
    """Number of spanning trees of a quiver's underlying multigraph, parallel
    arrows counted as distinct, without listing them: by the matrix-tree
    theorem, the determinant of the Laplacian with one vertex deleted,
    computed exactly by fraction-free (Bareiss) elimination.
    """
    if not Q.ids:
        return 0
    index = {v: k for k, v in enumerate(Q.ids)}
    n = len(index) - 1
    lap = [[0] * n for _ in range(n)]
    for s, t in Q.arrows:
        a, b = index[s] - 1, index[t] - 1
        if a == b:
            continue
        for u, v in ((a, b), (b, a)):
            if u >= 0:
                lap[u][u] += 1
                if v >= 0:
                    lap[u][v] -= 1
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if lap[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            lap[k], lap[pivot] = lap[pivot], lap[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                lap[i][j] = (lap[i][j] * lap[k][k] - lap[i][k] * lap[k][j]) // prev
        prev = lap[k][k]
    return sign * prev


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
    side, so those are the arguments of the memoized count.
    """
    r.check_nonempty()
    return _count_stable_trees(tuple(sorted(r.weight_multiplicities(1).items())),
                               tuple(sorted(r.weight_multiplicities(2).items())))


# A support with at most this many labelled spanning trees is counted by
# listing them (at most a few hundred microseconds), so that the per-tree
# route, ``spanning_trees`` and ``stability_weight``, stays on the path and
# shows in a traced run.
LISTED_TREES_MAX = 16


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
    (weight, multiplicity) pairs of sources and sinks: listed one by one on
    a support with at most ``LISTED_TREES_MAX`` labelled trees, and counted
    by core shapes (``_count_by_shapes``) otherwise."""
    if _labelled_tree_count(sources, sinks) <= LISTED_TREES_MAX:
        return sum(stability_weight(T) for T in spanning_trees(Refinement((sources,), (sinks,))))
    return _count_by_shapes(sources, sinks)


def _count_by_shapes(sources, sinks):
    """Stable spanning trees of the support quiver with the given sorted
    (weight, multiplicity) pairs of sources and sinks, counted without
    listing a tree.

    A spanning tree with m sources splits into its core (the sources and
    the sinks of degree >= 2, at most m - 1 of them) and its leaf sinks,
    each hanging on one source.  For each vector k of core sizes per sink
    level (C(c_w, k_w) choices of core sinks), the simple core trees are
    generated once per shape up to relabelling within a level
    (``_core_shapes``), weighted by their labelled copies and by the
    w_s w_t parallel arrows of each edge.  Each shape is extended by every
    split of the leaf sinks of each level among the sources
    (``weighted_splits``), weighted by its multinomial and by the
    (w_s w_t)^a parallel arrows its leaves can use.  Relabelling within a
    level keeps stability and weights, so one bitmask slope test per shape
    and leaf split decides the whole term.  With one source the only core
    is the source itself, and the count is prod_t (w_s w_t).
    """
    m = sum(c for _, c in sources)
    total = 0
    for core in product(*(range(min(c, m - 1) + 1) for _, c in sinks)):
        if sum(core) > m - 1:
            continue
        choices = prod(comb(c, k) for (_, c), k in zip(sinks, core))
        core_sinks = tuple((w, k) for (w, _), k in zip(sinks, core) if k)
        splits = [list(weighted_splits(c - k, m)) for (_, c), k in zip(sinks, core)]
        for source_levels, sink_levels, edges, copies in _core_shapes(sources, core_sinks):
            shape_weight = choices * copies * prod(source_levels[i] * sink_levels[j]
                                                   for i, j in edges)
            blocks, bit = [], 0
            for w in sink_levels:
                blocks.append(((1 << w) - 1) << bit)
                bit += w
            masks = [0] * m
            for i, j in edges:
                masks[i] |= blocks[j]
            for split in product(*splits):
                weight, top, full = shape_weight, bit, list(masks)
                for (w, _), (counts, multinomial) in zip(sinks, split):
                    weight *= multinomial
                    for i, a in enumerate(counts):
                        if a:
                            weight *= (source_levels[i] * w) ** a
                            full[i] |= ((1 << w * a) - 1) << top
                            top += w * a
                if _slope_test(source_levels, full, top, True):
                    total += weight
    return total


@cache
def _core_shapes(sources, sinks):
    """Every core tree on the given sorted (weight, multiplicity) pairs of
    sources and sinks, one per shape up to relabelling within a level.

    A core tree is a simple tree joining sources to sinks in which every
    sink has degree >= 2, so its leaves are sources, any two at even
    distance: its diameter is even and its centre is one vertex, which
    every automorphism fixes.  Each shape is generated once, rooted at its
    centre (``_child_sets``).

    Returns ``(source_levels, sink_levels, edges, copies)`` tuples: one
    representative, whose edges (i, j) join source i to sink j, and the
    number prod m_w! prod k_w! / |Aut| of labelled trees of its shape.
    """
    have = tuple(((0, w), c) for w, c in sources) + tuple(((1, w), c) for w, c in sinks)
    labelled = prod(factorial(c) for _, c in have)
    return tuple(_representative(root, children) + (labelled // automorphisms,)
                 for root, _ in have
                 for children, automorphisms in _child_sets(root, have, True))


def _representative(root, children):
    """``(source_levels, sink_levels, edges)`` of the tree with a root of
    colour ``root`` and these child codes, numbered depth first."""
    levels, edges = ([], []), []

    def place(colour, children):
        side, level = colour
        levels[side].append(level)
        k = len(levels[side]) - 1
        for kid in children:
            j = place(kid[1], kid[2])
            edges.append((j, k) if side else (k, j))
        return k

    place(root, children)
    return tuple(levels[0]), tuple(levels[1]), tuple(edges)


@cache
def _rooted_cores(root, have):
    """Codes (height, root, children, |Aut|) of the rooted trees whose root
    has the colour ``root`` and whose vertex counts per colour are ``have``,
    (colour, count) pairs with the root's colour among them.  A colour is a
    (side, level) pair, 0 for sources and 1 for sinks; every sink has a
    child, as it has degree >= 2 in a core tree.  |Aut| counts the
    automorphisms that fix the root."""
    return tuple((children[0][0] + 1 if children else 0, root, children, automorphisms)
                 for children, automorphisms in _child_sets(root, have, False))


def _child_sets(root, have, centred):
    """The children of the rooted trees of ``_rooted_cores(root, have)``:
    each multiset of rooted trees of the other side whose vertex counts add
    up to what the root leaves, once, with the automorphisms of the tree
    that fix the root, prod n! |Aut(child)|^n over classes of n equal
    children.

    Children are picked block by block, a block holding the codes of one
    height and one count vector, highest first, so a multiset comes out in
    one canonical order, its highest child first.  Count vectors are packed
    into integers, one field per colour with a guard bit on top, so that
    sub <= left, field by field, is one subtraction and one mask.

    With ``centred``, a multiset counts only if its two highest children
    are equally high (or it is empty, for a lone source): the root is then
    the centre of the tree, so every shape is rooted there exactly once.
    """
    left = [c - (colour == root) for colour, c in have]
    width = max(left).bit_length() + 1
    guard = sum(1 << (k * width + width - 1) for k in range(len(have)))
    other = sum(((1 << width) - 1) << (k * width)
                for k, (colour, _) in enumerate(have) if colour[0] != root[0])
    blocks = []
    for sub in product(*(range(c + 1) for c in left)):
        sub_have = tuple((colour, c) for (colour, _), c in zip(have, sub) if c)
        by_height = {}
        for colour, _ in sub_have:
            if colour[0] != root[0]:
                for code in _rooted_cores(colour, sub_have):
                    by_height.setdefault(code[0], []).append(code)
        packed = sum(c << (k * width) for k, c in enumerate(sub))
        blocks.extend((height, packed, codes) for height, codes in by_height.items())
    blocks.sort(key=lambda block: -block[0])
    out = []

    def pick(blocks, left, children, automorphisms):
        if not left:
            if (children or not root[0]) and not (centred and len(children) == 1):
                out.append((children, automorphisms))
            return
        if not left & other:
            return
        for j, (height, sub, codes) in enumerate(blocks):
            if centred and len(children) == 1 and height < children[0][0]:
                break
            rest, r = left, 0
            while ((rest | guard) - sub) & guard == guard:
                rest, r = rest - sub, r + 1
                fence = rest | guard
                later = [block for block in blocks[j + 1:] if (fence - block[1]) & guard == guard]
                for chosen in combinations_with_replacement(codes, r):
                    fixed, run, prev = automorphisms, 0, None
                    for code in chosen:  # equal codes are one object, side by side
                        run = run + 1 if code is prev else 1
                        fixed, prev = fixed * run * code[3], code
                    pick(later, rest, children + chosen, fixed)

    pick(blocks, sum(c << (k * width) for k, c in enumerate(left)), (), 1)
    return out


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
    return out


@dataclass(frozen=True)
class GluedTuple:
    """Disjoint components joined at a fresh level-w sink that receives one
    arrow from every component source."""

    quiver: Quiver
    new_sink: object
    components: tuple

    def dim(self):
        return {v: 1 for v in self.quiver.ids}


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
