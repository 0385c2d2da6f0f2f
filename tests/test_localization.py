import gc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_motive import _coprime_pairs

import quivermoduli
import quivermoduli.localization as localization_mod
from quivermoduli.localization import (
    SpanningTree,
    admissible_decompositions,
    chi_trees,
    dd1_extensions,
    dd1_family,
    glue,
    is_semistable_type_one,
    is_stable_type_one,
    spanning_trees,
    spanning_trees_of,
    stability_weight,
    stable_trees,
    type_one_support,
)
from quivermoduli.quiver import Quiver, Refinement, n_support
from quivermoduli.symfunc import partitions
from quivermoduli.tropical import degeneration_total, mps_euler

R_2_111 = Refinement.of([((2, 1),)], [((1, 1),), ((1, 1),), ((1, 1),)])
R_11_111 = Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),), ((1, 1),)])
R_1_1 = Refinement.of([((1, 1),)], [((1, 1),)])


def brute_force_trees(Q):
    """Oracle: filter all (V-1)-subsets of arrow indices for spanning trees."""
    n = len(Q.ids)
    out = []
    for subset in combinations(range(len(Q.arrows)), n - 1):
        parent = {v: v for v in Q.ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for idx in subset:
            s, t = Q.arrows[idx]
            rs, rt = find(s), find(t)
            if rs == rt:
                ok = False
                break
            parent[rs] = rt
        if ok:
            out.append(frozenset(subset))
    return set(out)


def spanning_tree_count(Q):
    """Oracle: number of spanning trees of a quiver's underlying multigraph,
    parallel arrows counted as distinct, without listing them: by the
    matrix-tree theorem, the determinant of the Laplacian with one vertex
    deleted, computed exactly by fraction-free (Bareiss) elimination.
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


def test_spanning_tree_validation():
    Q, _, _ = n_support(R_1_1)
    T = SpanningTree(Q, (0,))
    assert T.arrow_pairs() == ((("src", 1, 1), ("snk", 1, 1)),)
    with pytest.raises(ValueError):
        SpanningTree(Q, ())
    K22 = type_one_support(2, 2)
    with pytest.raises(ValueError):
        SpanningTree(K22, (0, 1, 2, 3))  # 4 arrows on 4 vertices: a cycle


@pytest.mark.parametrize("refinement,count", [
    (R_2_111, 8),
    (R_11_111, 12),
    (R_1_1, 1),
])
def test_spanning_tree_counts(refinement, count):
    trees = spanning_trees(refinement)
    assert len(trees) == count
    # enumeration agrees with the brute-force subset oracle
    Q, _, _ = n_support(refinement)
    assert {frozenset(T.arrow_indices) for T in trees} == brute_force_trees(Q)


def test_disconnected_support_gives_no_trees():
    Q = Quiver((("a", 1), ("b", 1)))
    assert spanning_trees_of(Q) == []


def test_stability_weight_single_source_vacuous():
    for T in spanning_trees(R_2_111):
        assert stability_weight(T) == 1


def test_stability_weight_k23():
    lopsided = stable = None
    for T in spanning_trees(R_11_111):
        degrees = sorted(len(v) for v in T.neighbors().values())
        if degrees == [1, 3] and lopsided is None:
            lopsided = T
        if degrees == [2, 2] and stable is None:
            stable = T
    assert stability_weight(lopsided) == 0  # sigma = 1 is not > 3/2
    assert stability_weight(stable) == 1
    # weight-1 trees satisfy the strict bound on every subset, re-asserted
    Q, _, _ = n_support(R_11_111)
    levels = Q.levels()
    for T in spanning_trees(R_11_111):
        if not stability_weight(T):
            continue
        sources = [v for v in Q.ids if v[0] == "src"]
        d = sum(levels[v] for v in sources)
        e = sum(levels[v] for v in Q.ids if v[0] == "snk")
        for r in range(1, len(sources)):
            for sub in combinations(sources, r):
                weight = sum(levels[v] for v in sub)
                assert T.sigma(sub) * d > e * weight


@pytest.mark.parametrize("refinement,chi", [
    (R_11_111, 6),
    (Refinement.of([((2, 1),)], [((1, 1),)] * 5), 32),
    (Refinement.of([((1, 1),)], [((2, 1),)]), 2),
])
def test_chi_trees(refinement, chi):
    assert chi_trees(refinement) == chi


# -- the orbit count against the per-tree sum it replaces -------------------------


def _single_part(weights):
    return (tuple(sorted(Counter(weights).items())),)


def _refinement(w1, w2):
    return Refinement.of(_single_part(w1), _single_part(w2))


def _every_key(max_total):
    """One refinement per weight-multiplicity key of every pair (coprime or
    not) of total <= max_total: the keys ``chi_trees`` is cached on."""
    return [_refinement(w1, w2)
            for total in range(2, max_total + 1)
            for d in range(1, total)
            for w1 in partitions(d)
            for w2 in partitions(total - d)]


def _per_tree_sum(r):
    """Oracle: list every labelled spanning tree and slope-test each one."""
    return sum(stability_weight(T) for T in spanning_trees(r))


def _labelled_tree_count(r):
    """The closed-form count of labelled spanning trees of the support of
    ``r``, which ``chi_trees`` and ``localize chi`` read."""
    return localization_mod._labelled_tree_count(*localization_mod._support_key(r))


def _subtree_count(r):
    """The memoized count by subtree vertex counts that ``chi_trees`` reads."""
    return localization_mod._count_stable_trees(*localization_mod._support_key(r))


def test_chi_trees_matches_per_tree_sum_on_every_key_to_size_8():
    keys = _every_key(8)
    assert len(keys) == 301
    for r in keys:
        expected = _per_tree_sum(r)
        assert _subtree_count(r) == expected, (r.k1, r.k2)
        assert chi_trees(r) == expected, (r.k1, r.k2)


def test_mps_lists_no_tree(monkeypatch):
    # every support is counted by the subtree recursion, from cold memos:
    # mps_euler neither lists a tree nor slope-tests one
    quivermoduli.clear_memos()

    def listed(*args):
        raise AssertionError("mps_euler reached the per-tree route")

    monkeypatch.setattr(localization_mod, "spanning_trees", listed)
    monkeypatch.setattr(localization_mod, "stability_weight", listed)
    pairs = _coprime_pairs(8)
    assert len(pairs) == 199
    for p1, p2 in pairs:
        assert mps_euler(p1, p2) == degeneration_total(p1, p2), (p1, p2)
    for n in range(1, 7):
        closed_form = Fraction(comb(2 * n + 1, n) * comb(n + 1, n), 2) - Fraction(2 ** (2 * n + 1), 4)
        assert mps_euler((2,), (1,) * (2 * n + 1)) == closed_form, n


def test_chi_trees_matches_per_tree_sum_on_three_level_3_sources():
    # 78,732 labelled trees, each listed and slope-tested by the oracle
    r = Refinement.of([((3, 3),)], [((3, 2),)])
    assert spanning_tree_count(n_support(r)[0]) == 78732
    assert _subtree_count(r) == _per_tree_sum(r)


def _set_slope_test(T, strict):
    """Oracle: the slope test on T.sigma, a union of neighbour sets."""
    Q = T.quiver
    levels = Q.levels()
    targets = {t for _, t in Q.arrows}
    sources = [v for v in Q.ids if v not in targets]
    d = sum(levels[v] for v in sources)
    e = sum(levels[v] for v in targets)
    for r in range(1, len(sources)):
        for sub in combinations(sources, r):
            lhs, rhs = T.sigma(sub) * d, e * sum(levels[v] for v in sub)
            if lhs < rhs or strict and lhs == rhs:
                return False
    return True


def _edge_cut_test(T):
    """Oracle: for every arrow s -> t into a sink t that is not a leaf, the
    part of T - (s -> t) holding s has d A < e B, with A its sink level
    total and B its source level total (the arrow-by-arrow form of the
    strict slope test that ``_count_stable_trees`` counts with)."""
    Q = T.quiver
    levels = Q.levels()
    pairs = T.arrow_pairs()
    targets = {t for _, t in Q.arrows}
    d = sum(levels[v] for v in Q.ids if v not in targets)
    e = sum(levels[v] for v in targets)
    degree = Counter(t for _, t in pairs)
    for cut in pairs:
        s, t = cut
        if degree[t] < 2:
            continue
        part, stack = {s}, [s]
        while stack:
            v = stack.pop()
            for a, b in pairs:
                if (a, b) != cut and v in (a, b):
                    w = b if v == a else a
                    if w not in part:
                        part.add(w)
                        stack.append(w)
        big_a = sum(levels[v] for v in part if v in targets)
        big_b = sum(levels[v] for v in part if v not in targets)
        if not d * big_a < e * big_b:
            return False
    return True


def test_bitmask_slope_test_matches_set_unions_on_every_key_to_size_6():
    # non-coprime keys included, where sigma d = e |I| happens and only the
    # strict test rejects
    ties = 0
    for r in _every_key(6):
        for T in spanning_trees(r):
            strict, weak = _set_slope_test(T, True), _set_slope_test(T, False)
            assert stability_weight(T) == strict, (r.k1, r.k2, T.arrow_indices)
            assert _edge_cut_test(T) == strict, (r.k1, r.k2, T.arrow_indices)
            assert is_stable_type_one(Quiver(T.quiver.vertices, T.arrow_pairs())) == strict
            assert is_semistable_type_one(Quiver(T.quiver.vertices, T.arrow_pairs())) == weak
            ties += weak and not strict
    assert ties > 0


weights = st.lists(st.integers(1, 3), min_size=1, max_size=4)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(weights, weights)
def test_chi_trees_matches_per_tree_sum_on_random_refinements(w1, w2):
    r = _refinement(w1, w2)
    # the oracle lists every labelled tree, so keep the listing small
    assume(spanning_tree_count(n_support(r)[0]) <= 3000)
    assert _subtree_count(r) == _per_tree_sum(r)


def test_spanning_tree_count_matches_listing_on_every_key_to_size_8():
    for r in _every_key(8):
        Q, _, _ = n_support(r)
        assert spanning_tree_count(Q) == len(spanning_trees(r)), (r.k1, r.k2)
        assert _labelled_tree_count(r) == spanning_tree_count(Q)
    assert spanning_tree_count(Quiver((("a", 1), ("b", 1)))) == 0  # disconnected
    assert spanning_tree_count(Quiver((("a", 1),))) == 1
    assert spanning_tree_count(type_one_support(7, 9)) == 7 ** 8 * 9 ** 6


def test_admissible_decompositions_examples():
    assert set(admissible_decompositions(2, 3, 1)) == {((2, 2),), ((1, 1), (1, 1))}
    assert admissible_decompositions(2, 2, 1) == [((2, 1),)]
    assert admissible_decompositions(1, 1, 1) == [((1, 0),)]
    with pytest.raises(ValueError):
        admissible_decompositions(0, 1, 1)


def test_admissible_decompositions_conditions():
    from fractions import Fraction

    for decomp in admissible_decompositions(4, 5, 1):
        slopes = [Fraction(e, d) for d, e in decomp]
        assert slopes == sorted(slopes)
        big_d = big_e = 0
        for k, (d, e) in enumerate(decomp[:-1]):
            big_d += d
            big_e += e
            nd, ne = decomp[k + 1]
            assert (1 + big_e) * nd > ne * big_d


def one_arrow(tag):
    return Quiver(((("s", 1, tag), 1), (("t", 1, tag), 1)),
                  ((("s", 1, tag), ("t", 1, tag)),))


def star(tag, n):
    verts = [(("s", 1, tag), 1)] + [(("t", tag, k), 1) for k in range(n)]
    arrows = tuple((("s", 1, tag), ("t", tag, k)) for k in range(n))
    return Quiver(tuple(verts), arrows)


def test_glue_two_stars():
    # two (1, n)-star pieces joined at a fresh level-1 sink stay stable
    for n in (1, 2, 3):
        comps = [(star("a", n), {v: 1 for v in star("a", n).ids}),
                 (star("b", n), {v: 1 for v in star("b", n).ids})]
        glued = glue(comps, 1)
        assert is_stable_type_one(glued.quiver)
        assert glued.quiver.level(glued.new_sink) == 1


def test_glue_lone_source():
    lone = Quiver(((("s", 1, 0), 1),))
    glued = glue([(lone, {("s", 1, 0): 1})], 1)
    assert len(glued.quiver.arrows) == 1
    assert is_stable_type_one(glued.quiver)


def test_glue_two_one_arrow_components():
    glued = glue([(one_arrow("a"), {v: 1 for v in one_arrow("a").ids}),
                  (one_arrow("b"), {v: 1 for v in one_arrow("b").ids})], 1)
    assert is_stable_type_one(glued.quiver)
    assert len(glued.quiver.ids) == 5 and len(glued.quiver.arrows) == 4


def test_glue_rejects_non_admissible():
    lone = Quiver(((("s", 1, 9), 1),))
    with pytest.raises(ValueError):
        glue([(one_arrow("a"), {v: 1 for v in one_arrow("a").ids}),
              (lone, {("s", 1, 9): 1})], 1)


def test_glue_rejects_unstable_component():
    # two sources, two sinks, all arrows from the first source: the second
    # source has sigma = 0 < (2/2)*1, so the piece is not semistable
    bad = Quiver(
        ((("s", 1, 0), 1), (("s", 1, 1), 1), (("t", 1, 0), 1), (("t", 1, 1), 1)),
        ((("s", 1, 0), ("t", 1, 0)), (("s", 1, 0), ("t", 1, 1))),
    )
    assert not is_semistable_type_one(bad)
    with pytest.raises(ValueError):
        glue([(bad, {v: 1 for v in bad.ids})], 1)


def test_dd1_extension_counts():
    support01 = type_one_support(0, 1)
    base = SpanningTree(support01, ())
    assert len(dd1_extensions(base)) == 1

    support12 = type_one_support(1, 2)
    (base12,) = stable_trees(support12)
    exts = dd1_extensions(base12)
    assert len(exts) == 4
    for T in exts:
        assert stability_weight(T) == 1
        assert len(T.quiver.ids) == 5


def test_dd1_family_matches_brute_force():
    for d in (1, 2, 3):
        family = dd1_family(d)
        union = set().union(*family.values())
        support = type_one_support(d, d + 1)
        brute = {frozenset(T.arrow_indices) for T in stable_trees(support)}
        assert union == brute
        assert sum(len(v) for v in family.values()) == len(union)


def test_dd1_family_per_decomposition_counts():
    family = dd1_family(2)
    assert {k: len(v) for k, v in family.items()} == {
        ((1, 1), (1, 1)): 2,
        ((2, 2),): 4,
    }
    family3 = dd1_family(3)
    assert {k: len(v) for k, v in family3.items()} == {
        ((1, 1), (1, 1), (1, 1)): 6,
        ((1, 1), (2, 2)): 36,
        ((3, 3),): 54,
    }


def test_dd1_rejects_wrong_base():
    # a (2,2) support is not of dimension type (d-1, d)
    some = spanning_trees_of(type_one_support(2, 2))[0]
    with pytest.raises(ValueError):
        dd1_extensions(some)


def test_parallel_tree_fold_matches_sequential():
    # weights are pure functions of immutable trees: any evaluation order
    # (here a thread pool) gives the same count
    from concurrent.futures import ThreadPoolExecutor

    trees = spanning_trees(R_11_111)
    sequential = sum(stability_weight(T) for T in trees)
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = sum(pool.map(stability_weight, trees))
    assert parallel == sequential == 6


def test_chi_trees_equals_hn_on_the_support():
    # the tree count equals the HN-pipeline Euler characteristic of the
    # levelled support quiver itself (the two routes share no code)
    from math import gcd

    from quivermoduli.motive import euler_char, is_theta_coprime

    cases = [
        R_2_111,                                                   # (2,3)
        R_11_111,                                                  # (2,3)
        Refinement.of([((1, 1),)], [((2, 1),)]),                   # (1,2)
        Refinement.of([((2, 1),)], [((1, 1),)] * 5),               # (2,5)
        Refinement.of([((1, 1), (2, 1))], [((1, 2),), ((2, 1),)]), # (3,4)
        Refinement.of([((3, 1),)], [((1, 1),), ((1, 1),)]),        # (3,2)
        # too heavy to list (K(6,7) alone has 6^6 7^5 labelled trees)
        Refinement.of([((1, 6),)], [((1, 7),)]),                   # (6,7)
        Refinement.of([((1, 5),)], [((1, 4), (2, 1))]),            # (5,6)
        Refinement.of([((1, 6),)], [((2, 2), (3, 1))]),            # (6,7)
    ]
    for r in cases:
        d = sum(w * c for part in r.k1 for w, c in part)
        e = sum(w * c for part in r.k2 for w, c in part)
        assert gcd(d, e) == 1
        Q, ones, stab = n_support(r)
        assert is_theta_coprime(Q, stab, ones)
        assert euler_char(Q, stab, ones) == chi_trees(r), (d, e)


def test_subtree_counts_are_freed_without_the_cycle_collector():
    # the subtree-count caches of each support refer to each other; they are
    # freed by reference counting when the count returns, so one cold
    # mps_euler leaves no cyclic garbage
    quivermoduli.clear_memos()
    gc.collect()
    gc.disable()
    try:
        assert mps_euler((3, 3), (2, 2, 3)) == 130
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
