import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial, gcd, inf

import pytest

import quivermoduli
import quivermoduli.motive as motive_mod
from quivermoduli.motive import (
    MotiveClass,
    dual_mps_check,
    euler_char,
    gl_class,
    gm_class,
    hn_sst_class,
    hn_types,
    is_theta_coprime,
    motivic_mps_check,
    partition_form_check,
    poincare,
    proj_class,
)
from quivermoduli.quiver import (
    Quiver,
    Stability,
    bipartite_setup,
    check_quiver,
    euler_form,
    hat_quiver,
)
from quivermoduli.ratfunc import Poly, cyclotomic
from quivermoduli.symfunc import multiplicity_vectors, partitions
from quivermoduli.tropical import degeneration_total
from test_orbits import LabelledHNSolver, _fresh_solver, _three_class_quiver

K1 = Quiver.kronecker(1)
K3 = Quiver.kronecker(3)
S10 = Stability.of({"i1": 1, "j1": 0})
K23 = Quiver.complete_bipartite(2, 3)
S23 = Stability.of({"i1": 1, "i2": 1, "j1": 0, "j2": 0, "j3": 0})
ONES23 = {v: 1 for v in K23.ids}


def L(k=1):
    return MotiveClass(Poly.x_pow(k))


def test_identity_classes():
    assert gl_class(1) == MotiveClass(Poly((-1, 1)))
    assert gl_class(2) == MotiveClass((Poly.x_pow(2) - Poly((1,))) *
                                      (Poly.x_pow(2) - Poly.x_pow(1)))
    assert gm_class() == MotiveClass(Poly((-1, 1)))
    assert proj_class(2) == MotiveClass(Poly((1, 1)))
    assert proj_class(1) == MotiveClass(Poly((1,)))
    with pytest.raises(ValueError):
        gl_class(0)
    with pytest.raises(ValueError):
        proj_class(0)


def test_motive_class_arithmetic():
    lm1 = MotiveClass(Poly((-1, 1)))
    inv = MotiveClass(Poly((1,)), cyc={1: 1})
    assert lm1 * inv == MotiveClass(Poly((1,)))
    assert inv + inv == MotiveClass(Poly((2,)), cyc={1: 1})
    # different factored presentations of the same function compare equal
    a = MotiveClass(Poly((1, 1)), cyc={1: 1})          # (L+1)/(L-1)
    b = MotiveClass(Poly((1, 2, 1)), cyc={2: 1})       # (L+1)^2/(L^2-1)
    assert a == b
    assert (a.num, a.lpow, a.cyc) == (b.num, b.lpow, b.cyc) and hash(a) == hash(b)
    assert a.times_l_power(2) == MotiveClass(Poly((0, 0, 1, 1)), cyc={1: 1})
    assert a.times_l_power(-1) == MotiveClass(Poly((1, 1)), 1, {1: 1})
    assert a.times_l_power(-1).den == Poly((0, -1, 1))


def test_denominators_stay_in_the_localized_ring():
    # classes are stored in canonical form: the denominator is a product of
    # L-powers and cyclotomic factors Phi_k of (L^n - 1), none of which
    # divides the numerator
    for Q, s, d in ((K3, S10, {"i1": 2, "j1": 3}),
                    (K3, S10, {"i1": 3, "j1": 4}),
                    (K23, S23, ONES23),
                    (K1, S10, {"i1": 1, "j1": 1})):
        cls = hn_sst_class(Q, s, d)
        assert not cls.is_zero()
        if cls.lpow > 0:
            assert cls.num.c[0] != 0
        for k, e in cls.cyc:
            assert e > 0
            assert not cls.num.divmod(cyclotomic(k))[1].is_zero(), (d, k)
        assert cls.den.c[-1] == 1


def test_hn_types_kronecker():
    types = hn_types(K1, S10, {"i1": 1, "j1": 1})
    assert len(types) == 2
    assert ({"i1": 1, "j1": 1},) in types
    assert ({"i1": 1}, {"j1": 1}) in types

    assert hn_types(K1, S10, {"i1": 1}) == [({"i1": 1},)]

    types21 = hn_types(K1, S10, {"i1": 2, "j1": 1})
    assert ({"i1": 1}, {"i1": 1, "j1": 1}) in types21
    assert ({"j1": 1}, {"i1": 1}) not in types21
    for typ in types21:
        slopes = []
        for block in typ:
            th = block.get("i1", 0)
            ka = block.get("i1", 0) + block.get("j1", 0)
            slopes.append(Fraction(th, ka))
        assert slopes == sorted(slopes, reverse=True)
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_hn_sst_class_examples():
    one = Poly((1,))
    assert hn_sst_class(K1, S10, {"i1": 1, "j1": 1}) == MotiveClass(one, cyc={1: 1})
    assert hn_sst_class(K3, S10, {"i1": 1, "j1": 1}) == \
        MotiveClass(Poly((1, 1, 1)), cyc={1: 1})
    with pytest.raises(ValueError):
        hn_sst_class(K1, S10, {"i1": 0, "j1": 0})


def test_trivial_stability_gives_full_stack_class():
    # theta = 0 makes everything semistable: the class is L^dim R_d / [G_d]
    zero = Stability.of({"i1": 0, "j1": 0})
    d = {"i1": 2, "j1": 1}
    got = hn_sst_class(K3, zero, d)
    dim_r = 3 * 2 * 1
    assert got * (gl_class(2) * gl_class(1)) == MotiveClass(Poly.x_pow(dim_r))


def test_stratification_identity_random_quivers():
    # the class of all representations is the sum over HN types of the
    # twisted products of semistable classes; checked against the literal
    # type enumeration on small random quivers
    rng = random.Random(2718)
    for _ in range(12):
        nv = rng.randint(2, 3)
        ids = ["v%d" % k for k in range(nv)]
        arrows = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(ids, 2) if nv > 1 else (ids[0], ids[0])
            arrows.append((a, b))
        Q = Quiver(tuple((v, 1) for v in ids), tuple(arrows))
        s = Stability.of({v: rng.randint(-1, 2) for v in ids})
        d = {v: rng.randint(0, 2) for v in ids}
        if all(x == 0 for x in d.values()):
            d[ids[0]] = 1
        dim_r = sum(d[a] * d[b] for a, b in arrows)
        lhs = MotiveClass(Poly.x_pow(dim_r))
        gd = MotiveClass(Poly((1,)))
        for x in d.values():
            if x:
                gd = gd * gl_class(x)
        total = MotiveClass.zero()
        for typ in hn_types(Q, s, d):
            term = MotiveClass(Poly((1,)))
            shift = 0
            for k, dk in enumerate(typ):
                term = term * hn_sst_class(Q, s, dk)
                for l in range(k + 1, len(typ)):
                    shift -= euler_form(Q, typ[l], dk)
            total = total + term.times_l_power(shift)
        assert total * gd == lhs


def test_poincare_examples():
    assert list(poincare(K3, S10, {"i1": 1, "j1": 1}).c) == [1, 0, 1, 0, 1]
    assert list(poincare(K1, S10, {"i1": 1, "j1": 1}).c) == [1]
    assert poincare(K1, S10, {"i1": 1, "j1": 1})(1) == 1
    with pytest.raises(ValueError):
        poincare(K1, S10, {"i1": 2, "j1": 2})


def test_poincare_duality():
    # P(t) = t^(2(1 - <d,d>)) P(1/t) on coprime nonempty cases
    cases = [
        (K3, S10, {"i1": 1, "j1": 1}),
        (K3, S10, {"i1": 2, "j1": 3}),
        (K23, S23, ONES23),
    ]
    for Q, s, d in cases:
        p = poincare(Q, s, d)
        dim2 = 2 * (1 - euler_form(Q, d, d))
        assert p.degree() == dim2
        assert list(p.c) == list(reversed(p.c))


def test_euler_char_examples():
    assert euler_char(K3, S10, {"i1": 1, "j1": 1}) == 3
    assert euler_char(K23, S23, ONES23) == 6
    assert euler_char(K3, S10, {"i1": 2, "j1": 3}) == 13


def test_theta_coprime():
    assert is_theta_coprime(K3, S10, {"i1": 2, "j1": 3})
    assert not is_theta_coprime(K3, S10, {"i1": 2, "j1": 2})


def test_theta_coprime_with_fraction_theta():
    # theta = (3/10, 1/10, 2/10) on K(1, 2): theta(j2) = theta(i1 + j1 + j2)
    # / 3, so the subvector j2 shares the slope of (1, 1, 1); in floats
    # 0.3 + 0.1 + 0.2 != 3 * 0.2, which is why a float theta is rejected
    K12 = Quiver.complete_bipartite(1, 2)
    ones = {v: 1 for v in K12.ids}
    exact = Stability.of({"i1": Fraction(3, 10), "j1": Fraction(1, 10), "j2": Fraction(2, 10)})
    assert not is_theta_coprime(K12, exact, ones)
    with pytest.raises(ValueError, match="theta at vertex 'i1'"):
        Stability.of({"i1": 0.3, "j1": 0.1, "j2": 0.2})


def test_dimension_vector_unknown_ids_rejected():
    for fn in (euler_char, hn_sst_class, is_theta_coprime, poincare, hn_types):
        with pytest.raises(ValueError, match="unknown vertex ids 'zz'"):
            fn(K3, S10, {"i1": 2, "j1": 3, "zz": 4})


def test_dimension_vector_negative_entries_rejected():
    for fn in (euler_char, hn_sst_class, is_theta_coprime, poincare, hn_types):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(K3, S10, {"i1": -1, "j1": 2})


@pytest.mark.parametrize("bad", [1.5, Fraction(1), True])
def test_dimension_vector_entries_must_be_ints(bad):
    # int() would read 1.5 as 1, and chi(1.5, 1) as chi(1, 1) = 3
    for fn in (euler_char, hn_sst_class, is_theta_coprime, poincare, hn_types):
        with pytest.raises(ValueError, match="dimension vector entry"):
            fn(K3, S10, {"i1": bad, "j1": 1})


def test_zero_dimension_vector_rejected():
    for fn in (is_theta_coprime, poincare, euler_char, hn_sst_class):
        with pytest.raises(ValueError, match="nonzero"):
            fn(K3, S10, {"i1": 0, "j1": 0})
        with pytest.raises(ValueError, match="nonzero"):
            fn(K3, S10, {})


def test_motivic_mps_trivial_vertex():
    # d_i = 1: a single multiplicity vector, support isomorphic to Q
    assert motivic_mps_check(K3, S10, "i1", {"i1": 1, "j1": 1})
    assert motivic_mps_check(K23, S23, "j2", ONES23)


def test_motivic_mps_examples():
    assert motivic_mps_check(K1, S10, "i1", {"i1": 2, "j1": 1})
    assert motivic_mps_check(K3, S10, "i1", {"i1": 2, "j1": 3})
    assert motivic_mps_check(K3, S10, "j1", {"i1": 2, "j1": 3})
    with pytest.raises(ValueError):
        motivic_mps_check(K1, S10, "i1", {"j1": 1})


def test_partition_form_matches():
    assert partition_form_check(K1, S10, "i1", {"i1": 2, "j1": 1})
    assert partition_form_check(K3, S10, "j1", {"i1": 2, "j1": 3})
    assert partition_form_check(K23, S23, "i1", ONES23)


def test_dual_mps_examples():
    assert dual_mps_check(K3, S10, "i1", {"i1": 1, "j1": 1})
    assert dual_mps_check(K1, S10, "i1", {"i1": 2, "j1": 1})
    assert dual_mps_check(K3, S10, "i1", {"i1": 2, "j1": 3})
    assert dual_mps_check(K3, S10, "j1", {"i1": 2, "j1": 3})


@pytest.mark.parametrize("check", [motivic_mps_check, partition_form_check, dual_mps_check])
def test_degeneration_checks_name_an_unknown_vertex(check):
    with pytest.raises(ValueError, match="unknown vertex id 'zz'"):
        check(K3, S10, "zz", {"i1": 2, "j1": 3})
    # a known vertex with d_i = 0 keeps its own message
    with pytest.raises(ValueError, match="d_i must be >= 1"):
        check(K3, S10, "i1", {"j1": 3})


def test_euler_level_mps_sum():
    # chi(Q, d) = sum over multiplicity vectors of d_i of
    # prod (1/m_l!) ((-1)^(l-1)/l^2)^m_l chi(Qhat, dhat(m))
    Q, s, i, d = K3, S10, "i1", {"i1": 2, "j1": 3}
    total = Fraction(0)
    for m in multiplicity_vectors(d[i]):
        Qh, dh, sh = hat_quiver(Q, i, m, d, s)
        weight = Fraction(1)
        for l, ml in m.items():
            weight *= Fraction(1, factorial(ml)) * Fraction((-1) ** (l - 1), l * l) ** ml
        total += weight * euler_char(Qh, sh, dh)
    assert total == euler_char(Q, s, d) == 13


def test_lemma3_specialized_to_motives():
    # L^binom(n,2) / [GL_n] = sum over m of prod (1/m_l!)
    # ((-1)^(l-1) / (l [P^(l-1)]))^m_l (L-1)^(-sum m_l)
    for n in range(1, 6):
        lhs = MotiveClass(Poly.x_pow(comb(n, 2)))
        rhs_total = MotiveClass.zero()
        for m in multiplicity_vectors(n):
            term = MotiveClass(Poly((1,)), cyc={1: sum(m.values())})
            scalar = Fraction(1)
            for l, ml in m.items():
                scalar *= Fraction(1, factorial(ml)) * Fraction((-1) ** (l - 1), l) ** ml
                if l > 1:
                    term = term.times_proj_inverse(l, ml)
            rhs_total = rhs_total + term * scalar
        assert lhs == rhs_total * gl_class(n)


def test_concurrent_memo_observes_identical_values():
    # racing callers may duplicate work but must agree on the value
    motive_mod._solver.cache_clear()
    d = {"i1": 2, "j1": 3}
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: hn_sst_class(K3, S10, d), range(8)))
    assert all(r == results[0] for r in results)
    assert len(set(results)) == 1


def test_symmetry_collapse_is_sound():
    # memo keys collapse provably interchangeable vertices; the labelled
    # recursion must give the same values, including on quivers where
    # vertices share level/theta but are NOT interchangeable
    cases = [
        # equal theta/level sinks with different arrow multiplicities
        (Quiver((("a", 1), ("b", 1), ("c", 1)),
                (("a", "b"), ("a", "c"), ("a", "c"))),
         {"a": 1, "b": 0, "c": 0}, {"a": 2, "b": 1, "c": 1}, 3),
        # genuinely symmetric sinks
        (Quiver.complete_bipartite(1, 3),
         {"i1": 1, "j1": 0, "j2": 0, "j3": 0},
         {"i1": 2, "j1": 1, "j2": 1, "j3": 1}, 2),
        # a three-vertex path
        (Quiver((("a", 1), ("b", 1), ("c", 1)), (("a", "b"), ("b", "c"))),
         {"a": 2, "b": 1, "c": 0}, {"a": 1, "b": 2, "c": 1}, 3),
        # symmetric sinks with loops and arrows between them
        (Quiver((("a", 1), ("b", 1), ("c", 1)),
                (("a", "b"), ("a", "c"), ("b", "c"), ("c", "b"), ("b", "b"), ("c", "c"))),
         {"a": 1, "b": 0, "c": 0}, {"a": 2, "b": 2, "c": 1}, 2),
    ]
    for Q, theta, d, n_classes in cases:
        stab = Stability.of(theta)
        assert len(motive_mod._class_data(Q, stab)[0]) == n_classes
        slow = LabelledHNSolver(Q, stab).sst_class(tuple(d.get(v, 0) for v in Q.ids))
        assert hn_sst_class(Q, stab, d) == slow, Q


def test_threaded_tables_match_serial_values():
    # racing threads build the same records and Phi entries; with the
    # interpreter switching threads as often as it can, every value must
    # equal the serial one.  (3, 2) | (2, 2, 1) puts two values on each
    # class, so its rows have several slopes.
    ladder = [bipartite_setup((2,), (1,) * (2 * n + 1)) for n in range(1, 5)]
    ladder += [(K3, {"i1": a, "j1": a + 1}, S10) for a in range(1, 4)]
    ladder.append(bipartite_setup((3, 2), (2, 2, 1)))
    motive_mod._solver.cache_clear()
    serial = [hn_sst_class(Q, s, d) for Q, d, s in ladder]
    motive_mod._solver.cache_clear()

    def run(order):
        out = []
        for k in order:
            Q, d, s = ladder[k]
            out.append((k, hn_sst_class(Q, s, d)))
        return out

    n = len(ladder)
    orders = [list(range(n)), list(range(n))[::-1],
              list(range(0, n, 2)) + list(range(1, n, 2)), [k % n for k in range(3, n + 3)]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, orders, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        for k, value in got:
            assert value == serial[k], k


def test_theta_coprime_check_sums_no_table():
    # the check reads the slopes of one record and runs no recursion; a
    # non-coprime poincare is refused before it computes any Phi
    def untouched(solver):
        return len(solver._records) == 1 and all(
            not record.phi and record.sst is None for record in solver._records.values())

    for d, coprime in (({"i1": 2, "j1": 2}, False), ({"i1": 2, "j1": 3}, True)):
        motive_mod._solver.cache_clear()
        solver = motive_mod._solver(*motive_mod._class_data(K3, S10)[1])
        assert is_theta_coprime(K3, S10, d) is coprime
        assert untouched(solver)
    motive_mod._solver.cache_clear()
    with pytest.raises(ValueError, match="not theta-coprime"):
        poincare(K3, S10, {"i1": 2, "j1": 2})
    assert untouched(motive_mod._solver(*motive_mod._class_data(K3, S10)[1]))


# -- one solver per class data --------------------------------------------------


def _coprime_pairs(max_total):
    """Every pair of partitions (weakly decreasing) of coprime sizes with
    total <= max_total."""
    return [(p1, p2) for total in range(2, max_total + 1)
            for d in range(1, total) if gcd(d, total - d) == 1
            for p1 in sorted(partitions(d)) for p2 in sorted(partitions(total - d))]


def test_complete_bipartite_quivers_share_one_solver():
    # theta = 1 on the sources and 0 on the sinks gives K(a, b) the same
    # class data for every a and b
    motive_mod._solver.cache_clear()
    for p1, p2 in [((2,), (1, 1, 1)), ((2, 1), (2, 1, 1)), ((1, 1, 1), (1, 1, 1, 1, 1))]:
        Q, d, stab = bipartite_setup(p1, p2)
        euler_char(Q, stab, d)
    assert motive_mod._solver.cache_info().currsize == 1


def test_level_one_blow_up_shares_the_splitting_solver():
    # every level-one splitting of i1, and its blow-up into level-one
    # vertices, has one class of interchangeable copies
    d = {"i1": 4, "j1": 5}
    motive_mod._solver.cache_clear()
    Qh, dh, sh = hat_quiver(K3, "i1", {1: 4}, d, S10)
    hn_sst_class(Qh, sh, dh)
    for lam in partitions(4):
        Qc, dc, sc = check_quiver(K3, "i1", lam, d, S10)
        hn_sst_class(Qc, sc, dc)
    assert motive_mod._solver.cache_info().currsize == 1


def test_quiver_and_its_level_one_splittings_at_i1_share_one_solver():
    # classes are ordered by their data, not by vertex order: K3 lists i1
    # first, its blow-ups and splittings list the copies of i1 last
    d = {"i1": 3, "j1": 4}
    data = motive_mod._class_data(K3, S10)[1]
    Qh, dh, sh = hat_quiver(K3, "i1", {1: 3}, d, S10)
    assert motive_mod._class_data(Qh, sh)[1] == data
    motive_mod._solver.cache_clear()
    hn_sst_class(K3, S10, d)
    hn_sst_class(Qh, sh, dh)
    for lam in partitions(3):
        Qc, dc, sc = check_quiver(K3, "i1", lam, d, S10)
        assert motive_mod._class_data(Qc, sc)[1] == data
        hn_sst_class(Qc, sc, dc)
    assert motive_mod._solver.cache_info().currsize == 1


def test_class_data_that_differ_only_in_kappa_keep_their_own_tables():
    # c at level 2 or 1 gives the same classes, theta, arrows and loops; the
    # two kappas order the slopes of (1, 1, 0) and (1, 0, 1) differently
    d = {"a": 2, "b": 1, "c": 1}
    stab = Stability.of({"a": 1, "b": 0, "c": 0})
    motive_mod._solver.cache_clear()
    values = []
    for level in (2, 1):
        Q = Quiver((("a", 1), ("b", 1), ("c", level)),
                   (("a", "b"), ("a", "c"), ("a", "c"), ("b", "c")))
        values.append(hn_sst_class(Q, stab, d))
        assert values[-1] == LabelledHNSolver(Q, stab).sst_class((2, 1, 1))
    assert values[0] != values[1]
    assert motive_mod._solver.cache_info().currsize == 2


def test_warm_shared_tables_give_each_pairs_cold_value():
    pairs = _coprime_pairs(8)
    assert len(pairs) == 199
    cold = {}
    for p1, p2 in pairs:
        quivermoduli.clear_memos()
        Q, d, stab = bipartite_setup(p1, p2)
        cold[p1, p2] = euler_char(Q, stab, d)
    random.Random(15).shuffle(pairs)
    quivermoduli.clear_memos()
    for p1, p2 in pairs:
        Q, d, stab = bipartite_setup(p1, p2)
        assert euler_char(Q, stab, d) == cold[p1, p2] == degeneration_total(p1, p2), (p1, p2)


def test_shared_keys_match_the_labelled_recursion():
    # every key that the pairs of total <= 6 leave in the shared solver,
    # against the labelled recursion on a complete bipartite quiver that
    # holds it (zeros pad an empty side)
    motive_mod._solver.cache_clear()
    for p1, p2 in _coprime_pairs(6):
        Q, d, stab = bipartite_setup(p1, p2)
        euler_char(Q, stab, d)
    solver = motive_mod._solver(*motive_mod._class_data(Q, stab)[1])
    oracles = {}
    for key in list(solver._records):
        sides = [[x for x, g in groups for _ in range(g)] or [0] for groups in key]
        shape = tuple(map(len, sides))
        if shape not in oracles:
            _, _, stab = bipartite_setup((1,) * shape[0], (1,) * shape[1])
            oracles[shape] = LabelledHNSolver(Quiver.complete_bipartite(*shape), stab)
        assert solver.sst_class(key) == oracles[shape].sst_class(tuple(sides[0] + sides[1])), key
    assert len(solver._records) > 50


def _poly_phi(solver, key, bound, memo, over):
    """Phi_bound(D) with Poly ``*``, ``shifted`` and ``+`` over the solver's
    rows, memoized per (key, bound); adds D to ``over`` when some row of D
    has degree above dim R_D."""
    if (key, bound) not in memo:
        dim = solver._top(key)[0]
        total = Poly()
        for _, e, _, ext, mult, gauss in solver._build(key, bound):
            row = (gauss * mult * _poly_phi(solver, e, bound, memo, over)).shifted(ext)
            if row.degree() > dim:
                over.add(key)
            total = total + row
        memo[key, bound] = Poly.x_pow(dim) - total
    return memo[key, bound]


def _check_phi_against_poly(solvers):
    """Every Phi entry of every record of the solvers, at a bound in its
    slope gap, against the row-by-row Poly sum; returns the number checked
    and, per solver, the keys with a row above dim R_D."""
    checked, overs = 0, {}
    for data, solver in solvers.items():
        memo, over = {}, set()
        for key, record in list(solver._records.items()):
            for gap, value in list(record.phi.items()):
                bound = record.slopes[gap - 1] if gap else -inf
                assert value == _poly_phi(solver, key, bound, memo, over), (data, key, gap)
                checked += 1
        overs[data] = over
    return checked, overs


def test_phi_matches_poly_arithmetic_on_the_scan_and_the_kronecker_ladders():
    # every Phi that the 199 scan pairs and the K3, K4, K5 ladders (d, d + 1),
    # d <= 6, leave in their solvers, at a bound in its slope gap
    quivermoduli.clear_memos()
    setups = [bipartite_setup(p1, p2) for p1, p2 in _coprime_pairs(8)]
    setups += [(Quiver.kronecker(m), {"i1": d, "j1": d + 1}, S10)
               for m in (3, 4, 5) for d in range(1, 7)]
    solvers = {}
    for Q, d, stab in setups:
        euler_char(Q, stab, d)
        data = motive_mod._class_data(Q, stab)[1]
        solvers[data] = motive_mod._solver(*data)
    assert len(solvers) == 4
    checked, overs = _check_phi_against_poly(solvers)
    # a row can reach above dim R_D, and only the sum cancels down to
    # it: D = (0 | 2) has dim R_D = 0, and its row e = (0 | 1) at any
    # bound below mu(e) is G_e = [2 choose 1]_L = 1 + L
    for over in overs.values():
        assert ((), ((2, 1),)) in over
    assert checked == 471
    solver = solvers[motive_mod._class_data(K3, S10)[1]]
    assert solver._phi(((), ((2, 1),)), -inf) == Poly((0, -1))


def test_nested_phi_matches_poly_arithmetic_on_the_identity_quivers(monkeypatch):
    # the hat and check quivers that the three identities build on K3 at
    # (3, 4) and (4, 5), at both vertices: up to three classes, so the walk
    # nests a class between the first and the last, and passes the splits
    # with G_a = 1 through it
    quivermoduli.clear_memos()
    solvers = {}

    def recording(Q, s, d):
        data = motive_mod._class_data(Q, s)[1]
        solvers[data] = motive_mod._solver(*data)
        return hn_sst_class(Q, s, d)

    monkeypatch.setattr(motive_mod, "hn_sst_class", recording)
    for dims in ((3, 4), (4, 5)):
        d = {"i1": dims[0], "j1": dims[1]}
        for v in ("i1", "j1"):
            for check in (motivic_mps_check, partition_form_check, dual_mps_check):
                assert check(K3, S10, v, d), (check.__name__, dims, v)
    assert sorted(len(data[0]) for data in solvers) == [2] * 7 + [3] * 6
    checked, _ = _check_phi_against_poly(solvers)
    assert checked == 199


def test_nested_phi_matches_poly_arithmetic_with_three_classes():
    # the three-class quiver, with its classes in the order C, B, A and,
    # under a second stability, A, C, B: then a split of A with G_A = 1 and
    # two labelled ways (a1 or a2 takes all) passes its weight on to the
    # splits of C, which fold with G_C != 1
    Q, stab, dims = _three_class_quiver()
    second = Stability.of({"a1": -1, "a2": -1, "b1": 1, "b2": 1, "c": 0})
    assert motive_mod._class_data(Q, second)[0] == ((0, 1), (4,), (2, 3))
    checked = []
    for s, vectors in ((stab, dims), (second, dims + ((2, 2, 1, 2, 2),))):
        solver, coords = _fresh_solver(Q, s)
        for dv in vectors:
            solver.sst_class(coords(dv))
        checked.append(_check_phi_against_poly({"three classes": solver})[0])
    assert checked == [63, 86]


def test_threads_on_quivers_with_one_class_data_agree():
    # racing threads build and extend the records of the one shared solver
    # from different quivers; every value must equal the serial cold one
    pairs = [((2,), (1, 1, 1)), ((1, 1), (1, 1, 1)), ((2, 1), (2, 1, 1)),
             ((3,), (1, 1, 1, 1)), ((1, 1, 1), (1, 1, 1, 1, 1)), ((2, 2, 1), (1, 1, 1))]
    setups = [bipartite_setup(p1, p2) for p1, p2 in pairs]
    serial = []
    for Q, d, s in setups:
        motive_mod._solver.cache_clear()
        serial.append(hn_sst_class(Q, s, d))
    motive_mod._solver.cache_clear()

    def run(order):
        return [(k, hn_sst_class(setups[k][0], setups[k][2], setups[k][1])) for k in order]

    n = len(setups)
    orders = [list(range(n)), list(range(n))[::-1],
              list(range(0, n, 2)) + list(range(1, n, 2)), [k % n for k in range(3, n + 3)]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, orders, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        for k, value in got:
            assert value == serial[k], pairs[k]
    assert motive_mod._solver.cache_info().currsize == 1


def test_hn_types_deterministic():
    d = {"i1": 2, "j1": 2}
    assert hn_types(K3, S10, d) == hn_types(K3, S10, d)


def test_empty_moduli_has_zero_class():
    # (2,1) on the 1-arrow Kronecker quiver: the kernel line always
    # destabilizes, so nothing is semistable and chi = 0
    d = {"i1": 2, "j1": 1}
    assert hn_sst_class(K1, S10, d).is_zero()
    assert euler_char(K1, S10, d) == 0


def test_kronecker3_34_cross_checked():
    # chi(K3, (3,4)) = 68 both directly and through the blow-up sum
    d = {"i1": 3, "j1": 4}
    assert euler_char(K3, S10, d) == 68
    total = Fraction(0)
    for m in multiplicity_vectors(3):
        Qh, dh, sh = hat_quiver(K3, "i1", m, d, S10)
        weight = Fraction(1)
        for l, ml in m.items():
            weight *= Fraction(1, factorial(ml)) * Fraction((-1) ** (l - 1), l * l) ** ml
        total += weight * euler_char(Qh, sh, dh)
    assert total == 68
