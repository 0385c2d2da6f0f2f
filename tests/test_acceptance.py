"""Acceptance suite: the nine cross-validation criteria, each with its exact
expected values and runtime bound.  Run with ``pytest tests/test_acceptance.py -s``
to see one pass/fail line per criterion.
"""

import time
from fractions import Fraction
from math import comb, gcd

from test_tropical import n_trop_by_assignments

from quivermoduli import vertex
from quivermoduli.localization import (
    SpanningTree,
    admissible_decompositions,
    chi_trees,
    dd1_extensions,
    dd1_family,
    spanning_trees,
    stability_weight,
    stable_trees,
    type_one_support,
)
from quivermoduli.motive import (
    dual_mps_check,
    euler_char,
    motivic_mps_check,
    poincare,
)
from quivermoduli.quiver import Quiver, Refinement, Stability, bipartite_setup, euler_form
from quivermoduli.symfunc import (
    SymPoly,
    e_to_p,
    lemma3_identity,
    p_to_e,
    partitions,
    principal_specialize,
)
from quivermoduli.tropical import (
    degeneration_total,
    mps_euler,
    n_trop,
    refinement_scan,
    weight_vector_of,
)
from quivermoduli.vertex import (
    TruncatedElement,
    WallAutomorphism,
    compose_apply,
    factorize,
    ks_operators,
    n_trop_via_factorization,
)

FAMILY_VALUES = {1: 1, 2: 7, 3: 38, 4: 187}


def _report(name, t0, limit):
    elapsed = time.monotonic() - t0
    line = "%-52s pass  (%.1fs, limit %ds)" % (name, elapsed, limit)
    print(line)
    assert elapsed < limit, "%s exceeded its time budget: %.1fs" % (name, elapsed)


def _coprime_pairs(max_total):
    for total in range(2, max_total + 1):
        for d in range(1, total):
            e = total - d
            if gcd(d, e) == 1:
                yield d, e


def test_criterion_1_closed_form_family():
    t0 = time.monotonic()
    for n, expected in FAMILY_VALUES.items():
        p1, p2 = (2,), (1,) * (2 * n + 1)
        Q, d, stab = bipartite_setup(p1, p2)
        assert euler_char(Q, stab, d) == expected
        assert mps_euler(p1, p2) == expected
        assert degeneration_total(p1, p2) == expected
        assert degeneration_total(
            p1, p2, trop_count=n_trop_via_factorization) == expected
    _report("criterion 1: chi(2, 1^(2n+1)) by four pipelines", t0, 60)


def test_criterion_2_tropical_equals_trees():
    t0 = time.monotonic()
    checked = 0
    for p1, p2, r in refinement_scan(9):
        w1 = weight_vector_of(r.k1)
        w2 = weight_vector_of(r.k2)
        assert n_trop(w1, w2) == chi_trees(r), (p1, p2, w1, w2)
        checked += 1
    assert checked >= 300
    _report("criterion 2: n_trop = chi_trees, sizes <= 9", t0, 120)


def test_criterion_3_worked_multiplicities():
    t0 = time.monotonic()
    # decomposition breakdown for ((1,1),(1,1,1)): 4 + 2 = 6
    assert set(admissible_decompositions(2, 3, 1)) == {((2, 2),), ((1, 1), (1, 1))}
    from_22 = 2 * n_trop((1, 1), (1, 1))
    assert from_22 == 4
    total = n_trop((1, 1), (1, 1, 1))
    assert total == 6 and total - from_22 == 2
    # tree side: 6 stable of 12 spanning trees
    r = Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),), ((1, 1),)])
    trees = spanning_trees(r)
    assert len(trees) == 12
    assert sum(stability_weight(T) for T in trees) == 6
    _report("criterion 3: multiplicity breakdown 4 + 2 = 6", t0, 60)


MPS_CASES = [
    ("1-Kronecker (2,1)", Quiver.kronecker(1), {"i1": 2, "j1": 1}, ["i1"]),
    ("3-Kronecker (2,3)", Quiver.kronecker(3), {"i1": 2, "j1": 3}, ["i1", "j1"]),
    ("K(2,3) all-ones", Quiver.complete_bipartite(2, 3),
     {"i1": 1, "i2": 1, "j1": 1, "j2": 1, "j3": 1},
     ["i1", "i2", "j1", "j2", "j3"]),
]


def test_criterion_4_motivic_and_dual_identities():
    for label, Q, d, vertices in MPS_CASES:
        t0 = time.monotonic()
        theta = {v: (1 if v.startswith("i") else 0) for v in Q.ids}
        stab = Stability.of(theta)
        for i in vertices:
            assert motivic_mps_check(Q, stab, i, d), (label, i)
            assert dual_mps_check(Q, stab, i, d), (label, i)
        _report("criterion 4: MPS + dual identities, %s" % label, t0, 30)


def test_criterion_5_symmetric_function_identities():
    t0 = time.monotonic()
    for n in range(1, 13):
        lhs, rhs = lemma3_identity(n)
        assert lhs == rhs, n
        assert (principal_specialize(e_to_p(n))
                == principal_specialize(SymPoly.basis_element("e", (n,)))), n
    for n in range(1, 11):
        back = SymPoly("p", {})
        for lam, c in p_to_e(n).coeffs.items():
            term = SymPoly("p", {(): Fraction(1)})
            for part in lam:
                term = term * e_to_p(part)
            back = back + term * c
        assert back == SymPoly.basis_element("p", (n,)), n
    _report("criterion 5: q-identity and specialization n<=12, inverse base change n<=10",
            t0, 60)


def test_criterion_6_vertex_group_oracle():
    t0 = time.monotonic()
    x = TruncatedElement.monomial(1, 0)
    y = TruncatedElement.monomial(0, 1)

    # pentagon
    u, v = ("u", 1, 1), ("v", 1, 1)
    tx = WallAutomorphism((1, 0), TruncatedElement.one()
                          + TruncatedElement.monomial(1, 0, (u,), 1))
    ty = WallAutomorphism((0, 1), TruncatedElement.one()
                          + TruncatedElement.monomial(0, 1, (v,), 1))
    fact = factorize([tx, ty])
    assert fact.wall((1, 1)).f == (TruncatedElement.one()
                                   + TruncatedElement.monomial(1, 1, (u, v), 1))

    # recomposition and extraction agreement over all coprime refinements
    for _, _, r in refinement_scan(8):
        ops = ks_operators(r)
        f = factorize(ops)
        assert compose_apply(f.walls, x) == compose_apply(ops, x)
        assert compose_apply(f.walls, y) == compose_apply(ops, y)
        assert vertex.extract_n_trop(f, r) == n_trop(weight_vector_of(r.k1),
                                                     weight_vector_of(r.k2))
    _report("criterion 6: factorization oracle, sizes <= 8", t0, 120)


def test_criterion_7_dd1_family():
    t0 = time.monotonic()
    for d in (1, 2, 3):
        family = dd1_family(d)
        union = set().union(*family.values()) if family else set()
        support = type_one_support(d, d + 1)
        brute = {frozenset(T.arrow_indices) for T in stable_trees(support)}
        assert union == brute, d
        assert sum(len(v) for v in family.values()) == len(union), d
    # the square rule yields exactly d*d data over a fixed base
    base01 = SpanningTree(type_one_support(0, 1), ())
    assert len(dd1_extensions(base01)) == 1
    (base12,) = stable_trees(type_one_support(1, 2))
    assert len(dd1_extensions(base12)) == 4
    for base23 in stable_trees(type_one_support(2, 3)):
        assert len(dd1_extensions(base23)) == 9
    _report("criterion 7: (d,d+1) family vs brute force, d<=3", t0, 60)


def test_criterion_8_poincare_checks():
    t0 = time.monotonic()
    K3 = Quiver.kronecker(3)
    s = Stability.of({"i1": 1, "j1": 0})
    assert list(poincare(K3, s, {"i1": 1, "j1": 1}).c) == [1, 0, 1, 0, 1]

    cases = [((2,), (1,) * (2 * n + 1)) for n in FAMILY_VALUES]
    for d, e in _coprime_pairs(9):
        for p1 in sorted(partitions(d)):
            for p2 in sorted(partitions(e)):
                cases.append((p1, p2))
    for p1, p2 in cases:
        Q, dim, stab = bipartite_setup(p1, p2)
        p = poincare(Q, stab, dim)
        if p.is_zero():
            continue  # empty moduli: duality is vacuous
        assert p.degree() == 2 * (1 - euler_form(Q, dim, dim)), (p1, p2)
        assert list(p.c) == list(reversed(p.c)), (p1, p2)
    _report("criterion 8: Poincare duality on the full support", t0, 120)


def test_criterion_9_normalization_negative_control():
    t0 = time.monotonic()
    # the library divides by the repeated-piece factorials unconditionally;
    # the undivided count comes from the assignment-listing oracle
    raw = n_trop_by_assignments((1, 1), (1, 1, 1), normalize_repeats=False)
    normalized = n_trop((1, 1), (1, 1, 1))
    assert raw == 8
    assert normalized == 6
    assert raw != normalized
    _report("criterion 9: convention guard 8 != 6", t0, 60)


def test_larger_n_closed_form_family():
    # beyond criterion 1: hn to n=20, vertex to n=12, tropical to n=12, mps
    # to n=20 (hn reaches this far since it sums slope-sorted strata in
    # class-count coordinates, not one labelled subvector at a time, as
    # integer numerators over one denominator per dimension vector; vertex
    # since its ring grows with prod (m_w + 1), not 2^(#tokens), and it
    # multiplies packed integer keys, dropping every product above the
    # degree it settles; mps since it counts stable trees by one recursion
    # on subtree vertex counts, not one labelled tree at a time)
    def closed_form(n):
        return Fraction(comb(2 * n + 1, n) * comb(n + 1, n), 2) - Fraction(2 ** (2 * n + 1), 4)

    t0 = time.monotonic()
    for n in range(5, 21):
        Q, d, stab = bipartite_setup((2,), (1,) * (2 * n + 1))
        assert euler_char(Q, stab, d) == closed_form(n), n
    for n in range(5, 13):
        assert degeneration_total((2,), (1,) * (2 * n + 1)) == closed_form(n), n
    for n in range(5, 13):
        assert degeneration_total((2,), (1,) * (2 * n + 1),
                                  trop_count=n_trop_via_factorization) == closed_form(n), n
    for n in range(5, 21):
        assert mps_euler((2,), (1,) * (2 * n + 1)) == closed_form(n), n
    _report("larger n: hn n<=20, vertex n<=12, tropical n<=12, mps n<=20", t0, 20)


def test_hn_matches_tropical_on_heavy_pairs():
    # several sources and parts >= 2: the HN strata are no longer a short
    # ladder over one large symmetry class
    t0 = time.monotonic()
    for p1, p2 in (((3, 2), (1, 1, 1, 1, 1, 1)), ((3, 3), (2, 2, 3)),
                   ((4, 3), (3, 3, 2)), ((4, 4), (3, 3, 3)), ((5, 4), (2, 2, 2, 2, 2))):
        Q, d, stab = bipartite_setup(p1, p2)
        assert euler_char(Q, stab, d) == degeneration_total(p1, p2), (p1, p2)
    _report("heavy pairs: hn = tropical on 3,2|1^6 .. 5,4|2^5", t0, 10)


def test_mps_matches_hn_on_heavy_pairs():
    # the stable-tree sum over refinements against HN, on the pairs with the
    # most sources and sink levels
    t0 = time.monotonic()
    for p1, p2 in (((3, 2), (1, 1, 1, 1, 1, 1)), ((5,), (2, 2, 2)), ((3, 3), (2, 2, 3)),
                   ((4, 3), (3, 3, 2)), ((4, 4), (3, 3, 3)), ((5, 4), (2, 2, 2, 2, 2))):
        Q, d, stab = bipartite_setup(p1, p2)
        assert mps_euler(p1, p2) == euler_char(Q, stab, d), (p1, p2)
    _report("heavy pairs: mps = hn on 3,2|1^6 .. 5,4|2^5", t0, 10)


def test_vertex_matches_hn_on_heavy_pairs():
    # the wall-function counts against HN, on pairs whose factorizations
    # have the most walls and nilpotent degrees
    t0 = time.monotonic()
    for p1, p2 in (((4, 3), (3, 3, 2)), ((5, 4), (2, 2, 2, 2, 2))):
        Q, d, stab = bipartite_setup(p1, p2)
        assert degeneration_total(p1, p2, trop_count=n_trop_via_factorization) == euler_char(
            Q, stab, d), (p1, p2)
    _report("heavy pairs: vertex = hn on 4,3|3,3,2, 5,4|2^5", t0, 20)
