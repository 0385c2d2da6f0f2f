import re
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_motive import _coprime_pairs
from test_orbits import _compatible_assignments

from quivermoduli.localization import admissible_decompositions, chi_trees
from quivermoduli.motive import euler_char
from quivermoduli.quiver import Refinement, as_int, bipartite_setup, partition_pair
from quivermoduli.symfunc import partitions
from quivermoduli.tropical import (
    _side_coefficients,
    as_weight_vector,
    degeneration_total,
    mps_euler,
    n_trop,
    ramification_factor,
    refinements,
    weight_vector_of,
)


def test_weight_vector_of():
    r = Refinement.of([((1, 2),)], [((1, 1),)])
    assert weight_vector_of(r.k1) == (1, 1)
    r = Refinement.of([((2, 1),)], [((1, 1),)])
    assert weight_vector_of(r.k1) == (2,)
    r = Refinement.of([((1, 1), (2, 2))], [((1, 1),)])
    assert weight_vector_of(r.k1) == (1, 2, 2)


@pytest.mark.parametrize("bad", [1.5, Fraction(1), True])
def test_weights_must_be_ints(bad):
    # int() would read 1.5 as 1, and n_trop((1.5,), (1,)) as n_trop((1,), (1,))
    with pytest.raises(ValueError, match="weight vector entry"):
        n_trop((bad,), (1,))
    with pytest.raises(ValueError, match="part"):
        ramification_factor((bad,), (1,))


@pytest.mark.parametrize("bad", [None, 0, "", b"", 3], ids=repr)
def test_falsy_or_non_sequence_sides_are_rejected(bad):
    # none of these is the empty side: a falsy value used to count as one
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        as_weight_vector(bad)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        n_trop(bad, (1,))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        n_trop((3,), bad)
    assert n_trop([], (2,)) == n_trop((), (2,)) == 1


def _as_weight_vector_two_pass(entries):
    """The weight-vector check as it was before the one-pass loop: every
    entry's type first, then positivity and order over the whole tuple."""
    w = tuple(entries)
    for x in w:
        as_int(x, "weight vector entry")
    if any(x < 1 for x in w) or list(w) != sorted(w):
        raise ValueError("weight vector entries must be positive and weakly increasing")
    return w


def _checked(check, entries):
    try:
        return check(entries)
    except ValueError:
        return ValueError


_entries = st.one_of(
    st.lists(st.one_of(st.integers(-2, 6), st.booleans(), st.floats(-2, 6), st.just(0)),
             max_size=6),
    st.lists(st.integers(1, 6), max_size=6).map(sorted),
    st.lists(st.integers(-1, 6), max_size=6).map(sorted),
)


def _generator(entries):
    return (x for x in entries)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_entries, st.sampled_from([tuple, list, _generator]))
def test_one_pass_weight_vector_check_matches_the_two_pass_check(entries, container):
    expected = _checked(_as_weight_vector_two_pass, container(entries))
    got = _checked(as_weight_vector, container(entries))
    assert got == expected, entries
    if got is not ValueError:
        assert type(got) is tuple and all(type(x) is int for x in got)


def test_ramification_factor_examples():
    assert ramification_factor((2,), (1, 1)) == 1
    assert ramification_factor((2,), (2,)) == Fraction(-1, 4)
    assert ramification_factor((1, 1), (1, 1)) == 2
    with pytest.raises(ValueError):
        ramification_factor((2,), (1,))


def test_ramification_binomial_identity():
    # summing the per-refinement chunk counts over refinements with a fixed
    # weight content recovers the number of compatible set partitions
    for P in [(2, 1), (3,), (2, 2, 1), (4, 1)]:
        n = sum(P)
        for lam in partitions(n):
            mult = {}
            for w in lam:
                mult[w] = mult.get(w, 0) + 1
            w_vec = weight_vector_of((tuple(sorted(mult.items())),))
            prefactor = Fraction(1)
            for w in w_vec:
                prefactor *= Fraction((-1) ** (w - 1), w * w)
            target = ramification_factor(P, w_vec) / prefactor  # partition count
            total = 0
            for r in refinements(P, (1,)):
                if r.weight_multiplicities(1) != mult:
                    continue
                chunk = 1
                for w, m in mult.items():
                    denom = 1
                    for part in r.k1:
                        for ww, c in part:
                            if ww == w:
                                denom *= factorial(c)
                    chunk *= Fraction(factorial(m), denom)
                total += chunk
            assert total == target, (P, lam)


def test_n_trop_base_cases():
    assert n_trop((1,), (1,)) == 1
    assert n_trop((3,), (2,)) == 6
    assert n_trop((2,), ()) == 1
    assert n_trop((), (5,)) == 1
    assert n_trop((1, 1), ()) == 0
    with pytest.raises(ValueError):
        n_trop((), ())


def test_n_trop_examples():
    assert n_trop((2,), (1, 1, 1)) == 8
    assert n_trop((1, 1), (1, 1, 1)) == 6
    assert n_trop((1, 1), (1, 1)) == 2
    assert n_trop((1, 1, 1), (1, 1, 1, 1)) == 96


def test_n_trop_normalization_guard():
    # the over-counting convention: ordered set partitions of the two equal
    # (1,1) pieces undivided gives 4 + 4 = 8 instead of 4 + 2 = 6
    assert n_trop_by_assignments((1, 1), (1, 1, 1), normalize_repeats=False) == 8
    assert n_trop((1, 1), (1, 1, 1)) == 6


def test_n_trop_decomposition_breakdown():
    # ((1,1),(1,1,1)): 4 from the (2,2) piece, 2 from two (1,1) pieces
    assert set(admissible_decompositions(2, 3, 1)) == {((2, 2),), ((1, 1), (1, 1))}
    piece_22 = 2 * n_trop((1, 1), (1, 1))        # multiplicity 2 x sub-count
    assert piece_22 == 4
    assert n_trop((1, 1), (1, 1, 1)) - piece_22 == 2


def test_n_trop_side_swap_symmetry():
    """Reflecting the plane in the diagonal swaps the two directions of the
    unbounded ends, so it maps the tropical curves counted by N(w1, w2) one
    to one onto those counted by N(w2, w1)."""
    pairs = _weight_vector_pairs(10)
    assert len(pairs) == 938
    for w1, w2 in pairs:
        assert n_trop(w1, w2) == n_trop(w2, w1), (w1, w2)


def test_stable_tree_count_side_swap_symmetry():
    """The dual quiver, arrows reversed, has the sources and sinks swapped and
    the opposite stability, and a tree is stable for one exactly when it is
    stable for the other; so the one-part refinement counts the same trees
    in both orientations."""
    def trees(w1, w2):
        return chi_trees(Refinement.of((Counter(w1),), (Counter(w2),)))

    for w1, w2 in _weight_vector_pairs(10):
        assert trees(w1, w2) == trees(w2, w1), (w1, w2)


def test_factorization_count_side_swap_symmetry():
    """Conjugating by x <-> y inverts the ordered product of walls and
    reverses their slope order, so the factorization with the sides swapped
    has the same wall functions, and the same read-out, on the mirror
    direction."""
    from quivermoduli.vertex import n_trop_via_factorization

    pairs = [(w1, w2) for w1, w2 in _weight_vector_pairs(8) if gcd(sum(w1), sum(w2)) == 1]
    assert len(pairs) == 199
    for w1, w2 in pairs:
        assert n_trop_via_factorization(w1, w2) == n_trop_via_factorization(w2, w1), (w1, w2)


def _oriented(w1, w2):
    return (w1, w2) if (len(w1), w1) <= (len(w2), w2) else (w2, w1)


def _recorded_keys(pairs, total=degeneration_total):
    """The (w1, w2) keys that ``total`` asks its count for."""
    keys = []

    def record(w1, w2):
        keys.append((w1, w2))
        return 0

    for p1, p2 in pairs:
        total(p1, p2, trop_count=record)
    return keys


def test_degeneration_total_asks_each_unordered_pair_once():
    pairs = _coprime_pairs(8)
    keys = set(_recorded_keys(pairs))
    assert len(keys) == 100
    assert all(_oriented(*key) == key for key in keys)
    assert not any((w2, w1) in keys for w1, w2 in keys if w1 != w2)
    # the refinement sum asks every pair as it comes, both orientations of
    # each unordered pair among them
    unoriented = set(_recorded_keys(pairs, degeneration_total_by_refinement))
    assert len(unoriented) == 199
    assert {_oriented(*key) for key in unoriented} == keys


def test_degeneration_total_keeps_the_family_orientation():
    # the short side (2) or (1, 1) stays first, so the recursion keeps
    # splitting the long side 1^(2n+1)
    for n in range(1, 31):
        keys = _recorded_keys([((2,), (1,) * (2 * n + 1))])
        assert {w1 for w1, _ in keys} == {(2,), (1, 1)}, n
        assert {w2 for _, w2 in keys} == {(1,) * (2 * n + 1)}, n


def test_refinements_enumeration():
    rs = refinements((2,), (1,))
    k1_options = {r.k1 for r in rs}
    assert k1_options == {(((1, 2),),), (((2, 1),),)}
    assert len(refinements((1,), (1,))) == 1
    rs3 = refinements((3,), (1,))
    assert {r.k1 for r in rs3} == {(((1, 3),),), (((1, 1), (2, 1)),), (((3, 1),),)}


def test_refinement_sums_match_parts():
    for r in refinements((3, 2), (2, 1)):
        assert r.part_sums(1) == (3, 2)
        assert r.part_sums(2) == (2, 1)


@pytest.mark.parametrize("p1,p2,chi", [
    ((2,), (1, 1, 1), 1),
    ((2,), (1, 1, 1, 1, 1), 7),
    ((1,), (1, 1), 1),
])
def test_degeneration_total(p1, p2, chi):
    assert degeneration_total(p1, p2) == chi


@pytest.mark.parametrize("p1,p2,chi", [
    ((2,), (1, 1, 1), 1),
    ((2,), (1, 1, 1, 1, 1), 7),
    ((1,), (1, 1), 1),
])
def test_mps_euler(p1, p2, chi):
    assert mps_euler(p1, p2) == chi


def test_mps_euler_contributions():
    # chi(2, 1^3) = 8 * (-1/4) + 6 * (1/2)
    contributions = {}
    for r in refinements((2,), (1, 1, 1)):
        contributions[weight_vector_of(r.k1)] = chi_trees(r)
    assert contributions == {(2,): 8, (1, 1): 6}


def test_degeneration_total_rejects_a_non_integer_total():
    # N = 1 everywhere gives R_(2|2)/1 + R_(2|1,1)/2 = -1/4 + 1/2 on (2) | (1)
    with pytest.raises(ArithmeticError, match=re.escape("Fraction(1, 4)")):
        degeneration_total((2,), (1,), trop_count=lambda w1, w2: 1)


def test_degeneration_total_asks_only_for_checked_weight_vectors():
    # the default count skips the check in n_trop, so what the sum asks for
    # must already be what as_weight_vector returns
    keys = _recorded_keys(_coprime_pairs(8))
    assert keys
    for w1, w2 in keys:
        assert type(w1) is tuple and as_weight_vector(w1) is w1, w1
        assert type(w2) is tuple and as_weight_vector(w2) is w2, w2


def test_coprime_required():
    with pytest.raises(ValueError):
        mps_euler((2,), (1, 1))
    with pytest.raises(ValueError):
        degeneration_total((2,), (1, 1))


MALFORMED_PAIRS = [
    ((0, 1), (1, 1), "p1 part 0 is not positive"),
    ((-1, 2), (1, 1), "p1 part -1 is not positive"),
    ((2,), (1, 2, -2), "p2 part -2 is not positive"),
    ((), (1,), "p1 has no parts"),
    ((2,), (1.0,), "p2 part 1.0 is not an int"),
]


@pytest.mark.parametrize("method", ["hn", "mps", "tropical", "vertex"])
@pytest.mark.parametrize("p1, p2, message", MALFORMED_PAIRS)
def test_malformed_partitions_are_rejected(method, p1, p2, message):
    from quivermoduli.cli import _chi_by_method

    with pytest.raises(ValueError, match=re.escape(message)):
        _chi_by_method(method, p1, p2)


def test_three_way_agreement_small():
    # tree sum, degeneration sum and the HN pipeline give the same integer
    for p1, p2 in [((1,), (1, 1)), ((2,), (1, 1, 1)), ((1, 1), (1, 1, 1)),
                   ((2, 1), (1, 1)), ((1, 1, 1), (2, 2))]:
        Q, d, stab = bipartite_setup(p1, p2)
        chi = euler_char(Q, stab, d)
        assert mps_euler(p1, p2) == chi
        assert degeneration_total(p1, p2) == chi


def test_eulgw_oracle_small():
    # recursion vs stable-tree count for every refinement, sizes <= 7
    for total in range(2, 8):
        for d in range(1, total):
            e = total - d
            if gcd(d, e) != 1:
                continue
            for p1 in partitions(d):
                for p2 in partitions(e):
                    for r in refinements(p1, p2):
                        w1 = weight_vector_of(r.k1)
                        w2 = weight_vector_of(r.k2)
                        assert n_trop(w1, w2) == chi_trees(r), (p1, p2, w1, w2)


def test_family_closed_form_term_by_term():
    # the curve-side closed form for the all-ones count,
    # (1/2)(binom(2n,n) + 4 binom(n,n-1) binom(2n-1,n-1)) - (1/4) 2^(2n+1),
    # matches the recursion's own decomposition: the two-(1,n)-piece
    # contribution is binom(2n,n) and the (2,2n) chain contributes
    # 4 * N((1,1),(1^(2n-1))) with N((1,1),(1^(2n-1))) = n binom(2n-1,n-1)
    from math import comb

    for n in (1, 2, 3):
        two_pieces = comb(2 * n, n)
        chain = n_trop((1, 1), (1,) * (2 * n - 1))
        assert chain == comb(n, n - 1) * comb(2 * n - 1, n - 1)
        assert n_trop((1, 1), (1,) * (2 * n + 1)) == two_pieces + 4 * chain
        closed = Fraction(two_pieces + 4 * chain, 2) - Fraction(2 ** (2 * n + 1), 4)
        assert degeneration_total((2,), (1,) * (2 * n + 1)) == closed


def test_refinements_deterministic():
    p1, p2 = (2, 1), (3,)
    assert refinements(p1, p2) == refinements(p1, p2)


def test_four_way_agreement_with_cancellation():
    # (2,2,1) | (4): the moduli space is empty, so the per-refinement
    # contributions (several of them nonzero) must cancel exactly in every
    # pipeline, including the wall-function route
    from quivermoduli.vertex import n_trop_via_factorization

    p1, p2 = (2, 2, 1), (4,)
    Q, d, stab = bipartite_setup(p1, p2)
    assert euler_char(Q, stab, d) == 0
    assert mps_euler(p1, p2) == 0
    assert degeneration_total(p1, p2) == 0
    assert degeneration_total(p1, p2, trop_count=n_trop_via_factorization) == 0
    assert any(chi_trees(r) for r in refinements(p1, p2))


# -- the per-refinement sums that the sum over weight vectors replaced ----------
#
# Kept as the reference: they build every refinement and weight it on its
# own, where the sum over weight vectors groups the refinements by their
# weight content.


def _side_options_refinements(P1, P2):
    """All refinements (k^1, k^2) of a pair of ordered partitions: every part
    p_ij is split into weighted pieces with sum w * k_{w,j} = p_ij."""
    def side_options(P):
        per_part = []
        for p in P:
            opts = []
            for lam in sorted(partitions(p)):
                mult = {}
                for x in lam:
                    mult[x] = mult.get(x, 0) + 1
                opts.append(tuple(sorted(mult.items())))
            per_part.append(opts)
        return [tuple(choice) for choice in product(*per_part)]

    return [Refinement.of(k1, k2)
            for k1 in side_options(tuple(P1))
            for k2 in side_options(tuple(P2))]


def _refinement_factor(r, weight_exponent):
    """prod_{i,j,w} (-1)^(k_{w,j}(w-1)) / (k_{w,j}! * w^(weight_exponent * k_{w,j}))."""
    out = Fraction(1)
    for side in (r.k1, r.k2):
        for part in side:
            for w, c in part:
                out *= Fraction((-1) ** (c * (w - 1)),
                                factorial(c) * w ** (weight_exponent * c))
    return out


def mps_euler_by_refinement(P1, P2):
    """Euler characteristic of the bipartite moduli space as a weighted sum
    of stable-tree counts over refinements (weights 1/(k! w^(2k)))."""
    P1, P2 = partition_pair(P1, P2)
    if gcd(sum(P1), sum(P2)) != 1:
        raise ValueError("sizes %d, %d are not coprime" % (sum(P1), sum(P2)))
    total = Fraction(0)
    for r in refinements(P1, P2):
        total += chi_trees(r) * _refinement_factor(r, 2)
    if total.denominator != 1:
        raise ArithmeticError("tree-sum total is not an integer: %r" % total)
    return int(total)


def degeneration_total_by_refinement(P1, P2, trop_count=None):
    """Euler characteristic as a degeneration sum over refinements: the
    relative count n_trop / prod w_{ij} times ramification weights
    1/(k! w^k).  ``trop_count(w1, w2)`` may replace the recursion by another
    source of tropical counts (e.g. wall-function extraction).  Unlike
    ``degeneration_total`` it asks each pair in its own orientation, so it
    checks the orientation there."""
    P1, P2 = partition_pair(P1, P2)
    if gcd(sum(P1), sum(P2)) != 1:
        raise ValueError("sizes %d, %d are not coprime" % (sum(P1), sum(P2)))
    count = trop_count if trop_count is not None else n_trop
    total = Fraction(0)
    for r in refinements(P1, P2):
        w1 = weight_vector_of(r.k1)
        w2 = weight_vector_of(r.k2)
        weight_product = 1
        for x in w1 + w2:
            weight_product *= x
        relative = Fraction(count(w1, w2), weight_product)
        total += relative * _refinement_factor(r, 1)
    if total.denominator != 1:
        raise ArithmeticError("degeneration total is not an integer: %r" % total)
    return int(total)


def _all_three_match_the_refinement_sums(p1, p2):
    from quivermoduli.vertex import n_trop_via_factorization

    assert mps_euler(p1, p2) == mps_euler_by_refinement(p1, p2), (p1, p2)
    assert degeneration_total(p1, p2) == degeneration_total_by_refinement(p1, p2), (p1, p2)
    assert (degeneration_total(p1, p2, trop_count=n_trop_via_factorization)
            == degeneration_total_by_refinement(p1, p2, trop_count=n_trop_via_factorization)), \
        (p1, p2)


def test_refinements_keep_their_order_on_the_scan_pairs():
    for p1, p2 in _coprime_pairs(8):
        assert refinements(p1, p2) == _side_options_refinements(p1, p2), (p1, p2)


def test_sum_over_weight_vectors_matches_the_refinement_sums_on_the_scan_pairs():
    pairs = _coprime_pairs(8)
    assert len(pairs) == 199
    for p1, p2 in pairs:
        _all_three_match_the_refinement_sums(p1, p2)


def test_sum_over_weight_vectors_matches_the_refinement_sums_on_the_family():
    from quivermoduli.vertex import n_trop_via_factorization

    for n in range(1, 31):
        p1, p2 = (2,), (1,) * (2 * n + 1)
        assert mps_euler(p1, p2) == mps_euler_by_refinement(p1, p2), n
        if n <= 9:
            assert degeneration_total(p1, p2) == degeneration_total_by_refinement(p1, p2), n
        if n <= 3:
            assert (degeneration_total(p1, p2, trop_count=n_trop_via_factorization)
                    == degeneration_total_by_refinement(
                        p1, p2, trop_count=n_trop_via_factorization)), n


@pytest.mark.parametrize("p1,p2", [((4, 4), (3, 3, 3)), ((5, 4), (2, 2, 2, 2, 2))])
def test_mps_matches_the_refinement_sum_on_heavy_pairs(p1, p2):
    assert mps_euler(p1, p2) == mps_euler_by_refinement(p1, p2)


def test_side_coefficients_are_ramification_factors_over_automorphisms():
    # every ordered partition P with |P| <= 7, against every weight vector
    for n in range(1, 8):
        for cuts in product((False, True), repeat=n - 1):
            P, part = [], 1
            for cut in cuts:
                if cut:
                    P.append(part)
                    part = 0
                part += 1
            P.append(part)
            den, numerators = _side_coefficients(tuple(P))
            coefficients = dict(numerators)
            expected = {}
            for lam in partitions(n):
                w = tuple(sorted(lam))
                aut = prod(factorial(c) for c in Counter(w).values())
                expected[w] = ramification_factor(P, w) / aut
                assert Fraction(coefficients.get(w, 0), den) == expected[w], (P, w)
            assert set(coefficients) <= {tuple(sorted(lam)) for lam in partitions(n)}
            assert all(type(c) is int for c in coefficients.values()), P
            # den is the least common denominator of R_(P|w) / |Aut w|
            assert den == lcm(*(c.denominator for c in expected.values() if c)), P


# -- the recursion that the piece-by-piece sum replaced ------------------------
#
# Kept as the reference: for each decomposition it lists the assignment
# orbits of each side (``test_orbits._compatible_assignments``), with the
# groups sent to each piece, and multiplies the two lists out.


@cache
def n_trop_by_assignments(w1, w2, normalize_repeats=True):
    """N(w1, w2) by the recursion on the last entry of w2, with the
    compatible assignments of both sides listed and multiplied out."""
    if not w2:
        return 1 if len(w1) == 1 else 0
    if not w1:
        return 1 if len(w2) == 1 else 0
    if len(w1) == 1 and len(w2) == 1:
        return w1[0] * w2[0]
    w = w2[-1]
    total = Fraction(0)
    for decomp in admissible_decompositions(sum(w1), sum(w2), w):
        assigns1 = _compatible_assignments(w1, [di for di, _ in decomp])
        assigns2 = _compatible_assignments(w2[:-1], [ei for _, ei in decomp])
        run_d = run_e = 0
        mult = 1
        for dk, ek in decomp:
            mult *= abs(ek * run_d - dk * (run_e + w))
            run_d += dk
            run_e += ek
        sub = 0
        for (groups1, mult1), (groups2, mult2) in product(assigns1, assigns2):
            sub += mult1 * mult2 * prod(n_trop_by_assignments(g1, g2)
                                        for g1, g2 in zip(groups1, groups2))
        contribution = Fraction(sub * mult)
        if normalize_repeats:
            for piece in set(decomp):
                contribution /= factorial(decomp.count(piece))
        total += contribution
    assert total.denominator == 1, (w1, w2, total)
    return int(total)


def _weight_vector_pairs(max_total):
    """Every pair of nonempty weight vectors with total size <= max_total."""
    return [(tuple(sorted(lam1)), tuple(sorted(lam2)))
            for total in range(2, max_total + 1) for d in range(1, total)
            for lam1 in partitions(d) for lam2 in partitions(total - d)]


def test_n_trop_matches_the_assignment_recursion():
    pairs = _weight_vector_pairs(10)
    for w1, w2 in pairs:
        assert n_trop(w1, w2) == n_trop_by_assignments(w1, w2), (w1, w2)
    assert n_trop((1, 1), (1, 1, 1)) == n_trop_by_assignments((1, 1), (1, 1, 1)) == 6
