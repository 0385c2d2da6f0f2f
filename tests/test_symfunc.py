import re
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from quivermoduli.ratfunc import Poly, RationalFunction
from quivermoduli.symfunc import (
    Partition,
    SymPoly,
    e_lambda_to_p,
    e_to_p,
    lemma3_identity,
    mps_weight,
    multiplicity_vectors,
    p_to_e,
    partitions,
    principal_specialize,
)

# -- explicit-variable oracle --------------------------------------------------
# Expand symmetric functions in variables x_1..x_N as exponent-dicts; base
# change results must agree with the direct expansions.

N_VARS = 7
_ZERO = tuple([0] * N_VARS)


def _e_expand(n):
    out = {}
    for idxs in combinations(range(N_VARS), n):
        key = tuple(1 if i in idxs else 0 for i in range(N_VARS))
        out[key] = out.get(key, 0) + 1
    return out


def _p_expand(n):
    out = {}
    for i in range(N_VARS):
        key = tuple(n if j == i else 0 for j in range(N_VARS))
        out[key] = out.get(key, 0) + 1
    return out


def _mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _explicit(sym):
    base = _e_expand if sym.basis == "e" else _p_expand
    total = {}
    for lam, c in sym.coeffs.items():
        term = {_ZERO: Fraction(1)}
        for part in lam:
            term = _mul(term, base(part))
        for k, v in term.items():
            w = total.get(k, 0) + v * c
            if w:
                total[k] = w
            elif k in total:
                del total[k]
    return total


# -- partitions ----------------------------------------------------------------


def test_partition_round_trip():
    for n in range(1, 9):
        for parts in partitions(n):
            lam = Partition(parts)
            assert Partition.from_multiplicities(lam.multiplicities()) == lam
            assert lam.size() == n


def test_partition_derived_data():
    lam = Partition((3, 2, 2, 1))
    assert lam.length() == 4
    assert lam.sign() == (-1) ** (8 - 4)
    assert lam.z() == 1 * 1 * (2 * 4) * 3  # m1! 1^1 * m2! 2^2 * m3! 3^1
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_multiplicity_vectors_cover_partitions():
    for n in range(1, 8):
        ms = multiplicity_vectors(n)
        assert len(ms) == len(partitions(n))
        assert all(sum(l * c for l, c in m.items()) == n for m in ms)


# -- base changes ---------------------------------------------------------------


def test_mps_weight_is_sign_over_z():
    # prod_l (1/m_l!) ((-1)^(l-1) / l)^m_l, term by term, is epsilon / z
    for n in range(1, 9):
        for m in multiplicity_vectors(n):
            direct = Fraction(1)
            for l, ml in m.items():
                direct *= Fraction(1, factorial(ml)) * Fraction((-1) ** (l - 1), l) ** ml
            lam = Partition.from_multiplicities(m)
            assert mps_weight(m) == direct == Fraction(lam.sign(), lam.z())


def test_e_to_p_examples():
    assert e_to_p(1).coeffs == {(1,): 1}
    assert e_to_p(2).coeffs == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    assert e_to_p(3).coeffs == {
        (1, 1, 1): Fraction(1, 6),
        (2, 1): Fraction(-1, 2),
        (3,): Fraction(1, 3),
    }
    with pytest.raises(ValueError):
        e_to_p(0)


def test_p_to_e_examples():
    assert p_to_e(1).coeffs == {(1,): 1}
    assert p_to_e(2).coeffs == {(1, 1): 1, (2,): -2}
    assert p_to_e(3).coeffs == {(1, 1, 1): 1, (2, 1): -3, (3,): 3}
    with pytest.raises(ValueError):
        p_to_e(0)


def test_base_changes_against_expansion_oracle():
    for n in range(1, 6):
        assert _explicit(e_to_p(n)) == _e_expand(n)
        assert _explicit(p_to_e(n)) == _p_expand(n)


def test_e_lambda_examples():
    assert e_lambda_to_p((1,)).coeffs == {(1,): 1}
    assert e_lambda_to_p((1, 1)).coeffs == {(1, 1): 1}
    assert e_lambda_to_p((2, 1)).coeffs == {
        (1, 1, 1): Fraction(1, 2),
        (2, 1): Fraction(-1, 2),
    }


def test_e_lambda_multiplicative():
    # the closed-form coefficients equal the product of the e_n images
    for n in range(1, 9):
        for lam in partitions(n):
            product = SymPoly("p", {(): Fraction(1)})
            for part in lam:
                product = product * e_to_p(part)
            assert e_lambda_to_p(lam) == product


def test_inverse_base_change():
    # expanding p_to_e(n) through e_to_p returns p_n, for n <= 10
    for n in range(1, 11):
        back = SymPoly("p", {})
        for lam, c in p_to_e(n).coeffs.items():
            term = SymPoly("p", {(): Fraction(1)})
            for part in lam:
                term = term * e_to_p(part)
            back = back + term * c
        assert back == SymPoly.basis_element("p", (n,))


def test_sympoly_basis_mixing():
    with pytest.raises(ValueError):
        SymPoly.basis_element("e", (1,)) + SymPoly.basis_element("p", (1,))


@pytest.mark.parametrize("basis, lam", [("e", (2, 0)), ("p", (0,)), ("e", (-1,)), ("p", (1.0,))])
def test_sympoly_rejects_nonpositive_parts(basis, lam):
    # (2, 0) would be kept apart from (2,), p_0 would fail to specialize and
    # e_(-1) would reach math.comb
    with pytest.raises(ValueError, match=r"partition %s" % re.escape(repr(lam))):
        SymPoly(basis, {lam: 1})
    with pytest.raises(ValueError, match="partition"):
        SymPoly.basis_element(basis, lam)


@pytest.mark.parametrize("coeff", [0.5, "1/2", True])
def test_sympoly_rejects_inexact_coefficients(coeff):
    with pytest.raises(ValueError, match=r"coefficient of \(2, 1\)"):
        SymPoly("e", {(2, 1): coeff})
    assert SymPoly("e", {(2, 1): Fraction(1, 2)}).coeffs == {(2, 1): Fraction(1, 2)}


@pytest.mark.parametrize("combine, named", [
    (lambda e1: e1 * 0.5, "0.5"),
    (lambda e1: e1 + 1, "1"),
    (lambda e1: e1 - 1, "1"),
    (lambda e1: 0.5 * e1, "0.5"),
    (lambda e1: e1 * "e1", "'e1'"),
])
def test_sympoly_arithmetic_rejects_other_operands(combine, named):
    e1 = SymPoly.basis_element("e", (1,))
    with pytest.raises(TypeError, match="with %s$" % named):
        combine(e1)
    assert e1 * Fraction(1, 2) == SymPoly.basis_element("e", (1,), Fraction(1, 2))


# -- principal specialization ----------------------------------------------------


def test_principal_specialize_generators():
    q = Poly.x_pow(1)
    one = Poly((1,))
    # 1/(1-q) = -1/(q-1), 1/(1-q^2), q/((1-q)(1-q^2)) = q/((q-1)(q^2-1))
    assert principal_specialize(SymPoly.basis_element("e", (1,))) == \
        RationalFunction(-one, 0, {1: 1})
    assert principal_specialize(SymPoly.basis_element("p", (2,))) == \
        RationalFunction(-one, 0, {2: 1})
    assert principal_specialize(SymPoly.basis_element("e", (2,))) == \
        RationalFunction(q, 0, {1: 1, 2: 1})


def test_principal_specialize_is_ring_map():
    for lam in [(2, 1), (3, 2), (2, 2, 1)]:
        whole = principal_specialize(SymPoly.basis_element("e", lam))
        factored = RationalFunction.of(1)
        for part in lam:
            factored = factored * principal_specialize(
                SymPoly.basis_element("e", (part,)))
        assert whole == factored


def test_specialization_respects_base_change():
    # the specialization of e_n agrees with the specialization of its
    # power-sum expansion
    for n in range(1, 13):
        direct = principal_specialize(SymPoly.basis_element("e", (n,)))
        via_p = principal_specialize(e_to_p(n))
        assert direct == via_p


# -- the q-identity ----------------------------------------------------------------


def test_lemma3_small_closed_forms():
    q = Poly.x_pow(1)
    one = Poly((1,))
    lhs, rhs = lemma3_identity(1)
    assert lhs == rhs == RationalFunction(one, 0, {1: 1})
    lhs, rhs = lemma3_identity(2)
    # 1/((q-1)^2 (q+1)) = 1/((q-1)(q^2-1))
    assert lhs == rhs == RationalFunction(one, 0, {1: 1, 2: 1})
    assert lhs.den == (q - one) ** 2 * (q + one)


@pytest.mark.parametrize("n", range(1, 13))
def test_lemma3_identity(n):
    lhs, rhs = lemma3_identity(n)
    assert lhs == rhs
