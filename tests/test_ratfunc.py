import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli.motive import MotiveClass
from quivermoduli.ratfunc import (
    ONE,
    Poly,
    RationalFunction,
    _add_into,
    _poly,
    _reduced,
    cyclotomic,
    linear_sum,
)

ORACLE = settings(max_examples=200, deadline=None, derandomize=True)

# Phi_k has no integer root >= 2, so no denominator vanishes at these points
POINTS = (2, 3, 5)
L = Poly((0, 1))


def test_poly_basics():
    p = Poly((1, 2, 3))
    q = Poly((0, 1))
    assert p.degree() == 2
    assert (p + q).c == (1, 3, 3)
    assert (p - p).is_zero()
    assert (p * q).c == (0, 1, 2, 3)
    assert (q ** 3).c == (0, 0, 0, 1)
    assert p(2) == 1 + 4 + 12
    assert Poly((1, 0, 0)).c == (1,)


def test_poly_divmod_exact():
    a = Poly((-1, 0, 1))          # x^2 - 1
    b = Poly((-1, 1))             # x - 1
    q, r = a.divmod(b)
    assert r.is_zero() and q.c == (1, 1)
    assert a.exact_div(b) == q
    with pytest.raises(ValueError):
        Poly((1, 1)).exact_div(Poly((0, 1)))
    with pytest.raises(ZeroDivisionError):
        a.divmod(Poly())
    with pytest.raises(ValueError):
        a.divmod(Poly((1, 2)))    # only monic divisors


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(3), 0.5, True, "1"])
def test_poly_rejects_a_coefficient_that_is_not_an_int(coeff):
    with pytest.raises(TypeError, match=re.escape(repr(coeff))):
        Poly((1, coeff))
    with pytest.raises(TypeError):
        Poly((1, 1)) * coeff


@pytest.mark.parametrize("lpow, cyc, named", [
    (1.5, (), "1.5"),
    (True, (), "True"),
    (0, {2: 1.5}, "1.5"),
    (0, {1.5: 1}, "1.5"),
], ids=["float-lpow", "bool-lpow", "float-exponent", "float-n"])
def test_rational_function_rejects_an_exponent_that_is_not_an_int(lpow, cyc, named):
    with pytest.raises(TypeError, match=re.escape(named)):
        RationalFunction(1, lpow, cyc)


def test_poly_subst_and_shift():
    p = Poly((1, 2))
    assert p.subst_pow(2).c == (1, 0, 2)
    assert p.shifted(2).c == (0, 0, 1, 2)
    assert Poly((0, 0, 4, 0)).low_order() == 2


def test_cyclotomic_polynomials():
    # monic integer factors with prod_{d | n} Phi_d = L^n - 1 determine the
    # Phi_d uniquely, by induction on n
    assert cyclotomic(1).c == (-1, 1)
    assert cyclotomic(6).c == (1, -1, 1)
    assert cyclotomic(12).c == (1, 0, -1, 0, 1)
    for n in range(1, 31):
        prod = Poly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic(d)
                assert phi.c[-1] == 1 and all(type(c) is int for c in phi.c)
                prod = prod * phi
        assert prod == Poly.x_pow(n) - 1


def test_one_class_under_two_names():
    assert MotiveClass is RationalFunction


def test_hash_agrees_with_equality_across_types():
    for value in (0, 3, Fraction(-1, 2)):
        as_product = RationalFunction(Poly.const(value.numerator)) * Fraction(1, value.denominator)
        forms = (value, as_product, RationalFunction.of(value), RationalFunction(value))
        if value.denominator == 1:
            forms += (Poly.const(value),)
        assert all(f == value for f in forms)
        assert len({hash(f) for f in forms}) == 1
        assert {value: 1}[forms[3]] == 1
    p = Poly((1, 2))
    assert hash(RationalFunction(p)) == hash(p) and {p: 1}[RationalFunction(p)] == 1


def test_rational_normal_form():
    # (L+1)/(L^2-1) is stored as 1/(L-1)
    r = RationalFunction(Poly((1, 1)), 0, {2: 1})
    assert (r.num, r.lpow, r.cyc) == (Poly((1,)), 0, ((1, 1),))
    assert r == RationalFunction(1, 0, {1: 1}) and hash(r) == hash(RationalFunction(1, 0, {1: 1}))
    assert r.den == Poly((-1, 1))
    # the rational content is kept once, in scale
    half = RationalFunction(Poly((1, 1)), 0, {2: 1}) * Fraction(1, 2)
    assert (half.num, half.scale, half.cyc) == (Poly((1,)), 2, ((1, 1),))
    assert half.den == Poly((-2, 2))
    assert half * 2 == r
    # (L^3-1)/(L^6-1) = 1/(L^3+1) = 1/(Phi_2 Phi_6)
    s = RationalFunction(Poly.x_pow(3) - 1, 0, {6: 1})
    assert (s.num, s.cyc) == (Poly((1,)), ((2, 1), (6, 1)))
    assert s.den == Poly.x_pow(3) + 1
    # L^2/L^3 = 1/L, and L^3 * L^-2 = L
    assert (RationalFunction(Poly.x_pow(2), 3).num, RationalFunction(Poly.x_pow(2), 3).lpow) == \
        (Poly((1,)), 1)
    assert RationalFunction(L, -2) == RationalFunction(Poly.x_pow(3))
    # polynomial exactly when the denominator is 1
    p = RationalFunction(Poly((-1, 0, 1)), 0, {1: 1})
    assert p == Poly((1, 1)) and p.is_polynomial() and p.num == Poly((1, 1))
    assert not r.is_polynomial()
    # zero has one form
    z = RationalFunction(Poly(), 4, {3: 2})
    assert (z.num, z.lpow, z.cyc) == (Poly(), 0, ()) and z.is_zero()
    with pytest.raises(ValueError):
        RationalFunction(1, 0, {2: -1})


def test_rational_arithmetic():
    x = RationalFunction(L)
    one = RationalFunction.one()
    inv = RationalFunction(1, 0, {1: 1})      # 1/(L-1)
    assert inv + inv == 2 * inv == RationalFunction(2, 0, {1: 1})
    assert (x * x - 1) * inv == x + 1
    assert (x - 1) * inv == one
    assert (x - x).is_zero() and (x - x) == RationalFunction.zero()
    assert 1 - inv == RationalFunction(Poly((-2, 1)), 0, {1: 1})
    assert inv(2) == 1
    assert inv(3) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        inv(1)
    # [P^2] * [P^2]^(-1) = 1
    p2 = RationalFunction(Poly((1, 1, 1)))
    assert p2.times_proj_inverse(3) == one
    assert one.times_proj_inverse(4, 2) == RationalFunction(Poly((-1, 1)) ** 2, 0, {4: 2})
    assert x.times_l_power(-3) == RationalFunction(1, 2)
    with pytest.raises(ValueError):
        one.times_proj_inverse(2, -1)


# -- the oracle: exact evaluation of the constructor's own presentation ----------


# an integer polynomial times a rational scalar
COEFFS = st.lists(st.integers(-4, 4), max_size=5)
SCALES = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SPECS = st.tuples(COEFFS, SCALES,
                  st.integers(0, 3),
                  st.dictionaries(st.integers(1, 6), st.integers(0, 2), max_size=3))


def _build(spec):
    num, scalar, lpow, cyc = spec
    return RationalFunction(Poly(num), lpow, cyc) * scalar


def _value(spec, x):
    """scalar num(x) / (x^lpow prod (x^n - 1)^e), straight from the presentation."""
    num, scalar, lpow, cyc = spec
    den = Fraction(x) ** lpow
    for n, e in cyc.items():
        den *= (Fraction(x) ** n - 1) ** e
    return scalar * sum(c * x ** i for i, c in enumerate(num)) / den


def _assert_canonical(r):
    assert r.lpow >= 0
    assert list(r.cyc) == sorted(r.cyc) and all(e > 0 for _, e in r.cyc)
    assert all(type(c) is int for c in r.num.c)
    assert type(r.scale) is int and r.scale >= 1
    if r.is_zero():
        assert (r.scale, r.lpow, r.cyc) == (1, 0, ())
        return
    assert gcd(r.scale, *r.num.c) == 1
    if r.lpow:
        assert r.num.c[0] != 0
    for k, _ in r.cyc:
        assert not r.num.divmod(cyclotomic(k))[1].is_zero()


@ORACLE
@given(SPECS, SPECS, st.integers(-3, 3), st.integers(1, 6), st.integers(0, 2))
def test_arithmetic_matches_exact_evaluation(a, b, k, n, power):
    A, B = _build(a), _build(b)
    results = {
        "a": (A, lambda x: _value(a, x)),
        "sum": (A + B, lambda x: _value(a, x) + _value(b, x)),
        "difference": (A - B, lambda x: _value(a, x) - _value(b, x)),
        "product": (A * B, lambda x: _value(a, x) * _value(b, x)),
        "scaled": (A * Fraction(-3, 2), lambda x: _value(a, x) * Fraction(-3, 2)),
        "L-power": (A.times_l_power(k), lambda x: _value(a, x) * Fraction(x) ** k),
        "proj-inverse": (A.times_proj_inverse(n, power),
                         lambda x: _value(a, x) * (Fraction(x - 1, x ** n - 1)) ** power),
    }
    for name, (r, expected) in results.items():
        _assert_canonical(r)
        for x in POINTS:
            assert r(x) == expected(x), (name, x)


@ORACLE
@given(SPECS, SPECS, st.integers(0, 2), st.integers(1, 6), st.integers(0, 2))
def test_equal_values_have_equal_fields_and_hashes(a, b, i, n, j):
    A, B = _build(a), _build(b)
    # the same value presented with an extra common factor L^i (L^n - 1)^j
    num, scalar, lpow, cyc = a
    cyc = dict(cyc)
    cyc[n] = cyc.get(n, 0) + j
    padded = RationalFunction(Poly(num) * (Poly.x_pow(n) - 1) ** j * Poly.x_pow(i),
                              lpow + i, cyc) * scalar
    pairs = [(padded, A), ((A + B) - B, A), (A * RationalFunction.one(), A),
             (A * B, B * A), (A + B, B + A), ((A - B) * (A + B), A * A - B * B)]
    for r, t in pairs:
        assert _fields(r) == _fields(t)
        assert r == t and hash(r) == hash(t)
    assert (A == B) == (A - B).is_zero()


# -- the in-place kernel against Poly arithmetic --------------------------------

# zeros are common, trailing ones included
KERNEL_COEFFS = st.lists(st.integers(-3, 3), max_size=6)
KERNEL_SCALARS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**20, 10**20))


@ORACLE
@given(KERNEL_COEFFS, KERNEL_SCALARS, st.integers(0, 4), KERNEL_COEFFS,
       st.one_of(st.none(), KERNEL_COEFFS), st.booleans())
def test_add_into_matches_poly_arithmetic(acc, a, shift, p, q, cancel):
    factors = (p,) if q is None else (p, q)
    added = (Poly(p) * Poly(q if q is not None else (1,)) * a).shifted(shift)
    if cancel:
        # acc holds minus the product, padded with trailing zeros
        acc = list((-added).c) + [0] * len(acc)
    before = Poly(acc)
    start, inputs = len(acc), [list(f) for f in factors]
    out = _add_into(acc, a, shift, *factors)
    assert out is acc
    assert [list(f) for f in factors] == inputs
    # the list grows only as far as the product reaches
    q = q if q is not None else [1]
    reach = shift + len(p) + len(q) - 1 if p and q else 0
    assert len(acc) == max(start, reach)
    total = _poly(acc)
    assert total.c == (before + added).c and (not total.c or total.c[-1])
    if cancel:
        assert total.is_zero() and acc == []


def test_add_into_grows_past_the_starting_degree():
    # a row may reach above dim R_D, the degree Phi starts at, and a later
    # row may cancel it: L - (1 + L)^2 + L^2 = -1 - L
    acc = [0, 1]
    _add_into(acc, -1, 0, (1, 1), (1, 1))
    assert acc == [-1, -1, -1]
    _add_into(acc, 1, 2, (1,))
    assert acc == [-1, -1, 0] and _poly(acc).c == (-1, -1)
    acc = [1]
    _add_into(acc, 1, 3, (1, 2))
    assert acc == [1, 0, 0, 1, 2]
    assert _poly([0, 3, 0, 0]).c == (0, 3)


# -- linear_sum against the pairwise fold ---------------------------------------


def _lift(num, dl, own, common):
    out = num.shifted(dl)
    for k, e in common.items():
        for _ in range(e - own.get(k, 0)):
            out = out * cyclotomic(k)
    return out


def oracle_add(x, y):
    """x + y by lifting both numerators to the common denominator in Poly
    arithmetic and reducing by the Phi_k that both carry to the same power."""
    if not y.num:
        return x
    if not x.num:
        return y
    a, b = dict(x.cyc), dict(y.cyc)
    lpow = max(x.lpow, y.lpow)
    phi = {k: max(a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys()}
    num = (_lift(x.num, lpow - x.lpow, a, phi) * y.scale
           + _lift(y.num, lpow - y.lpow, b, phi) * x.scale)
    return _reduced(num, x.scale * y.scale, lpow, phi,
                    [k for k in phi if a.get(k) == b.get(k)])


SCALARS = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=6))
TERMS = st.tuples(COEFFS, SCALES,
                  st.integers(-2, 3),
                  st.dictionaries(st.integers(1, 6), st.integers(0, 2), max_size=3))


def _fields(r):
    return r.num, r.scale, r.lpow, r.cyc


@ORACLE
@given(st.lists(st.tuples(SCALARS, TERMS), max_size=6), st.lists(st.integers(0, 5), max_size=3))
def test_linear_sum_matches_pairwise_fold(pairs, cancelled):
    terms = [(c, _build(spec)) for c, spec in pairs]
    # c f followed later by -c f cancels exactly
    terms += [(-terms[i][0], terms[i][1]) for i in cancelled if i < len(terms)]
    expected = RationalFunction.zero()
    for c, f in terms:
        expected = oracle_add(expected, f * c)
    total = linear_sum(terms)
    _assert_canonical(total)
    assert _fields(total) == _fields(expected)
    zero = linear_sum(terms + [(-c, f) for c, f in terms])
    assert _fields(zero) == _fields(RationalFunction.zero())


def test_linear_sum_examples():
    inv = RationalFunction(1, 0, {1: 1})      # 1/(L-1)
    assert linear_sum([]) == RationalFunction.zero()
    assert linear_sum([(0, inv), (3, RationalFunction.zero())]).is_zero()
    # constants, Poly values and Fraction scalars
    assert linear_sum([(2, 3), (Fraction(1, 2), L)]) == \
        RationalFunction(Poly((12, 1))) * Fraction(1, 2)
    # L/(L-1) - 1/(L-1) = 1: the shared Phi_1 cancels
    assert linear_sum([(1, RationalFunction(L, 0, {1: 1})), (-1, inv)]) == RationalFunction.one()
    # 1/(L^2-1) + 1/(L^2-1)^2 = L^2/(L^2-1)^2: the top powers of Phi_1 and
    # Phi_2 come from one term, so neither can cancel
    s = linear_sum([(1, RationalFunction(1, 0, {2: 1})), (1, RationalFunction(1, 0, {2: 2}))])
    assert _fields(s) == (Poly.x_pow(2), 1, 0, ((1, 2), (2, 2)))
    # the scales are cleared and restored
    half = RationalFunction(ONE, 1) * Fraction(1, 2)
    assert linear_sum([(Fraction(2, 3), half), (Fraction(1, 3), half)]) == half


@pytest.mark.parametrize("pairs, named", [
    ([(0.5, L)], "0.5"),
    ([(1, L), (1, "L")], "'L'"),
    ([(1, L), (0.5, Poly((1, 2)))], "0.5"),
    ([(1, RationalFunction(1, 0, {1: 1})), (1, 0.25)], "0.25"),
])
def test_linear_sum_rejects_inexact_values(pairs, named):
    with pytest.raises(TypeError, match=named):
        linear_sum(pairs)
    if len(pairs) == 2 and pairs[0][0] == 1 == pairs[1][0]:
        with pytest.raises(TypeError, match=named):
            RationalFunction.of(pairs[0][1]) + pairs[1][1]


# -- whole factors L^n - 1 against the reduction one Phi_k at a time -----------


def _phi_only_fields(num, lpow, cyc):
    """The fields of num / (L^lpow prod (L^n - 1)^cyc[n]) reduced one Phi_k
    at a time, with no whole-factor pass and no monomial shortcut: each
    L^n - 1 becomes its Phi_d, d | n, and each Phi_k is divided out of num
    while the remainder is zero."""
    phi = {}
    for n, e in cyc.items():
        for d in range(1, n + 1):
            if n % d == 0:
                phi[d] = phi.get(d, 0) + e
    if lpow < 0:
        num, lpow = num.shifted(-lpow), 0
    if num.is_zero():
        return Poly(), 1, 0, ()
    k = min(num.low_order(), lpow)
    num, lpow = Poly(num.c[k:]), lpow - k
    for k in sorted(phi):
        while phi[k]:
            q, r = num.divmod(cyclotomic(k))
            if not r.is_zero():
                break
            num, phi[k] = q, phi[k] - 1
    return num, 1, lpow, tuple(sorted((k, e) for k, e in phi.items() if e))


NONZERO = st.integers(-6, 6).filter(bool)
# zero, a constant, a monomial c L^k, a polynomial, and one with content != 1
FACTORS = st.one_of(
    st.just(Poly()),
    NONZERO.map(Poly.const),
    st.builds(lambda k, c: Poly.x_pow(k, c), st.integers(0, 4), NONZERO),
    COEFFS.map(Poly),
    st.builds(lambda c, coeffs: Poly(coeffs) * c, st.integers(2, 6), COEFFS),
)


@st.composite
def whole_factor_cases(draw):
    """p prod (L^n - 1)^f_n over (L^lpow prod (L^n - 1)^e_n), n <= 12,
    e_n <= 3 and f_n <= e_n + 1, lpow of either sign."""
    cyc = draw(st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=4))
    num = draw(FACTORS)
    for n, e in cyc.items():
        num = num * (Poly.x_pow(n) - 1) ** draw(st.integers(0, e + 1))
    return num, draw(st.integers(-3, 4)), cyc


@ORACLE
@given(whole_factor_cases())
def test_whole_factor_pass_matches_the_reduction_by_phi_k(case):
    num, lpow, cyc = case
    r = RationalFunction(num, lpow, cyc)
    _assert_canonical(r)
    assert _fields(r) == _phi_only_fields(num, lpow, cyc)
