import re
from fractions import Fraction
from math import gcd

import pytest

from quivermoduli.quiver import Refinement
from quivermoduli.symfunc import partitions
from quivermoduli.tropical import n_trop, refinements, weight_vector_of
from quivermoduli.vertex import (
    OrderedFactorization,
    TruncatedElement,
    WallAutomorphism,
    compose_apply,
    extract_n_trop,
    factorize,
    ks_operators,
    n_trop_via_factorization,
)

U = ("u", 1, 1)
V = ("v", 1, 1)
X = TruncatedElement.monomial(1, 0)
Y = TruncatedElement.monomial(0, 1)


def wall(direction, *monomials):
    f = TruncatedElement.one()
    for xe, ye, tokens, c in monomials:
        f = f + TruncatedElement.monomial(xe, ye, tokens, c)
    return WallAutomorphism(direction, f)


THETA_X = wall((1, 0), (1, 0, (U,), 1))   # x -> x, y -> y (1 + u x)
THETA_Y = wall((0, 1), (0, 1, (V,), 1))   # x -> x (1 + v y)^-1, y -> y


def test_truncated_element_ring():
    a = TruncatedElement.monomial(1, 0, (U,), 2)
    b = TruncatedElement.monomial(0, 1, (V,), 3)
    assert (a * b).coefficient(1, 1, {U, V}) == 6
    assert (a * a).is_zero()  # square-zero token
    assert (a + a).coefficient(1, 0, {U}) == 4
    assert (a - a).is_zero()
    f = TruncatedElement.one() + a
    assert f.unit_pow(-1) == TruncatedElement.one() + a.scaled(-1)
    assert f.unit_pow(3) == TruncatedElement.one() + a.scaled(3)
    with pytest.raises(ValueError):
        a.unit_pow(2)


def test_divided_power_product():
    c = ("u", 1, 3)  # a class of three tokens
    e1 = TruncatedElement.monomial(1, 0, {c: 1})
    e2 = TruncatedElement.monomial(2, 0, {c: 2})
    assert (e1 * e1).coefficient(2, 0, {c: 2}) == 2      # E_1 E_1 = 2 E_2
    assert (e1 * e2).coefficient(3, 0, {c: 3}) == 3      # E_1 E_2 = 3 E_3
    assert (e1 * e1 * e1).coefficient(3, 0, {c: 3}) == 6
    assert (e2 * e2).is_zero()                           # above the cap
    assert TruncatedElement.monomial(4, 0, {c: 4}).is_zero()
    assert TruncatedElement.monomial(2, 0, (c, c)) == e2
    # classes multiply independently
    other = ("v", 2, 1)
    mixed = e1 * TruncatedElement.monomial(0, 2, (other,), 5)
    assert mixed.coefficient(1, 2, {c: 1, other: 1}) == 5
    with pytest.raises(ValueError):
        TruncatedElement.monomial(0, 0, {c: -1})


@pytest.mark.parametrize("cls", [("u", 1, -1), ("u", 1, 0), ("u", 1, 1.0), ("u", 1, "2"),
                                 ("u", 1, True), ("u", 1), "u"])
def test_malformed_class_ids_are_rejected(cls):
    # a cap <= 0 would put every monomial above its cap, so a wall made of
    # them would silently equal 1
    with pytest.raises(ValueError, match="class %s" % re.escape(repr(cls))):
        TruncatedElement.monomial(1, 0, (cls,))
    with pytest.raises(ValueError, match="positive int cap"):
        TruncatedElement.monomial(1, 0, {cls: 0})
    with pytest.raises(ValueError, match="positive int cap"):
        THETA_X.f.coefficient(1, 0, (cls,))


def test_wall_automorphism_validation():
    with pytest.raises(ValueError):
        WallAutomorphism((2, 2), TruncatedElement.one())
    with pytest.raises(ValueError):
        # term off the ray
        wall((1, 0), (0, 1, (U,), 1))
    with pytest.raises(ValueError):
        # non-nilpotent term
        WallAutomorphism((1, 0), TruncatedElement.one() +
                         TruncatedElement.monomial(1, 0, (), 1))


def test_apply_examples():
    assert THETA_X.apply(Y) == Y + TruncatedElement.monomial(1, 1, (U,), 1)
    assert THETA_X.apply(X) == X
    # truncated geometric series: x (1 + v y)^-1 = x (1 - v y)
    assert THETA_Y.apply(X) == X + TruncatedElement.monomial(1, 1, (V,), -1)


def test_ks_operators():
    r = Refinement.of([((1, 1),)], [((1, 1),)])
    ops = ks_operators(r)
    assert [op.direction for op in ops] == [(1, 0), (0, 1)]
    assert ops[0].f.coefficient(1, 0, {("u", 1, 1)}) == 1
    assert ops[1].f.coefficient(0, 1, {("v", 1, 1)}) == 1

    r2 = Refinement.of([((2, 1),)], [((2, 1),)])
    ops2 = ks_operators(r2)
    assert ops2[0].f.coefficient(2, 0, {("u", 2, 1)}) == 2  # 1 + 2 u x^2
    assert ops2[1].f.coefficient(0, 2, {("v", 2, 1)}) == 2  # 1 + 2 v y^2

    # one wall per (side, weight) class: (1 + 2 u_1 x^2)(1 + 2 u_2 x^2)
    # = 1 + 2 x^2 E_1 + 4 x^4 E_2 for the class ("u", 2, 2)
    r3 = Refinement.of([((1, 1),)], [((2, 2), (1, 1))])
    ops3 = ks_operators(r3)
    assert [op.direction for op in ops3] == [(1, 0), (1, 0), (0, 1)]
    assert ops3[1].f == TruncatedElement({(0, 0, ()): 1,
                                          (2, 0, ((("u", 2, 2), 1),)): 2,
                                          (4, 0, ((("u", 2, 2), 2),)): 4})
    assert ops3[1].f.coefficient(4, 0, {("u", 2, 2): 2}) == 4
    assert ops3[1].f.coefficient(4, 0, [("u", 2, 2)] * 2) == 4
    assert ops3[0].f.coefficient(1, 0, {("u", 1, 1): 1}) == 1


def test_factorize_pentagon():
    fact = factorize([THETA_X, THETA_Y])
    assert [w.direction for w in fact.walls] == [(0, 1), (1, 1), (1, 0)]
    mid = fact.wall((1, 1))
    assert mid.f == TruncatedElement.one() + TruncatedElement.monomial(1, 1, (U, V), 1)
    assert fact.wall((0, 1)).f == THETA_Y.f
    assert fact.wall((1, 0)).f == THETA_X.f


def test_factorize_single_input():
    fact = factorize([THETA_X])
    assert len(fact.walls) == 1
    assert fact.wall((1, 0)).f == THETA_X.f


def test_factorize_recomposition():
    for r in (Refinement.of([((1, 2),)], [((1, 3),)]),
              Refinement.of([((2, 1),)], [((1, 1),), ((1, 1),), ((1, 1),)])):
        ops = ks_operators(r)
        fact = factorize(ops)
        assert compose_apply(fact.walls, X) == compose_apply(ops, X)
        assert compose_apply(fact.walls, Y) == compose_apply(ops, Y)


def test_factorize_idempotent():
    ops = ks_operators(Refinement.of([((1, 2),)], [((1, 2),)]))
    fact = factorize(ops)
    again = factorize(list(fact.walls))
    assert [w.direction for w in again.walls] == [w.direction for w in fact.walls]
    for w1, w2 in zip(again.walls, fact.walls):
        assert w1.f == w2.f


def _truncated_log(unit):
    # log(1 + eps) = sum (-1)^(j-1) eps^j / j, finite on nilpotents
    eps = unit - TruncatedElement.one()
    total = TruncatedElement.zero()
    power = TruncatedElement.one()
    j = 0
    while True:
        j += 1
        power = power * eps
        if power.is_zero():
            return total
        total = total + power.scaled(Fraction((-1) ** (j - 1), j))


def test_log_coefficient_symplectic_identity():
    # a * log(theta(x)/x) + b * log(theta(y)/y) = a(-b) log f + b a log f = 0
    ops = ks_operators(Refinement.of([((1, 1), (2, 1))], [((1, 2),)]))
    fact = factorize(ops)
    for w in fact.walls:
        a, b = w.direction
        lx = _truncated_log(w.apply(X) * TruncatedElement.monomial(-1, 0))
        ly = _truncated_log(w.apply(Y) * TruncatedElement.monomial(0, -1))
        assert (lx.scaled(a) + ly.scaled(b)).is_zero()


def test_extract_examples():
    r = Refinement.of([((1, 1),)], [((1, 1),)])
    assert extract_n_trop(factorize(ks_operators(r)), r) == 1

    r = Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),), ((1, 1),)])
    assert extract_n_trop(factorize(ks_operators(r)), r) == 6

    r = Refinement.of([((2, 1),)], [((1, 1),), ((1, 1),), ((1, 1),)])
    assert extract_n_trop(factorize(ks_operators(r)), r) == 8


def test_extract_missing_wall_is_zero():
    r = Refinement.of([((1, 1),)], [((1, 1),)])
    assert extract_n_trop(OrderedFactorization(()), r) == 0


def test_extract_off_a_wall_without_token_classes_is_zero():
    # "1+1|1,1,1": the (3, 2) wall f = 1 carries none of the refinement's
    # classes, so the read-out takes them from the refinement's own walls
    r = Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),), ((1, 1),)])
    fact = OrderedFactorization([WallAutomorphism((3, 2), TruncatedElement.one())])
    assert extract_n_trop(fact, r) == 0


def test_extract_refuses_non_coprime_types():
    # refused before the wall is read: an empty factorization would give 0
    for r in (Refinement.of([((1, 2),)], [((1, 2), (2, 1))]),
              Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),)])):
        with pytest.raises(ValueError, match="coprime"):
            extract_n_trop(OrderedFactorization(()), r)
        with pytest.raises(ValueError, match="coprime"):
            extract_n_trop(factorize(ks_operators(r)), r)


def test_non_coprime_wall_carries_disconnected_terms():
    # for dimension type (2,2) the (1,1) wall function is
    # prod (1 + u_i v_j x y) * (1 - u1 u2 v1 v2 x^2 y^2)^(-4): the full-token
    # coefficient 6 = 2 matchings + 4; only the connected part of 2 equals
    # the recursion, so read-outs are meaningful on coprime types alone
    r = Refinement.of([((1, 2),)], [((1, 2),)])
    fact = factorize(ks_operators(r))
    top = {("u", 1, 2): 2, ("v", 1, 2): 2}
    assert fact.wall((1, 1)).f.coefficient(2, 2, top) == 6
    assert n_trop((1, 1), (1, 1)) == 2


def test_oracle_agreement_small():
    # wall extraction equals the recursion on refinements of coprime pairs
    seen = set()
    for total in range(2, 7):
        for d in range(1, total):
            e = total - d
            if gcd(d, e) != 1:
                continue
            for p1 in partitions(d):
                for p2 in partitions(e):
                    for r in refinements(p1, p2):
                        w1 = weight_vector_of(r.k1)
                        w2 = weight_vector_of(r.k2)
                        if (w1, w2) in seen:
                            continue
                        seen.add((w1, w2))
                        assert n_trop_via_factorization(w1, w2) == n_trop(w1, w2)


def test_n_trop_via_factorization_input_contract():
    assert n_trop_via_factorization([1, 1], (1,)) == n_trop((1, 1), (1,))
    with pytest.raises(ValueError, match="nonempty"):
        n_trop_via_factorization((), (1,))
    with pytest.raises(ValueError, match="nonempty"):
        n_trop_via_factorization((2,), ())
    with pytest.raises(ValueError, match="weakly increasing"):
        n_trop_via_factorization((2, 1), (1,))
    with pytest.raises(ValueError, match="positive"):
        n_trop_via_factorization((0, 1), (1,))
    # a non-coprime type is refused before factorizing; the recursion has
    # no such restriction
    with pytest.raises(ValueError, match="coprime"):
        n_trop_via_factorization((1, 1), (1, 1, 2))
    assert n_trop((1, 1), (1, 1, 2)) == 16
