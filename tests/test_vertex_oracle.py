"""Oracles for the vertex group.

The divided-power vertex ring against the labelled square-zero ring: every
token of a class becomes its own cap-1 class, which is the per-token ring
the divided-power ring replaces.  The map E_k(c) -> e_k(tokens of c) is an
injective ring map, so the two rings must give the same factorization term
for term, and the same tropical counts.

``factorize`` on packed integer keys against ``oracle_factorize``, the round
loop on public tuple-keyed elements that it replaced: both must give the
same walls term for term.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivermoduli.quiver import Refinement
from quivermoduli.symfunc import partitions
from quivermoduli.tropical import n_trop, refinement_scan
from quivermoduli.vertex import (
    OrderedFactorization,
    TruncatedElement,
    WallAutomorphism,
    _canon,
    _degree,
    _Packing,
    _slope_key,
    compose_apply,
    extract_n_trop,
    factorize,
    ks_operators,
    token_classes,
)


def oracle_factorize(ops):
    """The slope-ordered factorization by the round loop on public elements.

    Iterative normalization by nilpotent degree (total class count): compare
    the slope-ordered candidate with the input on x and y, attribute each
    lowest-degree discrepancy monomial to its primitive direction (solving the
    linearized coefficient, x/y cross-checked where both apply), and repeat.
    Each round settles a degree and degrees stop at the sum of the caps.
    """
    ops = list(ops)
    x, y = TruncatedElement.monomial(1, 0), TruncatedElement.monomial(0, 1)
    target_x, target_y = compose_apply(ops, x), compose_apply(ops, y)
    classes = {cls for op in ops for (_, _, s) in op.f.terms for cls, _ in s}

    walls = {}  # direction -> wall, kept across rounds with its eps powers
    for _ in range(sum(cls[2] for cls in classes) + 2):
        ordered = [walls[d] for d in sorted(walls, key=_slope_key)]
        diff_x = target_x - compose_apply(ordered, x)
        diff_y = target_y - compose_apply(ordered, y)
        if diff_x.is_zero() and diff_y.is_zero():
            return OrderedFactorization(ordered)

        level = min(_degree(s) for diff in (diff_x, diff_y) for (_, _, s) in diff.terms)
        updates = {}
        for diff, (dx, dy) in ((diff_x, (1, 0)), (diff_y, (0, 1))):
            for (A, B, s), c in diff.terms.items():
                if _degree(s) != level:
                    continue
                exps = (A - dx, B - dy)
                if min(exps) < 0 or exps == (0, 0):
                    raise ArithmeticError("discrepancy off the wall grid: %r" % ((A, B, s),))
                g = gcd(*exps)
                a, b = exps[0] // g, exps[1] // g
                slope = -b if dx else a  # x picks up f^-b, y picks up f^a
                if not slope:
                    raise ArithmeticError("%s moved along its own wall" % "xy"[dy])
                gamma = _canon(Fraction(c) / slope)
                key = ((a, b), exps, s)
                if updates.get(key, gamma) != gamma:
                    raise ArithmeticError(
                        "inconsistent x/y coefficients on wall %r: %r vs %r"
                        % ((a, b), updates[key], gamma))
                updates[key] = gamma

        grown = {}
        for (direction, exps, s), gamma in updates.items():
            old = walls.get(direction)
            f = grown.get(direction) or (old.f if old else TruncatedElement.one())
            grown[direction] = f + TruncatedElement({(exps[0], exps[1], s): gamma})
        for direction, f in grown.items():
            walls[direction] = WallAutomorphism(direction, f)

    raise RuntimeError("ordered factorization did not converge (implementation bug)")


def assert_same_walls(ops):
    """factorize and the oracle give the same walls, term for term."""
    fact, expected = factorize(ops), oracle_factorize(ops)
    assert [w.direction for w in fact.walls] == [w.direction for w in expected.walls]
    for wall, other in zip(fact.walls, expected.walls):
        assert wall.f.terms == other.f.terms, wall.direction
    return fact


def _token(cls, i):
    side, w = cls[0], cls[1]
    return (side, w, 1, i)  # a cap-1 class of its own


def labelled(el):
    """Image in the labelled ring: E_k of a class goes to the sum of all
    products of k distinct tokens of that class."""
    out = {}
    for (a, b, s), c in el.terms.items():
        choices = [combinations([_token(cls, i) for i in range(1, cls[2] + 1)], k)
                   for cls, k in s]
        for picks in product(*choices):
            tokens = [t for pick in picks for t in pick]
            key = (a, b, tuple(sorted((t, 1) for t in tokens)))
            out[key] = out.get(key, 0) + c
    return TruncatedElement(out)


def labelled_walls(cls):
    """The per-token walls of a class: 1 + w t x^w for a sink token t,
    1 + w t y^w for a source token."""
    side, w, m = cls
    direction, exps = ((1, 0), (w, 0)) if side == "u" else ((0, 1), (0, w))
    return [WallAutomorphism(direction, TruncatedElement.one()
                             + TruncatedElement.monomial(*exps, (_token(cls, i),), w))
            for i in range(1, m + 1)]


def _single_part(w):
    mult = {}
    for x in w:
        mult[x] = mult.get(x, 0) + 1
    return (tuple(sorted(mult.items())),)


def _check_pair(w1, w2):
    r = Refinement.of(_single_part(w1), _single_part(w2))
    ops = ks_operators(r)
    labelled_ops = []
    for op, cls in zip(ops, token_classes(r)):
        walls = labelled_walls(cls)
        merged = TruncatedElement.one()
        for lop in walls:
            merged = merged * lop.f
        assert labelled(op.f) == merged  # one class wall = its token walls
        labelled_ops += walls

    fact = assert_same_walls(ops)
    lfact = assert_same_walls(labelled_ops)
    assert [w.direction for w in fact.walls] == [w.direction for w in lfact.walls]
    for wall, lwall in zip(fact.walls, lfact.walls):
        assert labelled(wall.f) == lwall.f, wall.direction

    d, e = sum(w1), sum(w2)
    g = gcd(d, e)
    lwall = lfact.wall((e // g, d // g))
    all_tokens = [_token(cls, i) for cls in token_classes(r)
                  for i in range(1, cls[2] + 1)]
    count = lwall.f.coefficient(e, d, all_tokens) if lwall else 0
    if g == 1:  # the framed cross-check of the read-out needs a coprime type
        assert extract_n_trop(fact, r) == count
    return count


def test_rings_agree_on_coprime_pairs_to_size_7():
    checked = 0
    for total in range(2, 8):
        for d in range(1, total):
            e = total - d
            if gcd(d, e) != 1:
                continue
            for w1 in partitions(d):
                for w2 in partitions(e):
                    w1, w2 = tuple(sorted(w1)), tuple(sorted(w2))
                    assert _check_pair(w1, w2) == n_trop(w1, w2), (w1, w2)
                    checked += 1
    assert checked == 127


weight_vectors = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda w: tuple(sorted(w)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(weight_vectors, weight_vectors)
def test_rings_agree_on_random_small_pairs(w1, w2):
    # non-coprime pairs too: the whole factorization must agree, even where
    # the top coefficient is not the connected count
    count = _check_pair(w1, w2)
    if gcd(sum(w1), sum(w2)) == 1:
        assert count == n_trop(w1, w2)


class_counts = st.dictionaries(
    st.sampled_from([("u", 1, 2), ("u", 2, 3), ("v", 1, 1), ("v", 3, 2)]),
    st.integers(0, 3), max_size=3)
elements = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), class_counts, st.integers(-3, 3)),
    max_size=4).map(lambda terms: sum(
        (TruncatedElement.monomial(a, b, s, c) for a, b, s, c in terms),
        TruncatedElement.zero()))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(elements, elements)
def test_product_is_the_labelled_product(p, q):
    # E_a E_b = C(a+b, a) E_(a+b) is exactly what e_a e_b gives on tokens
    assert labelled(p * q) == labelled(p) * labelled(q)
    assert labelled(p + q) == labelled(p) + labelled(q)


def test_packed_factorization_matches_the_oracle_on_the_scan():
    checked = 0
    for _, _, r in refinement_scan(8):
        assert_same_walls(ks_operators(r))
        checked += 1
    assert checked > 100


# input walls off the grading of their classes: any exponent along the ray,
# Fraction coefficients, caps 1-9
DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)]


@st.composite
def input_walls(draw):
    caps = draw(st.lists(st.integers(1, 9), min_size=1, max_size=2))
    classes = [("c", i, cap) for i, cap in enumerate(caps)]
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.sampled_from(DIRECTIONS))
        f = TruncatedElement.one()
        for _ in range(draw(st.integers(1, 2))):
            k = draw(st.integers(1, 3))
            counts = draw(st.dictionaries(st.sampled_from(classes), st.integers(1, 3),
                                          min_size=1, max_size=2))
            c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)
                     .filter(bool))
            f = f + TruncatedElement.monomial(k * a, k * b, counts, c)
        ops.append(WallAutomorphism((a, b), f))
    return ops


@settings(derandomize=True, max_examples=40, deadline=None)
@given(input_walls())
@example([WallAutomorphism((1, 0), TruncatedElement.one()  # x^2 u, u of weight 1
                           + TruncatedElement.monomial(2, 0, (("u", 1, 1),))),
          WallAutomorphism((0, 1), TruncatedElement.one()
                           + TruncatedElement.monomial(0, 1, (("v", 1, 1),)))])
def test_packed_factorization_matches_the_oracle_off_the_grading(ops):
    assert_same_walls(ops)


@pytest.mark.parametrize("cap", range(1, 10))
def test_packed_product_at_the_guard_bits(cap):
    # caps 1..9 cover 2^k - 1 and 2^k; two classes side by side, so a count
    # that passed its cap without setting its guard bit would carry into the
    # field above it
    u, v = ("u", 1, cap), ("v", 1, cap)
    layout = _Packing([u, v], 1)

    def packed(a, i):
        return layout.pack(TruncatedElement.monomial(0, 0, {u: a, v: i}))

    for a, b, i, j in product(range(cap + 1), repeat=4):
        acc = {}
        layout._products(acc, packed(a, i).items(), packed(b, j).items())
        got = TruncatedElement(layout.unpack(layout._plus({}, acc)))
        if a + b <= cap and i + j <= cap:
            expected = TruncatedElement.monomial(0, 0, {u: a + b, v: i + j},
                                                 comb(a + b, a) * comb(i + j, i))
        else:
            expected = TruncatedElement.zero()
        assert got == expected, (a, b, i, j)
