"""The divided-power vertex ring against the labelled square-zero ring.

Every token of a class becomes its own cap-1 class, which is the per-token
ring the divided-power ring replaces.  The map E_k(c) -> e_k(tokens of c)
is an injective ring map, so the two rings must give the same factorization
term for term, and the same tropical counts.
"""

from itertools import combinations, product
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli.quiver import Refinement
from quivermoduli.symfunc import partitions
from quivermoduli.tropical import n_trop
from quivermoduli.vertex import (
    TruncatedElement,
    WallAutomorphism,
    extract_n_trop,
    factorize,
    ks_operators,
    token_classes,
)


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

    fact = factorize(ops)
    lfact = factorize(labelled_ops)
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
