"""Property tests on random inputs: the four chi pipelines agree, and the
motivic classes have the properties the theory gives them.

The four methods (HN recursion, MPS stable-tree sum, tropical recursion,
vertex-group factorization) share no counting code, so their agreement on
random coprime pairs of ordered partitions is the correctness argument.
On random small acyclic quivers with theta-coprime dimension vectors, where
the moduli space is smooth and projective, the Poincare polynomial has
nonnegative coefficients and is palindromic of degree twice the dimension;
on random small quivers, loops and cycles allowed, the motivic MPS identity
and its dual hold.
"""

from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_orbits import small_quivers

from quivermoduli.motive import (
    dual_mps_check,
    euler_char,
    is_theta_coprime,
    motivic_mps_check,
    poincare,
)
from quivermoduli.quiver import bipartite_setup, euler_form
from quivermoduli.symfunc import partitions
from quivermoduli.tropical import degeneration_total, mps_euler
from quivermoduli.vertex import n_trop_via_factorization


@st.composite
def coprime_partition_pairs(draw, max_total=8):
    """Ordered partitions (p1, p2) with gcd(|p1|, |p2|) = 1 and total <= max_total."""
    total = draw(st.integers(2, max_total))
    d = draw(st.integers(1, total - 1).filter(lambda d: gcd(d, total - d) == 1))
    p1 = draw(st.sampled_from(partitions(d)).flatmap(st.permutations))
    p2 = draw(st.sampled_from(partitions(total - d)).flatmap(st.permutations))
    return tuple(p1), tuple(p2)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(coprime_partition_pairs())
def test_four_methods_agree_on_random_coprime_pairs(pair):
    p1, p2 = pair
    Q, d, stab = bipartite_setup(p1, p2)
    hn = euler_char(Q, stab, d)
    assert mps_euler(p1, p2) == hn
    assert degeneration_total(p1, p2) == hn
    assert degeneration_total(p1, p2, trop_count=n_trop_via_factorization) == hn


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_quivers(max_dim=2, acyclic=True))
def test_poincare_is_nonnegative_and_palindromic(case):
    Q, stab, d = case
    assume(is_theta_coprime(Q, stab, d))
    p = poincare(Q, stab, d)
    assert all(c >= 0 for c in p.c)
    if not p.is_zero():  # an empty moduli space makes duality vacuous
        assert list(p.c) == list(reversed(p.c))
        assert p.degree() == 2 * (1 - euler_form(Q, d, d))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_quivers(max_dim=2))
def test_motivic_mps_and_dual_identities_hold(case):
    Q, stab, d = case
    assume(is_theta_coprime(Q, stab, d))
    vertices = [v for v in Q.ids if d[v] and Q.level(v) == 1]
    assume(vertices)
    for v in vertices:
        assert motivic_mps_check(Q, stab, v, d), v
        assert dual_mps_check(Q, stab, v, d), v
