"""Property tests on random inputs: the four chi pipelines agree.

The four methods (HN recursion, MPS stable-tree sum, tropical recursion,
vertex-group factorization) share no counting code, so their agreement on
random coprime pairs of ordered partitions is the correctness argument.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli.motive import euler_char
from quivermoduli.quiver import bipartite_setup
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
