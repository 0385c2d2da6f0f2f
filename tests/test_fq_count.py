"""[R_d^sst](q) counts the theta-semistable representations of dimension d
over F_q.  Here that count is made by brute force (every tuple of matrices,
every tuple of subspaces closed under the arrows, the slope test) and
compared with the HN class times [G_d] at L = q: an oracle that shares no
code with the HN recursion."""

from fractions import Fraction
from itertools import product

import pytest

from quivermoduli.motive import gl_class, hn_sst_class
from quivermoduli.quiver import Quiver, Stability


def _span(basis, n, q):
    return frozenset(tuple(sum(c * b[i] for c, b in zip(cs, basis)) % q for i in range(n))
                     for cs in product(range(q), repeat=len(basis)))


def _subspaces(n, q):
    """Every subspace of F_q^n as (basis, set of its vectors)."""
    found = {_span((), n, q): ()}
    frontier = list(found.items())
    while frontier:
        grown = []
        for span, basis in frontier:
            for v in product(range(q), repeat=n):
                if v not in span:
                    bigger = _span(basis + (v,), n, q)
                    if bigger not in found:
                        found[bigger] = basis + (v,)
                        grown.append((bigger, basis + (v,)))
        frontier = grown
    return [(basis, span) for span, basis in found.items()]


def _apply(matrix, v, q):
    return tuple(sum(a * x for a, x in zip(row, v)) % q for row in matrix)


def count_semistable(Q, stab, d, q):
    """The number of representations of dimension d over F_q with no
    subrepresentation of larger slope."""
    ids = Q.ids
    theta, kappa = stab.theta_map(), Q.levels()

    def mu(e):
        return Fraction(sum(theta.get(v, 0) * e[v] for v in ids),
                        sum(kappa[v] * e[v] for v in ids))

    mu_d = mu(d)
    subspaces = {v: _subspaces(d[v], q) for v in ids}
    # the subspace tuples whose dimension vector would destabilize
    unstable = []
    for choice in product(*(subspaces[v] for v in ids)):
        e = {v: len(basis) for v, (basis, _) in zip(ids, choice)}
        if any(e.values()) and mu(e) > mu_d:
            unstable.append(dict(zip(ids, choice)))
    maps = [[tuple(tuple(entries[r * d[s]:(r + 1) * d[s]]) for r in range(d[t]))
             for entries in product(range(q), repeat=d[s] * d[t])]
            for s, t in Q.arrows]
    count = 0
    for rep in product(*maps):
        if not any(all(_apply(m, b, q) in sub[t][1]
                       for m, (s, t) in zip(rep, Q.arrows) for b in sub[s][0])
                   for sub in unstable):
            count += 1
    return count


LOOP = Quiver((("a", 1), ("b", 1)), (("a", "b"), ("b", "b")))
# u and v form one symmetry class, with arrows inside it and arrows both
# ways to the earlier class {w}: every term of the running ext of the
# stratum walk is nonzero
CYCLES = Quiver((("w", 1), ("u", 1), ("v", 1)),
                (("w", "u"), ("w", "v"), ("u", "v"), ("v", "u"), ("u", "w"), ("v", "w")))


@pytest.mark.parametrize("Q, theta, d, q, count", [
    (Quiver.kronecker(1), {"i1": 1}, {"i1": 1, "j1": 1}, 2, 1),
    (Quiver.kronecker(1), {"i1": 1}, {"i1": 1, "j1": 1}, 3, 2),
    (Quiver.kronecker(2), {"i1": 1}, {"i1": 1, "j1": 1}, 2, 3),
    (Quiver.kronecker(3), {"i1": 1}, {"i1": 1, "j1": 2}, 2, 42),
    (Quiver.kronecker(2), {"i1": 1}, {"i1": 1, "j1": 2}, 3, 48),
    # not coprime: strictly semistable representations count too
    (Quiver.kronecker(2), {"i1": 1}, {"i1": 2, "j1": 2}, 2, 192),
    (Quiver.kronecker(2), {"i1": 1}, {"i1": 2, "j1": 3}, 2, 1008),
    # two interchangeable sinks, one symmetry class
    (Quiver.complete_bipartite(1, 2), {"i1": 1}, {"i1": 2, "j1": 1, "j2": 1}, 2, 6),
    # a loop at the sink
    (LOOP, {"a": 1}, {"a": 1, "b": 2}, 2, 24),
    (LOOP, {"a": 1}, {"a": 1, "b": 2}, 3, 432),
    (CYCLES, {"w": 1}, {"w": 1, "u": 1, "v": 1}, 3, 540),
    (CYCLES, {"w": 1}, {"w": 2, "u": 1, "v": 1}, 2, 384),
    (CYCLES, {"w": 1}, {"w": 1, "u": 2, "v": 1}, 2, 288),
])
def test_hn_class_counts_semistable_representations_over_fq(Q, theta, d, q, count):
    stab = Stability.of(theta)
    assert count_semistable(Q, stab, d, q) == count
    r_sst = hn_sst_class(Q, stab, d)
    for v in Q.ids:
        r_sst = r_sst * gl_class(d[v])
    assert r_sst(q) == count
