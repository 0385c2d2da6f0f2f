"""Recursive tropical curve counts and the degeneration sum that ties them
to quiver Euler characteristics.

A pair of weakly increasing weight vectors (w1, w2) determines a count
N(w1, w2) of rational tropical curves with those prescribed unbounded edge
weights; it satisfies a recursion obtained by splitting off the last
(largest) entry of w2 into admissible decompositions.  The Euler
characteristic of the bipartite quiver moduli space of a pair of ordered
partitions (P1, P2) is the degeneration sum over pairs of weight vectors

    sum N(w1, w2) R_(P1|w1) R_(P2|w2) / (|Aut w1| |Aut w2|),

with N the recursion (``tropical``), the wall-function count (``vertex``)
or the stable-tree count of the support quiver (``mps``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import groupby, product
from math import comb, factorial, gcd, prod

from .localization import admissible_decompositions, chi_trees
from .quiver import Refinement, as_int, partition_pair
from .symfunc import mps_weight, multiplicity_vectors, partitions, weighted_splits


def as_weight_vector(entries):
    w = tuple(as_int(x, "weight vector entry") for x in entries)
    if any(x < 1 for x in w) or list(w) != sorted(w):
        raise ValueError("weight vector entries must be positive and weakly increasing")
    return w


def weight_vector_of(k_side):
    """Weight vector induced by one side of a refinement: the weight-w
    segment carries m_w entries, segments in increasing weight order."""
    return tuple(sorted(w for part in k_side for w, c in part for _ in range(c)))


def ramification_factor(P, w):
    """R_{P|w} = (number of compatible set partitions) * prod_j (-1)^(w_j-1)/w_j^2.

    A set partition of the index set of ``w`` into len(P) ordered (possibly
    empty) parts is compatible when the weights in part j sum to P_j.
    """
    P = tuple(as_int(p, "part") for p in P)
    w = as_weight_vector(w)
    if sum(P) != sum(w):
        raise ValueError("|P| = %d and |w| = %d differ" % (sum(P), sum(w)))
    count = sum(mult for _, mult in _compatible_assignments(w, P))
    factor = Fraction(1)
    for x in w:
        factor *= Fraction((-1) ** (x - 1), x * x)
    return count * factor


def _compatible_assignments(weights, targets):
    """Maps index -> part with per-part weight sums equal to targets, one per
    orbit under permutations of equal entries of the weakly increasing
    ``weights``.

    Returns ``(groups, multiplicity)`` pairs: ``groups[p]`` is the weakly
    increasing weight vector sent to part p, and ``multiplicity`` is the
    number of labelled maps with those groups.  Each run of g equal weights
    is split among the parts, which gives g!/prod c_p! labelled maps.
    """
    runs = [(x, len(list(run))) for x, run in groupby(weights)]
    n = len(targets)
    results = []

    def rec(r, remaining, groups, mult):
        if r == len(runs):
            if not any(remaining):
                results.append((tuple(groups), mult))
            return
        x, g = runs[r]
        caps = [left // x for left in remaining]
        for counts, weight in weighted_splits(g, n, caps):
            rec(r + 1,
                [left - x * c for left, c in zip(remaining, counts)],
                [grp + (x,) * c for grp, c in zip(groups, counts)],
                mult * weight)

    rec(0, list(targets), [()] * n, 1)
    return results


def n_trop(w1, w2, normalize_repeats=True):
    """Tropical count for a pair of weight vectors, by recursion on the last
    entry of w2.

    Base cases: a single vertex ((a), (b)) counts a*b; a one-sided single
    entry counts 1 (an unbounded line); any other one-sided vector counts 0.
    Otherwise the last entry w of w2 is split off: sum over w-admissible
    decompositions (one representative per multiset of pieces) and over
    compatible set partitions of the remaining indices, of the product of
    the piece counts times the glueing multiplicities
    |e_k sum_{i<k} d_i - d_k (sum_{i<k} e_i + w)|, divided by prod c! over
    repeated pieces.  Set partitions that differ only by permuting equal
    weights give the same piece counts, so they are enumerated once per
    orbit and weighted by the orbit size, never listed one by one.
    ``normalize_repeats=False`` skips the division by prod c! at this level
    (sub-counts stay on the validated convention): the over-counting guard
    exercised by the negative-control tests.
    """
    w1 = as_weight_vector(w1) if w1 else ()
    w2 = as_weight_vector(w2) if w2 else ()
    if not w1 and not w2:
        raise ValueError("at least one side must be nonempty")
    return _n_trop(w1, w2, normalize_repeats)


@cache
def _n_trop(w1, w2, normalize_repeats):
    """The body of :func:`n_trop` on validated weight vectors; sub-counts
    go through ``n_trop`` again."""
    if not w2:
        return 1 if len(w1) == 1 else 0
    if not w1:
        return 1 if len(w2) == 1 else 0
    if len(w1) == 1 and len(w2) == 1:
        return w1[0] * w2[0]
    w = w2[-1]
    rest2 = w2[:-1]
    d, e = sum(w1), sum(w2)
    total = Fraction(0)
    for decomp in admissible_decompositions(d, e, w):
        n = len(decomp)
        d_targets = tuple(di for di, _ in decomp)
        e_targets = tuple(ei for _, ei in decomp)
        assigns1 = _compatible_assignments(w1, d_targets)
        if not assigns1:
            continue
        assigns2 = _compatible_assignments(rest2, e_targets)
        if not assigns2:
            continue

        # glueing multiplicities; admissibility makes every factor nonzero
        run_d = run_e = 0
        mult = 1
        for dk, ek in decomp:
            mult *= abs(ek * run_d - dk * (run_e + w))
            run_d += dk
            run_e += ek

        sub = 0
        for groups1, mult1 in assigns1:
            for groups2, mult2 in assigns2:
                term = mult1 * mult2
                for p in range(n):
                    term *= n_trop(groups1[p], groups2[p])
                    if not term:
                        break
                sub += term
        if not sub:
            continue

        contribution = Fraction(sub * mult)
        if normalize_repeats:
            for piece in set(decomp):
                contribution /= factorial(decomp.count(piece))
        total += contribution
    if total.denominator != 1:
        raise ArithmeticError("tropical recursion produced a non-integer: %r" % total)
    return int(total)


def refinements(P1, P2):
    """All refinements (k^1, k^2) of a pair of ordered partitions: every part
    p_ij is split into weighted pieces with sum w * k_{w,j} = p_ij."""
    sides2 = _side_choices(P2)
    return [Refinement.of(k1, k2) for k1, _ in _side_choices(P1) for k2, _ in sides2]


def refinement_scan(max_size):
    """All refinements of coprime ordered-partition pairs up to a size bound.

    Counts only depend on parts through their multiset, so weakly decreasing
    representatives are scanned; each pair of weight vectors is yielded once,
    as (p1, p2, refinement), and only the yielded refinements are built.
    """
    seen = set()
    for total in range(2, max_size + 1):
        for d in range(1, total):
            if gcd(d, total - d) != 1:
                continue
            for p1 in sorted(partitions(d)):
                for p2 in sorted(partitions(total - d)):
                    sides2 = _side_choices(p2)
                    for k1, w1 in _side_choices(p1):
                        for k2, w2 in sides2:
                            if (w1, w2) not in seen:
                                seen.add((w1, w2))
                                yield p1, p2, Refinement.of(k1, k2)


def _side_choices(P):
    """(one multiplicity vector per part, the weight vector they induce) for
    every refinement of one side."""
    return [(k, weight_vector_of(m.items() for m in k))
            for k in product(*map(multiplicity_vectors, P))]


def _refinement_factor(r):
    """prod_{i,j,w} (-1)^(k_{w,j}(w-1)) / (k_{w,j}! * w^(2 k_{w,j})): the weight
    of one refinement in the degeneration sum."""
    out = Fraction(1)
    for side in (r.k1, r.k2):
        for part in side:
            for w, c in part:
                out *= Fraction((-1) ** (c * (w - 1)), factorial(c) * w ** (2 * c))
    return out


@cache
def _side_coefficients(P):
    """(w, R_(P|w) / |Aut w|) pairs over the weight vectors w refining the
    tuple P, where w has m_x entries of weight x and |Aut w| = prod_x m_x!.
    Part by part, in integers: a part adds one multiplicity vector of
    itself, and k more entries of weight x multiply the number of compatible
    maps (entry -> part) by C(m_x + k, k); that number times mps_weight(m) /
    prod_x x^(m_x) is R_(P|w) / |Aut w|."""
    counts = {(): 1}
    options = {p: multiplicity_vectors(p) for p in set(P)}
    for p in P:
        step = {}
        for key, n in counts.items():
            for option in options[p]:
                m, labelled = dict(key), n
                for x, k in option.items():
                    have = m.get(x, 0)
                    labelled *= comb(have + k, k)
                    m[x] = have + k
                key_out = tuple(sorted(m.items()))
                step[key_out] = step.get(key_out, 0) + labelled
        counts = step
    return tuple((weight_vector_of((key,)),
                  n * mps_weight(dict(key)) / prod(x ** m for x, m in key))
                 for key, n in counts.items())


def mps_euler(P1, P2):
    """Euler characteristic of the bipartite moduli space as the degeneration
    sum with N(w1, w2) the stable-tree count of the one-part refinement."""
    return degeneration_total(P1, P2, trop_count=lambda w1, w2: chi_trees(
        Refinement.of((Counter(w1),), (Counter(w2),))))


def degeneration_total(P1, P2, trop_count=None):
    """Euler characteristic as the degeneration sum over pairs of weight
    vectors, sum N(w1, w2) R_(P1|w1) R_(P2|w2) / (|Aut w1| |Aut w2|).
    N is the recursion :func:`n_trop` unless ``trop_count(w1, w2)`` gives
    another source of tropical counts (e.g. wall-function extraction)."""
    P1, P2 = partition_pair(P1, P2)
    if gcd(sum(P1), sum(P2)) != 1:
        raise ValueError("sizes %d, %d are not coprime" % (sum(P1), sum(P2)))
    count = trop_count if trop_count is not None else n_trop
    side2 = _side_coefficients(P2)
    total = Fraction(0)
    for w1, c1 in _side_coefficients(P1):
        total += c1 * sum(c2 * count(w1, w2) for w2, c2 in side2)
    if total.denominator != 1:
        raise ArithmeticError("degeneration total is not an integer: %r" % total)
    return int(total)
