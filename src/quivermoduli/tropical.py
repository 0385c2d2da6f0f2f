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

from fractions import Fraction
from functools import cache
from itertools import groupby, product
from math import comb, factorial, gcd, lcm, prod

from .localization import _admissible_decompositions, chi_trees
from .quiver import Refinement, as_int, partition_pair
from .symfunc import mps_weight, multiplicity_vectors, partitions


def as_weight_vector(entries):
    """The tuple of ``entries`` if each is an int (a bool is not) and they
    are positive and weakly increasing, else a ValueError; a string or a
    value that is not iterable is a ValueError too, not an empty vector.
    A tuple is returned as it is, so a memo key shares it."""
    w = entries
    if type(w) is not tuple:
        if isinstance(w, (str, bytes)):
            raise ValueError("weight vector %r is not a sequence of ints" % (w,))
        try:
            w = tuple(w)
        except TypeError:
            raise ValueError("weight vector %r is not a sequence of ints" % (w,)) from None
    previous = 1
    for x in w:
        if type(x) is not int or x < previous:
            as_int(x, "weight vector entry")
            raise ValueError("weight vector entries must be positive and weakly increasing")
        previous = x
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

    def maps(runs, parts):
        if not parts:
            return 1
        return sum(ways * maps(left, parts[1:]) for _, left, ways in _run_splits(runs, parts[0]))

    factor = Fraction(1)
    for x in w:
        factor *= Fraction((-1) ** (x - 1), x * x)
    return maps(_runs(w), P) * factor


def _runs(w):
    """The runs of equal entries of a weakly increasing weight vector, as
    (weight, count) pairs."""
    return tuple((x, len(list(run))) for x, run in groupby(w))


@cache
def _run_splits(runs, target):
    """Every way to take entries of weight sum ``target`` from ``runs``:
    (taken, left, ways) triples, with ``taken`` the weight vector taken,
    ``left`` the runs that remain (emptied ones dropped) and ``ways`` =
    prod C(c, k) the number of labelled choices, k entries from each run of
    c.  Over the parts of a map, these products give the orbit size
    g!/prod c_p! of each run of g equal weights."""
    out = [((), (), 1, target)]
    for x, c in runs:
        out = [(taken + (x,) * k, left + ((x, c - k),) if k < c else left, ways * comb(c, k),
                rem - k * x)
               for taken, left, ways, rem in out for k in range(min(c, rem // x) + 1)]
    return tuple((taken, left, ways) for taken, left, ways, rem in out if not rem)


def n_trop(w1, w2):
    """Tropical count for a pair of weight vectors, by recursion on the last
    entry of w2.

    Base cases: a single vertex ((a), (b)) counts a*b; a one-sided single
    entry counts 1 (an unbounded line); any other one-sided vector counts 0.
    Otherwise the last entry w of w2 is split off: sum over w-admissible
    decompositions (one representative per multiset of pieces) and over
    compatible set partitions of the remaining indices, of the product of
    the piece counts times the glueing multiplicities
    |e_k sum_{i<k} d_i - d_k (sum_{i<k} e_i + w)|, divided by prod c! over
    repeated pieces.  Set partitions are summed piece by piece: each piece
    takes its entries from the runs of equal weights left over, weighted by
    the number of labelled choices, so they are never listed one by one.
    The division is exact for each decomposition: identical pieces take
    disjoint nonempty sets of labelled entries, so permuting them acts
    freely on the labelled maps.  Without it, ((1,1),(1,1,1)) would count 8
    instead of the 6 stable trees.
    """
    w1, w2 = as_weight_vector(w1), as_weight_vector(w2)
    if not w1 and not w2:
        raise ValueError("at least one side must be nonempty")
    return _n_trop(w1, w2)


@cache
def _n_trop(w1, w2):
    """The body of :func:`n_trop` on validated weight vectors, in integers;
    sub-counts go through ``n_trop`` again."""
    if not w2:
        return 1 if len(w1) == 1 else 0
    if not w1:
        return 1 if len(w2) == 1 else 0
    if len(w1) == 1 and len(w2) == 1:
        return w1[0] * w2[0]
    w = w2[-1]
    runs1, runs2 = _runs(w1), _runs(w2[:-1])
    total = 0
    for decomp in _admissible_decompositions(sum(w1), sum(w2), w):
        sub = _piece_sum(decomp, runs1, runs2)
        if not sub:
            continue
        # glueing multiplicities; admissibility makes every factor nonzero
        run_d = run_e = 0
        for dk, ek in decomp:
            sub *= abs(ek * run_d - dk * (run_e + w))
            run_d += dk
            run_e += ek
        contribution, rem = divmod(sub, prod(factorial(decomp.count(piece))
                                             for piece in set(decomp)))
        if rem:
            raise ArithmeticError("tropical recursion produced a non-integer at %r" % (decomp,))
        total += contribution
    return total


def _piece_sum(pieces, runs1, runs2):
    """Sum over the maps of the entries of ``runs1`` and ``runs2`` onto the
    (d_p, e_p) ``pieces`` with those weight sums, of the product of the
    piece counts, each map weighted by its number of labelled maps."""
    if not pieces:
        return 1
    (dp, ep), rest = pieces[0], pieces[1:]
    total = 0
    for taken1, left1, ways1 in _run_splits(runs1, dp):
        for taken2, left2, ways2 in _run_splits(runs2, ep):
            count = n_trop(taken1, taken2)
            if count:
                total += ways1 * ways2 * count * _piece_sum(rest, left1, left2)
    return total


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
    """(den, ((w, n), ...)) over the weight vectors w refining the tuple P,
    where n / den = R_(P|w) / |Aut w|, w has m_x entries of weight x,
    |Aut w| = prod_x m_x! and den is the least common denominator.
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
    values = [(weight_vector_of((key,)), n * mps_weight(dict(key)) / prod(x ** m for x, m in key))
              for key, n in counts.items()]
    den = lcm(*(c.denominator for _, c in values))
    return den, tuple((w, c.numerator * (den // c.denominator)) for w, c in values)


def mps_euler(P1, P2):
    """Euler characteristic of the bipartite moduli space as the degeneration
    sum with N(w1, w2) the stable-tree count of the one-part refinement,
    built straight from the runs of the weight vectors the sum made.  It
    relies on that count being symmetric, as :func:`degeneration_total`
    asks each pair once, in one orientation."""
    return degeneration_total(P1, P2, trop_count=lambda w1, w2: chi_trees(
        Refinement((_runs(w1),), (_runs(w2),))))


def degeneration_total(P1, P2, trop_count=None):
    """Euler characteristic as the degeneration sum over pairs of weight
    vectors, sum N(w1, w2) R_(P1|w1) R_(P2|w2) / (|Aut w1| |Aut w2|).
    N is the recursion :func:`n_trop` unless ``trop_count(w1, w2)`` gives
    another source of tropical counts (e.g. wall-function extraction).

    The count sees only the tuples that :func:`_side_coefficients` built
    from the checked partitions, so they are weight vectors already and the
    default count skips the check in ``n_trop``.  The sum runs in integers,
    over one common denominator per side, and divides exactly once at the
    end; a remainder is an ArithmeticError.

    ``trop_count`` must be symmetric, N(w1, w2) = N(w2, w1): the reflection
    (x, y) -> (y, x) swaps the two toric divisors.  Each pair is asked once,
    shorter vector first and ties broken by tuple order, so a pair and its
    mirror image share one memo entry.  The shorter-first rule keeps the
    family (2, 1^(2n+1)) in its own orientation, where the recursion splits
    the long side.  ``hn`` does not go through this sum, so it still checks
    the symmetry the other three methods rely on."""
    P1, P2 = partition_pair(P1, P2)
    if gcd(sum(P1), sum(P2)) != 1:
        raise ValueError("sizes %d, %d are not coprime" % (sum(P1), sum(P2)))
    count = trop_count if trop_count is not None else _n_trop
    den1, side1 = _side_coefficients(P1)
    den2, side2 = _side_coefficients(P2)
    total = 0
    for w1, n1 in side1:
        total += n1 * sum(n2 * (count(w1, w2) if (len(w1), w1) <= (len(w2), w2)
                                else count(w2, w1))
                          for w2, n2 in side2)
    chi, rem = divmod(total, den1 * den2)
    if rem:
        raise ArithmeticError("degeneration total is not an integer: %r"
                              % Fraction(total, den1 * den2))
    return chi
