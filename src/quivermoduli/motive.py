"""Motivic classes of semistable loci and the identities between them.

Classes of stacks [R_d^sst]/[G_d] are computed by Reineke's resolution of
the Harder-Narasimhan recursion (arXiv:math/0204059) and realized inside
the rational function field Q(L): every class reached by the recursion is
a polynomial in L divided by powers of L and of factors (L^n - 1).  The
recursion runs on class-count coordinates (per class of interchangeable
vertices, how many vertices carry each value), and depends on the
per-class data alone, so every quiver with the same class data shares it.
It runs in Z[L], on the classes [R_D^sst] themselves, which count
F_q-points: with the Gaussian binomials G_e = prod_v [d_v choose e_v]_L
and the arrow count ext(r, e) = sum over the arrows i -> j of r_i e_j,

    Phi_b(E) = L^(dim R_E)
               - sum_(0 < e < E, mu(e) > b) G_e L^ext(E-e, E) Phi_b(e),
    R(D)     = Phi_mu(D)(D),

for R(D) = [R_D^sst]: a signed sum over the chains 0 < e_1 < ... < D whose
members have slope above mu(D), each step carrying the class of all
representations of its difference.  Then [R_D^sst]/[G_D] is
R(D) / (L^(sum_v binom(d_v, 2)) den(D)) with den(D) = prod_v prod_(k <= d_v)
(L^k - 1).  ``MotiveClass`` is another name for
:class:`ratfunc.RationalFunction`, which keeps exactly that shape in a
canonical reduced form, so classes compare and hash by value; the quotient
is reduced once per D that a caller asks for.  On top of the recursion sit
the Poincare polynomial / Euler characteristic extraction for coprime
dimension vectors, and the degeneration identities that trade a vertex for
its weighted blow-up (the MPS formula, its partition form, and the dual
form).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, lcm

from .quiver import as_int, check_quiver, hat_quiver
from .ratfunc import ONE, Poly, RationalFunction, _add_into, _poly, linear_sum
from .symfunc import (Partition, mps_weight, multiplicity_vectors, p_to_e, partitions,
                      weighted_splits)

MotiveClass = RationalFunction

# -- identity classes ---------------------------------------------------------


def gl_class(n):
    """[GL_n] = prod_{i=0}^{n-1} (L^n - L^i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = Poly((1,))
    for i in range(n):
        out = out * (Poly.x_pow(n) - Poly.x_pow(i))
    return MotiveClass(out)


def gm_class():
    """[G_m] = L - 1."""
    return MotiveClass(Poly((-1, 1)))


def proj_class(n):
    """[P^(n-1)] = (L^n - 1)/(L - 1) = 1 + L + ... + L^(n-1)."""
    if n < 1:
        raise ValueError("projective space of negative dimension")
    return MotiveClass(Poly((1,) * n))


# -- the Harder-Narasimhan solver ---------------------------------------------


def _symmetry_classes(levels, theta, counts):
    """Vertex indices grouped into classes of pairwise interchangeable
    vertices: equal level and theta, and the transposition is a quiver
    automorphism (so every permutation within a class is one)."""
    n = len(levels)

    def interchangeable(u, v):
        if (levels[u], theta[u]) != (levels[v], theta[v]):
            return False
        if counts.get((u, v), 0) != counts.get((v, u), 0):
            return False
        if counts.get((u, u), 0) != counts.get((v, v), 0):
            return False
        for w in range(n):
            if w in (u, v):
                continue
            if counts.get((u, w), 0) != counts.get((v, w), 0):
                return False
            if counts.get((w, u), 0) != counts.get((w, v), 0):
                return False
        return True

    rep = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rep[v] == v and rep[u] != rep[v] and interchangeable(u, v):
                rep[v] = rep[u]
    classes = {}
    for v in range(n):
        classes.setdefault(rep[v], []).append(v)
    return tuple(tuple(vs) for _, vs in sorted(classes.items()))


def _slope_key(theta, kappa):
    """floor(2^64 theta / kappa), for kappa < 2^32: two slopes whose
    denominators are below 2^32 and that differ, differ by more than
    2^-64, so the keys order and compare the slopes exactly."""
    if kappa >= 1 << 32:
        raise ValueError("slope denominator %d is too large (it must be below 2^32)" % kappa)
    return (theta << 64) // kappa


def _class_data(Q, stab):
    """The vertex classes of (Q, stab) and their class data
    ``(theta, kappa, arrows, loops)``, all int tuples: per class, theta
    scaled to an integer (a positive scale keeps the order of the slopes)
    and kappa, the level; ``arrows[a][b]``, the arrows from one vertex of
    class a to one other vertex of class b; ``loops[a]``, the loops at one
    vertex of class a.  The class data alone determine every HN class, so
    quivers that differ only in the sizes of their classes share one
    solver."""
    index = {v: k for k, v in enumerate(Q.ids)}
    levels = tuple(l for _, l in Q.vertices)
    th = stab.theta_map()
    theta = tuple(th.get(v, 0) for v in Q.ids)
    counts = {}
    for s, t in Q.arrows:
        key = (index[s], index[t])
        counts[key] = counts.get(key, 0) + 1
    # ordered by theta, kappa and loops, ties in vertex order, so that a
    # quiver and its level-one blow-ups and splittings share one solver
    classes = tuple(sorted(_symmetry_classes(levels, theta, counts), key=lambda cls: (
        theta[cls[0]], levels[cls[0]], counts.get((cls[0], cls[0]), 0))))
    scale = lcm(*(t.denominator for t in theta))

    def between(ca, cb):
        if ca is not cb:
            return counts.get((ca[0], cb[0]), 0)
        return counts.get((ca[0], ca[1]), 0) if len(ca) > 1 else 0

    return classes, (tuple(int(theta[cls[0]] * scale) for cls in classes),
                     tuple(levels[cls[0]] for cls in classes),
                     tuple(tuple(between(ca, cb) for cb in classes) for ca in classes),
                     tuple(counts.get((ca[0], ca[0]), 0) for ca in classes))


def _coords(classes, dv):
    """Class-count coordinates of a dimension vector in vertex order: per
    class, (value, count) pairs over the nonzero values, largest value
    first.  Zero values are dropped, so a key means the same dimension
    vector type in every quiver with the same class data."""
    out = []
    for cls in classes:
        values = [dv[v] for v in cls]
        out.append(tuple((x, values.count(x)) for x in sorted(set(values), reverse=True) if x))
    return tuple(out)


class _Record:
    """What one dimension vector D keeps: ``mu``, its slope key; ``dim``,
    dim R_D; ``slopes``, the distinct slope keys of its class-sum vectors
    0 < x < sums, increasing; ``phi``, Phi_b(D) by the gap
    ``bisect_right(slopes, b)`` of the bound; and ``sst``, the reduced
    class [R_D^sst]/[G_D] once asked for.  Every row of D and of each of
    its sub-vectors has one of these slopes, so Phi_b(D) depends on b only
    through its gap, and every bound in one gap shares one entry."""

    __slots__ = ("mu", "dim", "slopes", "phi", "sst")

    def __init__(self, mu, dim, slopes):
        self.mu, self.dim, self.slopes = mu, dim, slopes
        self.phi = {}
        self.sst = None


class _HNSolver:
    """Memoized semistable-class computation for one class data
    ``(theta, kappa, arrows, loops)`` (see :func:`_class_data`), shared by
    every quiver and stability that have it.

    A dimension vector is stored in class-count coordinates (see
    :func:`_coords`), which are also the memo keys.  Arrow counts are
    constant between two symmetry classes and within one, so dim R_D,
    slopes and the arrow count ext(r, e) = sum over the arrows i -> j of
    r_i e_j follow from per-class sums, class-level arrow counts and the
    per-class pairing sum_v r_v d_v; no class size enters.  Slopes are
    integer keys (:func:`_slope_key`) of the integer theta.

    The recursion runs in Z[L] on Reineke's resolution of the HN system,
    so it does no gcd or cyclotomic reduction and sums no strata:

        Phi_b(E) = L^(dim R_E)
                   - sum_(0 < e < E, mu(e) > b) G_e L^ext(E-e, E) Phi_b(e),
        R(D)     = Phi_mu(D)(D) = [R_D^sst],

    with G_e = prod_v [d_v choose e_v]_L the subspaces of dimension e, and
    L^ext(E-e, E) = L^(ext(E-e, e) + dim R_(E-e)) the ways to complete a
    representation on one of them to all of E.  Each D has one
    :class:`_Record`.  :meth:`sst_class` reduces R(D) / [G_D] once per D,
    with [G_D] = L^(sum_v binom(d_v, 2)) prod_v prod_(k <= d_v) (L^k - 1).
    """

    def __init__(self, theta, kappa, arrows, loops):
        self.theta, self.kappa, self.arrows, self.loops = theta, kappa, arrows, loops
        self._records = {}

    # -- slopes and the top class -------------------------------------------

    def slope(self, sums):
        """The slope key of a dimension vector with the given per-class sums."""
        return _slope_key(sum(t * x for t, x in zip(self.theta, sums)),
                          sum(k * x for k, x in zip(self.kappa, sums)))

    def _top(self, key):
        """(dim R_D, b, cyc): [G_D] = L^b prod_k (L^k - 1)^cyc[k]."""
        sums = [sum(x * g for x, g in groups) for groups in key]
        dim = sum(m * sa * sb for row, sa in zip(self.arrows, sums)
                  for m, sb in zip(row, sums))
        binoms, cyc = 0, {}
        for a, groups in enumerate(key):
            # the d_v^2 terms of a class come from its loops, not from the
            # arrows to another vertex of the class
            own = self.loops[a] - self.arrows[a][a]
            for x, g in groups:
                dim += g * own * x * x
                binoms += g * comb(x, 2)
                for k in range(1, x + 1):
                    cyc[k] = cyc.get(k, 0) + g
        return dim, binoms, cyc

    def _record(self, key):
        """The :class:`_Record` of D, made on first use."""
        record = self._records.get(key)
        if record is None:
            sums = [sum(x * g for x, g in groups) for groups in key]
            mu = self.slope(sums)  # rejects a denominator too large for the keys
            # (theta.x, kappa.x) over the box 0 <= x <= sums; every kappa is
            # positive, so kappa.x is 0 only at x = 0 and kappa.D only at sums
            points = {(0, 0)}
            for t, k, s in zip(self.theta, self.kappa, sums):
                points = {(th + t * x, ka + k * x) for th, ka in points for x in range(s + 1)}
            kappa_d = sum(k * s for k, s in zip(self.kappa, sums))
            slopes = sorted({_slope_key(th, ka) for th, ka in points if 0 < ka < kappa_d})
            record = self._records.setdefault(
                key, _Record(mu, self._top(key)[0], slopes))
        return record

    # -- the recursion -------------------------------------------------------

    def sst_class(self, key):
        """[R_D^sst]/[G_D] as a reduced class."""
        record = self._record(key)
        if record.sst is None:
            _, binoms, cyc = self._top(key)
            record.sst = MotiveClass(self._phi(key, record.mu), binoms, cyc)
        return record.sst

    def _phi(self, key, bound):
        """Phi_bound(D) in Z[L], summed in one coefficient list that starts
        at L^(dim R_D), by a depth-first walk over the class splits.  A row
        is a product of per-class factors (its weight, its ext share and
        G_a), so the rows that share a prefix of splits share the prefix's
        factors: a split with G_a = 1 passes its weight and ext share on
        to its completions; any other split sums its completions in a list
        of their own, folded into the prefix's list once, times its factors
        and G_a.  At the last class, each row above the bound adds minus its
        factors times Phi_bound(e).  A row can reach above dim R_D, so the
        lists grow as needed; the sum cancels back.  Racing threads may
        compute one gap twice, and the record keeps the first."""
        record = self._record(key)
        gap = bisect_right(record.slopes, bound)
        value = record.phi.get(gap)
        if value is None:
            kappa_d, splits = self._splits(key)
            last = len(splits) - 1
            phi = self._phi

            def walk(a, e, th, ka, ext, weight, acc):
                for e_a, _, th_a, ka_a, ext_a, w, g in splits[a]:
                    if a < last:
                        if g is ONE:
                            walk(a + 1, e + (e_a,), th + th_a, ka + ka_a, ext + ext_a,
                                 weight * w, acc)
                        else:
                            inner = walk(a + 1, e + (e_a,), th + th_a, ka + ka_a, 0, 1, [])
                            _add_into(acc, weight * w, ext + ext_a, inner, g.c)
                    elif 0 < ka + ka_a < kappa_d and _slope_key(th + th_a, ka + ka_a) > bound:
                        _add_into(acc, -weight * w, ext + ext_a, phi(e + (e_a,), bound).c, g.c)
                return acc

            acc = walk(0, (), 0, 0, 0, 1, [0] * record.dim + [1])
            # walk holds itself through its closure, and so the lists: break
            # the cycle to free them now, not at a later gc pass
            del walk
            value = record.phi.setdefault(gap, _poly(acc))
        return value

    def _splits(self, key):
        """kappa.D and, per class a, the splits of its part of D: ``(e_a,
        r_a, theta_a x_a, kappa_a x_a, ext_a, labelled ways, G_a)``.  With r
        = D - e, x_a = sum_v e_v and s_a the class sums of D, ext(r, D) is
        the sum over the classes of

            ext_a = (loops_a - m_aa) sum_v r_v d_v + (s_a - x_a) sum_b m_ab s_b,

        and the slope sums, the number of labelled ways and G_e =
        prod_a G_a are per-class sums and products too.  Every kappa is
        positive, so e and D - e are nonzero iff 0 < kappa.e < kappa.D."""
        sums = [sum(x * g for x, g in groups) for groups in key]
        splits = []
        for a, groups in enumerate(key):
            t, k, own = self.theta[a], self.kappa[a], self.loops[a] - self.arrows[a][a]
            out = sum(m * s for m, s in zip(self.arrows[a], sums))
            splits.append([(e, r, t * x, k * x, own * rd + (sums[a] - x) * out, w, g)
                           for e, r, x, rd, w, g in _class_splits(groups)])
        return sum(k * s for k, s in zip(self.kappa, sums)), splits

    def _build(self, key, bound):
        """The rows ``(mu(e), e, D - e, ext(D - e, D), orbit size, G_e)`` of
        D with mu(e) > bound, one 0 < e < D per orbit of the relabelings
        fixing D: the row-by-row form of the sum :meth:`_phi` takes, from
        the same splits (:meth:`_splits`), kept to check it.  Descending
        into a class adds its split's terms to running sums and products;
        a row below the bound is dropped at its leaf, before its last
        Gaussian product."""
        kappa_d, splits = self._splits(key)
        last = len(splits) - 1
        rows = []

        def walk(a, e, rest, th, ka, ext, weight, gauss):
            for e_a, r_a, th_a, ka_a, ext_a, w, g in splits[a]:
                if a < last:
                    walk(a + 1, e + (e_a,), rest + (r_a,), th + th_a, ka + ka_a, ext + ext_a,
                         weight * w, _times(gauss, g))
                elif 0 < ka + ka_a < kappa_d:
                    mu_e = _slope_key(th + th_a, ka + ka_a)
                    if mu_e > bound:
                        rows.append((mu_e, e + (e_a,), rest + (r_a,), ext + ext_a, weight * w,
                                     _times(gauss, g)))

        walk(0, (), (), 0, 0, 0, 1, ONE)
        del walk  # the closure's cycle, as in _phi
        return rows


def _times(a, b):
    """a * b for Gaussian factors, skipping a factor ONE."""
    return b if a is ONE else a if b is ONE else a * b


def _gaussian_binomials(x):
    """[x choose j]_L for j = 0..x, by the q-Pascal rule
    [x choose j] = [x-1 choose j-1] + L^j [x-1 choose j]."""
    row = [ONE]
    for n in range(1, x + 1):
        row = [ONE] + [row[j - 1] + row[j].shifted(j) for j in range(1, n)] + [ONE]
    return row


@cache
def _class_splits(groups):
    """The ways to put 0 <= e_v <= d_v on one class, up to relabelings that
    fix d: ``(e, rest, sum_v e_v, sum_v r_v d_v, number of labelled ways,
    prod_v [d_v choose e_v]_L)``.  A group of g vertices carrying x splits
    over the values 0..x.  The splits depend on the groups alone, so every
    record of every solver shares them."""
    binomials = {x: _gaussian_binomials(x) for x, _ in groups}
    out = []
    for choice in product(*[weighted_splits(g, x + 1) for x, g in groups]):
        e, rest = {}, {}
        total = rd = 0
        weight = 1
        gauss = ONE
        for (x, _), (counts, w) in zip(groups, choice):
            weight *= w
            for j, c in enumerate(counts):
                if c:
                    if j:
                        e[j] = e.get(j, 0) + c
                    if j < x:
                        rest[x - j] = rest.get(x - j, 0) + c
                    if 0 < j < x:
                        for _ in range(c):
                            gauss = binomials[x][j] if gauss is ONE else gauss * binomials[x][j]
                    total += c * j
                    rd += c * (x - j) * x
        out.append((tuple(sorted(e.items(), reverse=True)),
                    tuple(sorted(rest.items(), reverse=True)), total, rd, weight, gauss))
    return tuple(out)


# keyed by the class data, not by the quiver: every quiver and stability
# with the same class data share one solver and its records
_solver = cache(_HNSolver)


def _as_tuple(Q, d):
    """The dimension vector in vertex order; unknown ids and entries that
    are negative or not ints are rejected."""
    unknown = set(d) - set(Q.ids)
    if unknown:
        raise ValueError("dimension vector uses unknown vertex ids %s"
                         % ", ".join(sorted(map(repr, unknown))))
    dv = tuple(as_int(d.get(v, 0), "dimension vector entry") for v in Q.ids)
    if any(x < 0 for x in dv):
        raise ValueError("dimension vector entries must be nonnegative")
    return dv


def _nonzero_tuple(Q, d):
    dv = _as_tuple(Q, d)
    if not any(dv):
        raise ValueError("dimension vector must be nonzero")
    return dv


def _solver_and_key(Q, s, d):
    """The shared solver of the class data of (Q, s) and the class-count
    key of d, a nonzero dimension vector."""
    dv = _nonzero_tuple(Q, d)
    classes, data = _class_data(Q, s)
    return _solver(*data), _coords(classes, dv)


def hn_types(Q, s, d):
    """All decompositions d = d^1 + ... + d^s into nonzero vectors with
    strictly decreasing slopes, the trivial type (d,) included.  Enumerated
    by recursive first-block choice, in a deterministic order."""
    dv = _as_tuple(Q, d)
    if not any(dv):
        return []
    classes, data = _class_data(Q, s)
    sol = _solver(*data)
    mu = lambda e: sol.slope([sum(e[v] for v in cls) for cls in classes])
    mu(dv)  # rejects a slope denominator too large for the keys

    def rec(rest, bound):
        out = []
        for e in product(*[range(x + 1) for x in rest]):
            if not any(e):
                continue
            mu_e = mu(e)
            if bound is not None and mu_e >= bound:
                continue
            tail = tuple(a - b for a, b in zip(rest, e))
            if not any(tail):
                out.append((e,))
            else:
                out.extend((e,) + t for t in rec(tail, mu_e))
        return out

    to_dict = lambda e: {v: x for v, x in zip(Q.ids, e) if x}
    return [tuple(to_dict(e) for e in typ) for typ in rec(dv, None)]


def hn_sst_class(Q, s, d):
    """[R_d^sst]/[G_d], from the resolved HN recursion on the class-count
    key of d (memoized per key and slope gap)."""
    sol, key = _solver_and_key(Q, s, d)
    return sol.sst_class(key)


def is_theta_coprime(Q, s, d):
    """No proper nonzero subvector e <= d shares the slope of d: no stratum
    of d has slope mu(d)."""
    return _is_coprime(*_solver_and_key(Q, s, d))


def _is_coprime(sol, key):
    # mu(e) depends on the class sums x of e alone, and every x other than
    # 0 and those of D is met by some 0 < e < D: D is coprime iff mu(D) is
    # none of the slopes its record keeps
    record = sol._record(key)
    return record.mu not in record.slopes


def poincare(Q, s, d):
    """Poincare polynomial in t of the stable moduli space, for coprime d.

    Computed as (L-1) * [R_d^sst]/[G_d] with L -> t^2; the result is checked
    to be a polynomial with nonnegative integer coefficients.
    """
    sol, key = _solver_and_key(Q, s, d)
    if not _is_coprime(sol, key):
        raise ValueError("dimension vector is not theta-coprime")
    cls = sol.sst_class(key) * gm_class()
    if not cls.is_polynomial():
        raise ArithmeticError("(L-1) * class is not polynomial; recursion is inconsistent")
    in_l = cls.num
    if any(c < 0 for c in in_l.c):
        raise ArithmeticError("Poincare polynomial has a bad coefficient: %r" % (in_l,))
    return in_l.subst_pow(2)


def euler_char(Q, s, d):
    """Euler characteristic of the stable moduli space for coprime d."""
    return poincare(Q, s, d)(1)


# -- degeneration identities ---------------------------------------------------


def _blown_up_dim(Q, i, d):
    """d_i at the vertex i that an identity blows up; an unknown vertex id
    or d_i < 1 is rejected."""
    if i not in Q.ids:
        raise ValueError("unknown vertex id %r" % (i,))
    di = d.get(i, 0)
    if di < 1:
        raise ValueError("d_i must be >= 1")
    return di


def _mps_rhs(Q, s, i, d):
    terms = []
    for m in multiplicity_vectors(d.get(i, 0)):
        Qh, dh, sh = hat_quiver(Q, i, m, d, s)
        term = hn_sst_class(Qh, sh, dh)
        for l, ml in m.items():
            term = term.times_proj_inverse(l, ml)
        terms.append((mps_weight(m), term))
    return linear_sum(terms)


def motivic_mps_check(Q, s, i, d):
    """L^binom(d_i,2) [R_d^sst]/[G_d] against the weighted sum of blow-up
    classes over multiplicity vectors of d_i.  Returns the equality."""
    di = _blown_up_dim(Q, i, d)
    lhs = hn_sst_class(Q, s, d).times_l_power(comb(di, 2))
    return lhs == _mps_rhs(Q, s, i, d)


def partition_form_check(Q, s, i, d):
    """The same sum indexed by partitions, with coefficient
    epsilon_lambda / z_lambda and one projective-space factor per part;
    checked against the multiplicity-vector form."""
    di = _blown_up_dim(Q, i, d)
    terms = []
    for parts in sorted(partitions(di)):
        lam = Partition(parts)
        Qh, dh, sh = hat_quiver(Q, i, lam.multiplicities(), d, s)
        term = hn_sst_class(Qh, sh, dh)
        for p in parts:
            term = term.times_proj_inverse(p)
        terms.append((Fraction(lam.sign(), lam.z()), term))
    return linear_sum(terms) == _mps_rhs(Q, s, i, d)


def dual_mps_check(Q, s, i, d):
    """[P^(d_i-1)]^(-1) times the class at the single level-d_i blow-up
    vertex against the alternating sum over level-one splittings, weighted
    by the coefficients of p_(d_i) in the elementary basis."""
    di = _blown_up_dim(Q, i, d)
    Qh, dh0, sh = hat_quiver(Q, i, {di: 1}, d, s)
    lhs = hn_sst_class(Qh, sh, dh0).times_proj_inverse(di)

    terms = []
    for parts, coef in sorted(p_to_e(di).coeffs.items()):
        Qc, dc, sc = check_quiver(Q, i, parts, d, s)
        term = hn_sst_class(Qc, sc, dc).times_l_power(sum(comb(p, 2) for p in parts))
        terms.append((coef, term))
    return lhs == linear_sum(terms)
