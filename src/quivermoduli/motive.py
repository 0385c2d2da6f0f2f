"""Motivic classes of semistable loci and the identities between them.

Classes of stacks [R_d^sst]/[G_d] are computed by the Harder-Narasimhan
recursion and realized inside the rational function field Q(L): every class
reached by the recursion is a polynomial in L divided by powers of L and of
factors (L^n - 1).  ``MotiveClass`` is another name for
:class:`ratfunc.RationalFunction`, which keeps exactly that shape in a
canonical reduced form, so classes compare and hash by value.  On top of
the recursion sit the Poincare polynomial / Euler characteristic
extraction for coprime dimension vectors, and the degeneration identities
that trade a vertex for its weighted blow-up (the MPS formula, its
partition form, and the dual form).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .quiver import check_quiver, hat_quiver
from .ratfunc import Poly, RationalFunction
from .symfunc import Partition, multiplicity_vectors, partitions, weighted_splits

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


class _HNSolver:
    """Memoized semistable-class computation for one (quiver, stability).

    Dimension vectors are tuples in vertex order.  Vertices that are
    provably interchangeable (equal level and theta, and the transposition
    is a quiver automorphism) form symmetry classes; every quantity in the
    recursion is invariant under relabelings within a class.  So the
    stratum sums enumerate one subvector per orbit of those relabelings,
    weighted by the orbit size, and the memo keys are orbit invariants.
    """

    def __init__(self, Q, stab):
        self.Q = Q
        self.stab = stab
        self.ids = Q.ids
        self.index = {v: k for k, v in enumerate(self.ids)}
        self.levels = tuple(l for _, l in Q.vertices)
        th = stab.theta_map()
        self.theta = tuple(th.get(v, 0) for v in self.ids)
        self.kappa = self.levels if stab.kappa_from_levels else (1,) * len(self.ids)
        counts = {}
        for s, t in Q.arrows:
            key = (self.index[s], self.index[t])
            counts[key] = counts.get(key, 0) + 1
        self.arrowlist = tuple((u, v, m) for (u, v), m in sorted(counts.items()))
        self.classes = self._symmetry_classes(counts)
        self._sst = {}
        self._below = {}
        self._terms = {}

    def _symmetry_classes(self, counts):
        n = len(self.ids)
        def interchangeable(u, v):
            if (self.levels[u], self.theta[u]) != (self.levels[v], self.theta[v]):
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

    # -- keys ------------------------------------------------------------

    def _canon(self, d):
        return tuple(tuple(sorted((d[v] for v in cls), reverse=True)) for cls in self.classes)

    def _pairkey(self, e, rest):
        return tuple(
            tuple(sorted(((e[v], rest[v]) for v in cls), reverse=True))
            for cls in self.classes
        )

    # -- elementary quantities --------------------------------------------

    def mu(self, d):
        th = sum(t * x for t, x in zip(self.theta, d))
        ka = sum(k * x for k, x in zip(self.kappa, d))
        return Fraction(th, ka)

    def euler(self, d, e):
        total = sum(a * b for a, b in zip(d, e))
        for u, v, m in self.arrowlist:
            total -= m * d[u] * e[v]
        return total

    def top_class(self, d):
        """[R_d]/[G_d] = L^(dim R_d) / prod [GL_{d_v}]."""
        dim_r = sum(m * d[u] * d[v] for u, v, m in self.arrowlist)
        shift = dim_r - sum(comb(x, 2) for x in d)
        cyc = {}
        for x in d:
            for k in range(1, x + 1):
                cyc[k] = cyc.get(k, 0) + 1
        return MotiveClass(1, -shift, cyc)

    # -- the recursion -----------------------------------------------------

    def sst_class(self, d):
        key = self._canon(d)
        hit = self._sst.get(key)
        if hit is not None:
            return hit
        value = self.top_class(d) - self._stratum_sum(d, None, skip_full=True)
        self._sst[key] = value
        return value

    def _below_bound(self, d, bound):
        """Sum over filtration types of d with all slopes < bound."""
        key = (self._canon(d), bound)
        hit = self._below.get(key)
        if hit is not None:
            return hit
        value = self._stratum_sum(d, bound, skip_full=False)
        self._below[key] = value
        return value

    def _orbits(self, d):
        """(e, size) for one subvector 0 <= e <= d per orbit of the
        relabelings that permute vertices of one class carrying equal d_v.
        Within such a group only the multiset of values e_v matters, so each
        orbit is a split of the group over the values 0..d_v."""
        groups = []
        for cls in self.classes:
            by_dim = {}
            for v in cls:
                by_dim.setdefault(d[v], []).append(v)
            for x, vs in by_dim.items():
                options = []
                for counts, weight in weighted_splits(len(vs), x + 1):
                    values = [val for val, c in enumerate(counts) for _ in range(c)]
                    options.append((tuple(zip(vs, values)), weight))
                groups.append(options)
        e = [0] * len(d)
        for choice in product(*groups):
            size = 1
            for assigned, weight in choice:
                for v, val in assigned:
                    e[v] = val
                size *= weight
            yield tuple(e), size

    def _stratum_sum(self, d, bound, skip_full):
        # representatives are added in lexicographic order: the value does
        # not depend on it, but the sequence of partial sums, and with it the
        # amount of arithmetic per layer, does
        total = MotiveClass.zero()
        for e, mult in sorted(self._orbits(d)):
            if not any(e):
                continue
            if skip_full and e == d:
                continue
            if bound is not None:
                th = sum(t * x for t, x in zip(self.theta, e))
                ka = sum(k * x for k, x in zip(self.kappa, e))
                if th * bound.denominator >= bound.numerator * ka:
                    continue
            rest = tuple(a - b for a, b in zip(d, e))
            key = self._pairkey(e, rest)
            term = self._terms.get(key)
            if term is None:
                term = self.sst_class(e)
                if any(rest):
                    term = term.times_l_power(-self.euler(rest, e))
                    term = term * self._below_bound(rest, self.mu(e))
                self._terms[key] = term
            total = total + (term * mult if mult > 1 else term)
        return total


_solvers = {}


def _solver(Q, stab):
    key = (Q, stab)
    if key not in _solvers:
        _solvers[key] = _HNSolver(Q, stab)
    return _solvers[key]


def _as_tuple(Q, d):
    """The dimension vector in vertex order; unknown ids and negative
    entries are rejected."""
    unknown = set(d) - set(Q.ids)
    if unknown:
        raise ValueError("dimension vector uses unknown vertex ids %s"
                         % ", ".join(sorted(map(repr, unknown))))
    dv = tuple(int(d.get(v, 0)) for v in Q.ids)
    if any(x < 0 for x in dv):
        raise ValueError("dimension vector entries must be nonnegative")
    return dv


def _nonzero_tuple(Q, d):
    dv = _as_tuple(Q, d)
    if not any(dv):
        raise ValueError("dimension vector must be nonzero")
    return dv


def hn_types(Q, s, d):
    """All decompositions d = d^1 + ... + d^s into nonzero vectors with
    strictly decreasing slopes, the trivial type (d,) included.  Enumerated
    by recursive first-block choice, in a deterministic order."""
    sol = _solver(Q, s)
    dv = _as_tuple(Q, d)
    if not any(dv):
        return []

    def rec(rest, bound):
        out = []
        for e in product(*[range(x + 1) for x in rest]):
            if not any(e):
                continue
            mu_e = sol.mu(e)
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
    """[R_d^sst]/[G_d]: the class of all representations minus the strata of
    nontrivial filtration types (grouped by first block and memoized)."""
    return _solver(Q, s).sst_class(_nonzero_tuple(Q, d))


def is_theta_coprime(Q, s, d):
    """No proper nonzero subvector e <= d shares the slope of d.

    Interchangeable vertices share theta and kappa, so the slope of e only
    depends on its sums over the symmetry classes; those per-class sums are
    scanned instead of the subvectors themselves.
    """
    dv = _nonzero_tuple(Q, d)
    sol = _solver(Q, s)
    theta = [sol.theta[cls[0]] for cls in sol.classes]
    kappa = [sol.kappa[cls[0]] for cls in sol.classes]
    full = tuple(sum(dv[v] for v in cls) for cls in sol.classes)
    th_d = sum(t * x for t, x in zip(theta, full))
    ka_d = sum(k * x for k, x in zip(kappa, full))
    for sums in product(*[range(x + 1) for x in full]):
        if not any(sums) or sums == full:
            continue
        th = sum(t * x for t, x in zip(theta, sums))
        ka = sum(k * x for k, x in zip(kappa, sums))
        if th * ka_d == th_d * ka:
            return False
    return True


def poincare(Q, s, d):
    """Poincare polynomial in t of the stable moduli space, for coprime d.

    Computed as (L-1) * [R_d^sst]/[G_d] with L -> t^2; the result is checked
    to be a polynomial with nonnegative integer coefficients.
    """
    if not is_theta_coprime(Q, s, d):
        raise ValueError("dimension vector is not theta-coprime")
    cls = hn_sst_class(Q, s, d) * gm_class()
    if not cls.is_polynomial():
        raise ArithmeticError("(L-1) * class is not polynomial; recursion is inconsistent")
    in_l = cls.num
    if any(not isinstance(c, int) or c < 0 for c in in_l.c):
        raise ArithmeticError("Poincare polynomial has a bad coefficient: %r" % (in_l,))
    return in_l.subst_pow(2)


def euler_char(Q, s, d):
    """Euler characteristic of the stable moduli space for coprime d."""
    return poincare(Q, s, d)(1)


# -- degeneration identities ---------------------------------------------------


def _mps_weight(m):
    out = Fraction(1)
    for l, ml in m.items():
        out *= Fraction(1, factorial(ml)) * Fraction((-1) ** ((l - 1) * ml), l ** ml)
    return out


def _mps_rhs(Q, s, i, d):
    di = d.get(i, 0)
    rhs = MotiveClass.zero()
    for m in multiplicity_vectors(di):
        Qh, dh, sh = hat_quiver(Q, i, m, d, s)
        term = hn_sst_class(Qh, sh, dh) * _mps_weight(m)
        for l, ml in m.items():
            term = term.times_proj_inverse(l, ml)
        rhs = rhs + term
    return rhs


def motivic_mps_check(Q, s, i, d):
    """L^binom(d_i,2) [R_d^sst]/[G_d] against the weighted sum of blow-up
    classes over multiplicity vectors of d_i.  Returns the equality."""
    di = d.get(i, 0)
    if di < 1:
        raise ValueError("d_i must be >= 1")
    lhs = hn_sst_class(Q, s, d).times_l_power(comb(di, 2))
    return lhs == _mps_rhs(Q, s, i, d)


def partition_form_check(Q, s, i, d):
    """The same sum indexed by partitions, with coefficient
    epsilon_lambda / z_lambda and one projective-space factor per part;
    checked against the multiplicity-vector form."""
    di = d.get(i, 0)
    if di < 1:
        raise ValueError("d_i must be >= 1")
    rhs = MotiveClass.zero()
    for parts in sorted(partitions(di)):
        lam = Partition(parts)
        m = lam.multiplicities()
        Qh, dh, sh = hat_quiver(Q, i, m, d, s)
        term = hn_sst_class(Qh, sh, dh) * Fraction(lam.sign(), lam.z())
        for p in parts:
            term = term.times_proj_inverse(p)
        rhs = rhs + term
    return rhs == _mps_rhs(Q, s, i, d)


def dual_mps_check(Q, s, i, d):
    """[P^(d_i-1)]^(-1) times the class at the single level-d_i blow-up
    vertex against the alternating sum over level-one splittings."""
    di = d.get(i, 0)
    if di < 1:
        raise ValueError("d_i must be >= 1")
    Qh, dh0, sh = hat_quiver(Q, i, {di: 1}, d, s)
    lhs = hn_sst_class(Qh, sh, dh0).times_proj_inverse(di)

    rhs = MotiveClass.zero()
    for parts in sorted(partitions(di)):
        lam = Partition(parts)
        coef = Fraction((-1) ** (lam.length() - 1) * factorial(lam.length() - 1))
        for m in lam.multiplicities().values():
            coef /= factorial(m)
        Qc, dc, sc = check_quiver(Q, i, parts, d, s)
        term = hn_sst_class(Qc, sc, dc) * coef
        term = term.times_l_power(sum(comb(p, 2) for p in parts))
        rhs = rhs + term
    rhs = rhs * Fraction((-1) ** (di - 1) * di)
    return lhs == rhs
