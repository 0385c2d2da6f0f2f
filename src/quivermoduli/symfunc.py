"""Partitions, the elementary/power-sum base changes, principal
specialization, and the finite q-identity they specialize to.

Only the slice of symmetric function theory the moduli computations consume
is implemented: e_n <-> p_n base change in closed form, products of e's in
the p basis, and the specialization e_n -> q^(n(n-1)/2) / prod (1-q^i),
p_n -> 1/(1-q^n).  Specializations and both sides of the q-identity are
:class:`ratfunc.RationalFunction` values in q, whose denominators are
products of powers of q and of factors q^k - 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .ratfunc import Poly, RationalFunction, linear_sum


@cache
def partitions(n, max_part=None):
    """All partitions of n as weakly decreasing tuples, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


class Partition:
    """Weakly decreasing positive parts, with the derived combinatorial data."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_multiplicities(cls, m):
        """Inverse of :meth:`multiplicities`: m maps part size -> count."""
        parts = []
        for l in sorted(m, reverse=True):
            parts.extend([l] * m[l])
        return cls(parts)

    def size(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def multiplicities(self):
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def sign(self):
        """epsilon = (-1)^(size - length)."""
        return -1 if (self.size() - self.length()) % 2 else 1

    def z(self):
        """z = prod_l m_l! l^m_l, the centralizer order of the cycle type."""
        out = 1
        for l, m in self.multiplicities().items():
            out *= factorial(m) * l ** m
        return out

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)


def weighted_splits(g, k):
    """Every split of g interchangeable items among k >= 1 ordered slots.

    Yields ``(c, g!/prod c_i!)`` for each count vector c with sum g; the
    weight is the number of labelled assignments of the items with those
    counts, so the weights sum to k^g.
    """
    def rec(i, left, weight, acc):
        if i == k - 1:
            yield acc + (left,), weight
            return
        for c in range(left + 1):
            yield from rec(i + 1, left - c, weight * comb(left, c), acc + (c,))

    yield from rec(0, g, 1, ())


def multiplicity_vectors(n):
    """Multiplicity vectors m with sum l*m_l = n, as dicts, by increasing parts."""
    return [
        {l: c for l, c in sorted(Partition(lam).multiplicities().items())}
        for lam in sorted(partitions(n))
    ]


class SymPoly:
    """Linear combination of e_lambda or p_lambda monomials over Q.

    ``basis`` is "e" or "p"; ``coeffs`` maps partition tuples to nonzero
    rationals.  Both bases are multiplicative: the product concatenates
    partitions.
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs):
        if basis not in ("e", "p"):
            raise ValueError("basis must be 'e' or 'p'")
        clean = {}
        for lam, c in coeffs.items():
            if any(type(p) is not int or p < 1 for p in lam):
                raise ValueError("partition %r must have positive integer parts" % (lam,))
            if type(c) is not int and not isinstance(c, Fraction):
                raise ValueError("coefficient of %r must be an int or a Fraction, not %s"
                                 % (lam, type(c).__name__))
            if c:
                key = tuple(sorted(lam, reverse=True))
                clean[key] = clean.get(key, 0) + Fraction(c)
        clean = {lam: c for lam, c in clean.items() if c}
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("SymPoly is immutable")

    @classmethod
    def basis_element(cls, basis, lam, coeff=1):
        return cls(basis, {tuple(lam): coeff})

    def _same_basis(self, other):
        if not isinstance(other, SymPoly):
            raise TypeError("cannot combine a SymPoly with %r" % (other,))
        if self.basis != other.basis:
            raise ValueError("mixing e- and p-basis expressions")

    def __add__(self, other):
        self._same_basis(other)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SymPoly(self.basis, out)

    def __sub__(self, other):
        self._same_basis(other)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) - c
        return SymPoly(self.basis, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymPoly(self.basis, {lam: c * other for lam, c in self.coeffs.items()})
        self._same_basis(other)
        out = {}
        for lam1, c1 in self.coeffs.items():
            for lam2, c2 in other.coeffs.items():
                lam = tuple(sorted(lam1 + lam2, reverse=True))
                out[lam] = out.get(lam, 0) + c1 * c2
        return SymPoly(self.basis, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, SymPoly) and self.basis == other.basis
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.basis, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = ", ".join("%s%r: %s" % (self.basis, lam, c)
                          for lam, c in sorted(self.coeffs.items()))
        return "SymPoly(%s)" % terms


def mps_weight(m):
    """prod_l (1/m_l!) ((-1)^(l-1) / l)^m_l for a multiplicity vector m,
    that is, epsilon / z of the partition with multiplicities m: the weight
    of p_lambda(m) in e_n and of the blow-up at m in the MPS formula."""
    sign, z = 1, 1
    for l, ml in m.items():
        z *= factorial(ml) * l ** ml
        if (l - 1) * ml % 2:
            sign = -sign
    return Fraction(sign, z)


def e_to_p(n):
    """e_n in the power-sum basis:
    sum over multiplicity vectors m of n of mps_weight(m) * p_{lambda(m)}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return SymPoly("p", {Partition.from_multiplicities(m).parts: mps_weight(m)
                         for m in multiplicity_vectors(n)})


def p_to_e(n):
    """p_n in the elementary basis:
    (-1)^(n-1) n sum over partitions lam of n of
    ((-1)^(l(lam)-1) / l(lam)) * (l(lam)! / prod m_l!) * e_lam.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = {}
    for parts in partitions(n):
        lam = Partition(parts)
        ll = lam.length()
        coef = Fraction((-1) ** (ll - 1), ll) * Fraction(factorial(ll))
        for m in lam.multiplicities().values():
            coef /= factorial(m)
        coeffs[parts] = Fraction((-1) ** (n - 1) * n) * coef
    return SymPoly("e", coeffs)


def _inner_tuples(m, lam):
    """Tuples (m^j_l) with sum_j m^j_l = m_l and sum_l l m^j_l = lam_j."""
    levels = sorted(m)
    def rec(j, remaining):
        if j == len(lam):
            if all(v == 0 for v in remaining.values()):
                yield ()
            return
        target = lam[j]
        def fill(idx, left, row):
            if idx == len(levels):
                if left == 0:
                    yield tuple(row)
                return
            l = levels[idx]
            for take in range(min(remaining[l] - sum(r[1] for r in row if r[0] == l), left // l) + 1):
                yield from fill(idx + 1, left - l * take, row + [(l, take)])
        for row in fill(0, target, []):
            nxt = dict(remaining)
            for l, take in row:
                nxt[l] -= take
            for rest in rec(j + 1, nxt):
                yield (dict(row),) + rest
    return rec(0, dict(m))


def e_lambda_to_p(lam):
    """e_lam = prod_j e_{lam_j} in the power-sum basis, via the closed-form
    coefficients (the inner sum counts splittings of each multiplicity vector
    across the parts of lam)."""
    lam = Partition(lam)
    if not lam.parts:
        raise ValueError("partition must be nonempty")
    n = lam.size()
    coeffs = {}
    for m in multiplicity_vectors(n):
        inner = 0
        for split in _inner_tuples(m, lam.parts):
            term = 1
            for l, ml in m.items():
                denom = 1
                for row in split:
                    denom *= factorial(row.get(l, 0))
                term *= Fraction(factorial(ml), denom)
            inner += term
        if inner:
            coeffs[Partition.from_multiplicities(m).parts] = inner * mps_weight(m)
    return SymPoly("p", coeffs)


def _image(basis, lam):
    """Principal specialization of e_lam or p_lam, as one class.  It sends
    e_n -> q^(n(n-1)/2) / prod_(i <= n) (1-q^i) and p_n -> 1 / (1-q^n), so
    e_lam -> (-1)^|lam| q^(sum binom(lam_j, 2)) / prod_i (q^i-1)^#(lam_j >= i)
    and p_lam -> (-1)^l(lam) / prod_j (q^lam_j - 1)."""
    den = {}
    if basis == "e":
        sign, power = (-1) ** sum(lam), sum(comb(part, 2) for part in lam)
        for part in lam:
            for i in range(1, part + 1):
                den[i] = den.get(i, 0) + 1
    else:
        sign, power = (-1) ** len(lam), 0
        for part in lam:
            den[part] = den.get(part, 0) + 1
    return RationalFunction(Poly.x_pow(power, sign), 0, den)


def principal_specialize(s):
    """Apply x_i -> q^(i-1) to a SymPoly, exactly, as a rational function."""
    return linear_sum((c, _image(s.basis, lam)) for lam, c in s.coeffs.items())


def lemma3_identity(n):
    """Both sides of the q-identity

        q^(n(n-1)/2) / ((q^n-1)...(q^n-q^(n-1)))
            = sum_{m of n} prod_l (1/m_l!) ((-1)^(l-1) / (l [l]_q))^m_l
              * (q-1)^(-sum_l m_l)

    with [l]_q = (q^l-1)/(q-1).  Returned as a pair for the caller to compare.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # (q^n - q^i) = q^i (q^(n-i) - 1), so the left denominator is
    # q^(n(n-1)/2) prod_{j<=n} (q^j - 1)
    lhs = RationalFunction(Poly.x_pow(comb(n, 2)), comb(n, 2),
                           {j: 1 for j in range(1, n + 1)})
    # (l [l]_q)^(-m_l) (q-1)^(-m_l) = l^(-m_l) (q^l-1)^(-m_l): the term of m is
    # its weight over prod_l (q^l-1)^m_l
    rhs = linear_sum((mps_weight(m), RationalFunction(1, 0, m))
                     for m in multiplicity_vectors(n))
    return lhs, rhs
