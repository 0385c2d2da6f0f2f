"""The tropical vertex group over a divided-power coefficient ring.

Elements live in Q[x^-1, x, y^-1, y] tensored with a divided-power algebra:
per class with cap m, generators E_1 .. E_m with E_a E_b = C(a+b, a) E_(a+b),
zero above the cap; a class id is a tuple whose third entry is its cap.  The
m_w sinks of weight w form class (u, w, m_w), sources (v, w, m_w): E_k is the
k-th elementary symmetric polynomial in their square-zero tokens (a cap-1
class is one token), which enter through equal walls, so an (x, y)-exponent
carries prod (m_w + 1) monomials, not 2^(#tokens).  Wall automorphisms
x -> x f^-b, y -> y f^a act by substitution, products factor uniquely in
slope order, and the wall on the slope of a refinement's dimension vector
carries its tropical count as the coefficient of the top monomial.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, gcd

from .quiver import Refinement
from .ratfunc import _canon
from .tropical import as_weight_vector, weight_vector_of


def _counts(tokens):
    """Key of a monomial: sorted (class, count) pairs with count >= 1, from a
    multiset of class ids or a mapping class -> count; None above a cap."""
    key = tuple(sorted((cls, k) for cls, k in Counter(tokens).items() if k))
    if any(k < 0 for _, k in key):
        raise ValueError("class counts must be nonnegative")
    return None if any(k > cls[2] for cls, k in key) else key


def _merge(s1, s2):
    """E_s1 E_s2 = factor * E_s as (s, factor); factor 0 above a cap."""
    if not s1 or not s2:
        return s1 or s2, 1
    out, factor = dict(s1), 1
    for cls, k in s2:
        j = out.get(cls, 0) + k
        if j > cls[2]:
            return None, 0
        factor *= comb(j, k)
        out[cls] = j
    return tuple(sorted(out.items())), factor


def _binom(k, j):
    """C(k, j) for any integer k, the coefficient of eps^j in (1 + eps)^k."""
    return comb(k, j) if k >= 0 else (-1) ** j * comb(j - k - 1, j)


def _degree(s):
    return sum(k for _, k in s)


class TruncatedElement:
    """Finite map (x-exponent, y-exponent, class counts) -> rational coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {key: _canon(c) for key, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedElement is immutable")

    @classmethod
    def _raw(cls, terms):  # internal fast path: zero coefficients already dropped
        el = object.__new__(cls)
        object.__setattr__(el, "terms", terms)
        return el

    @classmethod
    def monomial(cls, xexp, yexp, tokens=(), coeff=1):
        """coeff x^xexp y^yexp E, with E given as a multiset of class ids
        (a repeated class raises its count) or a mapping class -> count."""
        key = _counts(tokens)
        return cls() if key is None else cls({(xexp, yexp, key): coeff})

    @classmethod
    def one(cls):
        return cls.monomial(0, 0)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def coefficient(self, xexp, yexp, tokens):
        return self.terms.get((xexp, yexp, _counts(tokens)), 0)

    def __eq__(self, other):
        return isinstance(other, TruncatedElement) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return TruncatedElement._raw(out)

    def __neg__(self):
        return TruncatedElement._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        return TruncatedElement._raw({k: v * c for k, v in self.terms.items()} if c else {})

    def _by_counts(self):
        groups = {}
        for (a, b, s), c in self.terms.items():
            groups.setdefault(s, []).append((a, b, c))
        return groups

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        right = other._by_counts()
        out = {}
        for s1, left in self._by_counts().items():
            for s2, terms in right.items():
                s, factor = _merge(s1, s2)
                if not factor:
                    continue  # above a cap
                for a1, b1, c1 in left:
                    c1 *= factor
                    for a2, b2, c2 in terms:
                        key = (a1 + a2, b1 + b2, s)
                        v = out.get(key, 0) + c1 * c2
                        if v:
                            out[key] = v
                        elif key in out:
                            del out[key]
        return TruncatedElement._raw(out)

    __rmul__ = __mul__

    def unit_pow(self, k):
        """(1 + eps)^k for any integer k; finite because eps is nilpotent."""
        result = TruncatedElement.one()
        for j, power in enumerate(self._eps_powers(), 1):
            result = result + power.scaled(_binom(k, j))
        return result

    def _eps_powers(self):
        """[eps, eps^2, ...] up to the last nonzero power, for self = 1 + eps."""
        if self.terms.get((0, 0, ()), 0) != 1:
            raise ValueError("unit_pow needs constant term 1")
        powers = [self - TruncatedElement.one()]
        while not powers[-1].is_zero():
            powers.append(powers[-1] * powers[0])
        return powers[:-1]

    def __repr__(self):
        bits = []
        for (a, b, s), c in sorted(self.terms.items(),
                                   key=lambda kv: (_degree(kv[0][2]),) + kv[0]):
            # E_k of a class is the divided power t^(k) of its token sum t
            toks = "".join("*%s^(%d)" % (":".join(map(str, cls)), k) for cls, k in s)
            bits.append("%s*x^%d*y^%d%s" % (c, a, b, toks))
        return "TruncatedElement(%s)" % " + ".join(bits or ["0"])


class WallAutomorphism:
    """x -> x f^-b, y -> y f^a for a primitive direction (a, b); ``f`` must
    be 1 plus nilpotent terms supported on x^a y^b monomials."""

    __slots__ = ("direction", "f", "_eps")

    def __init__(self, direction, f):
        a, b = direction
        if a < 0 or b < 0 or (a, b) == (0, 0) or gcd(a, b) != 1:
            raise ValueError("direction must be primitive in N^2")
        for A, B, s in f.terms:
            k = (A // a) if a else (B // b)
            if not s and (A, B) != (0, 0):
                raise ValueError("wall function must be 1 modulo the nilpotent ideal")
            if s and (k < 1 or A != k * a or B != k * b):
                raise ValueError("wall function term x^%dy^%d off the (%d,%d) ray"
                                 % (A, B, a, b))
        if f.terms.get((0, 0, ()), 0) != 1:
            raise ValueError("wall function must have constant term 1")
        object.__setattr__(self, "direction", (a, b))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_eps", f._eps_powers())

    def __setattr__(self, *a):
        raise AttributeError("WallAutomorphism is immutable")

    def apply(self, element):
        """Substitute x -> x f^-b, y -> y f^a: each monomial x^A y^B picks up
        f^k = sum_j C(k, j) eps^j for k = aB - bA and f = 1 + eps, so the
        image takes one product per power of eps, however many k occur."""
        a, b = self.direction
        grouped = {}
        for (A, B, s), c in element.terms.items():
            grouped.setdefault(a * B - b * A, []).append(((A, B, s), c))
        out = element
        for j, power in enumerate(self._eps, 1):
            terms = {key: c * coeff for k, part in grouped.items()
                     if (coeff := _binom(k, j)) for key, c in part}
            if terms:
                out = out + TruncatedElement._raw(terms) * power
        return out

    def __repr__(self):
        return "WallAutomorphism(%r, %r)" % (self.direction, self.f)


def compose_apply(ops, element):
    """Apply the product of automorphisms (rightmost factor acts first)."""
    for op in reversed(list(ops)):
        element = op.apply(element)
    return element


def token_classes(r):
    """(u, w, m_w) per sink weight w, then (v, w, m_w) per source weight, m_w
    the number of support vertices of that side and weight."""
    return ([("u", w, m) for w, m in sorted(r.weight_multiplicities(2).items())]
            + [("v", w, m) for w, m in sorted(r.weight_multiplicities(1).items())])


def ks_operators(r):
    """The commuting-per-side automorphisms attached to a refinement.

    A level-w sink gives theta_(1,0) with function 1 + w u x^w, a source
    theta_(0,1) with 1 + w v y^w; the walls of a class commute and are emitted
    as their product sum_(k <= m_w) w^k x^(wk) E_k (y^(wk) for sources), in
    product order, sinks then sources.
    """
    ops = []
    for cls in token_classes(r):
        side, w, m = cls
        a, b = (1, 0) if side == "u" else (0, 1)
        f = {(a * w * k, b * w * k, ((cls, k),) if k else ()): w ** k
             for k in range(m + 1)}
        ops.append(WallAutomorphism((a, b), TruncatedElement(f)))
    return ops


def _slope_key(direction):
    a, b = direction
    return (0, Fraction(0)) if a == 0 else (1, -Fraction(b, a))


class OrderedFactorization:
    """Sequence of wall automorphisms with strictly decreasing slope b/a."""

    __slots__ = ("walls",)

    def __init__(self, walls):
        walls = tuple(sorted(walls, key=lambda w: _slope_key(w.direction)))
        dirs = [w.direction for w in walls]
        if len(set(dirs)) != len(dirs):
            raise ValueError("duplicate wall direction")
        object.__setattr__(self, "walls", walls)

    def __setattr__(self, *a):
        raise AttributeError("OrderedFactorization is immutable")

    def wall(self, direction):
        return next((w for w in self.walls if w.direction == tuple(direction)), None)

    def __repr__(self):
        return "OrderedFactorization(%r)" % (list(self.walls),)


def factorize(ops):
    """Unique slope-ordered factorization of a product of wall automorphisms.

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


def extract_n_trop(fact, r):
    """Read the tropical count of a refinement off its wall function.

    For a dimension type (d, e) with gcd(d, e) = 1 the wall has primitive
    direction (e, d); the count is the coefficient of x^e y^d with every
    class at its cap (every token once), 0 without that wall.  The
    framed-action coefficient (the wall acting on y^w) is asserted as a
    consistency check.

    The coefficient is the connected tropical count only on coprime types:
    on a non-primitive slope the wall function also absorbs disconnected
    ray products and transport corrections, so gcd(d, e) != 1 is a
    ValueError, raised before the wall is read.
    """
    w1, w2 = weight_vector_of(r.k1), weight_vector_of(r.k2)
    d, e = sum(w1), sum(w2)
    if gcd(d, e) != 1:
        raise ValueError("extract_n_trop needs a coprime dimension type, got %d, %d"
                         % (d, e))
    wall = fact.wall((e, d))
    if wall is None:
        return 0
    top = {cls: cls[2] for cls in token_classes(r)}
    count = _canon(wall.f.coefficient(e, d, top))

    w_min = w1[0]
    acted = wall.apply(TruncatedElement.monomial(0, w_min))
    expected = e * w_min * count
    got = acted.coefficient(e, w_min + d, top)
    if got != expected:
        raise ArithmeticError("framed coefficient %r does not match %r" % (got, expected))
    if not isinstance(count, int) or count < 0:
        raise ArithmeticError("tropical count %r is not a nonnegative integer" % (count,))
    return count


def n_trop_via_factorization(w1, w2):
    """Tropical count through the vertex group (an independent oracle for the
    recursion): factorize the operators of a single-part refinement with the
    given weights and extract.  Both weight vectors must be nonempty, positive
    and weakly increasing, else ValueError: a one-sided pair has no scattering
    to read a count off, so it gets no ``n_trop`` base-case value.  The
    read-out is the connected count only on coprime dimension types, so
    gcd(sum w1, sum w2) != 1 is a ValueError too, raised before factorizing.
    """
    w1, w2 = as_weight_vector(w1), as_weight_vector(w2)
    if not w1 or not w2:
        raise ValueError("n_trop_via_factorization needs two nonempty weight "
                         "vectors; one-sided counts are base cases of n_trop")
    if gcd(sum(w1), sum(w2)) != 1:
        raise ValueError("n_trop_via_factorization needs coprime sizes, got %d, %d"
                         % (sum(w1), sum(w2)))
    return _via_factorization(w1, w2)


@cache
def _via_factorization(w1, w2):
    r = Refinement.of((tuple(sorted(Counter(w1).items())),),
                      (tuple(sorted(Counter(w2).items())),))
    return extract_n_trop(factorize(ks_operators(r)), r)
