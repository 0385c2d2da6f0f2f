"""The tropical vertex group over a truncated coefficient ring.

Elements live in the Laurent ring Q[x^-1, x, y^-1, y] tensored with
square-zero variables (one token per support vertex, u for sinks and v for
sources); any monomial repeating a token is zero.  Wall automorphisms
x -> x f^-b, y -> y f^a act by substitution, products admit a unique
slope-ordered factorization at this truncation, and the wall function on
the slope of a refinement's dimension vector carries its tropical count as
the coefficient of the full-token monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .quiver import Refinement
from .ratfunc import _canon
from .tropical import weight_vector_of

_EMPTY = frozenset()


class TruncatedElement:
    """Finite map (x-exponent, y-exponent, token set) -> rational coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if c:
                    clean[key] = _canon(c)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedElement is immutable")

    @classmethod
    def _raw(cls, terms):
        # internal fast path: zero coefficients already dropped
        el = object.__new__(cls)
        object.__setattr__(el, "terms", terms)
        return el

    @classmethod
    def monomial(cls, xexp, yexp, tokens=(), coeff=1):
        return cls({(xexp, yexp, frozenset(tokens)): coeff})

    @classmethod
    def one(cls):
        return cls.monomial(0, 0)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def coefficient(self, xexp, yexp, tokens):
        return self.terms.get((xexp, yexp, frozenset(tokens)), 0)

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
        if not c:
            return TruncatedElement.zero()
        return TruncatedElement._raw({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        out = {}
        for (a1, b1, s1), c1 in self.terms.items():
            for (a2, b2, s2), c2 in other.terms.items():
                if s1 & s2:
                    continue  # square-zero truncation
                key = (a1 + a2, b1 + b2, s1 | s2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return TruncatedElement._raw(out)

    __rmul__ = __mul__

    def unit_pow(self, k):
        """(1 + eps)^k for any integer k; terminates because eps is nilpotent."""
        if self.terms.get((0, 0, _EMPTY), 0) != 1:
            raise ValueError("unit_pow needs constant term 1")
        eps = self - TruncatedElement.one()
        result = TruncatedElement.one()
        power = TruncatedElement.one()
        j = 0
        while True:
            j += 1
            power = power * eps
            if power.is_zero():
                return result
            # binomial(k, j), valid for negative k as well
            coeff = comb(k, j) if k >= 0 else (-1) ** j * comb(-k + j - 1, j)
            if coeff:
                result = result + power.scaled(coeff)

    def min_token_degree(self):
        degs = [len(s) for (_, _, s) in self.terms]
        return min(degs) if degs else None

    def degree_part(self, deg):
        return {key: c for key, c in self.terms.items() if len(key[2]) == deg}

    def __repr__(self):
        bits = []
        for (a, b, s), c in sorted(self.terms.items(),
                                   key=lambda kv: (len(kv[0][2]), kv[0][0], kv[0][1],
                                                   sorted(map(str, kv[0][2])))):
            toks = "".join("*%s" % (t,) for t in sorted(s, key=str))
            bits.append("%s*x^%d*y^%d%s" % (c, a, b, toks))
        return "TruncatedElement(%s)" % " + ".join(bits or ["0"])


class WallAutomorphism:
    """x -> x f^-b, y -> y f^a for a primitive direction (a, b).

    ``f`` must be 1 plus nilpotent terms supported on x^a y^b monomials.
    """

    __slots__ = ("direction", "f", "_pows")

    def __init__(self, direction, f):
        a, b = direction
        if a < 0 or b < 0 or (a, b) == (0, 0) or gcd(a, b) != 1:
            raise ValueError("direction must be primitive in N^2")
        for (A, B, s), _ in f.terms.items():
            if (A, B, s) == (0, 0, _EMPTY):
                continue
            if not s:
                raise ValueError("wall function must be 1 modulo the nilpotent ideal")
            k = (A // a) if a else (B // b)
            if k < 1 or A != k * a or B != k * b:
                raise ValueError("wall function term x^%dy^%d off the (%d,%d) ray"
                                 % (A, B, a, b))
        if f.terms.get((0, 0, _EMPTY), 0) != 1:
            raise ValueError("wall function must have constant term 1")
        object.__setattr__(self, "direction", (a, b))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_pows", {})

    def __setattr__(self, *a):
        raise AttributeError("WallAutomorphism is immutable")

    def _f_power(self, k):
        if k not in self._pows:
            self._pows[k] = self.f.unit_pow(k)
        return self._pows[k]

    def apply(self, element):
        """Substitute x -> x f^-b, y -> y f^a: each monomial x^A y^B picks up
        the single factor f^(aB - bA)."""
        a, b = self.direction
        out = TruncatedElement.zero()
        grouped = {}
        for (A, B, s), c in element.terms.items():
            grouped.setdefault(a * B - b * A, {})[(A, B, s)] = c
        for k, terms in grouped.items():
            piece = TruncatedElement(terms)
            if k:
                piece = piece * self._f_power(k)
            out = out + piece
        return out

    def __repr__(self):
        return "WallAutomorphism(%r, %r)" % (self.direction, self.f)


def compose_apply(ops, element):
    """Apply the product of automorphisms (rightmost factor acts first)."""
    for op in reversed(list(ops)):
        element = op.apply(element)
    return element


def ks_operators(r):
    """The commuting-per-side automorphisms attached to a refinement.

    One square-zero token per support vertex: a level-w sink j gives
    x-preserving theta_(1,0) with function 1 + w u_j x^w, a level-w source i
    gives theta_(0,1) with 1 + w v_i y^w.  Returned in product order, sinks
    then sources.
    """
    ops = []
    for w, count in sorted(r.weight_multiplicities(2).items()):
        for m in range(1, count + 1):
            f = TruncatedElement.one() + TruncatedElement.monomial(
                w, 0, (("u", w, m),), w)
            ops.append(WallAutomorphism((1, 0), f))
    for w, count in sorted(r.weight_multiplicities(1).items()):
        for m in range(1, count + 1):
            f = TruncatedElement.one() + TruncatedElement.monomial(
                0, w, (("v", w, m),), w)
            ops.append(WallAutomorphism((0, 1), f))
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
        for w in self.walls:
            if w.direction == tuple(direction):
                return w
        return None

    def __iter__(self):
        return iter(self.walls)

    def __repr__(self):
        return "OrderedFactorization(%r)" % (list(self.walls),)


def factorize(ops):
    """Unique slope-ordered factorization of a product of wall automorphisms.

    Iterative normalization by nilpotent degree: compare the candidate
    slope-ordered product with the input on x and y, read the lowest-degree
    discrepancy, attribute each monomial to its primitive direction (solving
    the linearized coefficient, with the x/y cross-check where both apply),
    and repeat.  The nilpotent filtration is finite, so non-convergence
    raises.
    """
    ops = list(ops)
    x = TruncatedElement.monomial(1, 0)
    y = TruncatedElement.monomial(0, 1)
    target_x = compose_apply(ops, x)
    target_y = compose_apply(ops, y)
    tokens = set()
    for op in ops:
        for (_, _, s) in op.f.terms:
            tokens |= s

    walls = {}  # direction -> WallAutomorphism, kept across iterations so
    # that the cached powers of unchanged wall functions survive
    for _ in range(len(tokens) + 2):
        ordered = [walls[d] for d in sorted(walls, key=_slope_key)]
        diff_x = target_x - compose_apply(ordered, x)
        diff_y = target_y - compose_apply(ordered, y)
        if diff_x.is_zero() and diff_y.is_zero():
            return OrderedFactorization(ordered)

        degs = [d for d in (diff_x.min_token_degree(), diff_y.min_token_degree())
                if d is not None]
        level = min(degs)
        updates = {}
        for (A, B, s), c in diff_x.degree_part(level).items():
            exps = (A - 1, B)
            if exps[0] < 0 or exps == (0, 0):
                raise ArithmeticError("x-discrepancy off the wall grid: %r" % ((A, B, s),))
            g = gcd(*exps)
            a, b = exps[0] // g, exps[1] // g
            if b == 0:
                raise ArithmeticError("x moved along a (1,0) wall")
            gamma = _canon(-Fraction(c) / b)
            updates[((a, b), exps, s)] = gamma
        for (A, B, s), c in diff_y.degree_part(level).items():
            exps = (A, B - 1)
            if exps[1] < 0 or exps == (0, 0):
                raise ArithmeticError("y-discrepancy off the wall grid: %r" % ((A, B, s),))
            g = gcd(*exps)
            a, b = exps[0] // g, exps[1] // g
            if a == 0:
                raise ArithmeticError("y moved along a (0,1) wall")
            gamma = _canon(Fraction(c) / a)
            key = ((a, b), exps, s)
            if key in updates and updates[key] != gamma:
                raise ArithmeticError(
                    "inconsistent x/y coefficients on wall %r: %r vs %r"
                    % ((a, b), updates[key], gamma))
            updates[key] = gamma

        grown = {}
        for (direction, exps, s), gamma in updates.items():
            old = walls.get(direction)
            f = grown.get(direction) or (old.f if old else TruncatedElement.one())
            grown[direction] = f + TruncatedElement.monomial(exps[0], exps[1], s, gamma)
        for direction, f in grown.items():
            walls[direction] = WallAutomorphism(direction, f)

    raise RuntimeError("ordered factorization did not converge (implementation bug)")


def extract_n_trop(fact, r):
    """Read the tropical count of a refinement off its wall function.

    The wall has primitive direction (e, d)/gcd for (d, e) the dimension
    type; the count is the coefficient of the monomial carrying every
    nilpotent token once with x-exponent e and y-exponent d.  A missing wall
    means the count is 0.  The framed-action coefficient (the wall acting on
    y^w) is asserted as a consistency check.

    The coefficient equals the connected tropical count when gcd(d, e) = 1;
    on a non-primitive slope the wall function also absorbs disconnected ray
    products and transport corrections, so the read-out only matches the
    recursion on coprime dimension types (the scope of every pipeline here).
    """
    w1 = weight_vector_of(r.k1)
    w2 = weight_vector_of(r.k2)
    d, e = sum(w1), sum(w2)
    g = gcd(d, e)
    wall = fact.wall((e // g, d // g))
    if wall is None:
        return 0
    tokens = {("v", w, m) for w, c in r.weight_multiplicities(1).items()
              for m in range(1, c + 1)}
    tokens |= {("u", w, m) for w, c in r.weight_multiplicities(2).items()
               for m in range(1, c + 1)}
    count = _canon(wall.f.coefficient(e, d, tokens))

    w_min = w1[0]
    acted = wall.apply(TruncatedElement.monomial(0, w_min))
    expected = (e // g) * w_min * count
    got = acted.coefficient(e, w_min + d, tokens)
    if got != expected:
        raise ArithmeticError("framed coefficient %r does not match %r" % (got, expected))
    if not isinstance(count, int) or count < 0:
        raise ArithmeticError("tropical count %r is not a nonnegative integer" % (count,))
    return count


_vertex_cache = {}


def n_trop_via_factorization(w1, w2):
    """Tropical count through the vertex group: build the operators of a
    single-part refinement with the given weight content, factorize, and
    extract.  An independent oracle for the recursion."""
    w1, w2 = tuple(w1), tuple(w2)
    key = (w1, w2)
    if key not in _vertex_cache:
        def side(w):
            mult = {}
            for x in w:
                mult[x] = mult.get(x, 0) + 1
            return (tuple(sorted(mult.items())),)

        r = Refinement.of(side(w1), side(w2))
        fact = factorize(ks_operators(r))
        _vertex_cache[key] = extract_n_trop(fact, r)
    return _vertex_cache[key]
