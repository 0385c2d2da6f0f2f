"""The polynomial ring Z[L], and the one exact class for the rational
functions the moduli computations compare.

Every such function (a motivic class, a principal specialization, a side
of the q-identity) is an integer polynomial divided by a positive integer
and by powers of L and of factors L^n - 1, that is, of the cyclotomic
polynomials Phi_k, k | n, which are integral and irreducible with leading
coefficient 1.  :class:`Poly` holds ``int`` coefficients and nothing else.
:class:`RationalFunction` stores num / (scale L^lpow prod Phi_k^e_k): the
rational content is kept once, as the positive int ``scale`` prime to the
content of num, and no factor of the denominator divides num, so equal
values have equal fields.  Every sum, ``+`` and ``-`` included, goes
through :func:`linear_sum`, which adds any number of scaled terms over one
common denominator in integer arithmetic and reduces once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm


class Poly:
    """Polynomial in one formal variable with int coefficients, in
    ascending order.  Any other coefficient is a TypeError."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for x in coeffs:
            if type(x) is not int:
                raise TypeError("coefficient %r is not an int" % (x,))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "c", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, coeffs):
        p = object.__new__(cls)
        object.__setattr__(p, "c", tuple(coeffs))
        return p

    @classmethod
    def const(cls, value):
        return cls((value,))

    @classmethod
    def x_pow(cls, n, coeff=1):
        return cls([0] * n + [coeff])

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.c

    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.c) - 1

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        return hash(self.c) if len(self.c) > 1 else hash(self.c[0] if self.c else 0)

    def __repr__(self):
        return "Poly(%r)" % (list(self.c),)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        while out and not out[-1]:
            out.pop()
        return Poly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(tuple(-v for v in self.c))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self.c, other.c
        if not a or not b:
            return Poly()
        # Z has no zero divisors, so the leading product is nonzero
        out = [0] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    out[i + j] += av * bv
        return Poly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k):
        """Multiply by x**k (k >= 0)."""
        if not self.c:
            return self
        return Poly._raw((0,) * k + self.c)

    def divmod(self, other):
        """Quotient and remainder by a divisor with leading coefficient 1."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.c[-1] != 1:
            raise ValueError("divisor must have leading coefficient 1")
        rem = list(self.c)
        dq = other.degree()
        if len(rem) <= dq:
            return Poly(), self
        low = [(j, v) for j, v in enumerate(other.c[:-1]) if v]
        quo = [0] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            q = rem[i]
            if q:
                quo[i - dq] = q
                for j, v in low:
                    rem[i - dq + j] -= q * v
        return Poly._raw(quo), Poly(rem[:dq])

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def __call__(self, value):
        acc = 0
        for coef in reversed(self.c):
            acc = acc * value + coef
        return acc

    def subst_pow(self, k):
        """Substitute x -> x**k."""
        if k == 1 or not self.c:
            return self
        out = [0] * ((len(self.c) - 1) * k + 1)
        for i, v in enumerate(self.c):
            out[i * k] = v
        return Poly._raw(out)

    def low_order(self):
        """Multiplicity of the root 0."""
        for i, v in enumerate(self.c):
            if v:
                return i
        return -1


ONE = Poly((1,))


def _add_into(acc, a, shift, p, q=(1,)):
    """acc += a L^shift p q in place, and return acc: ``acc`` is a list of
    ints, grown on demand, and ``p``, ``q`` are coefficient sequences, left
    as they are.  Only pairs of nonzero coefficients are multiplied, the
    shorter factor in the outer loop."""
    if len(p) < len(q):
        p, q = q, p
    if not q:
        return acc
    grow = shift + len(p) + len(q) - 1 - len(acc)
    if grow > 0:
        acc.extend([0] * grow)
    nonzero = [(i, y) for i, y in enumerate(p) if y]
    for j, v in enumerate(q, shift):
        if v:
            c = a * v
            for i, y in nonzero:
                acc[i + j] += c * y
    return acc


def _poly(acc):
    """The Poly of a list of int coefficients, trailing zeros stripped in
    place."""
    while acc and not acc[-1]:
        acc.pop()
    return Poly._raw(acc)


@cache
def cyclotomic(k):
    """Phi_k: L^k - 1 divided by Phi_d for every proper divisor d of k."""
    out = Poly.x_pow(k) - ONE
    for d in range(1, k):
        if k % d == 0:
            out = out.exact_div(cyclotomic(d))
    return out


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi_divides(num, k):
    """Phi_k | num.  Phi_k divides L^k - 1, so num is first folded mod
    L^k - 1 (exponents mod k) and only the residue is divided by Phi_k."""
    folded = Poly([sum(num.c[r::k]) for r in range(k)])
    return folded.divmod(cyclotomic(k))[1].is_zero()


def _new(num, scale, lpow, cyc):
    """Wrap fields that are already in reduced form."""
    r = object.__new__(RationalFunction)
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "scale", scale)
    object.__setattr__(r, "lpow", lpow)
    object.__setattr__(r, "cyc", cyc)
    return r


def _num(value):
    """value = poly / scale as (integer Poly, positive int), for an int, a
    Fraction or an integer Poly; any other value is a TypeError."""
    if isinstance(value, Poly):
        return value, 1
    if isinstance(value, (int, Fraction)):
        return Poly.const(value.numerator), value.denominator
    raise TypeError("%r is not an int, a Fraction or a Poly" % (value,))


def _reduced(num, scale, lpow, phi, candidates):
    """num / (scale L^lpow prod Phi_k^phi[k]) in reduced form, for a
    positive int scale, given that only the Phi_k with k in ``candidates``
    can divide num (``phi`` is used up).  A monomial c L^k is divisible by
    no Phi_k, as Phi_k(0) = +-1, so it is tested for none."""
    if num.is_zero():
        return _new(num, 1, 0, ())
    if scale != 1:
        g = gcd(scale, *num.c)
        if g != 1:
            num, scale = Poly._raw([x // g for x in num.c]), scale // g
    low = num.low_order()
    if low == len(num.c) - 1:
        candidates = ()
    k = min(low, lpow)
    if k > 0:
        num, lpow = Poly._raw(num.c[k:]), lpow - k
    for k in candidates:
        while phi[k] and _phi_divides(num, k):
            num = num.exact_div(cyclotomic(k))
            phi[k] -= 1
    return _new(num, scale, lpow, tuple(sorted((k, e) for k, e in phi.items() if e)))


def _over_power_minus_one(c, n):
    """c / (L^n - 1) as a list, or None if L^n - 1 does not divide the
    coefficients c: one pass from the top, q_i = c_(i+n) + q_(i+n), and the
    remainder c_j + q_j, j < n, is read off the low n coefficients."""
    q = list(c[n:])
    for i in range(len(q) - 1 - n, -1, -1):
        q[i] += q[i + n]
    if any(c[len(q):n]) or any(c[j] + q[j] for j in range(min(n, len(q)))):
        return None
    return q


def _whole_factors_cancelled(num, whole):
    """num and the Phi_k exponents of prod_n (L^n - 1)^whole[n] once every
    whole factor L^n - 1 that divides num is cancelled (``whole`` is used
    up).  The largest n go first: L^n - 1 is the product of the Phi_d, d |
    n, so a smaller factor, tried later, still finds its Phi_d.  Zero and a
    monomial c L^k, divisible by no L^n - 1, are tried for none."""
    low = num.low_order()
    if low < len(num.c) - 1:
        c = num.c[low:]
        for n in sorted(whole, reverse=True):
            while whole[n]:
                q = _over_power_minus_one(c, n)
                if q is None:
                    break
                c, whole[n] = q, whole[n] - 1
        num = Poly._raw((0,) * low + tuple(c))
    phi = {}
    for n, e in whole.items():
        if e:
            for d in _divisors(n):
                phi[d] = phi.get(d, 0) + e
    return num, phi


class RationalFunction:
    """num / (scale * L^lpow * prod_k Phi_k^e_k), reduced: num is an
    integer Poly, scale a positive int prime to the gcd of its
    coefficients, L does not divide num when lpow > 0, and no Phi_k with k
    in ``cyc`` divides num.

    ``cyc`` is the sorted tuple of pairs (k, e_k), e_k > 0.  Equal values
    have equal fields, and ``num``/``den`` is the reduced fraction whose
    denominator has leading coefficient ``scale``.  The constructor takes
    an int, a Fraction or an integer Poly as num, and the denominator as
    classes in the localized Grothendieck ring arise,
    num * L^(-lpow) * prod_n (L^n - 1)^(-cyc[n]): its ``cyc`` maps n to the
    exponent of L^n - 1, not of Phi_n.  A negative ``lpow`` multiplies by
    L^(-lpow).  Every exponent and every n is an int; anything else is a
    TypeError.
    """

    __slots__ = ("num", "scale", "lpow", "cyc")

    def __init__(self, num, lpow=0, cyc=()):
        num, scale = _num(num)
        if type(lpow) is not int:
            raise TypeError("exponent %r of L is not an int" % (lpow,))
        whole = {}
        for n, e in (cyc.items() if isinstance(cyc, dict) else cyc):
            if type(n) is not int:
                raise TypeError("exponent n = %r of L^n - 1 is not an int" % (n,))
            if type(e) is not int:
                raise TypeError("exponent %r of L^%d - 1 is not an int" % (e, n))
            if n < 1 or e < 0:
                raise ValueError("denominator exponents must be nonnegative")
            whole[n] = whole.get(n, 0) + e
        if lpow < 0:
            num, lpow = num.shifted(-lpow), 0
        # whole factors L^n - 1 first, each in one two-term pass; only what
        # is left is tried one Phi_k at a time
        num, phi = _whole_factors_cancelled(num, whole)
        r = _reduced(num, scale, lpow, phi, list(phi))
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(r, name))

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def of(cls, value):
        """An int, a Fraction, an integer Poly or a RationalFunction as a
        RationalFunction; any other value is a TypeError."""
        if isinstance(value, RationalFunction):
            return value
        return _new(*_num(value), 0, ())

    @classmethod
    def zero(cls):
        return _new(Poly(), 1, 0, ())

    @classmethod
    def one(cls):
        return _new(ONE, 1, 0, ())

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        """The value is an integer polynomial, ``num`` itself."""
        return self.scale == 1 and not self.lpow and not self.cyc

    @property
    def den(self):
        """The denominator scale * L^lpow * prod Phi_k^e_k as a Poly."""
        out = Poly.x_pow(self.lpow, self.scale)
        for k, e in self.cyc:
            out = out * cyclotomic(k) ** e
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction.of(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num == other.num and self.scale == other.scale
                and self.lpow == other.lpow and self.cyc == other.cyc)

    def __hash__(self):
        # an integer polynomial hashes like its Poly, a constant like its
        # Fraction
        if self.lpow or self.cyc or (self.scale != 1 and len(self.num.c) > 1):
            return hash((self.num.c, self.scale, self.lpow, self.cyc))
        if self.scale == 1:
            return hash(self.num)
        return hash(Fraction(self.num.c[0], self.scale))

    def __repr__(self):
        den = (["%d" % self.scale] * (self.scale != 1) + ["L^%d" % self.lpow] * bool(self.lpow)
               + ["Phi_%d^%d" % ke for ke in self.cyc])
        return "RationalFunction(%s)" % " / ".join([repr(list(self.num.c))] + den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return linear_sum(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.num, self.scale, self.lpow, self.cyc)

    def __sub__(self, other):
        return linear_sum(((1, self), (-1, other)))

    def __rsub__(self, other):
        return linear_sum(((1, other), (-1, self)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational constant changes the content and scale only
            return _reduced(self.num * other.numerator, self.scale * other.denominator,
                            self.lpow, dict(self.cyc), ())
        other = RationalFunction.of(other)
        # both factors are reduced, so only a Phi_k in exactly one of the
        # two denominators can divide the product of the numerators
        a, b = dict(self.cyc), dict(other.cyc)
        phi = {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
        return _reduced(self.num * other.num, self.scale * other.scale,
                        self.lpow + other.lpow, phi, a.keys() ^ b.keys())

    __rmul__ = __mul__

    def times_l_power(self, k):
        """Multiply by L^k (k of either sign)."""
        return _reduced(self.num.shifted(max(k, 0)), self.scale, self.lpow + max(-k, 0),
                        dict(self.cyc), ())

    def times_proj_inverse(self, n, power=1):
        """Multiply by [P^(n-1)]^(-power) = ((L-1)/(L^n-1))^power, that is,
        by Phi_d^(-power) for every divisor d > 1 of n."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        phi = dict(self.cyc)
        new = _divisors(n)[1:]
        for d in new:
            phi[d] = phi.get(d, 0) + power
        return _reduced(self.num, self.scale, self.lpow, phi, new)

    def __call__(self, value):
        den = self.den(value)
        if den == 0:
            raise ZeroDivisionError("pole at %r" % (value,))
        out = Fraction(self.num(value), den)
        return out.numerator if out.denominator == 1 else out


def linear_sum(pairs):
    """sum_i c_i f_i for rational scalars c_i and values f_i (a
    :class:`RationalFunction`, or an int, Fraction or Poly taken as one),
    over one common denominator and reduced once.

    The common denominator is L^max(lpow) prod_k Phi_k^max(e_k).  One
    integer lcm clears every scalar and every ``scale``, so the numerators
    are added with integer coefficients, and it becomes the ``scale`` of
    the total.  Every summand is reduced, so Phi_k can divide the total
    only if at least two summands carry its top exponent: a lone carrier
    is the one term not divisible by it.  The numerators are summed and
    lifted in int coefficient lists (:func:`_add_into`), and the total
    becomes a Poly once.  A scalar that is not an int or a Fraction, or a
    value of another type, is a TypeError.
    """
    terms = []
    for c, f in pairs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError("scalar %r is not an int or a Fraction" % (c,))
        f = RationalFunction.of(f)
        if c and f.num:
            terms.append((c, f))
    if not terms:
        return RationalFunction.zero()
    lpow = max(f.lpow for _, f in terms)
    phi, carriers = {}, {}
    for _, f in terms:
        for k, e in f.cyc:
            if e > phi.get(k, 0):
                phi[k], carriers[k] = e, 1
            elif e == phi[k]:
                carriers[k] += 1
    # term i is c_i / scale_i times an integer numerator
    den = lcm(*(c.denominator * f.scale for c, f in terms))
    # the numerators of the terms that miss the same powers of the Phi_k
    # from the common denominator are added first, into one list each
    order = sorted(phi)
    sums = {}
    for c, f in terms:
        a = c.numerator * (den // (c.denominator * f.scale))
        own = dict(f.cyc)
        key = tuple(phi[k] - own.get(k, 0) for k in order)
        _add_into(sums.setdefault(key, []), a, lpow - f.lpow, f.num.c)
    # then the sums are lifted one factor at a time, by Horner's rule in
    # Phi_k: the sums that miss the same powers of every later factor share
    # each multiplication by Phi_k.  The largest powers are those of the
    # smallest k, so they go first, while the numerators are short.
    layer = sums
    for k in order:
        cyc_k = cyclotomic(k).c
        groups = {}
        for key, num in layer.items():
            groups.setdefault(key[1:], {})[key[0]] = num
        layer = {}
        for tail, by_missing in groups.items():
            acc = []
            for e in range(max(by_missing), -1, -1):
                if acc:
                    acc = _add_into([], 1, 0, acc, cyc_k)
                if e in by_missing:
                    _add_into(acc, 1, 0, by_missing[e])
            layer[tail] = acc
    return _reduced(_poly(layer[()]), den, lpow, phi, [k for k, n in carriers.items() if n > 1])
