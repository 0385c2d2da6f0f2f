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

``factorize`` works on packed integer keys (``_Packing``), local to one
factorization: one bit field per class holding its count, with a guard bit
above the cap, then the degree, the x exponent and, on top, the y exponent.
A monomial product is one integer addition, dropped when the sum plus a
per-field bias sets a guard bit.  Coefficients are stored scaled by
G / prod k_c!, G the product of the caps' factorials, so E_a E_b =
C(a+b, a) E_(a+b) needs no binomial: a product of stored coefficients is
divided by G once per output term.  The walls become public
``WallAutomorphism`` objects once, at return; ``n_trop_via_factorization``
reads its count off the packed walls.

A packed wall acts on one graded path (``_Packing.apply_piece``): the
degree-L piece of an image pairs the lower pieces of an element stored by
degree with the wall's eps-power terms of the complementary degree, so no
product is formed only to be dropped for its degree.  The factorization
keeps the images of x and y under every suffix of the input's walls and of
the slope-ordered walls found so far, and round L appends their degree-L
pieces.  The walls' new degree-L terms are solved from the discrepancy and
enter each image linearly; the input must then be matched at degree L on x
and y.  The framed check of a read-out is the same step at the top degree.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, prod

from .quiver import Refinement
from .tropical import as_weight_vector, weight_vector_of


def _canon(c):
    """A Fraction with denominator 1 as its int; any other value as it is."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _cap(cls):
    """The cap of a class id, its third entry; ValueError unless a positive int."""
    cap = cls[2] if isinstance(cls, tuple) and len(cls) > 2 else None
    if type(cap) is not int or cap < 1:
        raise ValueError("class %r needs a positive int cap as its third entry" % (cls,))
    return cap


def _counts(tokens):
    """Key of a monomial: sorted (class, count) pairs with count >= 1, from a
    multiset of class ids or a mapping class -> count; None above a cap."""
    counts = Counter(tokens)
    caps = {cls: _cap(cls) for cls in counts}
    key = tuple(sorted((cls, k) for cls, k in counts.items() if k))
    if any(k < 0 for _, k in key):
        raise ValueError("class counts must be nonnegative")
    return None if any(k > caps[cls] for cls, k in key) else key


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
        for j, power in enumerate(self._powers(), 1):
            terms = {key: c * coeff for k, part in grouped.items()
                     if (coeff := _binom(k, j)) for key, c in part}
            if terms:
                out = out + TruncatedElement._raw(terms) * power
        return out

    def _powers(self):
        """The powers of f - 1, worked out on the first action."""
        if not hasattr(self, "_eps"):
            object.__setattr__(self, "_eps", self.f._eps_powers())
        return self._eps

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


class _Packing:
    """Integer keys and scaled coefficients for the terms of one factorization.

    A key packs x^A y^B E_s into bit fields, low to high: the count k_c of
    each class c, in cap.bit_length() + 1 bits; the degree sum k_c, in one
    bit more than the sum D of the caps needs; A; and B on top, unbounded.
    A monomial product adds keys.  Adding ``bias`` lifts a count above its
    cap, or a degree above D, onto the top bit of its field, so a product is
    dropped iff ``(s1 + s2 + bias) & guard``.  A kept key never carries
    between fields: a field holds twice its cap, and A is bounded by the
    degree (``for_walls``).

    The coefficient c of x^A y^B E_s is stored as c G / F(s), F(s) = prod
    k_c! and G = F(caps): G times the coefficient on the power t^s of the
    class token sums, since E_k = t^k / k!.  So a product's stored
    coefficient is the sum of c1 c2 over G, and no binomial is looked up.
    """

    __slots__ = ("fields", "shifts", "bias", "guard", "scale", "degree_bound",
                 "degree_shift", "degree_mask", "x_shift", "x_mask", "y_shift")

    def __init__(self, classes, x_max):
        caps = {cls: _cap(cls) for cls in classes}
        shift = bias = guard = 0
        fields = []
        for cls, cap in sorted(caps.items()):
            width = cap.bit_length() + 1
            fields.append((cls, shift, (1 << width) - 1))
            bias += ((1 << width - 1) - 1 - cap) << shift
            guard += 1 << shift + width - 1
            shift += width
        self.fields, self.bias, self.guard = fields, bias, guard
        self.shifts = {cls: at for cls, at, _ in fields}
        self.scale = prod(map(factorial, caps.values()))
        self.degree_bound = sum(caps.values())
        width = self.degree_bound.bit_length() + 1
        self.degree_shift, self.degree_mask = shift, (1 << width) - 1
        self.bias += ((1 << width - 1) - 1 - self.degree_bound) << shift
        self.guard += 1 << shift + width - 1
        self.x_shift = shift + width
        self.x_mask = (1 << x_max.bit_length()) - 1
        self.y_shift = self.x_shift + x_max.bit_length()

    @classmethod
    def for_walls(cls, walls):
        """The layout for the classes and x exponents of walls.

        An x exponent never exceeds 1 + D max A over the wall terms, D the
        sum of the caps: every nonconstant wall term has degree >= 1, and a
        product of terms adds degrees and exponents alike."""
        terms = [key for wall in walls for key in wall.f.terms]
        classes = {c for _, _, s in terms for c, _ in s}
        top = max((A for A, _, _ in terms), default=0)
        return cls(classes, 1 + sum(map(_cap, classes)) * top)

    def key(self, A, B, counts=()):
        """The key of x^A y^B E_s, for s given as (class, count) pairs."""
        key = (A << self.x_shift) + (B << self.y_shift)
        for cls, k in counts:
            key += (k << self.shifts[cls]) + (k << self.degree_shift)
        return key

    def degree(self, key):
        return key >> self.degree_shift & self.degree_mask

    def decode(self, key):
        """(A, B, class counts) of a key, the counts as ``_counts`` sorts them."""
        return (key >> self.x_shift & self.x_mask, key >> self.y_shift,
                tuple((cls, k) for cls, at, mask in self.fields if (k := key >> at & mask)))

    def _factorials(self, key):
        return prod(factorial(k) for _, k in self.decode(key)[2])

    def pack(self, element):
        """Stored terms of a public element."""
        return {(key := self.key(A, B, s)): c * (self.scale // self._factorials(key))
                for (A, B, s), c in element.terms.items()}

    def unscaled(self, key, c):
        """The coefficient of the term stored as c at key."""
        return _exact(c * self._factorials(key), self.scale)

    def unpack(self, terms):
        """Public terms of stored terms."""
        return {self.decode(key): self.unscaled(key, c) for key, c in terms.items()}

    def _products(self, acc, left, right):
        """acc[key + bias] += c1 c2, not yet over G, for each left and right
        term pair under the caps."""
        bias, guard, get = self.bias, self.guard, acc.get
        for s1, c1 in left:
            s1 += bias
            for s2, c2 in right:
                t = s1 + s2
                if not t & guard:
                    acc[t] = get(t, 0) + c1 * c2

    def _plus(self, terms, acc):
        """terms + acc / G, acc keyed as ``_products`` leaves it."""
        out, bias, scale = dict(terms), self.bias, self.scale
        _add(out, ((t - bias, _exact(v, scale)) for t, v in acc.items()))
        return out

    def powers(self, terms):
        """The powers of eps = terms by degree, as ``grow`` stores them; a
        constant term (key 0) is skipped, so the stored f = 1 + eps gives
        the powers of eps."""
        graded, terms = {}, [(key, c) for key, c in terms if key]
        self.grow(graded, terms, min((self.degree(key) for key, _ in terms), default=0))
        return graded

    def grow(self, graded, terms, level):
        """Add terms, of degree level or more, to eps, its powers stored by
        degree: ``graded[e][j - 1]`` maps the keys of the eps^j terms of
        degree e to their stored coefficients.  Only products with a new
        factor are taken: the change of eps^(j+1) is the change of eps^j
        times the old eps plus the new eps^j times the terms, and a change
        of eps^j has degree at least level + j - 1."""
        top = self.degree_bound
        old = [(e, term) for e, by_j in graded.items() for term in by_j[0].items()]
        change, j = terms, 0
        while True:
            for key, c in change:
                by_j = graded.setdefault(self.degree(key), [])
                by_j.extend({} for _ in range(j + 1 - len(by_j)))
                _add(by_j[j], ((key, c),))
            power = [term for e, by_j in graded.items() if e + level <= top and len(by_j) > j
                     for term in by_j[j].items()]
            if not change and not power:
                return
            acc = {}
            self._products(acc, change, [term for e, term in old if e + level + j <= top])
            self._products(acc, power, terms)
            change = list(self._plus({}, acc).items())
            j += 1

    def _act(self, acc, direction, terms, powers):
        """acc[key + bias] += C(k, j) c c2, not yet over G, for each term c at
        key = x^A y^B E_s, k = aB - bA, and each term c2 of eps^j, the j-th
        dict of powers, under the caps: x^A y^B E_s picks up f^k =
        sum_j C(k, j) eps^j."""
        a, b = direction
        xs, xm, ys, get = self.x_shift, self.x_mask, self.y_shift, acc.get
        bias, guard = self.bias, self.guard
        for key, c in terms:
            k = a * (key >> ys) - b * (key >> xs & xm)
            key += bias
            binom = 1
            for j, power in enumerate(powers, 1):
                binom = binom * (k - j + 1) // j  # C(k, j), exact for any integer k
                if not binom:
                    break  # 0 <= k < j: every later C(k, j) is 0 too
                c1 = c * binom
                for s2, c2 in power.items():  # ``_products``, inlined: a call per term is slower
                    t = key + s2
                    if not t & guard:
                        acc[t] = get(t, 0) + c1 * c2

    def apply_piece(self, direction, graded, pieces, level):
        """The degree-level piece of ``WallAutomorphism.apply`` on an element
        stored by degree, ``pieces[d]`` its terms of degree d for d <= level,
        for eps powers by degree (``grow``): a term of degree d pairs only
        with the eps-power terms of degree level - d."""
        acc = {}
        for e, by_j in graded.items():
            if e <= level and (piece := pieces[level - e]):
                self._act(acc, direction, piece.items(), by_j)
        return self._plus(pieces[level], acc) if acc else dict(pieces[level])

    def extend(self, walls, images, level):
        """Append the degree-level pieces to a chain E_(k+1) = s, E_i =
        W_i(E_(i+1)) stored by degree, right to left, for the (direction,
        eps powers by degree) walls W_1 .. W_k; s has no positive degree."""
        images[-1].append({})
        for i in range(len(walls) - 1, -1, -1):
            images[i].append(self.apply_piece(*walls[i], images[i + 1], level))


def _exact(v, n):
    """v / n, an int where it divides."""
    q, rem = divmod(v, n)
    return Fraction(v, n) if rem else q


def _add(out, terms):
    """out += terms, in place, dropping zeros."""
    for key, c in terms:
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)


def _factorize_packed(ops):
    """The slope-ordered walls of a product of wall automorphisms, on packed
    keys: (layout, [(direction, stored f, eps powers by degree)]).

    A graded, incremental composite.  For s in {x, y} it keeps the images
    of s under every suffix of the input's walls and of the walls W_1 ..
    W_k found so far, in slope order: E_(k+1) = s and E_i = W_i(E_(i+1)),
    stored by nilpotent degree (total class count); round L appends their
    degree-L pieces (``_Packing.extend``).  The walls' degree-L terms, still
    missing there, are solved from the discrepancy of E_1 with the input's
    image of s: a monomial gamma t on the primitive direction (a, b) of its
    exponents moves E_1 by k gamma at s + t, k = -b on x and a on y.  A wall
    at position p that gains gamma t moves E_i, i <= p, by that much at
    degree L, and nothing else: a product with it has degree above L.  A new
    wall starts from its right neighbour's image, sharing the lower pieces.
    E_1 must then match the input at degree L on both starts, else
    ArithmeticError.  Degrees stop at the sum of the caps.
    """
    ops = list(ops)
    layout = _Packing.for_walls(ops)
    top, one = layout.degree_bound, layout.scale
    inputs = [(op.direction, layout.powers(layout.pack(op.f).items())) for op in ops]
    starts = []  # (key of s, its exponents, the input's images of s, E_1 .. E_(k+1))
    for start in ((1, 0), (0, 1)):
        s = layout.key(*start)
        starts.append((s, start, [[{s: one}] for _ in range(len(ops) + 1)], [[{s: one}]]))

    walls, graded = {}, {}  # direction -> stored f, its eps powers by degree
    order, slopes = [], []  # the directions in slope order, their slope keys
    for level in range(1, top + 1):
        grown = {}  # direction -> {key of t: gamma}
        found = [(d, graded[d]) for d in order]
        for s, (dx, dy), targets, images in starts:
            layout.extend(inputs, targets, level)
            layout.extend(found, images, level)
            diff = dict(targets[0][level])
            _add(diff, ((key, -c) for key, c in images[0][level].items()))
            for key, c in diff.items():  # the other start checks an x/y overlap below
                A, B, counts = layout.decode(key)
                exps = (A - dx, B - dy)
                g = gcd(*exps)
                a, b = (exps[0] // g, exps[1] // g) if g else exps
                if min(exps) < 0 or not (k := a * dy - b * dx):
                    raise ArithmeticError("discrepancy off the walls: %r" % ((A, B, counts),))
                grown.setdefault((a, b), {})[key - s] = _exact(c, k)

        for direction in grown:
            if direction not in walls:
                walls[direction], graded[direction] = {0: one}, {}
                i = bisect_left(slopes, slope := _slope_key(direction))
                slopes.insert(i, slope)
                order.insert(i, direction)
                for *_, images in starts:
                    images.insert(i, images[i][:level] + [dict(images[i][level])])
        for s, (dx, dy), targets, images in starts:
            moved = {}  # how the walls from position i on move E_i
            for i in range(len(order) - 1, -1, -1):
                a, b = order[i]
                if order[i] in grown:
                    _add(moved, ((s + t, (a * dy - b * dx) * gamma)
                                 for t, gamma in grown[order[i]].items()))
                if moved:
                    _add(images[i][level], moved.items())
            if images[0][level] != targets[0][level]:
                raise ArithmeticError("the walls miss the input on %s at degree %d"
                                      % ("xy"[dy], level))
        for direction, terms in grown.items():
            _add(walls[direction], terms.items())
            layout.grow(graded[direction], terms.items(), level)
    return layout, [(d, walls[d], graded[d]) for d in order]


def factorize(ops):
    """Unique slope-ordered factorization of a product of wall automorphisms,
    computed on packed keys (``_factorize_packed``)."""
    layout, walls = _factorize_packed(ops)
    return OrderedFactorization(WallAutomorphism(d, TruncatedElement(layout.unpack(f)))
                                for d, f, _ in walls)


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
    d, e = sum(weight_vector_of(r.k1)), sum(weight_vector_of(r.k2))
    if gcd(d, e) != 1:
        raise ValueError("extract_n_trop needs a coprime dimension type, got %d, %d"
                         % (d, e))
    wall = fact.wall((e, d))
    if wall is None:
        return 0
    layout = _Packing.for_walls([wall, *ks_operators(r)])
    f = layout.pack(wall.f)
    return _framed_count(layout, r, (e, d), f, layout.powers(f.items()))


def _framed_count(layout, r, direction, f, eps):
    """The count on the packed wall function f, with eps powers by degree,
    of the direction (e, d) of the coprime type (d, e) of r, checked on the
    framed action: the wall's image of y^w_min at the degree of the top
    monomial."""
    e, d = direction
    w_min = weight_vector_of(r.k1)[0]
    top = layout.key(e, d, [(cls, cls[2]) for cls in token_classes(r)])
    count = layout.unscaled(top, f.get(top, 0))

    level = layout.degree(top)
    pieces = [{layout.key(0, w_min): layout.scale}] + [{} for _ in range(level)]
    acted = layout.apply_piece(direction, eps, pieces, level)
    framed = top + layout.key(0, w_min)
    expected = e * w_min * count
    got = layout.unscaled(framed, acted.get(framed, 0))
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
    r = Refinement.of((Counter(w1),), (Counter(w2),))
    layout, walls = _factorize_packed(ks_operators(r))
    for direction, f, eps in walls:
        if direction == (sum(w2), sum(w1)):
            return _framed_count(layout, r, direction, f, eps)
    return 0
