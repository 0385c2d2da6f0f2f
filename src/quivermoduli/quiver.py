"""Quivers with vertex levels, dimension vectors, slope stability, and the
covering constructions (vertex blow-ups and bipartite support quivers) that
the moduli computations run on.

All values are immutable after construction.  Dimension vectors and theta
forms are plain mappings ``vertex id -> int``; vertex ids are opaque hashable
tokens (strings for user-facing quivers, structured tuples for the covering
quivers so that set-partition bookkeeping stays deterministic).
"""

from __future__ import annotations

import json
from fractions import Fraction


def as_int(x, what):
    """x if its type is int (a bool is not); otherwise a ValueError that
    names it, where int() would truncate 1.5 to 1."""
    if type(x) is not int:
        raise ValueError("%s %r is not an int" % (what, x))
    return x


class _Frozen:
    """Base of the immutable records: the fields are the subclass's
    ``__slots__``, set once by ``object.__setattr__`` in its ``__init__``.
    Equality, hash and repr are those of the tuple of fields, and ``==``
    with an instance of another class is NotImplemented.  Pickle and copy
    rebuild a record through its ``__init__``."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _fields(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))

    def __reduce__(self):
        return type(self), self._fields()


class Quiver(_Frozen):
    """Directed multigraph with a positive integer level on each vertex.

    ``vertices`` is a tuple of ``(id, level)`` pairs, ``arrows`` a tuple of
    ``(source id, target id)`` pairs; parallel arrows and loops are allowed,
    and the arrow order is stable (tree enumeration relies on it).
    """

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices, arrows=()):
        vertices = tuple((v, as_int(l, "level")) for v, l in vertices)
        arrows = tuple((s, t) for s, t in arrows)
        ids = [v for v, _ in vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        for _, l in vertices:
            if l < 1:
                raise ValueError("levels must be >= 1")
        idset = set(ids)
        for s, t in arrows:
            if s not in idset or t not in idset:
                raise ValueError("arrow endpoint %r not a declared vertex" % ((s, t),))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)

    @property
    def ids(self):
        return tuple(v for v, _ in self.vertices)

    def level(self, v):
        for w, l in self.vertices:
            if w == v:
                return l
        raise KeyError(v)

    def levels(self):
        return dict(self.vertices)

    def sources(self):
        """Vertices no arrow terminates at."""
        targets = {t for _, t in self.arrows}
        return tuple(v for v, _ in self.vertices if v not in targets)

    @classmethod
    def complete_bipartite(cls, l1, l2):
        """K(l1, l2): sources i1..i_l1, sinks j1..j_l2, one arrow per pair."""
        verts = [("i%d" % (k + 1), 1) for k in range(l1)]
        verts += [("j%d" % (k + 1), 1) for k in range(l2)]
        arrows = [("i%d" % (k + 1), "j%d" % (m + 1)) for k in range(l1) for m in range(l2)]
        return cls(tuple(verts), tuple(arrows))

    @classmethod
    def kronecker(cls, num_arrows):
        """Two vertices with ``num_arrows`` parallel arrows source -> sink."""
        return cls((("i1", 1), ("j1", 1)), tuple(("i1", "j1") for _ in range(num_arrows)))

    # -- JSON wire format ----------------------------------------------------

    def to_json(self):
        return {
            "vertices": [{"id": _id_str(v), "level": l} for v, l in self.vertices],
            "arrows": [[_id_str(s), _id_str(t)] for s, t in self.arrows],
        }

    @classmethod
    def from_json(cls, data):
        """The quiver of a JSON object (or its text); a malformed one is a
        ValueError that names what is wrong."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("quiver JSON must be an object, not %s" % type(data).__name__)
        for key in ("vertices", "arrows"):
            if not isinstance(data.get(key), list):
                raise ValueError("quiver JSON needs a %r list" % key)
        verts = []
        for k, v in enumerate(data["vertices"]):
            if not isinstance(v, dict) or not isinstance(v.get("id"), (str, int)):
                raise ValueError("quiver JSON vertex %d needs a string or integer 'id'" % k)
            if not isinstance(v.get("level", 1), int):
                raise ValueError("quiver JSON vertex %r has a non-integer level" % v["id"])
            verts.append((v["id"], v.get("level", 1)))
        for a in data["arrows"]:
            if not (isinstance(a, list) and len(a) == 2
                    and all(isinstance(x, (str, int)) for x in a)):
                raise ValueError("quiver JSON arrow %s is not a [source, target] pair"
                                 % json.dumps(a))
        return cls(tuple(verts), tuple(data["arrows"]))


def _id_str(v):
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return ":".join(str(x) for x in v)
    return str(v)


class Stability(_Frozen):
    """Linear form theta together with the normalization kappa(d) =
    sum l(q) d_q, the level-weighted dimension."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        # a float theta would be scaled to its binary value, so slopes that
        # are equal in exact arithmetic could compare unequal
        for v, t in theta:
            if type(t) is not int and not isinstance(t, Fraction):
                raise ValueError("theta at vertex %r must be an int or a Fraction, not %s"
                                 % (v, type(t).__name__))
        object.__setattr__(self, "theta", theta)

    @classmethod
    def of(cls, theta_map):
        return cls(tuple(sorted(theta_map.items(), key=lambda kv: repr(kv[0]))))

    def theta_map(self):
        return dict(self.theta)

    def theta_value(self, d):
        th = dict(self.theta)
        return sum(th.get(v, 0) * n for v, n in d.items())

    def kappa_value(self, Q, d):
        lev = Q.levels()
        return sum(lev[v] * n for v, n in d.items())


def partition_pair(p1, p2):
    """The ordered-partition pair (p1, p2) as two tuples of positive ints.
    An empty side, or a part that is not a positive int, is rejected with
    a ValueError that names it."""
    out = []
    for side, parts in (("p1", p1), ("p2", p2)):
        parts = tuple(as_int(x, "%s part" % side) for x in parts)
        if not parts:
            raise ValueError("%s has no parts" % side)
        for x in parts:
            if x < 1:
                raise ValueError("%s part %d is not positive" % (side, x))
        out.append(parts)
    return tuple(out)


def bipartite_setup(p1, p2):
    """The complete bipartite quiver K(len p1, len p2) with the dimension
    vector whose sources i_k carry p1 and sinks j_k carry p2, and the
    stability theta = 1 on sources, 0 on sinks: the setting in which the
    four methods compute chi for the ordered-partition pair (p1, p2)."""
    p1, p2 = partition_pair(p1, p2)
    Q = Quiver.complete_bipartite(len(p1), len(p2))
    d, theta = {}, {}
    for k, p in enumerate(p1):
        d["i%d" % (k + 1)], theta["i%d" % (k + 1)] = p, 1
    for k, p in enumerate(p2):
        d["j%d" % (k + 1)], theta["j%d" % (k + 1)] = p, 0
    return Q, d, Stability.of(theta)


def _check_support(Q, d, name="dimension vector"):
    idset = set(Q.ids)
    for v in d:
        if v not in idset:
            raise ValueError("%s uses unknown vertex id %r" % (name, v))


def euler_form(Q, d, e):
    """<d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j."""
    _check_support(Q, d)
    _check_support(Q, e, "second dimension vector")
    total = sum(n * e.get(v, 0) for v, n in d.items())
    for s, t in Q.arrows:
        total -= d.get(s, 0) * e.get(t, 0)
    return total


def antisymmetrized_form(Q, d, e):
    """{d, e} = <d, e> - <e, d>."""
    return euler_form(Q, d, e) - euler_form(Q, e, d)


def slope(s, Q, d):
    """mu(d) = theta(d) / kappa(d) as an exact fraction; d must be nonzero."""
    _check_support(Q, d)
    if all(n == 0 for n in d.values()):
        raise ValueError("slope of the zero dimension vector")
    return Fraction(s.theta_value(d), s.kappa_value(Q, d))


# -- covering constructions -------------------------------------------------


def _as_multiplicity(m):
    """Normalize a multiplicity vector to a sorted tuple of (level, count)."""
    if isinstance(m, dict):
        items = m.items()
    else:
        items = m
    items = [(as_int(l, "multiplicity level"), as_int(c, "multiplicity count"))
             for l, c in items]
    out = tuple(sorted((l, c) for l, c in items if c))
    for l, c in out:
        if l < 1 or c < 1:
            raise ValueError("bad multiplicity vector entry (%d, %d)" % (l, c))
    return out


def _split_vertex(Q, i, copies, d, stab):
    """Replace vertex ``i`` by ``copies``, given as ``(id, level, dim)``
    triples: an arrow at ``i`` becomes ``level`` arrows at each copy, a loop
    at ``i`` becomes level * level' arrows between two copies, and theta
    lifts by level * theta_i.  Returns ``(Q', d', stab')``, with
    ``stab'`` None when ``stab`` is."""
    levels = {c: l for c, l, _ in copies}
    verts = [(v, l) for v, l in Q.vertices if v != i] + list(levels.items())
    arrows = []
    for s, t in Q.arrows:
        if s != i and t != i:
            arrows.append((s, t))
        elif t != i:
            for c, l in levels.items():
                arrows.extend([(c, t)] * l)
        elif s != i:
            for c, l in levels.items():
                arrows.extend([(s, c)] * l)
        else:  # loop at i
            for c1, l1 in levels.items():
                for c2, l2 in levels.items():
                    arrows.extend([(c1, c2)] * (l1 * l2))

    d_new = {v: n for v, n in d.items() if v != i and n}
    d_new.update((c, n) for c, _, n in copies)

    stab_new = None
    if stab is not None:
        th = stab.theta_map()
        th_new = {v: th.get(v, 0) for v in Q.ids if v != i}
        th_new.update((c, l * th.get(i, 0)) for c, l, _ in copies)
        stab_new = Stability.of(th_new)
    return Quiver(tuple(verts), tuple(arrows)), d_new, stab_new


def hat_quiver(Q, i, m, d, stab=None):
    """Blow up vertex ``i`` into level-``l`` vertices ``(i, l, k)``.

    ``m`` maps level l to the number m_l of copies, with sum l*m_l = d_i.
    Returns ``(Q_hat, d_hat, stab_hat)`` restricted to the finite support:
    each copy carries dimension 1, arrows at ``i`` are duplicated l times per
    copy and loops l*l' times, and theta lifts by theta_hat = l * theta_i.
    ``stab_hat`` is None when no stability is supplied.
    """
    if i not in set(Q.ids):
        raise ValueError("unknown vertex %r" % (i,))
    if Q.level(i) != 1:
        raise ValueError("vertex blow-up requires level 1 at the replaced vertex")
    m = _as_multiplicity(m)
    di = d.get(i, 0)
    if sum(l * c for l, c in m) != di:
        raise ValueError("multiplicity vector does not partition d_i = %d" % di)
    copies = [((i, l, k), l, 1) for l, c in m for k in range(1, c + 1)]
    return _split_vertex(Q, i, copies, d, stab)


def check_quiver(Q, i, lam, d, stab=None):
    """Level-one splitting of vertex ``i`` along a partition of d_i.

    Vertex ``i`` is replaced by level-1 vertices ``(i, k)`` with dimensions
    lam_k; arrows at ``i`` are copied once per new vertex.
    """
    if i not in set(Q.ids):
        raise ValueError("unknown vertex %r" % (i,))
    lam = tuple(as_int(p, "part") for p in lam)
    if any(p < 1 for p in lam) or list(lam) != sorted(lam, reverse=True):
        raise ValueError("parts must be positive and weakly decreasing")
    if sum(lam) != d.get(i, 0):
        raise ValueError("partition does not sum to d_i = %d" % d.get(i, 0))
    copies = [((i, k), 1, p) for k, p in enumerate(lam, 1)]
    return _split_vertex(Q, i, copies, d, stab)


class Refinement(_Frozen):
    """Weighted splitting (k^1, k^2) of a pair of ordered partitions.

    Each side is a tuple with one entry per part p_ij, the entry being a
    sorted tuple of ``(weight, count)`` pairs with sum w*count = p_ij.
    """

    __slots__ = ("k1", "k2")

    def __init__(self, k1, k2):
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)

    @classmethod
    def of(cls, k1, k2):
        return cls(tuple(_as_multiplicity(part) for part in k1),
                   tuple(_as_multiplicity(part) for part in k2))

    def side(self, which):
        return self.k1 if which == 1 else self.k2

    def part_sums(self, which):
        return tuple(sum(w * c for w, c in part) for part in self.side(which))

    def weight_multiplicities(self, which):
        """m_w(k^i) = total number of weight-w entries on side ``which``."""
        out = {}
        for part in self.side(which):
            for w, c in part:
                out[w] = out.get(w, 0) + c
        return out

    def check_nonempty(self):
        """Raise ``ValueError`` unless both sides have an entry: a support
        quiver needs a source and a sink."""
        if not any(self.k1) or not any(self.k2):
            raise ValueError("refinement must be nonzero on a source and a sink")


def n_support(r):
    """Bipartite support quiver of a refinement.

    m_w(k^1) sources of level w, m_w(k^2) sinks of level w, and w*w' parallel
    arrows between a level-w source and a level-w' sink.  Returns the quiver,
    the all-ones dimension vector and the slope datum (theta = level on
    sources, 0 on sinks, kappa from levels).
    """
    r.check_nonempty()
    srcs = [("src", w, k)
            for w, c in sorted(r.weight_multiplicities(1).items())
            for k in range(1, c + 1)]
    snks = [("snk", w, k)
            for w, c in sorted(r.weight_multiplicities(2).items())
            for k in range(1, c + 1)]
    verts = [(v, v[1]) for v in srcs] + [(v, v[1]) for v in snks]
    arrows = []
    for s in srcs:
        for t in snks:
            arrows.extend((s, t) for _ in range(s[1] * t[1]))
    dim = {v: 1 for v in srcs + snks}
    theta = {v: v[1] for v in srcs}
    theta.update({v: 0 for v in snks})
    return Quiver(tuple(verts), tuple(arrows)), dim, Stability.of(theta)


# -- wire format ----------------------------------------------------------------


def fraction_to_str(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else "%d" % x.numerator
