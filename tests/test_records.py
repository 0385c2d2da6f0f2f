"""The immutable records against frozen dataclass twins.

``Quiver``, ``Stability``, ``Refinement``, ``SpanningTree`` and
``GluedTuple`` are plain slotted classes.  Each twin below is the frozen
dataclass that the record replaced, with the same name, fields and
validation, so it is the oracle for equality, hash, repr, keyword
construction, immutability and every validation error.

The last test checks that importing the package and its CLI loads none of
the modules a dataclass pulls in.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli import localization as loc
from quivermoduli import quiver as qm

SRC = Path(qm.__file__).resolve().parents[1]


# -- the dataclass twins ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple((v, qm.as_int(l, "level")) for v, l in self.vertices))
        object.__setattr__(self, "arrows", tuple((s, t) for s, t in self.arrows))
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        for _, l in self.vertices:
            if l < 1:
                raise ValueError("levels must be >= 1")
        idset = set(ids)
        for s, t in self.arrows:
            if s not in idset or t not in idset:
                raise ValueError("arrow endpoint %r not a declared vertex" % ((s, t),))


@dataclasses.dataclass(frozen=True)
class Stability:
    theta: tuple

    def __post_init__(self):
        for v, t in self.theta:
            if type(t) is not int and not isinstance(t, Fraction):
                raise ValueError("theta at vertex %r must be an int or a Fraction, not %s"
                                 % (v, type(t).__name__))


@dataclasses.dataclass(frozen=True)
class Refinement:
    k1: tuple
    k2: tuple


@dataclasses.dataclass(frozen=True)
class SpanningTree:
    quiver: Quiver
    arrow_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "arrow_indices", tuple(sorted(self.arrow_indices)))
        n = len(self.quiver.vertices)
        if len(self.arrow_indices) != n - 1:
            raise ValueError("a spanning tree on %d vertices needs %d arrows" % (n, n - 1))
        parent = {v: v for v, _ in self.quiver.vertices}
        for idx in self.arrow_indices:
            s, t = self.quiver.arrows[idx]
            rs, rt = loc._find(parent, s), loc._find(parent, t)
            if rs == rt:
                raise ValueError("arrow subset contains a cycle")
            parent[rs] = rt


@dataclasses.dataclass(frozen=True)
class GluedTuple:
    quiver: Quiver
    new_sink: object
    components: tuple


# -- strategies ------------------------------------------------------------------

IDS = ["a", "b", "c", 1, ("snk", 1, 1)]
GOOD_LEVELS = st.integers(1, 3)
LEVELS = st.one_of(GOOD_LEVELS, st.sampled_from([0, -1, 1.5, True, "1", Fraction(1)]))


@st.composite
def quiver_args(draw, levels=LEVELS):
    """(vertices, arrows) of a small quiver; with the default levels some
    draws repeat an id, carry a bad level or an arrow to an unknown id."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4))
    vertices = tuple((v, draw(levels)) for v in ids)
    ends = st.sampled_from(ids + ["zz"]) if draw(st.booleans()) else st.sampled_from(ids)
    arrows = tuple(draw(st.lists(st.tuples(ends, ends), max_size=5)))
    return vertices, arrows


def valid_quiver_args():
    """(vertices, arrows) of a small quiver that passes validation."""
    return st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True).flatmap(
        lambda ids: st.tuples(
            st.tuples(*[st.tuples(st.just(v), GOOD_LEVELS) for v in ids]),
            st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=5)
            .map(tuple)))


THETA_VALUES = st.one_of(
    st.integers(-3, 3), st.fractions(max_denominator=4).filter(lambda x: abs(x) < 4),
    st.sampled_from([0.5, 1.0, True, "1"]))
thetas = st.lists(st.tuples(st.sampled_from(IDS), THETA_VALUES), max_size=4).map(tuple)
refinement_sides = st.lists(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2).map(tuple),
    max_size=3).map(tuple)


def outcome(make, *args, **kwargs):
    """What building a record gives: its repr and hash, or the type and
    message of the error it raises."""
    try:
        r = make(*args, **kwargs)
    except Exception as exc:  # the error itself is what is compared
        return "raised", type(exc), str(exc)
    return "built", repr(r), hash(r)


def check_like_twin(record, twin, fields):
    """``record`` behaves as its dataclass ``twin`` does."""
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)
    assert record == copy.copy(record) == pickle.loads(pickle.dumps(record))
    assert not record != copy.copy(record)
    assert record.__eq__(twin) is NotImplemented and twin.__eq__(record) is NotImplemented
    assert record != twin and not record == twin
    assert record != tuple(getattr(record, f) for f in fields) and record != None  # noqa: E711
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, getattr(record, f))
        with pytest.raises(AttributeError):
            delattr(record, f)
        with pytest.raises(AttributeError):
            setattr(twin, f, getattr(twin, f))
    with pytest.raises(AttributeError):
        record.other = 1


def check_pair_like_twins(a, b, twin_a, twin_b):
    assert (a == b) == (twin_a == twin_b)
    assert (a != b) == (twin_a != twin_b)
    if a == b:
        assert hash(a) == hash(b)


# -- the records against their twins --------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(quiver_args(), quiver_args(levels=GOOD_LEVELS))
def test_quiver_matches_its_dataclass_twin(args, other):
    got, want = outcome(qm.Quiver, *args), outcome(Quiver, *args)
    assert got == want
    assert outcome(qm.Quiver, vertices=args[0], arrows=args[1]) == want
    assert outcome(qm.Quiver, args[0]) == outcome(Quiver, args[0])
    if want[0] == "raised":
        return
    Q, T = qm.Quiver(*args), Quiver(*args)
    check_like_twin(Q, T, ("vertices", "arrows"))
    assert qm.Quiver(args[0]).arrows == () == Quiver(args[0]).arrows
    if outcome(Quiver, *other)[0] == "built":
        check_pair_like_twins(Q, qm.Quiver(*other), T, Quiver(*other))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(thetas, thetas)
def test_stability_matches_its_dataclass_twin(theta, other):
    want = outcome(Stability, theta)
    assert outcome(qm.Stability, theta) == want
    assert outcome(qm.Stability, theta=theta) == want
    if want[0] == "raised":
        return
    s = qm.Stability(theta)
    check_like_twin(s, Stability(theta), ("theta",))
    if outcome(Stability, other)[0] == "built":
        check_pair_like_twins(s, qm.Stability(other), Stability(theta), Stability(other))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(refinement_sides, refinement_sides, refinement_sides)
def test_refinement_matches_its_dataclass_twin(k1, k2, k3):
    r = qm.Refinement(k1, k2)
    assert r == qm.Refinement(k2=k2, k1=k1)
    check_like_twin(r, Refinement(k1, k2), ("k1", "k2"))
    check_pair_like_twins(r, qm.Refinement(k1, k3), Refinement(k1, k2), Refinement(k1, k3))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(valid_quiver_args(), st.data())
def test_spanning_tree_matches_its_dataclass_twin(args, data):
    Q, T = qm.Quiver(*args), Quiver(*args)
    idxs = ()
    if Q.arrows:
        index = st.integers(0, len(Q.arrows) - 1)
        idxs = tuple(data.draw(st.lists(index, max_size=len(Q.vertices))))
    want = outcome(SpanningTree, T, idxs)
    assert outcome(loc.SpanningTree, Q, idxs) == want
    assert outcome(loc.SpanningTree, quiver=Q, arrow_indices=idxs) == want
    if want[0] == "raised":
        return
    tree = loc.SpanningTree(Q, idxs)
    check_like_twin(tree, SpanningTree(T, idxs), ("quiver", "arrow_indices"))
    other = tuple(reversed(idxs))
    check_pair_like_twins(tree, loc.SpanningTree(Q, other),
                          SpanningTree(T, idxs), SpanningTree(T, other))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(valid_quiver_args(), st.sampled_from(IDS), st.lists(valid_quiver_args(), max_size=2))
def test_glued_tuple_matches_its_dataclass_twin(args, sink, parts):
    comps = tuple(qm.Quiver(*p) for p in parts)
    twin_comps = tuple(Quiver(*p) for p in parts)
    g = loc.GluedTuple(qm.Quiver(*args), sink, comps)
    twin = GluedTuple(Quiver(*args), sink, twin_comps)
    assert g == loc.GluedTuple(quiver=qm.Quiver(*args), new_sink=sink, components=comps)
    check_like_twin(g, twin, ("quiver", "new_sink", "components"))
    check_pair_like_twins(g, loc.GluedTuple(g.quiver, "new", comps),
                          twin, GluedTuple(twin.quiver, "new", twin_comps))


# two parallel arrows a -> b, then b -> c
PATH_ARGS = ((("a", 1), ("b", 1), ("c", 1)), (("a", "b"), ("a", "b"), ("b", "c")))


@pytest.mark.parametrize("make, twin, args, message", [
    (qm.Quiver, Quiver, ((("a", 1), ("a", 2)),), "duplicate vertex ids"),
    (qm.Quiver, Quiver, ((("a", 0),),), "levels must be >= 1"),
    (qm.Quiver, Quiver, ((("a", 1.5),),), "level 1.5 is not an int"),
    (qm.Quiver, Quiver, ((("a", True),),), "level True is not an int"),
    (qm.Quiver, Quiver, ((("a", 1),), (("a", "b"),)),
     "arrow endpoint ('a', 'b') not a declared vertex"),
    (qm.Stability, Stability, ((("a", 0.5),),),
     "theta at vertex 'a' must be an int or a Fraction, not float"),
    (loc.SpanningTree, SpanningTree, ("path", (0, 1)), "arrow subset contains a cycle"),
    (loc.SpanningTree, SpanningTree, ("path", (2,)), "a spanning tree on 3 vertices needs 2 arrows"),
])
def test_each_validation_error_keeps_its_type_and_message(make, twin, args, message):
    if args[0] == "path":
        got = outcome(make, qm.Quiver(*PATH_ARGS), *args[1:])
        want = outcome(twin, Quiver(*PATH_ARGS), *args[1:])
    else:
        got, want = outcome(make, *args), outcome(twin, *args)
    assert got == want == ("raised", ValueError, message)


def test_import_loads_no_dataclass_machinery():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import quivermoduli, quivermoduli.cli\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(json.dumps(sorted(m for m in heavy if m in set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []
