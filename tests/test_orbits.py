"""Orbit enumeration against the labelled enumerations it replaces.

The HN stratum sums, the theta-coprime check and the tropical compatible
assignments enumerate one representative per orbit of interchangeable items,
weighted by the orbit size.  The box scans and labelled maps kept here are
the reference: on random small inputs, the orbit forms must reproduce their
counts exactly.
"""

from collections import Counter
from itertools import product
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

import quivermoduli.motive as motive_mod
from quivermoduli.motive import hn_sst_class, is_theta_coprime
from quivermoduli.quiver import Quiver, Stability
from quivermoduli.symfunc import weighted_splits
from quivermoduli.tropical import _compatible_assignments, ramification_factor

ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


# -- the helper ----------------------------------------------------------------


@ORACLE
@given(st.integers(0, 6), st.integers(1, 4), st.data())
def test_weighted_splits_match_labelled_assignments(g, k, data):
    caps = data.draw(st.none() | st.lists(st.integers(0, 6), min_size=k, max_size=k))
    labelled = Counter()
    for slots in product(range(k), repeat=g):
        counts = tuple(slots.count(i) for i in range(k))
        if caps is None or all(c <= cap for c, cap in zip(counts, caps)):
            labelled[counts] += 1
    splits = list(weighted_splits(g, k, caps))
    assert len({c for c, _ in splits}) == len(splits)
    assert dict(splits) == dict(labelled)


# -- random small quivers --------------------------------------------------------


@st.composite
def small_quivers(draw, max_vertices=4, max_dim=3):
    """A quiver on up to ``max_vertices`` vertices, a stability and a
    dimension vector with entries <= ``max_dim``.  Vertices come in blocks
    that share level, theta and arrow pattern, so symmetry classes occur."""
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                  .filter(lambda b: sum(b) <= max_vertices))
    ids, levels, theta, block_of = [], {}, {}, {}
    for b, size in enumerate(blocks):
        level, th = draw(st.integers(1, 2)), draw(st.integers(-1, 2))
        for k in range(size):
            v = "v%d_%d" % (b, k)
            ids.append(v)
            levels[v], theta[v], block_of[v] = level, th, b
    # arrow multiplicities depend on the blocks only, plus a few extra
    # arrows between chosen vertices that may break the symmetry
    mult = {(a, b): draw(st.integers(0, 2))
            for a in range(len(blocks)) for b in range(len(blocks))}
    arrows = [(s, t) for s in ids for t in ids if s != t
              for _ in range(mult[(block_of[s], block_of[t])])]
    arrows += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                            .filter(lambda a: a[0] != a[1]), max_size=2))
    Q = Quiver(tuple((v, levels[v]) for v in ids), tuple(arrows))
    dims = draw(st.lists(st.integers(0, max_dim), min_size=len(ids), max_size=len(ids))
                .filter(any))
    return Q, Stability.of(theta), dict(zip(ids, dims))


def _set_partitions(draw, n):
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    classes = {}
    for v, label in enumerate(labels):
        classes.setdefault(label, []).append(v)
    return tuple(tuple(vs) for _, vs in sorted(classes.items()))


def _box(d):
    return product(*[range(x + 1) for x in d])


def _box_pairkey_counts(solver, d):
    counts = Counter()
    for e in _box(d):
        counts[solver._pairkey(e, tuple(a - b for a, b in zip(d, e)))] += 1
    return counts


@ORACLE
@given(st.data())
def test_stratum_orbits_match_box_scan(data):
    Q, stab, d = data.draw(small_quivers())
    solver = motive_mod._HNSolver(Q, stab)
    if data.draw(st.booleans()):
        # any partition into classes is a valid grouping for the counting
        solver.classes = _set_partitions(data.draw, len(Q.ids))
    dv = tuple(d[v] for v in Q.ids)
    orbits = Counter()
    for e, size in solver._orbits(dv):
        key = solver._pairkey(e, tuple(a - b for a, b in zip(dv, e)))
        assert key not in orbits  # one representative per orbit
        orbits[key] = size
    assert sum(orbits.values()) == prod(x + 1 for x in dv)
    assert orbits == _box_pairkey_counts(solver, dv)


def _box_theta_coprime(Q, s, d):
    sol = motive_mod._HNSolver(Q, s)
    dv = tuple(d.get(v, 0) for v in Q.ids)
    mu_d = sol.mu(dv)
    return all(sol.mu(e) != mu_d for e in _box(dv) if any(e) and e != dv)


@ORACLE
@given(small_quivers())
def test_theta_coprime_matches_box_scan(case):
    Q, stab, d = case
    assert is_theta_coprime(Q, stab, d) == _box_theta_coprime(Q, stab, d)


def test_theta_coprime_matches_box_scan_on_named_cases():
    K3 = Quiver.kronecker(3)
    s = Stability.of({"i1": 1, "j1": 0})
    K24 = Quiver.complete_bipartite(2, 4)
    s24 = Stability.of({"i1": 1, "i2": 1, "j1": 0, "j2": 0, "j3": 0, "j4": 0})
    cases = [
        (K3, s, {"i1": 2, "j1": 3}, True),
        (K3, s, {"i1": 2, "j1": 2}, False),
        (K3, s, {"i1": 3, "j1": 6}, False),
        (K24, s24, {"i1": 2, "i2": 1, "j1": 1, "j2": 1, "j3": 1, "j4": 1}, True),
        (K24, s24, {"i1": 1, "i2": 1, "j1": 1, "j2": 1, "j3": 1, "j4": 1}, False),
    ]
    for Q, stab, d, expected in cases:
        assert is_theta_coprime(Q, stab, d) is expected, d
        assert _box_theta_coprime(Q, stab, d) is expected, d


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_quivers(max_dim=2))
def test_orbit_classes_match_singleton_classes(case):
    # with one vertex per class the orbits are the labelled box points
    Q, stab, d = case
    motive_mod._solvers.clear()
    solver = motive_mod._HNSolver(Q, stab)
    solver.classes = tuple((k,) for k in range(len(Q.ids)))
    assert hn_sst_class(Q, stab, d) == solver.sst_class(tuple(d[v] for v in Q.ids))


# -- tropical compatible assignments ------------------------------------------


def _labelled_assignments(weights, targets):
    """Every map index -> part with per-part weight sums equal to targets."""
    out = []
    for a in product(range(len(targets)), repeat=len(weights)):
        sums = [0] * len(targets)
        for i, p in enumerate(a):
            sums[p] += weights[i]
        if sums == list(targets):
            out.append(a)
    return out


@ORACLE
@given(st.lists(st.integers(1, 3), max_size=6).map(sorted).map(tuple),
       st.integers(1, 3), st.data())
def test_compatible_assignments_match_labelled_maps(weights, n, data):
    total = sum(weights)
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    targets = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
    if data.draw(st.booleans()):  # sometimes an unreachable target
        targets = targets[:-1] + (targets[-1] + 1,)

    labelled = Counter()
    for a in _labelled_assignments(weights, targets):
        groups = tuple(tuple(sorted(w for w, p in zip(weights, a) if p == q))
                       for q in range(n))
        labelled[groups] += 1
    orbits = _compatible_assignments(weights, targets)
    assert Counter(groups for groups, _ in orbits) == Counter(set(labelled))
    assert dict(orbits) == dict(labelled)
    assert sum(m for _, m in orbits) == len(_labelled_assignments(weights, targets))


def test_ramification_factor_counts_labelled_maps():
    # (1,1,1,2) into parts (3,2): the 2 goes left with one 1 (3 ways) or
    # right alone (1 way)
    assert len(_labelled_assignments((1, 1, 1, 2), (3, 2))) == 4
    assert ramification_factor((3, 2), (1, 1, 1, 2)) == 4 * ramification_factor((5,), (1, 1, 1, 2))
