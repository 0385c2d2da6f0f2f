"""Orbit enumeration against the labelled enumerations it replaces.

The HN stratum tables, the theta-coprime check and the tropical run splits
enumerate one representative per orbit of interchangeable items, weighted
by the orbit size.  The box scans, labelled maps and the labelled HN
recursion kept here are the reference: on random small inputs, the orbit
forms must reproduce their counts and values exactly.
"""

import gc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quivermoduli.motive as motive_mod
from quivermoduli.motive import (
    MotiveClass,
    euler_char,
    hn_sst_class,
    hn_types,
    is_theta_coprime,
    poincare,
)
from quivermoduli.quiver import Quiver, Stability
from quivermoduli.ratfunc import Poly
from quivermoduli.symfunc import weighted_splits
from quivermoduli.tropical import _run_splits, _runs, ramification_factor

ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


# -- the helper ----------------------------------------------------------------


@ORACLE
@given(st.integers(0, 6), st.integers(1, 4))
def test_weighted_splits_match_labelled_assignments(g, k):
    labelled = Counter()
    for slots in product(range(k), repeat=g):
        labelled[tuple(slots.count(i) for i in range(k))] += 1
    splits = list(weighted_splits(g, k))
    assert len({c for c, _ in splits}) == len(splits)
    assert dict(splits) == dict(labelled)


# -- random small quivers --------------------------------------------------------


@st.composite
def small_quivers(draw, max_vertices=4, max_dim=3, acyclic=False):
    """A quiver on up to ``max_vertices`` vertices, a stability and a
    dimension vector with entries <= ``max_dim``.  Vertices come in blocks
    that share level, theta and arrow pattern, so symmetry classes occur.
    With ``acyclic``, arrows only go from a vertex to a later one."""
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                  .filter(lambda b: sum(b) <= max_vertices))
    ids, levels, theta, block_of = [], {}, {}, {}
    for b, size in enumerate(blocks):
        level, th = draw(st.integers(1, 2)), draw(st.integers(-1, 2))
        for k in range(size):
            v = "v%d_%d" % (b, k)
            ids.append(v)
            levels[v], theta[v], block_of[v] = level, th, b
    # arrow and loop multiplicities depend on the blocks only, plus a few
    # extra arrows or loops at chosen vertices that may break the symmetry
    mult = {(a, b): draw(st.integers(0, 2)) if a < b or not acyclic else 0
            for a in range(len(blocks)) for b in range(len(blocks))}
    loops = [draw(st.integers(0, 1)) if not acyclic else 0 for _ in blocks]
    arrows = [(s, t) for s in ids for t in ids if s != t
              for _ in range(mult[(block_of[s], block_of[t])])]
    arrows += [(v, v) for v in ids for _ in range(loops[block_of[v]])]
    extra = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2))
    arrows += [(s, t) for s, t in extra if ids.index(s) < ids.index(t) or not acyclic]
    Q = Quiver(tuple((v, levels[v]) for v in ids), tuple(arrows))
    dims = draw(st.lists(st.integers(0, max_dim), min_size=len(ids), max_size=len(ids))
                .filter(any))
    return Q, Stability.of(theta), dict(zip(ids, dims))


def _box(d):
    return product(*[range(x + 1) for x in d])


class LabelledHNSolver:
    """The HN recursion on labelled dimension vectors, one stratum per point
    of the box 0 <= e <= d (every vertex its own symmetry class).  It is the
    reference for ``motive._HNSolver``, which sums over orbits in
    class-count coordinates shared by every quiver with the same class
    data."""

    def __init__(self, Q, stab):
        index = {v: k for k, v in enumerate(Q.ids)}
        th = stab.theta_map()
        self.theta = tuple(th.get(v, 0) for v in Q.ids)
        self.kappa = tuple(l for _, l in Q.vertices)
        self.arrows = tuple((index[s], index[t]) for s, t in Q.arrows)
        self._sst = {}
        self._below = {}

    def mu(self, d):
        return Fraction(sum(t * x for t, x in zip(self.theta, d)),
                        sum(k * x for k, x in zip(self.kappa, d)))

    def euler(self, d, e):
        return sum(a * b for a, b in zip(d, e)) - self.ext(d, e)

    def ext(self, d, e):
        """The arrow count sum over the arrows u -> v of d_u e_v."""
        return sum(d[u] * e[v] for u, v in self.arrows)

    def top_class(self, d):
        dim_r = sum(d[u] * d[v] for u, v in self.arrows)
        cyc = Counter(k for x in d for k in range(1, x + 1))
        return MotiveClass(1, sum(comb(x, 2) for x in d) - dim_r, cyc)

    def sst_class(self, d):
        if d not in self._sst:
            self._sst[d] = self.top_class(d) - self._stratum_sum(d, None)
        return self._sst[d]

    def below(self, d, bound):
        """Sum over the HN types of d with all slopes < bound."""
        if (d, bound) not in self._below:
            self._below[(d, bound)] = self._stratum_sum(d, bound)
        return self._below[(d, bound)]

    def _stratum_sum(self, d, bound):
        # bound None: the nontrivial types of d, grouped by first block
        total = MotiveClass.zero()
        for e in _box(d):
            if not any(e) or (bound is None and e == d):
                continue
            if bound is not None and self.mu(e) >= bound:
                continue
            rest = tuple(a - b for a, b in zip(d, e))
            term = self.sst_class(e)
            if any(rest):
                term = term.times_l_power(-self.euler(rest, e)) * self.below(rest, self.mu(e))
            total = total + term
        return total


def _fresh_solver(Q, stab):
    """A new solver for the class data of (Q, stab), and the class-count
    coordinates of the dimension vectors of Q."""
    classes, data = motive_mod._class_data(Q, stab)
    return motive_mod._HNSolver(*data), partial(motive_mod._coords, classes)


def _key(mu):
    """floor(2^64 mu): the solver's slope key of mu for integer theta."""
    return (mu.numerator << 64) // mu.denominator


@ORACLE
@given(st.data())
def test_stratum_orbits_match_box_scan(data):
    # the rows of one table, grouped by the coordinates of (e, rest), their
    # arrow count ext(rest, e) and slope key, against the labelled box points
    Q, stab, d = data.draw(small_quivers())
    solver, coords = _fresh_solver(Q, stab)
    oracle = LabelledHNSolver(Q, stab)
    dv = tuple(d[v] for v in Q.ids)
    key = coords(dv)
    mu, built, _ = solver._build(key)
    rows = Counter()
    for mu_e, e, rest, ext, mult in built:
        rows[(e, rest, ext, mu_e)] += mult
    box = Counter()
    for e in _box(dv):
        rest = tuple(a - b for a, b in zip(dv, e))
        if any(e) and any(rest):
            box[(coords(e), coords(rest), oracle.ext(rest, e),
                 _key(oracle.mu(e)))] += 1
    assert rows == box
    slopes = [row[0] for row in built]
    assert slopes == sorted(slopes)
    assert mu == _key(oracle.mu(dv))
    dim, binoms, cyc = solver._top(key)
    assert MotiveClass(Poly.x_pow(dim), binoms, cyc) == oracle.top_class(dv)


def _den(key):
    """den(D) = prod_v prod_(k <= d_v) (L^k - 1) from class-count coordinates."""
    out = Poly((1,))
    for groups in key:
        for x, g in groups:
            for k in range(1, x + 1):
                out = out * (Poly.x_pow(k) - Poly((1,))) ** g
    return out


@ORACLE
@given(small_quivers())
def test_gaussian_factors_carry_each_row_to_the_common_denominator(case):
    # den(e) den(D - e) prod_v [d_v choose e_v]_L = den(D) on every row
    Q, stab, d = case
    solver, coords = _fresh_solver(Q, stab)
    key = coords(tuple(d[v] for v in Q.ids))
    _, built, gaussians = solver._build(key)
    assert len(gaussians) == len(built)
    for (_, e, rest, _, _), gauss in zip(built, gaussians):
        assert _den(e) * _den(rest) * gauss == _den(key)


def _three_class_quiver():
    """Three symmetry classes: A = {a1, a2} with loops and arrows both ways
    inside it, B = {b1, b2} with arrows to and from A, and C = {c} at level
    2 with a loop; with a stability and three dimension vectors.  Every
    cross term of the walk's running ext is nonzero."""
    ids = ("a1", "a2", "b1", "b2", "c")
    A, B = ("a1", "a2"), ("b1", "b2")
    arrows = [("a1", "a2"), ("a2", "a1"), ("a1", "a1"), ("a2", "a2"), ("c", "c")]
    arrows += [(a, b) for a in A for b in B]
    arrows += [(b, a) for a in A for b in B for _ in range(2)]
    arrows += [(b, "c") for b in B] + [("c", a) for a in A]
    Q = Quiver(tuple((v, 2 if v == "c" else 1) for v in ids), tuple(arrows))
    stab = Stability.of({"a1": 2, "a2": 2, "b1": 0, "b2": 0, "c": -1})
    return Q, stab, ((2, 1, 1, 2, 2), (2, 2, 1, 1, 1), (1, 3, 0, 2, 1))


def test_stratum_table_with_three_classes_matches_box_scan():
    Q, stab, dims = _three_class_quiver()
    solver, coords = _fresh_solver(Q, stab)
    # classes in the order of their data: theta -1 (C), 0 (B), 2 (A)
    assert motive_mod._class_data(Q, stab)[0] == ((4,), (2, 3), (0, 1))
    oracle = LabelledHNSolver(Q, stab)
    for dv in dims:
        key = coords(dv)
        mu, built, gaussians = solver._build(key)
        rows = {}
        for (mu_e, e, rest, ext, mult), gauss in zip(built, gaussians):
            assert (e, rest) not in rows, (e, rest)
            rows[(e, rest)] = (ext, mu_e, mult)
            assert _den(e) * _den(rest) * gauss == _den(key), (e, rest)
        box = {}
        for e in _box(dv):
            rest = tuple(a - b for a, b in zip(dv, e))
            if any(e) and any(rest):
                row = (coords(e), coords(rest))
                ext, mu_e, mult = box.get(row, (oracle.ext(rest, e), _key(oracle.mu(e)), 0))
                assert (ext, mu_e) == (oracle.ext(rest, e), _key(oracle.mu(e)))
                box[row] = (ext, mu_e, mult + 1)
        assert rows == box, dv
        slopes = [row[0] for row in built]
        assert slopes == sorted(slopes)
        assert mu == _key(oracle.mu(dv))
        assert solver.sst_class(key) == oracle.sst_class(dv), dv


def _check_run_sums_against_rows(solver, key):
    # B(D, b) for every slope b of the built rows, for mu(D) and for one
    # bound above both, against the sum of G_e L^ext R(e) B(D - e, mu(e))
    # over the rows below b, plus R(D) when mu(D) < b
    mu, rows, gaussians = solver._build(key)
    top = max([row[0] for row in rows] + [mu]) + 1
    for bound in sorted({row[0] for row in rows} | {mu, top}):
        total = Poly()
        for (mu_e, e, rest, ext, mult), gauss in zip(rows, gaussians):
            if mu_e < bound:
                term = gauss * mult * solver._sst_num(e) * solver._below(rest, mu_e)
                total = total + term.shifted(ext)
        if mu < bound:
            total = total + solver._sst_num(key)
        assert solver._below(key, bound) == total, (key, bound)
    # every stratum lies below the top bound: B(D, top) = L^(dim R_D)
    assert solver._below(key, top) == Poly.x_pow(solver._top(key)[0])


@ORACLE
@given(small_quivers())
def test_run_sums_match_the_row_wise_sums(case):
    Q, stab, d = case
    solver, coords = _fresh_solver(Q, stab)
    _check_run_sums_against_rows(solver, coords(tuple(d[v] for v in Q.ids)))


def test_run_sums_match_the_row_wise_sums_with_three_classes():
    Q, stab, dims = _three_class_quiver()
    solver, coords = _fresh_solver(Q, stab)
    for dv in dims:
        _check_run_sums_against_rows(solver, coords(dv))


def test_memoized_tables_hold_no_rows_or_gaussian_factors():
    # a table keeps its slope key, its run slopes and one prefix sum per run
    # (the total last), and the values once asked for; never the strata rows
    # or their Gaussian factors
    assert set(motive_mod._Table.__slots__) == {"mu", "slopes", "cum", "num", "sst"}
    Q, stab, dims = _three_class_quiver()
    solver, coords = _fresh_solver(Q, stab)
    for dv in dims:
        solver.sst_class(coords(dv))
    assert len(solver._tables) > 20
    for table in solver._tables.values():
        assert type(table.mu) is int
        assert all(type(b) is int for b in table.slopes)
        assert all(a < b for a, b in zip(table.slopes, table.slopes[1:]))
        assert len(table.cum) == len(table.slopes) + 1
        assert all(type(c) is Poly for c in table.cum)
        assert table.num is None or type(table.num) is Poly
        assert table.sst is None or type(table.sst) is MotiveClass


def test_summed_rows_are_freed_without_the_cycle_collector():
    # the rows of a table are freed by reference counting once it is summed,
    # so a fresh solver leaves no cyclic garbage (a warm-up fills the shared
    # module caches first)
    Q, stab, dims = _three_class_quiver()
    for _ in range(2):
        solver, coords = _fresh_solver(Q, stab)
        gc.collect()
        gc.disable()
        try:
            for dv in dims:
                solver.sst_class(coords(dv))
            garbage = gc.collect()
        finally:
            gc.enable()
    assert garbage == 0


def _box_theta_coprime(Q, s, d):
    sol = LabelledHNSolver(Q, s)
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
    # the class-count recursion against the labelled one: the class of d,
    # then the reduced class of every nonzero e <= d from the same solver
    Q, stab, d = case
    motive_mod._solver.cache_clear()
    dv = tuple(d[v] for v in Q.ids)
    oracle = LabelledHNSolver(Q, stab)
    assert hn_sst_class(Q, stab, d) == oracle.sst_class(dv)
    classes, data = motive_mod._class_data(Q, stab)
    solver = motive_mod._solver(*data)
    for e in _box(dv):
        if any(e):
            assert solver.sst_class(motive_mod._coords(classes, e)) == oracle.sst_class(e), e


# -- integer slope keys --------------------------------------------------------


BIG = 2 ** 32 - 1


def _assert_keys_order_like(x, y):
    kx = motive_mod._slope_key(x.numerator, x.denominator)
    ky = motive_mod._slope_key(y.numerator, y.denominator)
    assert (kx < ky) == (x < y) and (kx == ky) == (x == y), (x, y)


@ORACLE
@given(st.integers(-2 ** 40, 2 ** 40), st.integers(1, BIG),
       st.integers(-2 ** 40, 2 ** 40), st.integers(1, BIG))
def test_slope_keys_order_like_fractions(a, b, c, d):
    _assert_keys_order_like(Fraction(a, b), Fraction(c, d))
    # the key of theta.e / kappa.e does not depend on a common factor
    if 3 * b <= BIG:
        assert motive_mod._slope_key(3 * a, 3 * b) == motive_mod._slope_key(a, b)


@ORACLE
@given(st.integers(2 ** 31, BIG), st.integers(-2 ** 20, 2 ** 20))
def test_slope_keys_separate_farey_neighbours(d, k):
    # (1 + k (d - 1)) / (d - 1) and (1 + k d) / d differ by 1 / (d (d - 1)),
    # the closest two slopes with denominators d - 1 and d can be
    x, y = Fraction(1 + k * (d - 1), d - 1), Fraction(1 + k * d, d)
    assert abs(x - y) == Fraction(1, d * (d - 1))
    _assert_keys_order_like(x, y)
    _assert_keys_order_like(-x, -y)


def test_slope_keys_at_the_bound():
    _assert_keys_order_like(Fraction(1, BIG), Fraction(1, BIG - 1))
    _assert_keys_order_like(Fraction(-1, BIG - 1), Fraction(-1, BIG))
    with pytest.raises(ValueError, match="below 2\\^32"):
        motive_mod._slope_key(1, 2 ** 32)


def test_slope_denominator_beyond_the_keys_is_rejected():
    K3 = Quiver.kronecker(3)
    s = Stability.of({"i1": 1, "j1": 0})
    d = {"i1": 2 ** 32, "j1": 1}
    for fn in (hn_sst_class, is_theta_coprime, euler_char, poincare, hn_types):
        with pytest.raises(ValueError, match="below 2\\^32"):
            fn(K3, s, d)
    # levels count in kappa: 2^31 at a level-2 vertex is too large as well
    Q = Quiver((("a", 2), ("b", 1)), (("a", "b"),))
    with pytest.raises(ValueError, match="below 2\\^32"):
        hn_sst_class(Q, Stability.of({"a": 1, "b": 0}), {"a": 2 ** 31, "b": 1})


def test_fraction_theta_is_scaled_to_integers():
    K3 = Quiver.kronecker(3)
    scaled = Stability.of({"i1": Fraction(1, 2), "j1": Fraction(1, 3)})
    whole = Stability.of({"i1": 3, "j1": 2})
    for d in ({"i1": 2, "j1": 3}, {"i1": 3, "j1": 4}, {"i1": 2, "j1": 2}):
        assert hn_sst_class(K3, scaled, d) == hn_sst_class(K3, whole, d)
        assert is_theta_coprime(K3, scaled, d) == is_theta_coprime(K3, whole, d)


# -- tropical run splits -------------------------------------------------------


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


def _labelled_groups(weights, targets):
    """Counter of the groups (weights sent to each part) over the labelled maps."""
    return Counter(tuple(tuple(sorted(w for w, p in zip(weights, a) if p == q))
                         for q in range(len(targets)))
                   for a in _labelled_assignments(weights, targets))


def _split_part_by_part(weights, targets):
    """Counter of the groups over the maps onto ``targets``, each weighted by
    its number of labelled maps, taking one part at a time through
    ``_run_splits``."""
    out = Counter()

    def rec(runs, groups, ways):
        if len(groups) == len(targets):
            if not runs:
                out[groups] += ways
            return
        for taken, left, more in _run_splits(runs, targets[len(groups)]):
            rec(left, groups + (taken,), ways * more)

    rec(_runs(weights), (), 1)
    return out


@st.composite
def weights_and_targets(draw):
    """A weakly increasing weight vector and 1-3 targets with the same sum,
    or sometimes one more (no compatible map)."""
    weights = tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=6))))
    n, total = draw(st.integers(1, 3)), sum(weights)
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    targets = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
    if draw(st.booleans()):
        targets = targets[:-1] + (targets[-1] + 1,)
    return weights, targets


@ORACLE
@given(weights_and_targets())
def test_compatible_assignments_match_labelled_maps(case):
    # the assignment orbits of the recursion that the piece sum replaced
    # (imported here: test_tropical imports this module through test_motive)
    from test_tropical import _compatible_assignments

    weights, targets = case
    labelled = _labelled_groups(weights, targets)
    orbits = _compatible_assignments(weights, targets)
    assert Counter(groups for groups, _ in orbits) == Counter(set(labelled))
    assert dict(orbits) == dict(labelled)
    assert sum(m for _, m in orbits) == len(_labelled_assignments(weights, targets))


@ORACLE
@given(weights_and_targets())
def test_run_splits_part_by_part_count_the_labelled_maps(case):
    weights, targets = case
    split = _split_part_by_part(weights, targets)
    assert split == _labelled_groups(weights, targets)
    assert sum(split.values()) == len(_labelled_assignments(weights, targets))


def test_ramification_factor_counts_labelled_maps():
    # (1,1,1,2) into parts (3,2): the 2 goes left with one 1 (3 ways) or
    # right alone (1 way)
    assert len(_labelled_assignments((1, 1, 1, 2), (3, 2))) == 4
    assert ramification_factor((3, 2), (1, 1, 1, 2)) == 4 * ramification_factor((5,), (1, 1, 1, 2))
