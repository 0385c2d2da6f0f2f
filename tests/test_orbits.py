"""Orbit enumeration against the labelled enumerations it replaces.

The HN rows, the theta-coprime check and the tropical run splits
enumerate one representative per orbit of interchangeable items, weighted
by the orbit size.  The box scans, labelled maps, the labelled HN recursion
and the summed-table HN recursion kept here are the reference: on random
small inputs, the orbit forms and the resolved recursion must reproduce
their counts and values exactly.
"""

import gc
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import groupby, product
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
def small_quivers(draw, max_vertices=4, max_dim=3, acyclic=False, thetas=st.integers(-1, 2)):
    """A quiver on up to ``max_vertices`` vertices, a stability with theta
    drawn from ``thetas`` and a dimension vector with entries <=
    ``max_dim``.  Vertices come in blocks that share level, theta and arrow
    pattern, so symmetry classes occur.  With ``acyclic``, arrows only go
    from a vertex to a later one."""
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                  .filter(lambda b: sum(b) <= max_vertices))
    ids, levels, theta, block_of = [], {}, {}, {}
    for b, size in enumerate(blocks):
        level, th = draw(st.integers(1, 2)), draw(thetas)
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


def _all_rows(solver, key):
    """Every row of D: no slope is below minus infinity."""
    return solver._build(key, -math.inf)


class TableOracle:
    """The HN recursion that the resolved one replaced, on the solver's own
    rows: each D has one table of its strata sorted by slope, summed in
    full, with one prefix sum per slope run (``cum[j]`` the sum of the
    rows with slope < ``slopes[j]``, the total last), and

        R(D)    = L^(dim R_D)
                  - sum_(0 < e < D) G_e L^ext(D-e, e) R(e) B(D-e, mu(e)),
        B(D, b) = sum_(0 < e < D, mu(e) < b) G_e L^ext(D-e, e) R(e) B(D-e, mu(e))
                  + [mu(D) < b] R(D),

    with B(D, b) the class of the representations of D whose HN slopes are
    all < b.  The rows carry ext(D-e, D) = ext(D-e, e) + dim R_(D-e)."""

    def __init__(self, solver):
        self.solver = solver
        self._tables = {}

    def rows(self, key):
        """(mu(e), e, D - e, ext(D - e, e), orbit size, G_e) by slope."""
        top = self.solver._top
        return sorted(((mu_e, e, rest, ext - top(rest)[0], mult, gauss)
                       for mu_e, e, rest, ext, mult, gauss in _all_rows(self.solver, key)),
                      key=lambda row: row[0])

    def _table(self, key):
        if key not in self._tables:
            slopes, cum, total = [], [], Poly()
            for mu_e, e, rest, ext, mult, gauss in self.rows(key):
                if not slopes or slopes[-1] != mu_e:
                    slopes.append(mu_e)
                    cum.append(total)
                term = gauss * mult * self.num(e) * self.below(rest, mu_e)
                total = total + term.shifted(ext)
            cum.append(total)
            sums = [sum(x * g for x, g in groups) for groups in key]
            num = Poly.x_pow(self.solver._top(key)[0]) - total
            self._tables[key] = (self.solver.slope(sums), slopes, cum, num)
        return self._tables[key]

    def num(self, key):
        """R(D) = [R_D^sst] in Z[L]."""
        return self._table(key)[3]

    def below(self, key, bound):
        """B(D, bound), from the prefix sum of the runs below the bound."""
        mu, slopes, cum, num = self._table(key)
        value = cum[bisect_left(slopes, bound)]
        return value + num if mu < bound else value


def _resolved(solver, key):
    """R(D) from the resolved recursion: Phi at the slope of D."""
    return solver._phi(key, solver._record(key).mu)


@ORACLE
@given(st.data())
def test_stratum_orbits_match_box_scan(data):
    # the rows of D, grouped by the coordinates of (e, rest), their arrow
    # count ext(rest, D) and slope key, against the labelled box points;
    # a bound keeps exactly the rows above it
    Q, stab, d = data.draw(small_quivers())
    solver, coords = _fresh_solver(Q, stab)
    oracle = LabelledHNSolver(Q, stab)
    dv = tuple(d[v] for v in Q.ids)
    key = coords(dv)
    built = _all_rows(solver, key)
    rows = Counter()
    for mu_e, e, rest, ext, mult, _ in built:
        rows[(e, rest, ext, mu_e)] += mult
    box = Counter()
    for e in _box(dv):
        rest = tuple(a - b for a, b in zip(dv, e))
        if any(e) and any(rest):
            box[(coords(e), coords(rest), oracle.ext(rest, dv),
                 _key(oracle.mu(e)))] += 1
    assert rows == box
    mu = _key(oracle.mu(dv))
    assert solver._record(key).mu == mu
    for bound in {row[0] for row in built} | {mu}:
        assert solver._build(key, bound) == [row for row in built if row[0] > bound]
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
    for _, e, rest, _, _, gauss in _all_rows(solver, key):
        assert _den(e) * _den(rest) * gauss == _den(key)


def _three_class_quiver():
    """Three symmetry classes: A = {a1, a2} with loops and arrows both ways
    inside it, B = {b1, b2} with arrows to and from A, and C = {c} at level
    2 with a loop; with a stability and three dimension vectors.  Every
    term of the walk's running ext is nonzero."""
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
        rows = {}
        for mu_e, e, rest, ext, mult, gauss in _all_rows(solver, key):
            assert (e, rest) not in rows, (e, rest)
            rows[(e, rest)] = (ext, mu_e, mult)
            assert _den(e) * _den(rest) * gauss == _den(key), (e, rest)
        box = {}
        for e in _box(dv):
            rest = tuple(a - b for a, b in zip(dv, e))
            if any(e) and any(rest):
                row = (coords(e), coords(rest))
                ext, mu_e, mult = box.get(row, (oracle.ext(rest, dv), _key(oracle.mu(e)), 0))
                assert (ext, mu_e) == (oracle.ext(rest, dv), _key(oracle.mu(e)))
                box[row] = (ext, mu_e, mult + 1)
        assert rows == box, dv
        assert solver._record(key).mu == _key(oracle.mu(dv))
        assert solver.sst_class(key) == oracle.sst_class(dv), dv


def _check_run_sums_against_rows(oracle, key):
    # the oracle's B(D, b) for every slope b of the rows, for mu(D) and for
    # one bound above both, against the sum of G_e L^ext R(e) B(D - e, mu(e))
    # over the rows below b, plus R(D) when mu(D) < b
    rows = oracle.rows(key)
    mu = oracle.solver.slope([sum(x * g for x, g in groups) for groups in key])
    top = max([row[0] for row in rows] + [mu]) + 1
    for bound in sorted({row[0] for row in rows} | {mu, top}):
        total = Poly()
        for mu_e, e, rest, ext, mult, gauss in rows:
            if mu_e < bound:
                term = gauss * mult * oracle.num(e) * oracle.below(rest, mu_e)
                total = total + term.shifted(ext)
        if mu < bound:
            total = total + oracle.num(key)
        assert oracle.below(key, bound) == total, (key, bound)
    # every stratum lies below the top bound: B(D, top) = L^(dim R_D)
    assert oracle.below(key, top) == Poly.x_pow(oracle.solver._top(key)[0])


@ORACLE
@given(small_quivers())
def test_run_sums_match_the_row_wise_sums(case):
    Q, stab, d = case
    solver, coords = _fresh_solver(Q, stab)
    _check_run_sums_against_rows(TableOracle(solver), coords(tuple(d[v] for v in Q.ids)))


def test_run_sums_match_the_row_wise_sums_with_three_classes():
    Q, stab, dims = _three_class_quiver()
    solver, coords = _fresh_solver(Q, stab)
    for dv in dims:
        _check_run_sums_against_rows(TableOracle(solver), coords(dv))


@ORACLE
@given(st.one_of(small_quivers(), small_quivers(thetas=st.fractions(-1, 2, max_denominator=3))))
def test_resolved_recursion_matches_the_table_oracle(case):
    # R(D) for D and every nonzero e <= D, each at its own slope, from one
    # solver (so the Phi of different bounds share its records), against the
    # summed-table recursion of a second solver; loops, levels and Fraction
    # theta come from the strategy
    Q, stab, d = case
    solver, coords = _fresh_solver(Q, stab)
    oracle = TableOracle(_fresh_solver(Q, stab)[0])
    for e in _box(tuple(d[v] for v in Q.ids)):
        if any(e):
            assert _resolved(solver, coords(e)) == oracle.num(coords(e)), e


def test_resolved_recursion_matches_the_table_oracle_with_three_classes():
    Q, stab, dims = _three_class_quiver()
    solver, coords = _fresh_solver(Q, stab)
    oracle = TableOracle(_fresh_solver(Q, stab)[0])
    for dv in dims:
        assert _resolved(solver, coords(dv)) == oracle.num(coords(dv)), dv


def test_memoized_tables_hold_no_rows_or_gaussian_factors():
    # a record keeps the slope key, dim R_D, the sorted slopes of the
    # class-sum vectors, Phi by slope gap and the reduced class once asked
    # for; never the rows, their Gaussian factors or a stratum sum
    assert set(motive_mod._Record.__slots__) == {"mu", "dim", "slopes", "phi", "sst"}
    Q, stab, dims = _three_class_quiver()
    solver, coords = _fresh_solver(Q, stab)
    for dv in dims:
        solver.sst_class(coords(dv))
    assert len(solver._records) > 20
    for record in solver._records.values():
        assert type(record.mu) is int and type(record.dim) is int
        assert all(type(b) is int for b in record.slopes)
        assert all(a < b for a, b in zip(record.slopes, record.slopes[1:]))
        assert record.phi and all(0 <= gap <= len(record.slopes) for gap in record.phi)
        assert all(type(value) is Poly for value in record.phi.values())
        assert record.sst is None or type(record.sst) is MotiveClass


@ORACLE
@given(small_quivers())
def test_record_slopes_are_the_slopes_of_the_box(case):
    # the slopes a record keeps are those of the labelled 0 < e < d
    Q, stab, d = case
    solver, coords = _fresh_solver(Q, stab)
    oracle = LabelledHNSolver(Q, stab)
    dv = tuple(d[v] for v in Q.ids)
    record = solver._record(coords(dv))
    assert record.slopes == sorted({_key(oracle.mu(e)) for e in _box(dv) if any(e) and e != dv})
    assert record.dim == sum(dv[u] * dv[v] for u, v in oracle.arrows)


def test_bounds_in_one_slope_gap_share_one_phi_entry():
    # Phi_b(D) depends on b only through bisect_right(slopes, b): two bounds
    # in one gap read one entry, a bound in the next gap adds one, and each
    # value is the one a fresh solver gives at that bound
    Q, stab, dims = _three_class_quiver()
    solver, coords = _fresh_solver(Q, stab)
    key = coords(dims[0])
    slopes = solver._record(key).slopes
    j = len(slopes) // 2
    assert 0 < j and slopes[j - 1] + 1 < slopes[j]
    low, high = slopes[j - 1], slopes[j] - 1
    value = solver._phi(key, low)
    assert solver._phi(key, high) is value
    assert list(solver._record(key).phi) == [j]
    above = solver._phi(key, slopes[j])
    assert sorted(solver._record(key).phi) == [j, j + 1]
    for bound, got in ((high, value), (slopes[j], above)):
        fresh = _fresh_solver(Q, stab)[0]
        assert fresh._phi(key, bound) == got, bound
    # the top gap drops every row: Phi = L^(dim R_D)
    assert solver._phi(key, slopes[-1]) == Poly.x_pow(solver._record(key).dim)


def test_summed_rows_are_freed_without_the_cycle_collector():
    # the rows of D are freed by reference counting once they are summed,
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


def _compatible_assignments(weights, targets):
    """Maps index -> part with per-part weight sums equal to targets, one per
    orbit under permutations of equal entries of the weakly increasing
    ``weights``.

    Returns ``(groups, multiplicity)`` pairs: ``groups[p]`` is the weakly
    increasing weight vector sent to part p, and ``multiplicity`` is the
    number of labelled maps with those groups.  Each run of g equal weights
    is split among the parts, which gives g!/prod c_p! labelled maps.
    """
    runs = [(x, len(list(run))) for x, run in groupby(weights)]
    n = len(targets)
    results = []

    def rec(r, remaining, groups, mult):
        if r == len(runs):
            if not any(remaining):
                results.append((tuple(groups), mult))
            return
        x, g = runs[r]
        for counts, weight in weighted_splits(g, n):
            if any(x * c > left for c, left in zip(counts, remaining)):
                continue
            rec(r + 1,
                [left - x * c for left, c in zip(remaining, counts)],
                [grp + (x,) * c for grp, c in zip(groups, counts)],
                mult * weight)

    rec(0, list(targets), [()] * n, 1)
    return results


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
