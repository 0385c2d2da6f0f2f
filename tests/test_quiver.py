import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from quivermoduli.quiver import (
    Quiver,
    Refinement,
    Stability,
    antisymmetrized_form,
    check_quiver,
    euler_form,
    fraction_to_str,
    hat_quiver,
    n_support,
    slope,
)

JORDAN = Quiver((("a", 1),), (("a", "a"),))


def theta_sources(Q):
    return Stability.of({v: (1 if v in Q.sources() else 0) for v in Q.ids})


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver((("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        Quiver((("a", 0),))
    with pytest.raises(ValueError):
        Quiver((("a", 1),), (("a", "b"),))


def test_euler_form_examples():
    K12 = Quiver.complete_bipartite(1, 2)
    ones = {v: 1 for v in K12.ids}
    assert euler_form(K12, ones, ones) == 1
    K3 = Quiver.kronecker(3)
    d = {"i1": 1, "j1": 1}
    assert euler_form(K3, d, d) == -1
    assert euler_form(JORDAN, {"a": 2}, {"a": 2}) == 0
    assert antisymmetrized_form(K3, {"i1": 1, "j1": 0}, {"i1": 0, "j1": 1}) == -3
    with pytest.raises(ValueError):
        euler_form(K3, {"zz": 1}, d)


def test_euler_form_bilinear_random():
    rng = random.Random(5150)
    for _ in range(20):
        nv = rng.randint(2, 4)
        ids = ["v%d" % k for k in range(nv)]
        arrows = tuple(
            (rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(1, 6)))
        Q = Quiver(tuple((v, 1) for v in ids), arrows)
        rnd = lambda: {v: rng.randint(0, 3) for v in ids}
        d, dp, e = rnd(), rnd(), rnd()
        lhs = euler_form(Q, {v: d[v] + dp[v] for v in ids}, e)
        assert lhs == euler_form(Q, d, e) + euler_form(Q, dp, e)


@pytest.mark.parametrize("bad", [0.1, "1", True])
def test_stability_rejects_inexact_theta(bad):
    # a float would be scaled to its binary value, not to 1/10
    with pytest.raises(ValueError, match="theta at vertex 'j1'"):
        Stability.of({"i1": 1, "j1": bad})
    assert Stability.of({"i1": 1, "j1": Fraction(1, 10)}).theta_map()["j1"] == Fraction(1, 10)


@pytest.mark.parametrize("bad", [1.5, Fraction(1), True])
def test_integer_inputs_are_checked_not_truncated(bad):
    # int() would read 1.5 as 1
    with pytest.raises(ValueError, match="level %s is not an int" % re.escape(repr(bad))):
        Quiver((("a", bad),))
    with pytest.raises(ValueError, match="multiplicity count"):
        hat_quiver(JORDAN, "a", {1: bad}, {"a": 1})
    with pytest.raises(ValueError, match="multiplicity level"):
        hat_quiver(JORDAN, "a", {bad: 1}, {"a": 1})
    with pytest.raises(ValueError, match="part"):
        check_quiver(JORDAN, "a", (bad,), {"a": 1})


def test_slope():
    Q = Quiver((("a", 1), ("b", 1)))
    s = Stability.of({"a": 1, "b": 0})
    assert slope(s, Q, {"a": 2, "b": 3}) == Fraction(2, 5)
    with pytest.raises(ValueError):
        slope(s, Q, {"a": 0, "b": 0})


def test_slope_on_support_quiver():
    # one level-2 source, three level-1 sinks, all-ones dimension vector
    r = Refinement.of([((2, 1),)], [((1, 1),), ((1, 1),), ((1, 1),)])
    Q, d, stab = n_support(r)
    assert slope(stab, Q, d) == Fraction(2, 5)


def test_hat_quiver_two_level_one_copies():
    K1 = Quiver.kronecker(1)
    Qh, dh, sh = hat_quiver(K1, "i1", {1: 2}, {"i1": 2, "j1": 1},
                            Stability.of({"i1": 1, "j1": 0}))
    assert len(Qh.ids) == 3 and len(Qh.arrows) == 2
    assert all(n == 1 for n in dh.values())
    assert sh.theta_map()[("i1", 1, 1)] == 1


def test_hat_quiver_level_two_copy():
    K1 = Quiver.kronecker(1)
    Qh, dh, sh = hat_quiver(K1, "i1", {2: 1}, {"i1": 2, "j1": 1},
                            Stability.of({"i1": 1, "j1": 0}))
    assert len(Qh.ids) == 2
    assert len(Qh.arrows) == 2 and len(set(Qh.arrows)) == 1  # parallel pair
    assert Qh.level(("i1", 2, 1)) == 2
    assert sh.theta_map()[("i1", 2, 1)] == 2


def test_hat_quiver_jordan_loops():
    Qh, dh, _ = hat_quiver(JORDAN, "a", {1: 2}, {"a": 2})
    assert len(Qh.ids) == 2 and len(Qh.arrows) == 4
    counts = Counter(Qh.arrows)
    assert all(c == 1 for c in counts.values()) and len(counts) == 4
    # a loop lifts to l * l' arrows between copies of levels l and l'
    Qh, _, _ = hat_quiver(JORDAN, "a", {1: 1, 2: 1}, {"a": 3})
    c1, c2 = ("a", 1, 1), ("a", 2, 1)
    assert Counter(Qh.arrows) == {(c1, c1): 1, (c1, c2): 2, (c2, c1): 2, (c2, c2): 4}


def test_hat_quiver_errors():
    K1 = Quiver.kronecker(1)
    with pytest.raises(ValueError):
        hat_quiver(K1, "i1", {1: 1}, {"i1": 2, "j1": 1})
    with pytest.raises(ValueError):
        hat_quiver(K1, "zz", {1: 1}, {"i1": 1})


def test_hat_slope_lift():
    # the slope of the blown-up vector matches the original for every
    # multiplicity vector of d_i
    from quivermoduli.symfunc import multiplicity_vectors

    K3 = Quiver.kronecker(3)
    s = theta_sources(K3)
    d = {"i1": 3, "j1": 2}
    mu = slope(s, K3, d)
    for m in multiplicity_vectors(3):
        Qh, dh, sh = hat_quiver(K3, "i1", m, d, s)
        assert slope(sh, Qh, dh) == mu


def test_hat_euler_form_defect():
    # HN-type pairs embedded in one level-one blow-up on disjoint copy sets:
    # <d^l, d^k>_Q - <hat d^l, hat d^k>_Qhat = d^l_i * d^k_i
    rng = random.Random(7)
    for Q, i in ((Quiver.complete_bipartite(1, 2), "i1"),
                 (Quiver.kronecker(3), "j1"),
                 (JORDAN, "a")):
        others = [v for v in Q.ids if v != i]
        d = {v: 2 for v in others}
        d[i] = 3
        Qh, _, _ = hat_quiver(Q, i, {1: 3}, d)
        copies = [v for v in Qh.ids if v not in others]
        for _ in range(20):
            k = rng.randint(1, 2)
            left, right = copies[:k], copies[k:]
            dl = {v: rng.randint(0, 2) for v in others}
            dk = {v: rng.randint(0, 2) for v in others}
            dlh = {**dl, **{v: 1 for v in left}}
            dkh = {**dk, **{v: 1 for v in right}}
            dl_q = {**dl, i: len(left)}
            dk_q = {**dk, i: len(right)}
            defect = dl_q[i] * dk_q[i]
            assert euler_form(Q, dl_q, dk_q) - euler_form(Qh, dlh, dkh) == defect


def test_check_quiver():
    K1 = Quiver.kronecker(1)
    Qc, dc, _ = check_quiver(K1, "i1", (2,), {"i1": 2, "j1": 1})
    assert len(Qc.ids) == 2 and dc[("i1", 1)] == 2
    Qc, dc, _ = check_quiver(K1, "i1", (1, 1), {"i1": 2, "j1": 1})
    assert sorted(dc[v] for v in Qc.ids if isinstance(v, tuple)) == [1, 1]
    Qc, dc, _ = check_quiver(K1, "i1", (2, 1), {"i1": 3, "j1": 1})
    assert sorted(dc[v] for v in Qc.ids if isinstance(v, tuple)) == [1, 2]
    assert all(Qc.level(v) == 1 for v in Qc.ids)
    with pytest.raises(ValueError):
        check_quiver(K1, "i1", (2, 2), {"i1": 3, "j1": 1})


def test_n_support_examples():
    r = Refinement.of([((2, 1),)], [((1, 1),), ((1, 1),), ((1, 1),)])
    Q, d, stab = n_support(r)
    assert len(Q.ids) == 4 and len(Q.arrows) == 6
    assert sorted(stab.theta_map().values()) == [0, 0, 0, 2]

    r = Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),), ((1, 1),)])
    Q, _, _ = n_support(r)
    assert len(Q.ids) == 5 and len(Q.arrows) == 6
    assert all(l == 1 for _, l in Q.vertices)

    r = Refinement.of([((1, 1),)], [((2, 1),)])
    Q, _, _ = n_support(r)
    assert len(Q.arrows) == 2 and len(set(Q.arrows)) == 1

    with pytest.raises(ValueError):
        n_support(Refinement.of([()], [((1, 1),)]))


def test_n_support_weight_one_is_complete_bipartite():
    r = Refinement.of([((1, 2),), ((1, 1),)], [((1, 1),), ((1, 2),)])
    Q, d, _ = n_support(r)
    t1 = sum(r.weight_multiplicities(1).values())
    t2 = sum(r.weight_multiplicities(2).values())
    K = Quiver.complete_bipartite(t1, t2)
    assert len(Q.ids) == len(K.ids)
    assert sorted(Counter(Q.arrows).values()) == sorted(Counter(K.arrows).values())
    assert all(l == 1 for _, l in Q.vertices)


def test_refinement_invariants():
    r = Refinement.of([((1, 1), (2, 2))], [((3, 1),)])
    assert r.part_sums(1) == (5,)
    assert r.part_sums(2) == (3,)
    assert r.weight_multiplicities(1) == {1: 1, 2: 2}
    with pytest.raises(ValueError):
        Refinement.of([((0, 1),)], [((1, 1),)])


def test_json_round_trip():
    Q = Quiver.complete_bipartite(2, 3)
    data = json.loads(json.dumps(Q.to_json()))
    assert Quiver.from_json(data) == Q
    assert Quiver.from_json(json.dumps(data)) == Q
    assert fraction_to_str(Fraction(-3, 7)) == "-3/7"
    assert fraction_to_str(Fraction(4)) == "4"


def test_from_json_names_what_is_malformed():
    for bad, message in [
        ([1, 2], "object"),
        ({"arrows": []}, "'vertices'"),
        ({"vertices": []}, "'arrows'"),
        ({"vertices": [{"level": 1}], "arrows": []}, "vertex 0"),
        ({"vertices": [{"id": "a", "level": "2"}], "arrows": []}, "level"),
        ({"vertices": [{"id": "a"}], "arrows": [["a"]]}, "pair"),
        ({"vertices": [{"id": "a"}], "arrows": [["a", "b"]]}, "not a declared vertex"),
    ]:
        with pytest.raises(ValueError, match=message):
            Quiver.from_json(bad)


def test_kappa_flag():
    Q = Quiver((("a", 2), ("b", 3)))
    d = {"a": 1, "b": 1}
    level_weighted = Stability.of({"a": 1, "b": 0})
    assert slope(level_weighted, Q, d) == Fraction(1, 5)
