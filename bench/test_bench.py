"""Tests of the benchmark itself: its correctness gate (with a negative
control), its seeded inputs, its tracer and its agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402


def _family_call(n, expected):
    return run.Call("hn", "chi", ("hn", (2,), (1,) * (2 * n + 1)), ("equals", expected))


def _run_main(monkeypatch, capsys, *argv):
    monkeypatch.chdir(ROOT)
    code = run.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, out


# -- the correctness gate ---------------------------------------------------


def test_closed_form_matches_the_known_family_values():
    assert [run.closed_form(n) for n in range(1, 5)] == [1, 7, 38, 187]


def test_negative_control_corrupted_expected_value_fails():
    calls = [_family_call(2, 7), _family_call(2, 7 + 1)]
    outcomes = [(7, None), (7, None)]
    assert run.failures(calls, outcomes) == [False, True]


def test_exception_counts_as_failure():
    assert run.failures([_family_call(2, 7)], [(None, "ValueError: boom")]) == [True]


def test_negative_control_end_to_end(monkeypatch, capsys):
    """A corrupted closed form must surface as a failed operation, a false
    ``correct`` and a nonzero exit, through a real child process."""
    closed_form = run.closed_form
    monkeypatch.setattr(run, "FAMILY_LADDERS", {"hn": range(1, 2)})
    code, out = _run_main(monkeypatch, capsys, "--workload", "family", "--seed", "0",
                          "--seconds", "0")
    result = json.loads(out[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0

    monkeypatch.setattr(run, "closed_form", lambda n: closed_form(n) + 1)
    code, out = _run_main(monkeypatch, capsys, "--workload", "family", "--seed", "0",
                          "--seconds", "0")
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert json.loads(out[-2])["error_rate"] == 1.0


def test_disagreement_fails_every_call_of_the_pair():
    key = ((2,), (1, 1, 1))
    calls = [run.Call(m, "chi", (m,) + key, ("agree", key)) for m in run.METHODS]
    assert run.failures(calls, [(7, None)] * 4) == [False] * 4
    assert run.failures(calls, [(7, None)] * 3 + [(8, None)]) == [True] * 4
    assert run.failures(calls, [(7, None)] * 3 + [(None, "boom")]) == [True] * 4
    assert run.failures(calls[:3], [(7, None)] * 3) == [True] * 3


def test_poincare_check():
    # the moduli space of K3 at (1, 1) is P^2
    assert run.poincare_ok([1, 0, 1, 0, 1], 3, 1, 1, 3)
    assert not run.poincare_ok([1, 0, 1, 0, 1], 3, 1, 1, 4)  # pinned chi
    assert not run.poincare_ok([1, 0, 1], 3, 1, 1, 2)  # wrong degree
    assert not run.poincare_ok([1, 1, 0, 1], 3, 1, 1, 3)  # not palindromic
    assert not run.poincare_ok([1, 0, -1, 0, 1], 3, 1, 1, 1)  # negative


def test_missing_library_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "motivic", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# -- seeded inputs -----------------------------------------------------------


def _signature(jobs):
    return [[(c.lane, c.op, c.args, c.check) for c in job] for job in jobs]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_permutes_order_only(workload):
    make = run.WORKLOADS[workload]
    a, b, c = (_signature(make(random.Random(s))) for s in (1, 1, 2))
    assert a == b
    assert a != c
    flat = lambda jobs: sorted(map(repr, (call for job in jobs for call in job)))
    assert flat(a) == flat(c)
    for job in a:
        assert len({lane for lane, *_ in job}) == 1, "a job must stay in one lane"


def test_scan_has_every_coprime_pair_once():
    pairs = run.coprime_pairs(run.SCAN_MAX_TOTAL)
    assert len(pairs) == len(set(pairs)) == 199


# -- the tracer --------------------------------------------------------------


def _bindings():
    from quivermoduli import localization, motive, quiver, ratfunc, tropical
    return {
        "tropical.chi_trees": (tropical, "chi_trees"),
        "localization.n_support": (localization, "n_support"),
        "motive.hat_quiver": (motive, "hat_quiver"),
        "Poly.__rmul__": (ratfunc.Poly, "__rmul__"),
        "MotiveClass.__radd__": (motive.MotiveClass, "__radd__"),
        "quiver.n_support": (quiver, "n_support"),
    }


def test_tracer_intercepts_imported_names_and_restores_them():
    from quivermoduli import Poly, Quiver, Stability, motive, tropical

    before = {k: vars(owner)[attr] for k, (owner, attr) in _bindings().items()}
    with Tracer() as tracer:
        for k, (owner, attr) in _bindings().items():
            assert vars(owner)[attr] is not before[k], k
        assert tropical.mps_euler((2,), (1, 1, 1)) == 1
        assert 2 * Poly((1, 1)) == Poly((2, 2))
        K3 = Quiver.kronecker(3)
        s = Stability.of({"i1": 1, "j1": 0})
        assert motive.motivic_mps_check(K3, s, "i1", {"i1": 2, "j1": 3})
        with pytest.raises(ValueError):
            motive.hn_sst_class(K3, s, {"i1": 0, "j1": 0})
    after = {k: vars(owner)[attr] for k, (owner, attr) in _bindings().items()}
    assert after == before

    spans = tracer.report()["spans"]
    for name in ("localization.chi_trees", "quiver.n_support", "localization.spanning_trees",
                 "quiver.hat_quiver", "ratfunc.poly_mul", "motive.class_add",
                 "motive.hn_sst_class"):
        assert spans[name]["calls"] > 0, name
    assert spans["motive.hn_sst_class"]["errors"] == 1
    assert all(span["self_s"] >= 0 for span in spans.values())
    assert set(spans) == set(SPAN_NAMES)
    counters = tracer.report()["counters"]
    assert 0 < counters["localization.trees_stable"] <= counters["localization.trees_enumerated"]


def test_self_time_excludes_wrapped_children():
    from quivermoduli import tropical

    with Tracer() as tracer:
        tropical.n_trop((1, 1), (1, 1, 1))
    report = tracer.report()
    n_trop = report["spans"]["tropical.n_trop"]
    assert n_trop["calls"] > 1  # the recursion goes through the wrapper
    assert report["distinct"]["tropical.n_trop"] <= n_trop["calls"]
    assert [None, "tropical.n_trop", 1] in report["edges"]


# -- agreement with BENCHMARK.json ---------------------------------------------


def _fake_runs(trace):
    jobs = [[run.Call(lane, "chi", (), ("true",))] for lane in run.LANES]
    return run.Runs(jobs, [[1.0] for _ in jobs], [[10.0] for _ in jobs], [0.1], [1024], [], [],
                    {"spans": {}, "edges": {}, "counters": {}, "distinct": {}}
                    if trace else None)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = run.end_to_end(_fake_runs(False))
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"])
    layers = run.per_layer(_fake_runs(False), _fake_runs(True))
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]]["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
