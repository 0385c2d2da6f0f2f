"""The package's one memo mechanism: every memo is a ``functools.cache`` on
a function of a validated key, and no module keeps state of its own."""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from test_properties import coprime_partition_pairs

import quivermoduli
from quivermoduli import localization, motive, ratfunc, symfunc, tropical, vertex
from quivermoduli.cli import _chi_by_method
from quivermoduli.quiver import Quiver, Refinement, Stability

K3 = Quiver.kronecker(3)
S10 = Stability.of({"i1": 1, "j1": 0})


def _hn_from_a_new_solver():
    # a new solver builds its records again, so it asks for the class splits
    # again: a repeated call hits the splits memo
    motive._solver.cache_clear()
    return motive.hn_sst_class(K3, S10, {"i1": 2, "j1": 3})


# a support with 432 labelled trees, counted from subtree vertex counts
R_3_4 = Refinement.of([((1, 3),)], [((1, 4),)])


# each memo with a public call that reaches it
MEMOS = [
    (motive._solver, lambda: motive.hn_sst_class(K3, S10, {"i1": 2, "j1": 3})),
    (motive._class_splits, _hn_from_a_new_solver),
    (localization._count_stable_trees, lambda: localization.chi_trees(R_3_4)),
    (localization._admissible_decompositions,
     lambda: localization.admissible_decompositions(4, 5, 1)),
    (tropical._n_trop, lambda: tropical.n_trop((1, 1), (1, 1, 1))),
    (tropical._run_splits, lambda: tropical.ramification_factor((2, 1), (1, 1, 1))),
    (tropical._side_coefficients, lambda: tropical.degeneration_total((2, 1), (1, 1))),
    (vertex._via_factorization, lambda: vertex.n_trop_via_factorization((1, 1), (1, 2))),
    (ratfunc.cyclotomic, lambda: ratfunc.cyclotomic(6)),
    (symfunc.partitions, lambda: symfunc.partitions(5)),
]


def _modules():
    return [quivermoduli] + [importlib.import_module("quivermoduli." + m.name)
                             for m in pkgutil.iter_modules(quivermoduli.__path__)
                             if m.name != "__main__"]


def test_every_memo_is_a_functools_cache():
    found = {id(value) for module in _modules() for value in vars(module).values()
             if hasattr(value, "cache_info") and hasattr(value, "cache_clear")}
    assert found == {id(memo) for memo, _ in MEMOS}


def test_no_module_level_mutable_containers():
    for module in _modules():
        for name, value in vars(module).items():
            if not name.startswith("__"):
                assert not isinstance(value, (dict, list, set)), (module.__name__, name)


@pytest.mark.parametrize("memo, call", MEMOS, ids=[memo.__name__ for memo, _ in MEMOS])
def test_cache_info_counts_hits_and_clears(memo, call):
    call()
    hits = memo.cache_info().hits
    value = call()
    assert memo.cache_info().hits > hits
    assert memo.cache_info().currsize > 0
    memo.cache_clear()
    assert memo.cache_info().currsize == 0
    assert call() == value


def test_clear_memos_empties_every_memo():
    for _, call in MEMOS:
        call()
    quivermoduli.clear_memos()
    assert [memo.cache_info().currsize for memo, _ in MEMOS] == [0] * len(MEMOS)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(coprime_partition_pairs(max_total=7))
def test_cold_memos_give_the_warm_values(pair):
    p1, p2 = pair
    for method in ("hn", "mps", "tropical", "vertex"):
        warm = _chi_by_method(method, p1, p2)
        quivermoduli.clear_memos()
        assert _chi_by_method(method, p1, p2) == warm, method
