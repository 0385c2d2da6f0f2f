import json

import pytest

from quivermoduli.cli import main
from quivermoduli.quiver import Quiver, bipartite_setup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chi_all_methods_agree(capsys):
    code, out = run(capsys, "chi", "--p1", "2", "--p2", "1,1,1", "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert set(report["methods"]) == {"hn", "mps", "tropical", "vertex"}
    assert all(v == 1 for v in report["methods"].values())


def test_chi_all_times_each_method_from_cold_memos(monkeypatch, capsys):
    import quivermoduli.cli as cli_mod

    from test_memo import MEMOS

    p1, p2 = (2, 1), (1, 1, 1, 1)
    warm = {m: cli_mod._chi_by_method(m, p1, p2) for m in cli_mod._METHODS}
    assert any(memo.cache_info().currsize for memo, _ in MEMOS)
    real = cli_mod._chi_by_method
    sizes = {}

    def recording(method, *parts):
        sizes[method] = [memo.cache_info().currsize for memo, _ in MEMOS]
        return real(method, *parts)

    monkeypatch.setattr(cli_mod, "_chi_by_method", recording)
    code, out = run(capsys, "chi", "--p1", "2,1", "--p2", "1,1,1,1", "--method", "all")
    assert code == 0
    assert sizes == {m: [0] * len(MEMOS) for m in cli_mod._METHODS}
    assert json.loads(out)["methods"] == warm


def test_chi_single_method(capsys):
    code, out = run(capsys, "chi", "--p1", "1", "--p2", "1", "--method", "hn")
    assert code == 0
    assert json.loads(out)["methods"] == {"hn": 1}


def test_chi_rejects_non_coprime(capsys):
    with pytest.raises(SystemExit):
        main(["chi", "--p1", "2", "--p2", "1,1"])


def test_chi_requires_input(capsys):
    for argv, missing in ((["chi"], "--p1, --p2"), (["chi", "--p1", "2"], "--p2"),
                          (["chi", "--p2", "1,1,1"], "--p1")):
        err = _refused(capsys, argv)
        assert err == "quivermoduli chi: error: the following arguments are required: " + missing


def test_chi_quiver_file(tmp_path, capsys):
    path = tmp_path / "kronecker3.json"
    path.write_text(json.dumps(Quiver.kronecker(3).to_json()))
    code, out = run(capsys, "motive", "chi", "--quiver", str(path), "--dim", "2,3",
                    "--theta", "1,0")
    assert code == 0
    assert json.loads(out)["chi"] == 13


def test_verify_lemma3(capsys):
    code, out = run(capsys, "verify", "lemma3", "--max-n", "5")
    assert code == 0
    assert out.count(" pass\n") == 5


def test_verify_mps_and_dual(tmp_path, capsys):
    path = tmp_path / "kronecker3.json"
    path.write_text(json.dumps(Quiver.kronecker(3).to_json()))
    code, out = run(capsys, "verify", "mps", "--quiver", str(path),
                    "--dim", "2,3", "--vertex", "j1")
    assert code == 0 and "pass" in out
    code, out = run(capsys, "verify", "dual-mps", "--quiver", str(path),
                    "--dim", "2,3", "--vertex", "i1")
    assert code == 0 and "pass" in out


def test_verify_partition_form(tmp_path, capsys):
    path = tmp_path / "kronecker3.json"
    path.write_text(json.dumps(Quiver.kronecker(3).to_json()))
    code, out = run(capsys, "verify", "partition-form", "--quiver", str(path),
                    "--dim", "3,4", "--vertex", "j1", "--theta", "1,0")
    assert code == 0
    assert out.startswith("partition-form %s at j1 dim 3,4" % path) and " pass\n" in out


def test_verify_eulgw_small(capsys):
    code, out = run(capsys, "verify", "eulgw", "--max-size", "5")
    assert code == 0
    assert "FAIL" not in out


def test_motive_poincare(tmp_path, capsys):
    path = tmp_path / "kronecker3.json"
    path.write_text(json.dumps(Quiver.kronecker(3).to_json()))
    code, out = run(capsys, "motive", "poincare", "--quiver", str(path),
                    "--dim", "1,1", "--theta", "1,0")
    assert code == 0
    assert json.loads(out)["poincare_coefficients"] == [1, 0, 1, 0, 1]


def test_localize_chi_and_trees(capsys):
    code, out = run(capsys, "localize", "chi", "--refinement", "1+1|1,1,1")
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == 6 and report["spanning_trees"] == 12
    # K(3,10) has 3^9 * 10^2 spanning trees: counted, not listed
    code, out = run(capsys, "localize", "chi", "--refinement", "1+1+1|" + ",".join(["1"] * 10))
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == 168000 and report["spanning_trees"] == 3 ** 9 * 10 ** 2

    code, out = run(capsys, "localize", "trees", "--refinement", "2|1,1,1")
    assert code == 0
    trees = json.loads(out)["trees"]
    assert len(trees) == 8 and all(t["stable"] for t in trees)


def test_vertex_factorize_emit(tmp_path, capsys):
    out_file = tmp_path / "walls.json"
    code, out = run(capsys, "vertex", "factorize", "--refinement", "1|1",
                    "--emit", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n_trop"] == 1
    directions = [tuple(w["direction"]) for w in payload["walls"]]
    assert directions == [(0, 1), (1, 1), (1, 0)]

    # the count is the top-class coefficient: every class at its cap
    code, out = run(capsys, "vertex", "factorize", "--refinement", "1+1|1,1,1",
                    "--emit", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n_trop"] == 6
    (wall,) = [w for w in payload["walls"] if w["direction"] == [3, 2]]
    top = [t for t in wall["function"]
           if t["counts"] == {"u:1:3": 3, "v:1:2": 2}]
    assert [(t["x_exp"], t["y_exp"]) for t in top] == [(3, 2)]
    assert top[0]["coefficient"] == payload["n_trop"]
    degrees = [sum(t["counts"].values()) for t in wall["function"]]
    assert degrees == sorted(degrees)


# refinement -> (its payload, n_trop, walls in slope order); each wall is
# its direction and the terms (x_exp, y_exp, counts, coefficient) of its
# function, as the tuple-keyed factorization printed them
PINNED_WALLS = {
    "1+1|1,1,1": ({"k1": [[[1, 2]]], "k2": [[[1, 1]], [[1, 1]], [[1, 1]]]}, 6, [
        ((0, 1), [(0, 0, {}, 1), (0, 1, {"v:1:2": 1}, 1), (0, 2, {"v:1:2": 2}, 1)]),
        ((1, 2), [(0, 0, {}, 1), (1, 2, {"u:1:3": 1, "v:1:2": 2}, 1)]),
        ((1, 1), [(0, 0, {}, 1), (1, 1, {"u:1:3": 1, "v:1:2": 1}, 1),
                  (2, 2, {"u:1:3": 2, "v:1:2": 2}, 6)]),
        ((3, 2), [(0, 0, {}, 1), (3, 2, {"u:1:3": 3, "v:1:2": 2}, 6)]),
        ((2, 1), [(0, 0, {}, 1), (2, 1, {"u:1:3": 2, "v:1:2": 1}, 1)]),
        ((3, 1), [(0, 0, {}, 1), (3, 1, {"u:1:3": 3, "v:1:2": 1}, 1)]),
        ((1, 0), [(0, 0, {}, 1), (1, 0, {"u:1:3": 1}, 1), (2, 0, {"u:1:3": 2}, 1),
                  (3, 0, {"u:1:3": 3}, 1)]),
    ]),
    "2|1,1,1": ({"k1": [[[2, 1]]], "k2": [[[1, 1]], [[1, 1]], [[1, 1]]]}, 8, [
        ((0, 1), [(0, 0, {}, 1), (0, 2, {"v:2:1": 1}, 2)]),
        ((1, 2), [(0, 0, {}, 1), (1, 2, {"u:1:3": 1, "v:2:1": 1}, 2)]),
        ((1, 1), [(0, 0, {}, 1), (2, 2, {"u:1:3": 2, "v:2:1": 1}, 8)]),
        ((3, 2), [(0, 0, {}, 1), (3, 2, {"u:1:3": 3, "v:2:1": 1}, 8)]),
        ((1, 0), [(0, 0, {}, 1), (1, 0, {"u:1:3": 1}, 1), (2, 0, {"u:1:3": 2}, 1),
                  (3, 0, {"u:1:3": 3}, 1)]),
    ]),
}


@pytest.mark.parametrize("refinement", sorted(PINNED_WALLS))
def test_vertex_factorize_output_is_pinned(capsys, refinement):
    payload, n_trop, walls = PINNED_WALLS[refinement]
    expected = {
        "refinement": payload,
        "walls": [{"direction": list(direction),
                   "function": [{"x_exp": a, "y_exp": b, "counts": counts, "coefficient": c}
                                for a, b, counts, c in terms]}
                  for direction, terms in walls],
        "n_trop": n_trop,
    }
    code, out = run(capsys, "vertex", "factorize", "--refinement", refinement)
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_table_json(capsys):
    code, out = run(capsys, "table", "--max-n", "2")
    assert code == 0
    rows = json.loads(out)
    assert [r["total"] for r in rows] == [1, 7]
    assert rows[0]["contributions"][0]["contribution"] in (-2, 3)


def test_table_csv(tmp_path, capsys):
    out_file = tmp_path / "family.csv"
    code, out = run(capsys, "table", "--max-n", "3", "--format", "csv",
                    "--emit", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("n,")
    assert lines[1].split(",")[3] == "1"
    assert lines[3].split(",")[3] == "38"


def test_bad_refinement_syntax():
    with pytest.raises(SystemExit):
        main(["localize", "chi", "--refinement", "nonsense"])


def test_table_with_trees_and_walls(capsys):
    code, out = run(capsys, "table", "--max-n", "1", "--trees", "--walls")
    assert code == 0
    rows = json.loads(out)
    by_weight = {}
    for entry in rows[0]["contributions"]:
        key = len(entry["stable_trees"])
        by_weight[key] = entry
    assert set(by_weight) == {8, 6}
    assert all("wall_directions" in e for e in by_weight.values())


def test_motive_chi_emits_class(tmp_path, capsys):
    path = tmp_path / "kronecker3.json"
    path.write_text(json.dumps(Quiver.kronecker(3).to_json()))
    code, out = run(capsys, "motive", "chi", "--quiver", str(path),
                    "--dim", "1,1", "--theta", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 3
    assert payload["class_num"] == ["1", "1", "1"]
    assert payload["class_den"] == ["-1", "1"]


def test_localize_p1_p2_consistency(capsys):
    code, _ = run(capsys, "localize", "chi", "--refinement", "1+1|1,1,1",
                  "--p1", "2", "--p2", "1,1,1")
    assert code == 0
    with pytest.raises(SystemExit):
        main(["localize", "chi", "--refinement", "1+1|1,1,1", "--p1", "3"])


def test_chi_disagreement_exit_code(monkeypatch, capsys):
    import quivermoduli.cli as cli_mod

    real = cli_mod._chi_by_method

    def skewed(method, p1, p2):
        value = real(method, p1, p2)
        return value + 1 if method == "mps" else value

    monkeypatch.setattr(cli_mod, "_chi_by_method", skewed)
    code = main(["chi", "--p1", "1", "--p2", "1,1", "--method", "all"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["agreement"] is False


def _refused(capsys, argv):
    """The last line of argparse's own usage error: exit status 2, nothing
    on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err.splitlines()[-1]


def _usage_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("quivermoduli %s: error: " % argv[0]) and err.count("\n") == 1
    return err


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "kronecker3.json"
    path.write_text(json.dumps(Quiver.kronecker(3).to_json()))
    return str(path)


def test_chi_quiver_not_coprime_is_usage_error(k3_file, capsys):
    err = _usage_exit(capsys, ["motive", "chi", "--quiver", k3_file, "--dim", "2,2",
                               "--theta", "1,0"])
    assert "not theta-coprime" in err


def test_slope_denominator_beyond_the_keys_is_usage_error(k3_file, capsys):
    for argv in (["motive", "chi"], ["motive", "poincare"]):
        err = _usage_exit(capsys, argv + ["--quiver", k3_file, "--dim", "%d,1" % 2 ** 32])
        assert "below 2^32" in err


def test_chi_quiver_zero_dim_is_usage_error(k3_file, capsys):
    err = _usage_exit(capsys, ["motive", "chi", "--quiver", k3_file, "--dim", "0,0"])
    assert "nonzero" in err


def test_chi_quiver_negative_dim_is_usage_error(k3_file, capsys):
    err = _usage_exit(capsys, ["motive", "chi", "--quiver", k3_file, "--dim=-1,2"])
    assert "nonnegative" in err


def test_chi_quiver_wrong_length_is_usage_error(k3_file, capsys):
    for extra in (["--dim", "2,3,1"], ["--dim", "2,3", "--theta", "1"]):
        err = _usage_exit(capsys, ["motive", "chi", "--quiver", k3_file] + extra)
        assert "needs 2 entries for this quiver" in err


def test_chi_missing_quiver_file_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    err = _usage_exit(capsys, ["motive", "chi", "--quiver", missing, "--dim", "2,3"])
    assert "absent.json" in err


@pytest.mark.parametrize("data, message", [
    ({"arrows": []}, "'vertices'"),
    ({"vertices": [{"level": 1}], "arrows": []}, "'id'"),
    ([1, 2], "object"),
])
def test_malformed_quiver_file_is_usage_error(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    err = _usage_exit(capsys, ["motive", "chi", "--quiver", str(path), "--dim", "1,1"])
    assert message in err


@pytest.mark.parametrize("refinement", ["1+1|1+1+2", "1+1|1,1"])
def test_vertex_factorize_non_coprime_is_usage_error(capsys, refinement):
    err = _usage_exit(capsys, ["vertex", "factorize", "--refinement", refinement])
    assert "coprime" in err


# ``chi`` reads ordered partitions only, and a quiver file goes to
# ``motive chi``: the quiver-file flags are refused by ``chi``, never ignored

@pytest.mark.parametrize("method", ["mps", "tropical", "vertex"])
def test_chi_quiver_with_another_method_is_usage_error(k3_file, capsys, method):
    err = _refused(capsys, ["chi", "--quiver", k3_file, "--dim", "2,3", "--method", method])
    assert err == "quivermoduli chi: error: the following arguments are required: --p1, --p2"


@pytest.mark.parametrize("method", ["hn", "all"])
def test_chi_quiver_with_hn_or_all(tmp_path, capsys, method):
    # the quiver-file path and the partition path agree on a bipartite setup
    p1, p2 = (2, 1), (1, 1, 1, 1)
    Q, d, stab = bipartite_setup(p1, p2)
    path = tmp_path / "bipartite.json"
    path.write_text(json.dumps(Q.to_json()))
    theta = stab.theta_map()
    code, out = run(capsys, "motive", "chi", "--quiver", str(path),
                    "--dim", ",".join(str(d[v]) for v in Q.ids),
                    "--theta", ",".join(str(theta[v]) for v in Q.ids))
    assert code == 0
    from_file = json.loads(out)["chi"]
    code, out = run(capsys, "chi", "--p1", ",".join(map(str, p1)), "--p2", ",".join(map(str, p2)),
                    "--method", method)
    assert code == 0
    assert set(json.loads(out)["methods"].values()) == {from_file}


@pytest.mark.parametrize("extra", [["--p1", "2"], ["--p2", "1,1,1"],
                                   ["--p1", "2", "--p2", "1,1,1"]])
def test_chi_quiver_with_partitions_is_usage_error(k3_file, capsys, extra):
    err = _refused(capsys, ["chi", "--quiver", k3_file, "--dim", "2,3"] + extra)
    missing = [flag for flag in ("--p1", "--p2") if flag not in extra]
    if missing:
        assert err.endswith("the following arguments are required: " + ", ".join(missing))
    else:
        assert err.endswith("unrecognized arguments: --quiver %s --dim 2,3" % k3_file)


@pytest.mark.parametrize("suite", ["mps", "partition-form", "dual-mps"])
def test_verify_unknown_vertex_is_usage_error(k3_file, capsys, suite):
    err = _usage_exit(capsys, ["verify", suite, "--quiver", k3_file, "--dim", "2,3",
                               "--vertex", "zz", "--theta", "1,0"])
    assert "unknown vertex id 'zz'" in err


@pytest.mark.parametrize("argv, low", [
    (["verify", "lemma3", "--max-n", "0"], 1),
    (["verify", "lemma3", "--max-n", "-1"], 1),
    (["verify", "eulgw", "--max-size", "1"], 2),
    (["table", "--max-n", "0"], 1),
])
def test_empty_runs_are_usage_errors(capsys, argv, low):
    # a bound that leaves nothing to check is rejected while parsing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument %s: must be >= %d" % (argv[-2], low) in captured.err


def test_bad_integer_bound_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma3", "--max-n", "many"])
    assert exc.value.code == 2
    assert "not an integer: 'many'" in capsys.readouterr().err


def test_chi_quiver_without_dim_is_usage_error(k3_file, capsys):
    err = _refused(capsys, ["motive", "chi", "--quiver", k3_file])
    assert err.endswith("the following arguments are required: --dim")


@pytest.mark.parametrize("extra", [["--dim", "2,3"], ["--theta", "1,0"]])
def test_chi_partitions_with_quiver_flags_is_usage_error(capsys, extra):
    err = _refused(capsys, ["chi", "--p1", "2", "--p2", "1,1,1"] + extra)
    assert err == "quivermoduli: error: unrecognized arguments: " + " ".join(extra)


@pytest.mark.parametrize("argv, flag, entry", [
    (["chi", "--p1", ",", "--p2", "1"], "--p1", "''"),
    (["chi", "--p1", "2", "--p2", "1,x"], "--p2", "'x'"),
    (["localize", "chi", "--refinement", "1+1|1,1,1", "--p1", "2,q"], "--p1", "'q'"),
])
def test_bad_part_names_flag_and_entry(capsys, argv, flag, entry):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "quivermoduli %s: error: argument %s: entry %s of %r is not an integer" % (
        argv[0], flag, entry, argv[argv.index(flag) + 1])


@pytest.mark.parametrize("argv, flag, entry", [
    (["motive", "chi", "--dim", "1,x"], "--dim", "'x'"),
    (["motive", "chi", "--dim", "2,3", "--theta", "1,y"], "--theta", "'y'"),
    (["motive", "chi", "--dim", "2,", "--theta", "1,0"], "--dim", "''"),
])
def test_bad_dim_or_theta_names_flag_and_entry(k3_file, capsys, argv, flag, entry):
    err = _usage_exit(capsys, argv + ["--quiver", k3_file])
    assert "%s entry %s of" % (flag, entry) in err
    assert "invalid literal" not in err
