import json

import pytest

from tetgroups import MAX_DEGREE, BruteForceCounts
from tetgroups.cli import main
from tetgroups.perms import perm_tables


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_list_table_and_filter(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert out.count("\n") == 41  # header plus forty rows
    code, out, _ = run(capsys, "list", "--geometry", "euclidean")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["e1", "e2", "e3"]


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 40
    assert payload[8] == {"id": "t1", "symbol": "3,5,2,3,2,2",
                          "geometry": "hyperbolic-compact", "ideal_vertices": 0}


def test_enumerate_table_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--id", "t10", "--group", "full",
                       "--index", "2")
    assert code == 0
    assert "3 classes" in out
    assert "P, Q, R, SRS" in out


def test_enumerate_json_structure(capsys):
    code, out, _ = run(capsys, "enumerate", "--id", "t10", "--group",
                       "kleinian", "--index", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbol"] == "3,3,6,2,2,2"
    assert payload["group"] == "kleinian"
    assert payload["index"] == 3
    (cls,) = payload["classes"]
    assert cls["assignment"] == {"a": "(123)", "b": "(132)", "c": "(23)"}
    assert cls["image_type"] == "S3"
    assert cls["labeled_orbit_size"] == 6
    assert all(isinstance(w, str) for w in cls["stabilizer_generators"])


def test_symbol_flag_matches_id_flag(capsys):
    _, by_id, _ = run(capsys, "enumerate", "--id", "t10", "--group", "full",
                      "--index", "2", "--format", "json")
    _, by_symbol, _ = run(capsys, "enumerate", "--symbol", "[3,3,6,2,2,2]",
                          "--group", "full", "--index", "2", "--format", "json")
    assert by_id == by_symbol


def test_enumerate_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--id", "t19", "--group", "kleinian",
                      "--index", "4", "--format", "json")
    _, second, _ = run(capsys, "enumerate", "--id", "t19", "--group", "kleinian",
                       "--index", "4", "--format", "json")
    assert first == second


def test_verify_reports_each_class(capsys):
    code, out, _ = run(capsys, "verify", "--id", "t10", "--group", "kleinian",
                       "--index", "4")
    assert code == 0
    assert "1 classes" in out
    assert "class 1: closed(4)" in out


def test_verify_with_tiny_budget_is_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "--id", "t10", "--group", "full",
                       "--index", "2", "--max-cosets", "1")
    assert code == 3
    assert out.count("inconclusive") == 4
    assert out.endswith("3 classes: 0 closed, 3 inconclusive, 0 failed\n")


def test_verify_rejects_a_coset_budget_below_one(capsys):
    for bad in ("0", "-5"):
        code, out, err = run(capsys, "verify", "--id", "t10", "--group", "full",
                             "--index", "2", "--max-cosets", bad)
        assert code == 2 and out == ""
        assert f"--max-cosets must be at least 1, got {bad}" in err


def test_coloring_json_and_csv(capsys):
    code, out, _ = run(capsys, "coloring", "--id", "t10", "--group", "full",
                       "--index", "2", "--class", "1")
    assert code == 0
    assert json.loads(out) == {
        "index": 2, "coset_words": ["", "S"],
        "action": {"P": "(1)", "Q": "(1)", "R": "(1)", "S": "(12)"}}
    code, out, _ = run(capsys, "coloring", "--id", "t10", "--group", "full",
                       "--index", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generator,color,image_color"
    assert lines[1:3] == ["P,1,1", "P,2,2"]
    assert len(lines) == 9


def test_usage_errors_exit_with_two(capsys):
    code, _, err = run(capsys, "enumerate", "--id", "t99", "--group", "full",
                       "--index", "2")
    assert code == 2 and "t99" in err
    code, _, err = run(capsys, "enumerate", "--id", "t10", "--group", "full",
                       "--index", "0")
    assert code == 2 and "index" in err
    code, _, err = run(capsys, "coloring", "--id", "t10", "--group", "full",
                       "--index", "2", "--class", "7")
    assert code == 2 and "out of range" in err
    with pytest.raises(SystemExit):
        main(["enumerate", "--id", "t10", "--symbol", "3,3,6,2,2,2",
              "--group", "full", "--index", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["enumerate", "--id", "t10", "--index", "2"])
    capsys.readouterr()


def test_index_past_the_limit_is_refused_before_any_table_is_built(capsys):
    built = perm_tables.cache_info().currsize
    code, out, err = run(capsys, "enumerate", "--id", "t10", "--group", "full",
                         "--index", str(MAX_DEGREE + 1))
    assert code == 2 and out == ""
    assert f"between 1 and {MAX_DEGREE}" in err
    assert perm_tables.cache_info().currsize == built


def test_counts_json_rows_match_direct_enumeration(capsys):
    code, out, _ = run(capsys, "counts", "--format", "json")
    assert code == 0
    rows = {rec["id"]: rec for rec in json.loads(out)}
    assert len(rows) == 32
    assert rows["t10"]["computed"] == [3, 1, 2, 1, 1, 1]
    assert rows["t32"]["computed"] == [1, 13, 6, 0, 13, 6]
    assert "reference" not in rows["t10"]


def test_counts_diff_exits_1_when_the_oracle_disputes_a_mismatch(monkeypatch, capsys):
    # Every mismatched cell is recounted by the oracle; an oracle that agrees
    # with no cell makes each MISMATCH line read DISAGREES and the exit 1.
    monkeypatch.setattr("tetgroups.cli.brute_force_classes",
                        lambda pres, n: BruteForceCounts(0, 7, 0))
    code, out, _ = run(capsys, "counts", "--diff")
    assert code == 1
    lines = out.splitlines()
    mismatches = [line for line in lines if line.startswith("MISMATCH")]
    assert len(mismatches) == 24
    assert "MISMATCH t32 H4: reference 86, computed 6, oracle 7 " \
           "(DISAGREES with computed)" in mismatches
    assert lines[-1].startswith("diff summary: 168/192 cells match the reference; "
                                "24 mismatches (22 cells INTERNALLY INCONSISTENT;")
