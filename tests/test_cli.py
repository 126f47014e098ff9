import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tetgroups import MAX_DEGREE, catalog_by_id, enumerate_classes, presentation_for, stabilizer
from tetgroups.cli import _class_record, main
from tetgroups.enumerator import perm_tables
from tetgroups.oracle import BruteForceCounts
from tetgroups.presentations import MAX_ENTRY


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


def test_verify_fails_a_class_that_closes_elsewhere(monkeypatch, capsys):
    monkeypatch.setattr("tetgroups.cli.verify_class", lambda rep, budget: False)
    code, out, _ = run(capsys, "verify", "--id", "t10", "--group", "kleinian",
                       "--index", "4")
    assert code == 1
    assert "class 1: FAILED (coset enumeration closed at a different index)" in out
    assert out.endswith("1 classes: 0 closed, 0 inconclusive, 1 failed\n")


def test_verify_tallies_mixed_verdicts(monkeypatch, capsys):
    verdicts = iter([True, None, False])
    monkeypatch.setattr("tetgroups.cli.verify_class", lambda rep, budget: next(verdicts))
    code, out, _ = run(capsys, "verify", "--id", "t10", "--group", "full",
                       "--index", "2")
    assert code == 1
    assert out.splitlines()[1:] == [
        "class 1: closed(2)",
        "class 2: inconclusive (coset budget exhausted)",
        "class 3: FAILED (coset enumeration closed at a different index)",
        "3 classes: 1 closed, 1 inconclusive, 1 failed"]


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    # python -m tetgroups, as CI runs it: index 5 is past the pinned
    # digests, and a budget of exactly 5 cosets closes every class
    monkeypatch.setattr(sys, "argv", ["tetgroups", "verify", "--id", "t31", "--group",
                                      "kleinian", "--index", "5", "--max-cosets", "5"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("tetgroups", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.endswith("12 classes: 12 closed, 0 inconclusive, 0 failed\n")


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("argv", [
    ["list"],
    ["enumerate", "--id", "t19", "--group", "full", "--index", "4", "--format", "json"],
], ids=["list", "enumerate-json"])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # the pipe's read end is closed before the CLI starts, so its first
    # write or flush of stdout fails, whatever the output's size
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "tetgroups", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=src_env(), text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_symbol_entries_past_the_bound_are_refused_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--symbol", f"2,2,2,2,{MAX_ENTRY + 1},2",
                         "--group", "full", "--index", "4")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert f"integers 2 to {MAX_ENTRY}, got {MAX_ENTRY + 1}" in err
    # at the bound, with (PS)^t at exponent MAX_ENTRY, verify stays under 2 s
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--symbol", f"2,2,2,2,{MAX_ENTRY},2",
                       "--group", "full", "--index", "4")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert out.endswith("43 classes: 43 closed, 0 inconclusive, 0 failed\n")


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
    code, out, err = run(capsys, "enumerate", "--id", "", "--group", "full",
                         "--index", "2")
    assert (code, out, err) == (2, "", "error: no catalog entry with id ''\n")
    code, _, err = run(capsys, "enumerate", "--id", "t10", "--group", "full",
                       "--index", "0")
    assert code == 2 and "index" in err
    code, _, err = run(capsys, "coloring", "--id", "t10", "--group", "full",
                       "--index", "2", "--class", "7")
    assert code == 2 and "out of range" in err
    # entries are ASCII digits: int() alone would read these as 10, 3 and 3
    for text in ("3,3,6,2,2,1_0", "+3,3,6,2,2,2", "\u0663,3,6,2,2,2"):
        code, out, err = run(capsys, "enumerate", "--symbol", text, "--group", "kleinian",
                             "--index", "2")
        assert (code, out) == (2, "") and "symbol entries must be integers" in err, text
    with pytest.raises(SystemExit):
        main(["enumerate", "--id", "t10", "--symbol", "3,3,6,2,2,2",
              "--group", "full", "--index", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["enumerate", "--id", "t10", "--index", "2"])
    capsys.readouterr()


@pytest.mark.parametrize("selector", [["--id", "t99", "--index", "2"],
                                      ["--id", "t10", "--index", "7"]], ids=["id", "index"])
def test_every_class_command_refuses_a_bad_cell_alike(capsys, selector):
    results = {command: run(capsys, command, *selector, "--group", "full")
               for command in ("enumerate", "verify", "coloring")}
    code, out, err = results["enumerate"]
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert results["verify"] == results["coloring"] == results["enumerate"]


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
    monkeypatch.setattr("tetgroups.oracle.brute_force_classes",
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


# Whether numpy is loaded after importing the package, after each command
# that has no use for it, and after counts --diff, whose mismatched cells
# the recount settles; then whether tetgroups.oracle still binds the coset
# check that the package exports, as the benchmark's tracer wraps it there.
NUMPY_PROBE = """
import contextlib, io, sys
import tetgroups
from tetgroups.cli import main

loaded = ["numpy" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["list"],
                 ["enumerate", "--id", "t10", "--group", "full", "--index", "3"],
                 ["verify", "--id", "t10", "--group", "kleinian", "--index", "4"],
                 ["coloring", "--id", "t10", "--group", "full", "--index", "2"],
                 ["counts"],
                 ["counts", "--diff"]):
        assert main(argv) == 0, argv
        loaded.append("numpy" in sys.modules)
import tetgroups.oracle
print(loaded, [getattr(tetgroups.oracle, name) is getattr(tetgroups, name)
               for name in ("todd_coxeter", "verify_class")])
"""


def test_only_counts_diff_loads_numpy():
    # a fresh interpreter: the suite's own has loaded numpy long since
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True,
                          env=src_env(), text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False, False, False, False, True] [True, True]\n"


# counts --diff where numpy cannot be imported: None in sys.modules makes
# any import of it fail, as it does under python -S
NO_NUMPY = """
import sys
sys.modules["numpy"] = None
from tetgroups.cli import main
sys.exit(main(["counts", "--diff"]))
"""


def test_counts_diff_without_numpy_is_an_error_not_a_traceback():
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True,
                          env=src_env(), text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: counts --diff recounts with numpy")
    assert proc.stderr.count("\n") == 1


def test_a_class_record_walks_the_transversal_once(monkeypatch):
    # schreier_generators walks the transversal in columns itself, so the
    # coset table it is handed walks none until its words are read
    classes = enumerate_classes(presentation_for(catalog_by_id("t32").symbol, "kleinian"), 4)
    assert len(classes) > 1
    walks = []
    transversal = stabilizer._transversal

    def counting(*args):
        walks.append(args)
        return transversal(*args)

    monkeypatch.setattr(stabilizer, "_transversal", counting)
    for cls in classes:
        _class_record(cls)
    assert len(walks) == len(classes)
