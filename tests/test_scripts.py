import hashlib
import importlib.util
import re
import time
from dataclasses import replace
from math import gcd, lcm
from pathlib import Path

import pytest

import tetgroups.enumerator
from tetgroups import oracle

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# sha256 of the tour's whole stdout, so a change to any printed byte, the
# relators' spelling included, shows up here
TOUR_SHA256 = "50fbf214c411cc624ecd575d897e801f899571bec6fb44568d7ca952c9c70cd9"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("result, exit_code, verdict", [
    (True, 0, "coset enumeration confirms the index"),
    (None, 1, "coset enumeration is inconclusive on the index"),
    (False, 1, "coset enumeration DISPUTES the index"),
])
def test_worked_example_exits_1_unless_every_class_is_confirmed(
        monkeypatch, capsys, result, exit_code, verdict):
    script = load_script("worked_example")
    monkeypatch.setattr(script, "verify_class", lambda rep: result)
    assert script.main() == exit_code
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "coset enumeration" in line]
    assert len(lines) == 3  # one kleinian class at each of indices 2, 3, 4
    assert all(line.endswith(verdict) for line in lines)


def test_worked_example_stdout_is_pinned(capsys):
    assert load_script("worked_example").main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TOUR_SHA256


def test_full_sweep_names_an_inconclusive_class_apart_from_a_failed_one(
        monkeypatch, capsys):
    script = load_script("run_full_sweep")
    entry = script.catalog()[0]
    monkeypatch.setattr(script, "catalog", lambda: (entry,))
    verdicts = iter([None, False])
    monkeypatch.setattr(script, "verify_class", lambda rep: next(verdicts, True))
    assert script.main() == 1
    out = capsys.readouterr().out
    assert f"DISAGREE {entry.id} full 1 verify inconclusive" in out
    assert f"DISAGREE {entry.id} full 2 verify failed" in out
    assert "2 unverified" in out


def test_full_sweep_searches_once_per_cell(monkeypatch, capsys):
    script = load_script("run_full_sweep")
    entry = script.catalog()[0]
    monkeypatch.setattr(script, "catalog", lambda: (entry,))
    search = tetgroups.enumerator._search
    calls = []

    def counting_search(presentation, n):
        calls.append((presentation.kind, n))
        return search(presentation, n)

    monkeypatch.setattr(tetgroups.enumerator, "_search", counting_search)
    assert script.main() == 0
    # 2 groups x indices 1..6, each searched once
    assert len(calls) == 12
    assert set(calls) == {(group, n) for group in ("full", "kleinian")
                          for n in range(1, script.MAX_DEGREE + 1)}
    assert "0 disagreements, 0 unverified" in capsys.readouterr().out


def test_full_sweep_builds_the_search_tables_before_the_first_cell(monkeypatch, capsys):
    # The one-time table builds, the enumerator's and the recount's, are
    # timed on their own, at the end of the summary line, and not in the
    # first index-6 enumerate_classes or brute_force_classes column: the
    # tables of each degree, the columns of each exponent, and each
    # method's rows for both presentations at every degree.  Each group's
    # relators on one generator have an exponent that its other relators
    # use too, so the recount's columns number the exponents.  Both methods
    # look an exponent up as gcd(exp, lcm(1..n)), so at a low degree some
    # exponents share a table.
    script = load_script("run_full_sweep")
    entry = script.catalog()[0]
    monkeypatch.setattr(script, "catalog", lambda: (entry,))
    exponents = {exp for group in ("full", "kleinian")
                 for _, exp in script.presentation_for(entry.symbol, group).relator_powers}
    degrees = script.MAX_DEGREE
    keys = sum(len({gcd(exp, lcm(*range(1, n + 1))) for exp in exponents})
               for n in range(1, degrees + 1))
    enumerator = tetgroups.enumerator
    caches = {enumerator.perm_tables: degrees, oracle._symmetric_tables: degrees,
              enumerator.order_masks: keys, oracle._order_divides: keys,
              enumerator._search_rows: 2 * degrees, oracle._recount_rows: 2 * degrees}
    for cache in caches:
        cache.cache_clear()
    calls = []
    build_tables = script.build_tables
    enumerate_classes = script.enumerate_classes

    def building(presentations):
        calls.append(("tables", tuple(pres.kind for pres in presentations)))
        return build_tables(presentations)

    def enumerating(pres, n):
        if len(calls) == 1:  # the first cell, after the one table build
            assert all(cache.cache_info().currsize == size
                       for cache, size in caches.items())
        calls.append(("classes", n))
        return enumerate_classes(pres, n)

    monkeypatch.setattr(script, "build_tables", building)
    monkeypatch.setattr(script, "enumerate_classes", enumerating)
    assert script.main() == 0
    assert calls[0] == ("tables", ("full", "kleinian"))
    assert [call for call, _ in calls].count("tables") == 1
    # and no cell built one of these again
    assert all(cache.cache_info().misses == size for cache, size in caches.items())
    summary = capsys.readouterr().out.splitlines()[-1]
    assert re.search(r", peak RSS \d+ MB, tables \d+\.\d\ds$", summary)


def test_full_sweep_reports_a_labeled_count_that_is_not_a_subgroup_count(
        monkeypatch, capsys):
    script = load_script("run_full_sweep")
    entry = script.catalog()[0]
    monkeypatch.setattr(script, "catalog", lambda: (entry,))
    enumerate_classes = script.enumerate_classes

    def one_more_at_5(pres, n):
        classes = enumerate_classes(pres, n)
        if n == 5:
            classes[0] = replace(classes[0], labeled_orbit_size=classes[0].labeled_orbit_size + 1)
        return classes

    monkeypatch.setattr(script, "enumerate_classes", one_more_at_5)
    assert script.main() == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("DISAGREE")]
    # one labeled rep too many at index 5 is no multiple of 4!, so each
    # group's row shows the fraction where the subgroup count would be
    assert len(rows) == 2 and all("/4!'" in row for row in rows)


def test_full_sweep_fails_on_a_class_unconfirmed_at_the_top_index(monkeypatch, capsys):
    script = load_script("run_full_sweep")
    entry = script.catalog()[0]
    monkeypatch.setattr(script, "catalog", lambda: (entry,))
    monkeypatch.setattr(script, "verify_class",
                        lambda rep: rep.degree < script.MAX_DEGREE or None)
    assert script.main() == 1
    out = capsys.readouterr().out
    # s1 has one class in each group at index 6
    assert f"DISAGREE {entry.id} full 6 verify inconclusive" in out
    assert f"DISAGREE {entry.id} kleinian 6 verify inconclusive" in out
    summary = out.splitlines()[-1]
    assert summary.startswith("1 symbols, 2 groups, indices 1..6: ")
    assert "0 disagreements, 2 unverified" in summary


def test_full_sweep_prints_each_index_time_split_before_the_summary(monkeypatch, capsys):
    script = load_script("run_full_sweep")
    entry = script.catalog()[0]
    monkeypatch.setattr(script, "catalog", lambda: (entry,))
    brute_force_classes = script.brute_force_classes

    def slow_at_3(pres, n):
        if n == 3:
            time.sleep(0.05)
        return brute_force_classes(pres, n)

    monkeypatch.setattr(script, "brute_force_classes", slow_at_3)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("1 symbols, 2 groups, indices 1..6: ")
    split = [re.fullmatch(rf"index {n}: enumerate_classes (\d+\.\d\d)s, "
                          r"brute_force_classes (\d+\.\d\d)s, verify_class (\d+\.\d\d)s",
                          line)
             for n, line in enumerate(lines[:-1], start=1)]
    assert len(split) == script.MAX_DEGREE and all(split)
    # both groups sleep at index 3, and the sleep lands in its oracle column
    assert float(split[2].group(2)) >= 0.1
