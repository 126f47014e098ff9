"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The criteria pin the package's external promises: the golden worked example,
byte-level agreement with the published index-2 table, the published rows
for the worked kleinian group (including one misprinted row), full agreement
between the enumerator and the independent recount everywhere, the count
table diff, and the core algebraic invariants.
"""

import itertools
import json
import random
import time

import pytest

from tetgroups import (Assignment, CoxeterSymbol, Perm, TransitiveRep, Word,
                       all_perms, brute_force_classes, build_coset_table,
                       canonical_form, catalog, conjugate_assignment,
                       count_distinct_subgroups, enumerate_classes,
                       evaluate_word, full_presentation, is_transitive,
                       parse_cycles, presentation_for, raw_schreier_words,
                       same_subgroup, schreier_generators, simplify_word,
                       todd_coxeter, verify_class)
from tetgroups.cli import main as cli_main
from tetgroups.reference import (CORROBORATED_IDS, DEGREE2_ROWS,
                                 T10_KLEINIAN_ROW4_REPAIRED,
                                 T10_KLEINIAN_ROWS)

T10 = CoxeterSymbol(3, 3, 6, 2, 2, 2)
NAMES = ("P", "Q", "R", "S")


def report(capsys, label, failures, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    with capsys.disabled():
        if failures:
            print(f"FAIL {label}{timing}: " + "; ".join(failures), flush=True)
        else:
            print(f"PASS {label}{timing}", flush=True)
    assert not failures


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_worked_example_golden_suite(capsys):
    t0 = time.perf_counter()
    failures = []
    full = presentation_for(T10, "full")
    klein = presentation_for(T10, "kleinian")

    counts = {g: [len(enumerate_classes(p, n)) for n in (2, 3, 4)]
              for g, p in (("full", full), ("kleinian", klein))}
    check(failures, counts["full"] == [3, 1, 2],
          f"full class counts {counts['full']} != [3, 1, 2]")
    check(failures, counts["kleinian"] == [1, 1, 1],
          f"kleinian class counts {counts['kleinian']} != [1, 1, 1]")

    images = [c.image_type for n in (2, 3, 4) for c in enumerate_classes(full, n)]
    check(failures, images == ["S2", "S2", "S2", "S3", "S4", "V"],
          f"full image types {images}")

    cls = enumerate_classes(full, 2)[0]
    expected_rep = TransitiveRep(full, Assignment(
        NAMES, (Perm.identity(2),) * 3 + (Perm((2, 1)),)))
    check(failures, same_subgroup(cls.rep, expected_rep),
          "first index-2 class is not the subgroup with S acting as (12)")
    gens = schreier_generators(build_coset_table(cls.rep))
    simplified = tuple(full.render(w) for w in gens.simplified)
    check(failures, simplified == ("P", "Q", "R", "SRS"),
          f"simplified stabilizer generators {simplified}")

    for pres in (full, klein):
        for n in (2, 3, 4):
            for i, c in enumerate(enumerate_classes(pres, n), start=1):
                check(failures, verify_class(c.rep) is True,
                      f"{pres.kind} index {n} class {i} failed coset check")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    report(capsys, "criterion 1: worked-example golden suite", failures, elapsed)


def test_criterion_2_published_degree2_table(capsys):
    failures = []
    full = presentation_for(T10, "full")
    all2 = full_presentation(CoxeterSymbol(2, 2, 2, 2, 2, 2))

    candidates = [Assignment(NAMES, perms)
                  for perms in itertools.product(all_perms(2), repeat=4)
                  if not all(p.is_identity() for p in perms)]
    check(failures, len(candidates) == 15,
          f"{len(candidates)} nontrivial assignments, expected 15")
    by_moved = {}
    for a in candidates:
        moved = tuple(name for name, p in zip(NAMES, a.perms) if not p.is_identity())
        by_moved[frozenset(moved)] = a
    check(failures, len(by_moved) == 15, "assignments do not map one-to-one")

    for row in DEGREE2_ROWS:
        a = by_moved.get(frozenset(row.moved))
        if a is None:
            failures.append(f"no assignment for moved set {row.moved}")
            continue
        derived = tuple(evaluate_word(base, a).cycle_string()
                        for base in full.pair_bases)
        check(failures, derived == row.pair_columns,
              f"pair columns for {row.moved}: {derived} != {row.pair_columns}")

    # the two rows whose stabilizer generators the reference spells out in
    # its running text, pinned directly
    check(failures, DEGREE2_ROWS[3].stabilizer_words
          == ("P", "Q", "R", "SPS", "SQS", "SRS"), "row 4 words drifted")
    check(failures, DEGREE2_ROWS[4].stabilizer_words
          == ("P", "Q", "SR", "RPR", "RQR"), "row 5 words drifted")

    # mechanical Schreier output vs the printed stabilizer words; every row
    # is a valid action when all six edge labels are 2
    for i, row in enumerate(DEGREE2_ROWS, start=1):
        rep = TransitiveRep(all2, by_moved[frozenset(row.moved)])
        table = build_coset_table(rep)
        raw = raw_schreier_words(table)
        check(failures, len(raw) == 8 and sum(w.is_empty() for w in raw) == 1,
              f"row {i}: raw word counts off")
        words = tuple(all2.render(w) for w in schreier_generators(table).words)
        if i <= 14:
            check(failures, words == row.stabilizer_words,
                  f"row {i} words {words} != printed {row.stabilizer_words}")
        else:
            check(failures, words == ("QP", "RP", "SP"),
                  f"row 15 mechanical words {words}")
        # the printed words generate the row's subgroup: enumerating their
        # cosets returns exactly the row's action
        parsed = [all2.parse(text) for text in row.stabilizer_words]
        res = todd_coxeter(all2, parsed, 64)
        check(failures, res.status == "closed" and res.index == 2,
              f"row {i}: printed words do not give an index-2 subgroup")
        if res.status == "closed":
            check(failures, res.action == by_moved[frozenset(row.moved)],
                  f"row {i}: printed words give a different action")

    report(capsys, "criterion 2: published index-2 table reproduced", failures)


def test_criterion_3_worked_kleinian_rows(capsys):
    failures = []
    klein = presentation_for(T10, "kleinian")

    for row, want_image in zip(T10_KLEINIAN_ROWS[:2], ("S2", "S3")):
        perms = tuple(parse_cycles(text, row.index) for text in row.images)
        rep = TransitiveRep(klein, Assignment(("a", "b", "c"), perms))
        classes = enumerate_classes(klein, row.index)
        check(failures, len(classes) == 1, f"index {row.index}: class count")
        check(failures, classes[0].image_type == want_image,
              f"index {row.index}: image {classes[0].image_type}")
        check(failures,
              canonical_form(rep.assignment).key() == classes[0].rep.assignment.key(),
              f"index {row.index}: printed row is not in the computed class")
        derived = tuple(evaluate_word(b, rep.assignment).cycle_string()
                        for b in klein.pair_bases)
        check(failures, derived == row.derived,
              f"index {row.index}: derived columns {derived} != {row.derived}")

    # the printed index-4 row cannot satisfy the relators: its ab column has
    # order 3 where a squared image is forced
    printed = T10_KLEINIAN_ROWS[2]
    perms = tuple(parse_cycles(text, 4) for text in printed.images)
    ab = evaluate_word(klein.pair_bases[0], Assignment(("a", "b", "c"), perms))
    check(failures, ab.order() == 3, "printed row 4 ab column should break")
    with pytest.raises(ValueError):
        TransitiveRep(klein, Assignment(("a", "b", "c"), perms))

    classes = enumerate_classes(klein, 4)
    check(failures, len(classes) == 1 and classes[0].image_type == "S4",
          "index 4: expected exactly one class with image S4")
    repaired = tuple(parse_cycles(t, 4) for t in T10_KLEINIAN_ROW4_REPAIRED)
    rep = TransitiveRep(klein, Assignment(("a", "b", "c"), repaired))
    check(failures,
          canonical_form(rep.assignment).key() == classes[0].rep.assignment.key(),
          "repaired row is not in the computed class")

    report(capsys, "criterion 3: worked kleinian rows (one misprint pinned)",
           failures)


def test_criterion_4_oracle_agreement_everywhere(capsys, catalog_table):
    t0 = time.perf_counter()
    failures = []
    classes_seen = 0
    for cell in catalog_table.cells:
        pres, n, classes = cell.presentation, cell.n, cell.classes
        where = f"{cell.id} {cell.group} n={n}"
        mine = (len(cell.candidates), len(classes),
                count_distinct_subgroups(pres, n))
        oracle = tuple(brute_force_classes(pres, n))
        check(failures, mine == oracle, f"{where}: {mine} != oracle {oracle}")
        classes_seen += len(classes)
        for i, cls in enumerate(classes, start=1):
            check(failures, verify_class(cls.rep) is True,
                  f"{where} class {i}: coset check")
    # the shared table is part of this check's work, so its build time counts
    elapsed = catalog_table.build_s + time.perf_counter() - t0
    check(failures, classes_seen == 1011, f"{classes_seen} classes, expected 1011")
    check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    report(capsys, "criterion 4: enumerator equals independent recount "
                   f"on all 320 cells, {classes_seen} classes verified",
           failures, elapsed)


# every cell where the computed table departs from the published reference,
# as (id, cell, published, computed); each one is backed by the recount
EXPECTED_DIFF = {
    ("t11", "H4", 8, 12), ("t11", "K2", 2, 3), ("t12", "H4", 5, 1),
    ("t13", "K4", 4, 5), ("t14", "H4", 10, 14), ("t15", "H4", 5, 1),
    ("t15", "K3", 3, 4), ("t17", "K4", 4, 5), ("t19", "H4", 35, 75),
    ("t19", "K4", 29, 31), ("t20", "H4", 49, 9), ("t21", "K4", 5, 7),
    ("t23", "K4", 4, 5), ("t24", "K4", 5, 6), ("t25", "H4", 35, 83),
    ("t26", "H4", 51, 3), ("t26", "K4", 4, 5), ("t27", "K4", 5, 6),
    ("t28", "H4", 14, 18), ("t28", "K4", 2, 10), ("t30", "K4", 6, 7),
    ("t31", "H4", 35, 115), ("t31", "K4", 49, 51), ("t32", "H4", 86, 6),
}


def test_criterion_5_count_table_diff(capsys):
    t0 = time.perf_counter()
    failures = []
    code = cli_main(["counts", "--diff", "--format", "json"])
    out, _ = capsys.readouterr()
    check(failures, code == 0, f"exit code {code}")
    records = {rec["id"]: rec for rec in json.loads(out)}
    check(failures, len(records) == 32, "expected 32 rows")

    mismatches = set()
    for rec in records.values():
        for cell in rec["cells"]:
            if cell["status"] == "PASS":
                continue
            mismatches.add((rec["id"], cell["cell"], cell["reference"],
                            cell["computed"]))
            check(failures, cell["oracle"] == cell["computed"],
                  f"{rec['id']} {cell['cell']}: recount {cell['oracle']} "
                  f"disagrees with computed {cell['computed']}")

    check(failures, mismatches == EXPECTED_DIFF,
          f"unexpected diff set: extra {sorted(mismatches - EXPECTED_DIFF)}, "
          f"missing {sorted(EXPECTED_DIFF - mismatches)}")

    # rows with fully worked examples in the reference: t1 and t10 agree on
    # every cell; the other corroborated rows agree at indices 2 and 3
    for id_ in ("t1", "t10"):
        bad = [m for m in mismatches if m[0] == id_]
        check(failures, not bad, f"{id_} should match everywhere: {bad}")
    for id_ in CORROBORATED_IDS:
        bad = [m for m in mismatches if m[0] == id_ and not m[1].endswith("4")]
        check(failures, not bad, f"{id_} should match at indices 2 and 3: {bad}")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    deviating = sorted({m[0] for m in mismatches})
    report(capsys, "criterion 5: count table consistent with recount; "
                   f"{len(mismatches)} published cells deviate "
                   f"({', '.join(deviating)})", failures, elapsed)


def test_criterion_6_algebraic_invariants(capsys, catalog_table):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0)

    # canonical form: idempotent and constant on conjugation orbits,
    # exhaustively over two-generator assignments at degrees 2 and 3, and
    # over every conjugator for sampled three-generator assignments at 4
    for n in (2, 3):
        perms = all_perms(n)
        for p in perms:
            for q in perms:
                a = Assignment(("x", "y"), (p, q))
                canon = canonical_form(a)
                check(failures, canonical_form(canon) == canon,
                      f"canonical form not idempotent at n={n}")
                check(failures,
                      all(canonical_form(conjugate_assignment(a, s)) == canon
                          for s in perms),
                      f"canonical form not orbit constant at n={n}")
    perms4 = all_perms(4)
    for _ in range(40):
        a = Assignment(("a", "b", "c"),
                       tuple(rng.choice(perms4) for _ in range(3)))
        canon = canonical_form(a)
        check(failures, canonical_form(canon) == canon,
              "canonical form not idempotent at n=4")
        check(failures,
              all(canonical_form(conjugate_assignment(a, s)) == canon
                  for s in perms4),
              "canonical form not orbit constant at n=4")

    # simplify_word: for each symbol, 100 random words keep their images in
    # every low-index class action of that symbol's reflection group
    for entry in catalog():
        pres = presentation_for(entry.symbol, "full")
        actions = [cls.rep.assignment for cell in catalog_table.cells
                   if (cell.id, cell.group) == (entry.id, "full") and cell.n in (2, 3)
                   for cls in cell.classes]
        for _ in range(100):
            w = Word([(rng.randrange(4), rng.choice((1, -1)))
                      for _ in range(rng.randrange(12))])
            simple = simplify_word(w, pres)
            check(failures, len(simple) <= len(w),
                  f"{entry.id}: simplify lengthened a word")
            check(failures,
                  all(evaluate_word(w, a) == evaluate_word(simple, a)
                      for a in actions),
                  f"{entry.id}: simplify changed the element")

    # every emitted class: relators hold, the action is transitive, every
    # stabilizer word fixes point 1, and the orbit sizes add up
    classes_checked = 0
    for cell in catalog_table.cells:
        pres, n = cell.presentation, cell.n
        k = len(pres.generator_names)
        where = f"{cell.id} {cell.group} n={n}"
        check(failures,
              sum(c.labeled_orbit_size for c in cell.classes)
              == len(cell.candidates),
              f"{where}: orbits do not partition")
        for cls in cell.classes:
            a = cls.rep.assignment
            check(failures, is_transitive(a), f"{where}: intransitive class")
            check(failures,
                  all(exp % evaluate_word(base, a).order() == 0
                      for base, exp in pres.relator_powers),
                  f"{where}: relator violated")
            table = build_coset_table(cls.rep)
            raw = raw_schreier_words(table)
            check(failures, len(raw) == n * k and
                  sum(w.is_empty() for w in raw) == n - 1,
                  f"{where}: Schreier word counts")
            gens = schreier_generators(table)
            check(failures,
                  all(evaluate_word(w, a).apply(1) == 1
                      for w in gens.words + gens.simplified),
                  f"{where}: word moves point 1")
            classes_checked += 1
    check(failures, classes_checked == 1011,
          f"checked {classes_checked} classes, expected 1011")

    elapsed = time.perf_counter() - t0
    report(capsys, "criterion 6: algebraic invariants "
                   f"({classes_checked} classes, 40 symbols)",
           failures, elapsed)
