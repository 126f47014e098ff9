#!/usr/bin/env python3
"""Write the benchmark's stored inputs and goldens (run once, on trusted code).

    python3 perfbench/make_golden.py

Writes data/report4_classes.json (the index 2-4 class representatives of all
40 symbols x both groups) and golden/<workload>.json for every workload.
The goldens pin the outputs of the code this is run on; rerunning it on
changed code would make the benchmark accept whatever that code prints.
"""

from __future__ import annotations

import json
import sys

from worker import DATA, GROUPS, HERE, WORKLOADS, Workload, class_count, golden_view, run_pass

NOTES = {
    "catalog4": "Per cell: [labeled, classes, subgroups] from the enumerator; "
                "every run also checks them against brute_force_classes. "
                "The s5 cells and the 24 cells that deviate from the published "
                "table are kept as computed.",
    "reach5": "Per cell: class count and labeled orbit sizes in class order. "
              "Enumerator-only: brute_force_classes refuses index 5, so these "
              "counts are not cross-checked by a second method; verify_class "
              "still confirms each class's index by coset enumeration.",
    "report4": "Per class: sha256 of the rendered Schreier words (raw and "
               "simplified), the verify_class result and the coloring JSON.",
}


def _one_per_line(rows) -> str:
    """A JSON list or object with one entry per line, for readable diffs."""
    if isinstance(rows, dict):
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items())
        return "{\n" + body + "\n}"
    return "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"


def write_report4_inputs() -> None:
    tg = Workload("catalog4").tg
    records = []
    for entry in tg.catalog():
        for group in GROUPS:
            pres = tg.presentation_for(entry.symbol, group)
            for n in range(2, 5):
                for ordinal, cls in enumerate(tg.enumerate_classes(pres, n), start=1):
                    records.append({
                        "key": f"{entry.id}/{group}/{n}#{ordinal}",
                        "id": entry.id, "group": group, "index": n,
                        "images": [list(p.images) for p in cls.rep.assignment.perms],
                        "image_type": cls.image_type,
                        "labeled_orbit_size": cls.labeled_orbit_size,
                    })
    DATA.mkdir(exist_ok=True)
    (DATA / "report4_classes.json").write_text(_one_per_line(records) + "\n")


def write_golden(name: str) -> None:
    workload = Workload(name)
    _, _, outputs, errors = run_pass(workload, workload.items)
    if errors:
        raise SystemExit(f"{name}: items raised: {errors[:3]}")
    keys = [workload.key(item) for item in workload.items]
    total = sum(class_count(name, out) for out in outputs)
    items = _one_per_line({k: golden_view(name, out) for k, out in zip(keys, outputs)})
    print(f"{name}: {len(keys)} items, {total} classes")
    (HERE / "golden").mkdir(exist_ok=True)
    (HERE / "golden" / f"{name}.json").write_text(
        f'{{"note": {json.dumps(NOTES[name])},\n"classes_total": {total},\n'
        f'"items": {items}}}\n')


def main() -> int:
    write_report4_inputs()
    for name in WORKLOADS:
        write_golden(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
