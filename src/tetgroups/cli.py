"""Command line front end.

Subcommands: list (catalog), enumerate (classes for one symbol), counts
(the full 32-row count table, optionally diffed against the embedded
reference), verify (coset-enumeration check per class), coloring (export
one class as a coloring).  Exit codes: 0 success/consistent, 1 failed
verification or internal inconsistency, 2 usage errors, 3 when verify
confirms no class wrong but leaves some inconclusive (the coset budget ran
out); a failed class makes verify exit 1 whatever else it found.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coloring import coloring_of
from .enumerator import SubgroupClass, enumerate_classes
from .oracle import brute_force_classes, verify_class
from .perms import evaluate_word
from .presentations import (CoxeterSymbol, catalog, catalog_by_id,
                            presentation_for, parse_symbol)
from .reference import REFERENCE_COUNTS
from .stabilizer import build_coset_table, schreier_generators


def _symbol(args: argparse.Namespace) -> CoxeterSymbol:
    """The symbol named by --id or --symbol; argparse requires exactly one."""
    if args.id:
        return catalog_by_id(args.id).symbol
    return parse_symbol(args.symbol)


def _class_record(cls: SubgroupClass) -> dict:
    pres = cls.rep.presentation
    gens = schreier_generators(build_coset_table(cls.rep))
    return {
        "assignment": cls.rep.assignment.as_dict(),
        "image_type": cls.image_type,
        "labeled_orbit_size": cls.labeled_orbit_size,
        "stabilizer_generators": [pres.render(w) for w in gens.simplified],
    }


def cmd_list(args: argparse.Namespace) -> int:
    entries = [e for e in catalog()
               if args.geometry is None or e.geometry == args.geometry]
    if args.format == "json":
        payload = [{"id": e.id, "symbol": e.symbol.as_text(),
                    "geometry": e.geometry, "ideal_vertices": e.ideal_vertices}
                   for e in entries]
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'id':<4} {'symbol':<14} {'geometry':<22} ideal_vertices")
        for e in entries:
            print(f"{e.id:<4} {e.symbol.as_text():<14} {e.geometry:<22} {e.ideal_vertices}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    sym = _symbol(args)
    pres = presentation_for(sym, args.group)
    classes = enumerate_classes(pres, args.index)
    if args.format == "json":
        payload = {
            "symbol": sym.as_text(),
            "group": args.group,
            "index": args.index,
            "classes": [_class_record(c) for c in classes],
        }
        print(json.dumps(payload, indent=2))
        return 0
    names = pres.generator_names
    pair_words = [pres.render(w) for w in pres.pair_bases]
    print(f"symbol [{sym.as_text()}], {args.group} group, index {args.index}: "
          f"{len(classes)} classes")
    header = ["no"] + list(names) + pair_words + ["image", "orbit", "stabilizer generators"]
    rows = []
    for i, cls in enumerate(classes, start=1):
        rec = _class_record(cls)
        derived = [evaluate_word(w, cls.rep.assignment).cycle_string()
                   for w in pres.pair_bases]
        rows.append([str(i)]
                    + [rec["assignment"][name] for name in names]
                    + derived
                    + [cls.image_type, str(cls.labeled_orbit_size),
                       ", ".join(rec["stabilizer_generators"])])
    widths = [max(len(r[c]) for r in [header] + rows) for c in range(len(header))]
    for r in [header] + rows:
        print("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())
    return 0


# A count row's six cells: the full group's, then the kleinian's, at indices 2-4.
CELLS = (("H2", "full", 2), ("H3", "full", 3), ("H4", "full", 4),
         ("K2", "kleinian", 2), ("K3", "kleinian", 3), ("K4", "kleinian", 4))


def _row_counts(symbol: CoxeterSymbol) -> tuple[int, ...]:
    """Class counts of one symbol, one per cell of CELLS."""
    return tuple(len(enumerate_classes(presentation_for(symbol, group), n))
                 for _, group, n in CELLS)


def cmd_counts(args: argparse.Namespace) -> int:
    records = []
    for row in REFERENCE_COUNTS:
        entry = catalog_by_id(row.id)
        expected = row.full + row.kleinian
        got = _row_counts(entry.symbol)
        rec = {"id": row.id, "symbol": entry.symbol.as_text(),
               "computed": list(got)}
        if args.diff:
            rec["reference"] = list(expected)
            cells = []
            for (name, group, n), want, have in zip(CELLS, expected, got):
                cell = {"cell": name, "computed": have, "reference": want}
                if want == have:
                    cell["status"] = "PASS"
                else:
                    oracle = brute_force_classes(
                        presentation_for(entry.symbol, group), n).classes
                    cell["status"] = "MISMATCH"
                    cell["oracle"] = oracle
                    cell["oracle_agrees_with_computed"] = oracle == have
                cells.append(cell)
            rec["cells"] = cells
        records.append(rec)
    mismatches = [(rec["id"], cell) for rec in records for cell in rec.get("cells", ())
                  if cell["status"] == "MISMATCH"]
    inconsistent = sum(not cell["oracle_agrees_with_computed"] for _, cell in mismatches)

    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        print(f"{'id':<4} {'symbol':<14} " + " ".join(f"{c:>4}" for c, _, _ in CELLS))
        for rec in records:
            print(f"{rec['id']:<4} {rec['symbol']:<14} "
                  + " ".join(f"{v:>4}" for v in rec["computed"]))
        if args.diff:
            for id_, cell in mismatches:
                agree = "agrees" if cell["oracle_agrees_with_computed"] else "DISAGREES"
                print(f"MISMATCH {id_} {cell['cell']}: reference {cell['reference']}, "
                      f"computed {cell['computed']}, oracle {cell['oracle']} "
                      f"({agree} with computed)")
            total = len(records) * len(CELLS)
            print(f"diff summary: {total - len(mismatches)}/{total} cells match the "
                  f"reference; {len(mismatches)} mismatches "
                  f"({'all' if not inconsistent else inconsistent} "
                  + ("backed by the oracle" if not inconsistent
                     else "cells INTERNALLY INCONSISTENT")
                  + "; reference tables may carry transcription noise)")
    return 1 if inconsistent else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_cosets is not None and args.max_cosets < 1:
        raise ValueError(f"--max-cosets must be at least 1, got {args.max_cosets}")
    sym = _symbol(args)
    pres = presentation_for(sym, args.group)
    classes = enumerate_classes(pres, args.index)
    print(f"symbol [{sym.as_text()}], {args.group} group, index {args.index}: "
          f"{len(classes)} classes")
    closed = inconclusive = failed = 0
    for i, cls in enumerate(classes, start=1):
        res = verify_class(cls.rep, args.max_cosets)
        if res is True:
            print(f"class {i}: closed({cls.index})")
            closed += 1
        elif res is None:
            print(f"class {i}: inconclusive (coset budget exhausted)")
            inconclusive += 1
        else:
            print(f"class {i}: FAILED (coset enumeration closed at a different index)")
            failed += 1
    print(f"{len(classes)} classes: {closed} closed, {inconclusive} inconclusive, "
          f"{failed} failed")
    if failed:
        return 1
    return 3 if inconclusive else 0


def cmd_coloring(args: argparse.Namespace) -> int:
    sym = _symbol(args)
    pres = presentation_for(sym, args.group)
    classes = enumerate_classes(pres, args.index)
    if not 1 <= args.class_ordinal <= len(classes):
        raise ValueError(f"class ordinal {args.class_ordinal} out of range, "
                         f"{len(classes)} classes at index {args.index}")
    col = coloring_of(classes[args.class_ordinal - 1])
    if args.format == "csv":
        print("generator,color,image_color")
        for gen, color, image in col.as_csv_rows():
            print(f"{gen},{color},{image}")
    else:
        print(json.dumps(col.as_json_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetgroups",
        description="Low index subgroups of Coxeter tetrahedron groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the tetrahedron catalog")
    p_list.add_argument("--geometry", choices=["spherical", "euclidean",
                                               "hyperbolic-compact",
                                               "hyperbolic-noncompact"])
    p_list.add_argument("--format", choices=["table", "json"], default="table")
    p_list.set_defaults(func=cmd_list)

    def add_symbol_args(p: argparse.ArgumentParser) -> None:
        sel = p.add_mutually_exclusive_group(required=True)
        sel.add_argument("--id", help="catalog id, e.g. t10")
        sel.add_argument("--symbol", help="six entries, e.g. 3,3,6,2,2,2")
        p.add_argument("--group", choices=["full", "kleinian"], required=True)
        p.add_argument("--index", type=int, required=True)

    p_enum = sub.add_parser("enumerate", help="classes of index-n subgroups")
    add_symbol_args(p_enum)
    p_enum.add_argument("--format", choices=["table", "json"], default="table")
    p_enum.set_defaults(func=cmd_enumerate)

    p_counts = sub.add_parser(
        "counts", help="class counts for all hyperbolic tetrahedra")
    p_counts.add_argument("--diff", action="store_true",
                          help="compare against the embedded reference counts")
    p_counts.add_argument("--format", choices=["table", "json"], default="table")
    p_counts.set_defaults(func=cmd_counts)

    p_verify = sub.add_parser("verify", help="coset-enumeration check per class")
    add_symbol_args(p_verify)
    p_verify.add_argument("--max-cosets", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_col = sub.add_parser("coloring", help="export one class as a coloring")
    add_symbol_args(p_col)
    p_col.add_argument("--class", dest="class_ordinal", type=int, default=1,
                       help="1-based class ordinal (default 1)")
    p_col.add_argument("--format", choices=["json", "csv"], default="json")
    p_col.set_defaults(func=cmd_coloring)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
