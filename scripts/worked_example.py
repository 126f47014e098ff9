#!/usr/bin/env python3
"""Tour of the library on one tetrahedron, [3,3,6,2,2,2].

Shows the two presentations, the index-2 classes of the reflection group
with transversals and stabilizer generators, the kleinian classes at
indices 2 to 4, coset-enumeration verification, and a coloring export.
Exits 1 unless coset enumeration confirms every kleinian class; a class
whose enumeration ran out of cosets is printed as inconclusive.
"""

from __future__ import annotations

import json
import sys

from tetgroups import (Word, build_coset_table, catalog_by_id, coloring_of,
                       enumerate_classes, presentation_for, raw_schreier_words,
                       schreier_generators, verify_class)

# verify_class: True closes at the class's index, False closes elsewhere,
# None ran out of cosets.
VERDICTS = {True: "confirms", None: "is inconclusive on", False: "DISPUTES"}


def main() -> int:
    entry = catalog_by_id("t10")
    print(f"tetrahedron {entry.id}: symbol {entry.symbol}, {entry.geometry}, "
          f"{entry.ideal_vertices} ideal vertex")

    for group in ("full", "kleinian"):
        pres = presentation_for(entry.symbol, group)
        rendered = ", ".join(pres.render(Word(base.letters * k))
                             for base, k in pres.relator_powers)
        print(f"\n{group} presentation on {', '.join(pres.generator_names)}: "
              f"relators {rendered}")

    pres = presentation_for(entry.symbol, "full")
    print("\nindex-2 classes of the reflection group:")
    for i, cls in enumerate(enumerate_classes(pres, 2), start=1):
        table = build_coset_table(cls.rep)
        gens = schreier_generators(table)
        transversal = [pres.render(w) or "e" for w in table.transversal]
        raw = raw_schreier_words(table)
        freely_trivial = sum(w.is_empty() for w in raw)
        reduced_trivial = sum(pres.reduce(w).is_empty() for w in raw)
        print(f"  class {i}: {cls.rep.assignment.as_dict()}")
        print(f"    transversal {transversal}; of {len(raw)} Schreier words "
              f"{freely_trivial} cancel freely (the tree edges) and "
              f"{reduced_trivial} once generators square away")
        print(f"    stabilizer generators {[pres.render(w) for w in gens.words]} "
              f"-> simplified {[pres.render(w) for w in gens.simplified]}")

    kpres = presentation_for(entry.symbol, "kleinian")
    confirmed = True
    print("\nkleinian classes at indices 2..4:")
    for n in (2, 3, 4):
        for i, cls in enumerate(enumerate_classes(kpres, n), start=1):
            verdict = VERDICTS[verify_class(cls.rep)]
            confirmed &= verdict == "confirms"
            print(f"  index {n} class {i}: {cls.rep.assignment.as_dict()}, "
                  f"image {cls.image_type}, coset enumeration "
                  f"{verdict} the index")

    cls = enumerate_classes(pres, 2)[0]
    print("\ncoloring of the first index-2 class:")
    print(json.dumps(coloring_of(cls).as_json_dict(), indent=2))
    return 0 if confirmed else 1


if __name__ == "__main__":
    sys.exit(main())
