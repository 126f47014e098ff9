"""Subgroup enumeration for Coxeter tetrahedron groups.

For a tetrahedron symbol [p,q,r,s,t,u] this package enumerates the
subgroups of index up to 6 of the reflection group and of its rotation
subgroup up to conjugacy, computes Schreier generators for each class,
verifies the results independently (a numpy recount at every index that
never builds the product space S_n^k and counts orbits by Burnside's lemma,
and coset enumeration), and exports classes as colorings.
"""

from .coloring import coloring_of
from .enumerator import (SubgroupClass, TransitiveRep, canonical_form,
                         classify_image, count_distinct_subgroups,
                         enumerate_candidates, enumerate_classes)
from .oracle import (BruteForceCounts, TCResult, brute_force_classes,
                     default_coset_budget, todd_coxeter, verify_class)
from .perms import (MAX_DEGREE, Assignment, Perm, all_perms,
                    conjugate_assignment, evaluate_word, is_transitive,
                    parse_cycles, word_order)
from .presentations import (CATALOG, CatalogEntry, CoxeterSymbol,
                            Presentation, catalog, catalog_by_id,
                            full_presentation, kleinian_presentation,
                            parse_symbol, presentation_for)
from .stabilizer import (CosetTable, StabilizerGens, build_coset_table,
                         raw_schreier_words, same_subgroup,
                         schreier_generators, simplify_word)
from .words import Word, parse_word

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BruteForceCounts", "CATALOG", "CatalogEntry", "CosetTable",
    "CoxeterSymbol", "MAX_DEGREE", "Perm", "Presentation", "StabilizerGens",
    "SubgroupClass", "TCResult", "TransitiveRep", "Word", "all_perms",
    "brute_force_classes", "build_coset_table", "canonical_form", "catalog",
    "catalog_by_id", "classify_image", "coloring_of", "conjugate_assignment",
    "count_distinct_subgroups", "default_coset_budget",
    "enumerate_candidates", "enumerate_classes", "evaluate_word",
    "full_presentation", "is_transitive", "kleinian_presentation",
    "parse_cycles", "parse_symbol", "parse_word", "presentation_for",
    "raw_schreier_words", "same_subgroup", "schreier_generators",
    "simplify_word", "todd_coxeter", "verify_class", "word_order",
]
