"""Subgroup enumeration for Coxeter tetrahedron groups.

For a tetrahedron symbol [p,q,r,s,t,u] this package enumerates the
subgroups of index up to 6 of the reflection group and of its rotation
subgroup up to conjugacy, computes Schreier generators for each class,
verifies the results independently (coset enumeration, and a numpy
recount at every index that never builds the product space S_n^k and
counts orbits by Burnside's lemma), and exports classes as colorings.
The recount is not re-exported: import it from tetgroups.oracle, the only
module that loads numpy, so that importing the package does not.
"""

from .coloring import coloring_of
from .enumerator import (SubgroupClass, canonical_form, classify_image,
                         count_distinct_subgroups, enumerate_candidates,
                         enumerate_classes)
from .perms import (MAX_DEGREE, Assignment, Perm, TransitiveRep, all_perms,
                    conjugate_assignment, evaluate_word, is_transitive,
                    word_order)
from .presentations import (CATALOG, CatalogEntry, CoxeterSymbol,
                            Presentation, catalog, catalog_by_id,
                            parse_symbol, presentation_for)
from .stabilizer import (CosetTable, StabilizerGens, TCResult,
                         build_coset_table, default_coset_budget,
                         raw_schreier_words, schreier_generators,
                         simplify_word, todd_coxeter, verify_class)
from .words import Word

__version__ = "0.1.0"

__all__ = [
    "Assignment", "CATALOG", "CatalogEntry", "CosetTable", "CoxeterSymbol",
    "MAX_DEGREE", "Perm", "Presentation", "StabilizerGens", "SubgroupClass",
    "TCResult", "TransitiveRep", "Word", "all_perms", "build_coset_table",
    "canonical_form", "catalog", "catalog_by_id", "classify_image",
    "coloring_of", "conjugate_assignment", "count_distinct_subgroups",
    "default_coset_budget", "enumerate_candidates", "enumerate_classes",
    "evaluate_word", "is_transitive", "parse_symbol", "presentation_for",
    "raw_schreier_words", "schreier_generators", "simplify_word",
    "todd_coxeter", "verify_class", "word_order",
]
