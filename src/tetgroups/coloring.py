"""Subgroup classes as colorings of the group elements.

A class of index n colors the group with n colors, one per coset of the
stabilizer of point 1; a generator acts on colors the way it acts on
points.  That triple of colors, transversal words naming them and action
is the class's coset table.  Fixing which coset gets color 1 still leaves
(n-1)! labelings of the remaining cosets, so each subgroup accounts for
(n-1)! colorings.
"""

from __future__ import annotations

from math import factorial

from .enumerator import SubgroupClass
from .stabilizer import CosetTable, build_coset_table


def coloring_of(cls: SubgroupClass) -> CosetTable:
    return build_coset_table(cls.rep)


def colorings_fixing_c1_count(n: int) -> int:
    """Colorings per subgroup once color 1 is pinned to the subgroup itself."""
    if n < 1:
        raise ValueError("index must be at least 1")
    return factorial(n - 1)
