"""Subgroup classes as colorings of the group elements.

A class of index n colors the group with n colors, one per coset of the
stabilizer of point 1; a generator acts on colors the way it acts on
points.  That triple of colors, transversal words naming them and action
is the class's coset table.
"""

from __future__ import annotations

from .enumerator import SubgroupClass
from .stabilizer import CosetTable, build_coset_table


def coloring_of(cls: SubgroupClass) -> CosetTable:
    return build_coset_table(cls.rep)

