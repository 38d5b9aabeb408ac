"""k-closures: the largest subgroup of Sym(Omega) with the same orbits on
Omega^k.  Computed as the automorphism group of the orbit coloring of
k-tuples (one arity-k relation per color), seeded with the group itself,
which the closure always contains.
"""

from __future__ import annotations

import itertools

from .errors import BadParameter, DegreeTooLarge
from .group import PermutationGroup, tuple_orbits
from .structures import RelationalStructure, automorphism_group

CLOSURE_DEGREE_CAP = 64


class OrbitalColoring:
    """The G-orbits on Omega^k, diagonal tuples included, so for k=2 the
    vertex orbits appear as the classes of (a, a) pairs.  classes[i] is
    the i-th orbit by lexicographic minimum, a frozenset of tuples."""

    def __init__(self, group: PermutationGroup, k: int):
        tuples = list(itertools.product(range(group.degree), repeat=k))
        self.classes = [
            frozenset(map(tuples.__getitem__, orbit)) for orbit in tuple_orbits(group, k)
        ]


def k_closure(group: PermutationGroup, k: int) -> PermutationGroup:
    """The k-closure, k in {2, 3}; contains the group.  Its generators
    start with the group's own."""
    if k not in (2, 3):
        raise BadParameter("k-closure implemented for k in {2, 3}")
    n = group.degree
    if n > CLOSURE_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {n} exceeds closure cap {CLOSURE_DEGREE_CAP}")
    classes = OrbitalColoring(group, k).classes
    structure = RelationalStructure(n, tuple((k, c) for c in classes))
    return automorphism_group(structure, group.generators)
