"""k-closures: the largest subgroup of Sym(Omega) with the same orbits on
Omega^k.  Computed as the automorphism group of the orbit coloring of
k-tuples (one arity-k relation per color), seeded with the group itself,
which the closure always contains.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import DegreeTooLarge
from .group import PermutationGroup, orbits_under, tuple_image
from .structures import RelationalStructure, automorphism_group

CLOSURE_DEGREE_CAP = 64


class OrbitalColoring:
    """Colors on Omega^k: color(t) = index of the G-orbit of t.

    Diagonal tuples are included, so for k=2 the vertex orbits appear as
    colors of (a, a) pairs.  Colors are numbered by orbit minimum, and
    classes[i] is the orbit of color i, a frozenset; the color map is
    built on first use.
    """

    def __init__(self, group: PermutationGroup, k: int):
        self.degree = group.degree
        self.k = k
        gens = [g.images for g in group.generators]
        domain = itertools.product(range(self.degree), repeat=k)
        orbits = orbits_under(domain, gens, tuple_image)
        self.classes = [frozenset(orbit) for _, orbit in orbits]

    @cached_property
    def color(self) -> dict:
        return {t: i for i, orbit in enumerate(self.classes) for t in orbit}

    @property
    def count(self) -> int:
        return len(self.classes)


def k_closure(group: PermutationGroup, k: int) -> PermutationGroup:
    """The k-closure, k in {2, 3}; contains the group.  Its generators
    start with the group's own."""
    if k not in (2, 3):
        raise ValueError("k-closure implemented for k in {2, 3}")
    n = group.degree
    if n > CLOSURE_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {n} exceeds closure cap {CLOSURE_DEGREE_CAP}")
    classes = OrbitalColoring(group, k).classes
    structure = RelationalStructure(n, tuple((k, c) for c in classes))
    return automorphism_group(structure, group.generators)
