"""Shared search machinery for relational complexity and base statistics.

Both computations walk the same tree: tuples of points where each
successive point is (a) the minimum of its orbit under the pointwise
stabilizer of the preceding points and (b) strictly shrinks that
stabilizer.  Every independent set, irredundant base and witness prefix
has a G-translate realized in this tree, because all the properties
involved are invariant under the diagonal G-action, so canonicalizing
point by point loses nothing.  Prefixes are deduplicated by their
underlying set: the pointwise stabilizer, and hence the whole subtree,
depends only on the set.
"""

from __future__ import annotations

from .group import PermutationGroup


class StabilizerLattice:
    """Memoized pointwise stabilizers of point sets, computed incrementally."""

    def __init__(self, group: PermutationGroup):
        self.group = group
        self._memo: dict[frozenset, PermutationGroup] = {frozenset(): group}
        self._orders: dict[frozenset, int] = {frozenset(): group.order()}

    def stabilizer(self, points: frozenset) -> PermutationGroup:
        cached = self._memo.get(points)
        if cached is not None:
            return cached
        pivot = max(points)
        parent = self.stabilizer(points - {pivot})
        result = parent.pointwise_stabilizer([pivot])
        self._memo[points] = result
        self._orders[points] = result.order()
        return result

    def order(self, points: frozenset) -> int:
        if points not in self._orders:
            self.stabilizer(points)
        return self._orders[points]

    def is_independent(self, points: frozenset) -> bool:
        """No point is redundant: dropping any point enlarges the stabilizer."""
        full = self.order(points)
        return all(self.order(points - {p}) > full for p in points)


def canonical_prefixes(lattice: StabilizerLattice, max_depth=None, prune=None):
    """DFS over canonical strictly-decreasing prefixes.

    Yields (points_tuple, points_frozenset, stabilizer) in depth-first
    order, root (empty prefix) excluded.  ``prune(depth, stabilizer_order)``
    may return True to skip extensions of a node.  Prefix sets already
    visited through another ordering are skipped.
    """
    seen: set[frozenset] = set()

    def walk(points, fset, stab, order):
        depth = len(points)
        if max_depth is not None and depth >= max_depth:
            return
        if prune is not None and prune(depth, order):
            return
        # A point the stabilizer fixes cannot shrink it, so only the minima
        # of nontrivial orbits extend the prefix (orbits() lists each orbit
        # from its minimum, in ascending order).  By orbit-stabilizer, each
        # of those divides the order by its orbit length.
        for p in [orb[0] for orb in stab.orbits() if len(orb) > 1]:
            child_set = fset | {p}
            if child_set in seen:
                continue
            child = stab.pointwise_stabilizer([p])
            child_order = child.order()
            seen.add(child_set)
            lattice._memo.setdefault(child_set, child)
            lattice._orders.setdefault(child_set, child_order)
            yield points + (p,), child_set, child
            yield from walk(points + (p,), child_set, child, child_order)

    root = lattice.stabilizer(frozenset())
    yield from walk((), frozenset(), root, root.order())
