"""Shared search machinery for relational complexity and base statistics.

Both computations walk the same tree: tuples of points where each
successive point is (a) the minimum of its orbit under the pointwise
stabilizer of the preceding points and (b) strictly shrinks that
stabilizer.  Every independent set, irredundant base and witness prefix
has a G-translate realized in this tree, because all the properties
involved are invariant under the diagonal G-action, so canonicalizing
point by point loses nothing.

The walk visits one prefix set per G-orbit of sets: a child set is
skipped when some set visited before it is its image under G.  Think of
the plain walk that skips only repeated sets.  The orbit walk yields
exactly the first set of each G-orbit in the plain walk's order, with
the same stabilizer:

  - A later orbit-mate's subtree holds no orbit's first set.  Let
    N = M^g with M earlier.  A child N + {q} of N has the G-translate
    M + {q'}, where q' is the minimum of the G_M-orbit of q^(g^-1); that
    orbit is nontrivial like q's, so M + {q'} is a child of M and comes
    earlier.  M is cut no later than N: a prune reads the depth and the
    order, which M and N share, and a best level that only grows.
  - So a first set's parent is a first set, and the orbit walk reaches
    every first set along the plain walk's path, in the same order,
    calling the same pointwise_stabilizer on the same group.

Its consumers keep their results.  Depth, stabilizer order, independence
and whether a witness exists are G-invariant, and the statistics and RC
change their best value only on a strict improvement, so a later
orbit-mate never wins.  RC's prune, ``depth + log2(order) <= best_level``,
reads orbit invariants and a best level that orbit-mates never raise, so
it cuts the same first sets.  RC, its witness (I, J) and the b/B/H/I
witnesses are the plain walk's.  The witness's transporters are words in
the generators of the side groups the lattice serves, read once the walk
is done.  Every group the lattice holds is the one its own recursion
builds: the walk hands it only stabilizers built along ascending paths
(StabilizerLattice.adopt), which are those groups.  So the words depend
on the group's generators, the prefix, alpha and beta, and not on the
order of the walk or on how it builds its stabilizers.

Two sets are tested in two steps.  A key first: per point the sorted
colours of the orbitals (G-orbits on ordered pairs, diagonal included)
it forms with the set's points, sorted over the points; one n x n
colour table of the top group serves the walk.  Sets with equal keys
then go to a set-transporter backtrack along the stored set's own path:
pointwise_stabilizer keeps, on each stabilizer it returns, its parent's
path levels and the level it cut from its parent's chain, and those
levels form a stabilizer chain prefix of G along the path (Leon,
"Permutation group algorithms based on partitions, I", J. Symbolic
Comput. 1991, decides set images by such a backtrack with partition
refinement on top).

The side groups G_{S-x_i} of a node S = {x_0..x_{m-1}}, which the witness
check and the independence test read, come off the same levels with no
chain built.  Level L_i is the orbit of x_i under G_{x_0..x_{i-1}}, with
representatives u_s.  An element of G_{S-x_i} maps x_i to some s in L_i,
so G_{S-x_i} is the disjoint union of the cosets G_S t_s u_s over the s
for which a descent through L_{i+1..m-1} finds t_s in G_{x_0..x_i} with
x_j^(t_s) = x_j^(u_s^-1) for all j > i (side_cosets).  So
|G_{S-x_i}| = |G_S| times the number of such s, and the G_{S-x_i}-orbit
of a point a is the union of the G_S-orbits of the points a^(g^-1),
g = t_s u_s.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice

from .chain import maps_onto
from .group import PermutationGroup, tuple_orbits


class StabilizerLattice:
    """Memoized pointwise stabilizers of point sets, by max-pivot recursion."""

    def __init__(self, group: PermutationGroup):
        self.group = group
        self._memo: dict[frozenset, PermutationGroup] = {frozenset(): group}

    def stabilizer(self, points: frozenset) -> PermutationGroup:
        cached = self._memo.get(points)
        if cached is not None:
            return cached
        pivot = max(points)
        parent = self.stabilizer(points - {pivot})
        result = parent.pointwise_stabilizer([pivot])
        self._memo[points] = result
        return result

    def adopt(self, group: PermutationGroup):
        """Keep the walk's stabilizer group if its path ascends: stabilizer()
        then makes the same pointwise_stabilizer calls on the same groups,
        so group is the lattice's own."""
        path = [level.point for level in group._cut_levels]
        if all(a < b for a, b in zip(path, path[1:])):
            self._memo.setdefault(frozenset(path), group)

    def order(self, points: frozenset) -> int:
        return self.stabilizer(points).order()

    def is_independent(self, stab: PermutationGroup) -> bool:
        """No point of stab's path is redundant: dropping any point x_i
        enlarges the stabilizer, so G_S has a second coset in G_{S - x_i}."""
        levels = stab._cut_levels
        return all(len(list(islice(side_cosets(levels, i), 2))) == 2
                   for i in range(len(levels)))


def side_cosets(levels, i):
    """Yield one g, as an image tuple, in each coset G_S g of G_S in
    G_{S - x_i}, where levels are a pointwise stabilizer's path levels along
    x_0..x_{m-1} and S is their set.  The first is the identity.  A descent
    like chain.maps_onto's, with no branching; preimages come from
    tuple.index, so no inverse is formed or cached."""
    later = levels[i + 1:]
    for s in levels[i].transversal:
        # the representatives chosen so far; g is their product, deepest first
        word = [levels[i].transversal[s].images]
        for level in later:
            b = level.point
            for u in word:
                b = u.index(b)
            if b not in level.transversal:
                break
            word.append(level.transversal[b].images)
        else:
            yield reduce(lambda acc, u: tuple(map(u.__getitem__, acc)), word[-2::-1], word[-1])


def path_sides(stab: PermutationGroup):
    """side_cosets of each point of stab's path, in path order, as lists;
    None as soon as some point is redundant (its side has one coset)."""
    levels = stab._cut_levels
    sides = []
    for i in range(len(levels)):
        cosets = list(side_cosets(levels, i))
        if len(cosets) == 1:
            return None
        sides.append(cosets)
    return sides


def orbital_colours(group: PermutationGroup):
    """Flat n x n table: entry a*n + b numbers the G-orbit of (a, b)."""
    colour = [0] * group.degree ** 2
    for index, orbit in enumerate(tuple_orbits(group, 2)):
        for x in orbit:
            colour[x] = index
    return colour


def set_key(colour, n, points) -> tuple:
    """A G-invariant of a point set, from the orbital colour table."""
    return tuple(sorted(
        tuple(sorted(colour[a * n + b] for b in points)) for a in points
    ))


def canonical_prefixes(lattice: StabilizerLattice, prune=None):
    """DFS over canonical strictly-decreasing prefixes, one set per G-orbit.

    Yields (points tuple, stabilizer along them) in depth-first order, root
    (empty prefix) excluded.  ``prune(depth, stabilizer_order)`` may return
    True to skip extensions of a node.  A prefix set whose G-orbit was
    already visited, through this set or another, is skipped.
    """
    n = lattice.group.degree
    colour = orbital_colours(lattice.group)
    # set key -> path levels of each visited set with that key
    visited: dict[tuple, list[tuple]] = {}

    def walk(points, stab, order):
        if prune is not None and prune(len(points), order):
            return
        # A point the stabilizer fixes cannot shrink it, so only the minima
        # of nontrivial orbits extend the prefix (orbits() pairs each orbit
        # with its minimum, in ascending order of the minimum).  By
        # orbit-stabilizer, each of those divides the order by its orbit
        # length.
        for p in [alpha for alpha, orbit in stab.orbits() if len(orbit) > 1]:
            child_points = points + (p,)
            same_key = visited.setdefault(set_key(colour, n, child_points), [])
            if any(maps_onto(path, child_points) for path in same_key):
                continue
            child = stab.pointwise_stabilizer([p])
            child_order = child.order()
            same_key.append(child._cut_levels)
            lattice.adopt(child)
            yield child_points, child
            yield from walk(child_points, child, child_order)

    root = lattice.stabilizer(frozenset())
    yield from walk((), root, root.order())
