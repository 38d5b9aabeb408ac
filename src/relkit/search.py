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
    earlier.  M is cut exactly when N is: the cut below redundant sets
    (redundant=False) reads only whether some point is redundant, and
    redundancy is G-invariant.  Every prefix of an independent set is
    independent, so the cut removes no independent node.
  - So a first set's parent is a first set, and the orbit walk reaches
    every first set along the plain walk's path, in the same order,
    calling the same pointwise_stabilizer on the same group.

Its consumers keep their results.  Depth, stabilizer order, independence
and whether a witness exists are G-invariant, and the statistics and RC
change their best value only on a strict improvement, so a later
orbit-mate never wins.  RC, its witness (I, J) and the b/B/H/I
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
x_j^(t_s) = x_j^(u_s^-1) for all j > i.  So |G_{S-x_i}| = |G_S| times the
number of such s, and the G_{S-x_i}-orbit of a point a is the union of
the G_S-orbits of the points a^(g^-1), g = t_s u_s.  A child's descents
are its parent's plus one level, so the walk carries each node's cosets
down and extends them by the child's level (extend_sides).

RC's walk (redundant=False) decides whether a child S + {p} is redundant
before it keys, orbit-tests or builds it.  The level the child cuts is
keyed by the orbit O of p under G_S, which stab.orbits() pairs with p, so
side i of the child keeps exactly the parent cosets g with p^(g^-1) in O.
The identity is always kept and the new point's side has |O| > 1 cosets,
so the child is redundant exactly when some parent side keeps nothing but
the identity.  Such a child gets no orbit test, no visited record, no
build and no adopt, and that loses nothing.  Redundancy is G-invariant,
so its record could only ever catch redundant sets, which are skipped
anyway.  And the lattice is read (lattice_witness) only at subsets of an
independent prefix, which are independent, so never at a redundant set.
"""

from __future__ import annotations

from functools import reduce

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

    def is_independent(self, sides) -> bool:
        """No point of the node's path is redundant: dropping any point x_i
        enlarges the stabilizer, so G_S has a second coset in G_{S - x_i}.
        sides are the node's side cosets, None when some point is redundant."""
        return sides is not None


def extend_sides(sides, level):
    """The side cosets of a node's child, from the node's and the level the
    child cuts: per path point x_i, one g, as an image tuple, in each coset
    G_S g of G_S in G_{S - x_i}, the identity first; None once some point
    is redundant (its side has one coset).  Side i keeps each g whose
    preimage b of the level's point has a representative t_b, as g t_b, and
    the new point's side is the level's representatives.  Preimages come
    from tuple.index, so no inverse is formed or cached."""
    if sides is None:
        return None
    x, t = level.point, level.transversal
    out = [[tuple(map(g.__getitem__, t[b].images)) for g in cosets if (b := g.index(x)) in t]
           for cosets in sides]
    out.append([u.images for u in t.values()])
    return None if any(len(cosets) == 1 for cosets in out) else out


def path_sides(stab: PermutationGroup):
    """The side cosets of stab's node, by extend_sides along its path."""
    return reduce(extend_sides, stab._cut_levels, [])


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


def canonical_prefixes(lattice: StabilizerLattice, redundant=True):
    """DFS over canonical strictly-decreasing prefixes, one set per G-orbit.

    Yields (points tuple, stabilizer along them, side cosets) in depth-first
    order, root (empty prefix) excluded; the side cosets (extend_sides)
    live on the walk's stack only.  With redundant=False, a child with a
    redundant point is neither yielded nor walked below: every set under
    it keeps that point redundant.  It is decided from p's orbit and the
    parent's side cosets, so it is neither orbit-tested, recorded nor
    built (see the module docstring for why nothing is lost).  A prefix
    set whose G-orbit was already visited, through this set or another,
    is skipped.
    """
    n = lattice.group.degree
    colour = orbital_colours(lattice.group)
    # set key -> path levels of each visited set with that key
    visited: dict[tuple, list[tuple]] = {}

    def walk(points, stab, sides):
        # A point the stabilizer fixes cannot shrink it, so only the minima
        # of nontrivial orbits extend the prefix (orbits() pairs each orbit
        # with its minimum, in ascending order of the minimum).  By
        # orbit-stabilizer, each of those divides the order by its orbit
        # length.  The child's level is keyed by the orbit, so its side i
        # keeps the identity and each g with g.index(p) in the orbit
        # (extend_sides): a side left with the identity alone makes the
        # child redundant.  Only the points are kept, so no orbit set stays
        # alive while the walk descends.
        children = [p for p, orbit in stab.orbits() if len(orbit) > 1 and (
            redundant or all(any(g.index(p) in orbit for g in cosets[1:]) for cosets in sides))]
        for p in children:
            child_points = points + (p,)
            same_key = visited.setdefault(set_key(colour, n, child_points), [])
            if any(maps_onto(path, child_points) for path in same_key):
                continue
            child = stab.pointwise_stabilizer([p])
            same_key.append(child._cut_levels)
            lattice.adopt(child)
            child_sides = extend_sides(sides, child._cut_levels[-1])
            yield child_points, child, child_sides
            yield from walk(child_points, child, child_sides)

    yield from walk((), lattice.stabilizer(frozenset()), [])
