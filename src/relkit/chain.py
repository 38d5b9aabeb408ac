"""Deterministic Schreier-Sims stabilizer chains.

The chain stores, per base point, a transversal (orbit point -> coset
representative) and the list of strong generators installed at that level.
The generators available at level i are all generators installed at levels
>= i; by construction those fix the first i base points.

Everything is deterministic: orbits are grown breadth-first in insertion
order, generators are applied in list order, and new base points are the
smallest point moved by the offending residue.  Two builds from the same
generator list produce identical transversals, which is what makes
transporter certificates reproducible.

A caller that already knows the group order may pass it.  The fixpoint
loop then stops as soon as the transversal lengths multiply to that
order (the known-order stop of Seress, *Permutation Group Algorithms*,
ch. 4).  Every stale transversal is an orbit of a subgroup of that
level's group, so the product never exceeds the order; equality means the
strong generating set is complete and every remaining Schreier generator
would sift to the identity.  The full loop would only have rebuilt the
stale transversals, which the stop does too, so both give the same chain.

The kernel works on image tuples: Schreier generators are formed and
sifted as tuples, against inverse transversal images that each level
caches on first use, and a residue becomes a Permutation only when it is
installed as a strong generator.

A new strong generator restarts the scan of its level, and the restarted
scan meets again the Schreier generators it had already cleared.  Each
build therefore keeps, per level, the set of Schreier generators that
sifted to the identity, keyed on their own image tuples, and skips them
(the bookkeeping of incremental Schreier-Sims; Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, ch. 4).  The chain is unchanged:
the deepest dirty level is scanned first, so levels i+1 onward are
complete whenever level i is scanned; a cleared tuple lies in their group,
which only grows, so it would sift to the identity again, and the scan
meets the same first non-identity residue in the same order.  A key on
(u_b, g) would not do, since u_c can change when level i is rebuilt.
The sets live for one build or one extend and are not stored on the chain.
"""

from __future__ import annotations

from .errors import PointOutOfRange
from .perm import Permutation, _trusted


def schreier_tree(point, generators, identity):
    """Orbit of point with, per orbit point b, a word u in the generators
    mapping point to b; grown breadth-first in insertion order, each new
    point b = c^g getting u_b = u_c * g."""
    images = [g.images for g in generators]
    reps = {point: identity}
    queue = [point]
    while queue:
        nxt = []
        for a in queue:
            u = reps[a].images
            for g in images:
                b = g[a]
                if b not in reps:
                    reps[b] = _trusted(tuple(map(g.__getitem__, u)))
                    nxt.append(b)
        queue = nxt
    return reps


class _Level:
    __slots__ = ("point", "transversal", "added", "inverses")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.transversal = {point: Permutation.identity(degree)}
        self.added: list[Permutation] = []
        # b -> image tuple of the inverse of transversal[b], filled on use
        self.inverses: dict[int, tuple] = {}

    def inverse(self, b: int) -> tuple:
        inv = self.inverses.get(b)
        if inv is None:
            inv = self.inverses[b] = self.transversal[b].inverse().images
        return inv


def maps_onto(levels, target) -> bool:
    """Does some g in G map the set of the levels' points onto target?

    levels is a prefix of a chain of G: levels[i] holds the orbit of its
    point under the stabilizer of the points of the levels before it, with
    coset representatives u_s (point -> s).  g factors as g_i u_s, g_i
    fixing those points, so the search picks at level i a point s of the
    target's unmatched rest in the level's orbit, and carries on with the
    preimage of the rest without s under u_s (u_s fixes the points already
    matched).  A descent like _descend, over a set instead of a tuple.
    target has one point per level.
    """

    def search(i, rest):
        if not rest:
            return True
        transversal = levels[i].transversal
        for j, s in enumerate(rest):
            if s in transversal:
                inv = levels[i].inverse(s)
                if search(i + 1, [inv[x] for x in rest[:j] + rest[j + 1:]]):
                    return True
        return False

    return search(0, list(target))


class StabilizerChain:
    """Base, transversals and strong generators for a permutation group."""

    def __init__(self, degree: int, generators, base_prefix=(), order=None):
        self.degree = degree
        self._identity = tuple(range(degree))
        self._levels: list[_Level] = []
        seen = set()
        for p in base_prefix:
            if not 0 <= p < degree:
                raise PointOutOfRange(f"base point {p} out of range")
            if p in seen:
                continue
            seen.add(p)
            self._levels.append(_Level(p, degree))
        for g in generators:
            if not g.is_identity():
                self._install(g)
        self._complete(range(len(self._levels)), order)

    def extend(self, g: Permutation):
        """Add g and complete again only levels 0..j, the levels g reaches
        (incremental Schreier-Sims, Seress ch. 4).  A fresh build from the
        same generators and base prefix has the same order and orbits on
        that prefix, but may pick other coset representatives, so other
        certificates: the constructor does not build by extending."""
        if not g.is_identity():
            self._complete(range(self._install(g) + 1))

    # -- construction -------------------------------------------------

    def _install(self, g: Permutation) -> int:
        """Place g at the first level whose base point it moves."""
        images = g.images
        i = 0
        while True:
            if i == len(self._levels):
                moved = min(p for p, x in enumerate(images) if x != p)
                self._levels.append(_Level(moved, self.degree))
            level = self._levels[i]
            if images[level.point] != level.point:
                level.added.append(g)
                return i
            i += 1

    def _rebuild_transversal(self, i: int):
        level = self._levels[i]
        level.transversal = schreier_tree(
            level.point, self.strong_generators_below(i),
            Permutation.identity(self.degree),
        )
        level.inverses.clear()

    def _complete(self, dirty, order=None):
        """Fixpoint loop: process the deepest dirty level first; the levels
        deeper than every dirty one must be complete.

        With a known group order, stop once the transversals reach it,
        after bringing every stale transversal up to date.
        """
        dirty = set(dirty)
        # level -> Schreier generators (image tuples) that sifted to the identity
        cleared: dict[int, set] = {}
        while dirty:
            i = max(dirty)
            self._rebuild_transversal(i)
            if order is not None and self.order() == order:
                for j in dirty - {i}:
                    self._rebuild_transversal(j)
                return
            level = self._levels[i]
            gens = [g.images for g in self.strong_generators_below(i)]
            seen = cleared.setdefault(i, set())
            clean = True
            for b in sorted(level.transversal):
                u_b = level.transversal[b].images
                for g in gens:
                    # u_b * g * u_c^-1 with c = b^g, as one image tuple
                    u_c_inv = level.inverse(g[b])
                    schreier = tuple(map(u_c_inv.__getitem__, map(g.__getitem__, u_b)))
                    if schreier in seen:
                        continue
                    residue = self._sift(schreier, i + 1)
                    if residue == self._identity:
                        seen.add(schreier)
                    else:
                        j = self._install(_trusted(residue))
                        dirty.update(range(i + 1, j + 1))
                        dirty.add(i)
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                dirty.discard(i)

    # -- queries -------------------------------------------------------

    def _sift(self, images: tuple, start: int = 0) -> tuple:
        """Sift an image tuple through the levels from start on; returns
        the residue, which is the identity exactly for group members."""
        for level in self._levels[start:]:
            b = images[level.point]
            if b not in level.transversal:
                return images
            images = tuple(map(level.inverse(b).__getitem__, images))
        return images

    def contains(self, g: Permutation) -> bool:
        return self._sift(g.images) == self._identity

    @property
    def base(self):
        return [level.point for level in self._levels]

    def order(self) -> int:
        return self.order_below(0)

    def order_below(self, k: int) -> int:
        """Order of the stabilizer of the first k base points."""
        n = 1
        for level in self._levels[k:]:
            n *= len(level.transversal)
        return n

    def strong_generators_below(self, k: int):
        """Generators of the pointwise stabilizer of the first k base points."""
        out = []
        for level in self._levels[k:]:
            out.extend(level.added)
        return out

    def transversal(self, i: int):
        return self._levels[i].transversal

    def descend(self, targets) -> Permutation | None:
        """The canonical element mapping base[i] -> targets[i], or None.

        Unique up to the residual stabilizer; the representative with
        identity residue is returned, which is the first element in the
        canonical enumeration order (ascending transversal points).
        """
        return self._descend(0, list(targets))

    def _descend(self, i: int, targets) -> Permutation | None:
        if not targets:
            return Permutation.identity(self.degree)
        level = self._levels[i]
        b = targets[0]
        u = level.transversal.get(b)
        if u is None:
            return None
        uinv = level.inverse(b)
        rest = [uinv[t] for t in targets[1:]]
        h = self._descend(i + 1, rest)
        return None if h is None else h * u

    def _level_order(self, i: int):
        # Base point first (identity representative), then ascending: the
        # canonical enumeration order used for transporter tie-breaking.
        level = self._levels[i]
        return [level.point] + sorted(b for b in level.transversal if b != level.point)

    def elements(self):
        """Iterate all group elements in canonical enumeration order, as
        Permutations wrapped around element_images()."""
        return map(_trusted, self.element_images())

    def element_images(self):
        """Iterate the image tuples of all group elements in canonical
        enumeration order.

        An element is u_last * ... * u_0, one transversal element per
        level, with the deepest level varying slowest.  Products are
        composed as image tuples and never wrapped.
        """
        if not self._levels:
            yield self._identity
            return
        reps = [
            [self._levels[i].transversal[b].images for b in self._level_order(i)]
            for i in range(len(self._levels))
        ]
        first = reps[0]

        def outer(i, acc):
            # products of the chosen representatives of levels last..i
            for u in reps[i]:
                prod = u if acc is None else tuple(map(u.__getitem__, acc))
                if i == 1:
                    yield prod
                else:
                    yield from outer(i - 1, prod)

        partials = outer(len(reps) - 1, None) if len(reps) > 1 else (self._identity,)
        for acc in partials:
            for u in first:
                yield tuple(map(u.__getitem__, acc))
