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
"""

from __future__ import annotations

from .perm import Permutation


class _Level:
    __slots__ = ("point", "transversal", "added")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.transversal = {point: Permutation.identity(degree)}
        self.added: list[Permutation] = []


class StabilizerChain:
    """Base, transversals and strong generators for a permutation group."""

    def __init__(self, degree: int, generators, base_prefix=(), order=None):
        self.degree = degree
        self._levels: list[_Level] = []
        seen = set()
        for p in base_prefix:
            if not 0 <= p < degree:
                raise ValueError(f"base point {p} out of range")
            if p in seen:
                continue
            seen.add(p)
            self._levels.append(_Level(p, degree))
        gens = [g for g in generators if not g.is_identity()]
        for g in gens:
            self._install(g)
        self._complete(order)

    # -- construction -------------------------------------------------

    def _install(self, g: Permutation) -> int:
        """Place g at the first level whose base point it moves."""
        i = 0
        while True:
            if i == len(self._levels):
                moved = min(p for p in range(self.degree) if g(p) != p)
                self._levels.append(_Level(moved, self.degree))
            level = self._levels[i]
            if g(level.point) != level.point:
                level.added.append(g)
                return i
            i += 1

    def _gens_at(self, i: int):
        out = []
        for level in self._levels[i:]:
            out.extend(level.added)
        return out

    def _rebuild_transversal(self, i: int):
        level = self._levels[i]
        gens = self._gens_at(i)
        ident = Permutation.identity(self.degree)
        trans = {level.point: ident}
        queue = [level.point]
        while queue:
            nxt = []
            for b in queue:
                u = trans[b]
                for g in gens:
                    c = g(b)
                    if c not in trans:
                        trans[c] = u * g
                        nxt.append(c)
            queue = nxt
        level.transversal = trans

    def _complete(self, order):
        """Fixpoint loop: process the deepest dirty level first.

        With a known group order, stop once the transversals reach it,
        after bringing every stale transversal up to date.
        """
        dirty = set(range(len(self._levels)))
        while dirty:
            i = max(dirty)
            self._rebuild_transversal(i)
            if order is not None and self.order() == order:
                for j in dirty - {i}:
                    self._rebuild_transversal(j)
                return
            level = self._levels[i]
            gens = self._gens_at(i)
            clean = True
            for b in sorted(level.transversal):
                u_b = level.transversal[b]
                for g in gens:
                    c = g(b)
                    schreier = u_b * g * level.transversal[c].inverse()
                    residue, _ = self._sift(schreier, i + 1)
                    if not residue.is_identity():
                        j = self._install(residue)
                        dirty.update(range(i + 1, j + 1))
                        dirty.add(i)
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                dirty.discard(i)

    # -- queries -------------------------------------------------------

    def _sift(self, g: Permutation, start: int = 0):
        """Strip transversal factors; returns (residue, level reached)."""
        for i in range(start, len(self._levels)):
            level = self._levels[i]
            b = g(level.point)
            if b not in level.transversal:
                return g, i
            g = g * level.transversal[b].inverse()
        return g, len(self._levels)

    def contains(self, g: Permutation) -> bool:
        residue, _ = self._sift(g)
        return residue.is_identity()

    @property
    def base(self):
        return [level.point for level in self._levels]

    def order(self) -> int:
        n = 1
        for level in self._levels:
            n *= len(level.transversal)
        return n

    def order_below(self, k: int) -> int:
        """Order of the stabilizer of the first k base points."""
        n = 1
        for level in self._levels[k:]:
            n *= len(level.transversal)
        return n

    def strong_generators_below(self, k: int):
        """Generators of the pointwise stabilizer of the first k base points."""
        return self._gens_at(k)

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
        uinv = u.inverse()
        rest = [uinv(t) for t in targets[1:]]
        h = self._descend(i + 1, rest)
        return None if h is None else h * u

    def _level_order(self, i: int):
        # Base point first (identity representative), then ascending: the
        # canonical enumeration order used for transporter tie-breaking.
        level = self._levels[i]
        return [level.point] + sorted(b for b in level.transversal if b != level.point)

    def elements(self):
        """Iterate all group elements in canonical enumeration order."""
        ident = Permutation.identity(self.degree)

        def rec(i, acc):
            if i < 0:
                yield acc
                return
            level = self._levels[i]
            for b in self._level_order(i):
                yield from rec(i - 1, level.transversal[b] if acc is None else acc * level.transversal[b])

        if not self._levels:
            yield ident
            return
        for g in rec(len(self._levels) - 1, None):
            yield ident if g is None else g
