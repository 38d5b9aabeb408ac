"""Permutation groups: orbits, membership, transporters, stabilizers,
induced actions, primitivity and conjugacy search.

A group is immutable after construction; the stabilizer chain is built on
first demand under a lock, so groups are safe to share across threads.
Degrees above DEGREE_CAP are rejected outright.
"""

from __future__ import annotations

import json
import threading

from .chain import StabilizerChain
from .errors import (
    DegreeMismatch,
    DegreeTooLarge,
    NotInGroup,
    NotTransitive,
    ParseError,
    PointOutOfRange,
)
from .perm import Permutation, format_permutation, parse_permutation

DEGREE_CAP = 10**5


class PermutationGroup:
    def __init__(self, degree: int, generators, base_prefix=(), _order=None):
        if degree < 1:
            raise PointOutOfRange("degree must be >= 1")
        if degree > DEGREE_CAP:
            raise DegreeTooLarge(f"degree {degree} exceeds cap {DEGREE_CAP}")
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._base_prefix = tuple(base_prefix)
        # The group order once known: handed in by rebased() or
        # pointwise_stabilizer(), or read off this group's chain.
        self._order: int | None = _order
        self._chain: StabilizerChain | None = None
        self._lock = threading.Lock()

    # -- chain ---------------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = StabilizerChain(
                        self.degree, self.generators, self._base_prefix, self._order
                    )
                    self._order = self._chain.order()
        return self._chain

    def rebased(self, base_prefix) -> "PermutationGroup":
        """Same group with a chain whose base starts with the given points.

        The order is handed on when already known, so the new chain can
        stop early; it is never computed just for that.
        """
        for p in base_prefix:
            self._check_point(p)
        return PermutationGroup(self.degree, self.generators, base_prefix, self._order)

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain.order()
        return self._order

    def is_trivial(self) -> bool:
        return not self.generators

    # -- basic queries ---------------------------------------------------

    def _check_point(self, p):
        if not 0 <= p < self.degree:
            raise PointOutOfRange(f"point {p} outside 0..{self.degree - 1}")

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatch("degree mismatch in membership test")
        return self.chain.contains(g)

    def orbit(self, p: int):
        """Orbit of p in breadth-first insertion order."""
        self._check_point(p)
        out = [p]
        seen = {p}
        queue = [p]
        while queue:
            nxt = []
            for a in queue:
                for g in self.generators:
                    b = g(a)
                    if b not in seen:
                        seen.add(b)
                        out.append(b)
                        nxt.append(b)
            queue = nxt
        return out

    def orbit_transporter(self, p: int):
        """Orbit of p with, per point, an element mapping p there."""
        self._check_point(p)
        reps = {p: self.identity()}
        queue = [p]
        while queue:
            nxt = []
            for a in queue:
                u = reps[a]
                for g in self.generators:
                    b = g(a)
                    if b not in reps:
                        reps[b] = u * g
                        nxt.append(b)
            queue = nxt
        return reps

    def orbits(self):
        """All orbits, ordered by their minimum point."""
        seen = set()
        out = []
        for p in range(self.degree):
            if p not in seen:
                orb = self.orbit(p)
                seen.update(orb)
                out.append(orb)
        return out

    def is_transitive(self) -> bool:
        return self.degree == len(self.orbit(0))

    def elements(self):
        yield from self.chain.elements()

    # -- transporters and stabilizers -------------------------------------

    def transporter(self, src, dst) -> Permutation | None:
        """Some g with src[i]^g = dst[i] for all i, or None (proof of absence)."""
        from .errors import LengthMismatch

        src = tuple(src)
        dst = tuple(dst)
        if len(src) != len(dst):
            raise LengthMismatch(f"|I|={len(src)} != |J|={len(dst)}")
        for p in src + dst:
            self._check_point(p)
        pairs = []
        mapping = {}
        for a, b in zip(src, dst):
            if a in mapping:
                if mapping[a] != b:
                    return None
                continue
            mapping[a] = b
            pairs.append((a, b))
        # repeated targets need distinct sources mapped to the same point: impossible
        if len(set(mapping.values())) != len(mapping):
            return None
        if not pairs:
            return self.identity()
        chain = self.rebased([a for a, _ in pairs]).chain
        return chain.descend([b for _, b in pairs])

    def pointwise_stabilizer(self, points) -> "PermutationGroup":
        points = list(points)
        for p in points:
            self._check_point(p)
        chain = self.rebased(points).chain
        k = len(dict.fromkeys(points))
        gens = chain.strong_generators_below(k)
        # Carry the order, not the sliced chain: a chain built from gens
        # has its own base and transversals, which fix the order in which
        # elements() enumerates the stabilizer.
        return PermutationGroup(self.degree, gens, _order=chain.order_below(k))

    def pointwise_stabilizer_order(self, points) -> int:
        points = list(dict.fromkeys(points))
        chain = self.rebased(points).chain
        return chain.order_below(len(points))

    def setwise_stabilizer(self, points) -> "PermutationGroup":
        """{g : points^g == points} via backtracking over chosen images.

        The chain is rebased so its base starts with the set; the search
        assigns images within the set level by level.  A branch whose
        partial assignment is already realized by the group found so far
        only repeats known cosets, so it is pruned (the all-identity
        branch, explored first, seeds the stabilizer of the prefix).
        """
        lam = sorted(set(points))
        for p in lam:
            self._check_point(p)
        if len(lam) == self.degree:
            return PermutationGroup(self.degree, self.generators)
        chain = self.rebased(lam).chain
        pointwise = chain.strong_generators_below(len(lam))
        found: list[Permutation] = []
        known_chain = [StabilizerChain(self.degree, pointwise, lam)]

        def search(i, targets, used):
            if i > 0 and targets != lam[:i] and known_chain[0]._descend(0, targets):
                return
            if i == len(lam):
                g = chain.descend(targets)
                if g is not None and not known_chain[0].contains(g):
                    found.append(g)
                    known_chain[0] = StabilizerChain(
                        self.degree, pointwise + found, lam
                    )
                return
            for c in lam:
                if c in used:
                    continue
                if chain._descend(0, targets + [c]) is None:
                    continue
                search(i + 1, targets + [c], used | {c})

        search(0, [], set())
        return PermutationGroup(self.degree, pointwise + found)

    def induced_action(self, points):
        """Faithful action on the set, relabeled 0..k-1 ascending.

        Returns (image group, kernel order).  If the set is not invariant
        under this group, the setwise stabilizer is taken first.
        """
        lam = sorted(set(points))
        for p in lam:
            self._check_point(p)
        stab = self
        if not all(set(g(p) for p in lam) == set(lam) for g in self.generators):
            stab = self.setwise_stabilizer(lam)
        index = {p: i for i, p in enumerate(lam)}
        images = []
        for g in stab.generators:
            images.append(Permutation(index[g(p)] for p in lam))
        image_group = PermutationGroup(max(len(lam), 1), images)
        kernel_order = stab.order() // image_group.order()
        return image_group, kernel_order

    # -- structure ---------------------------------------------------------

    def is_primitive(self):
        """(True, None) or (False, nontrivial block system)."""
        if not self.is_transitive():
            raise NotTransitive("primitivity is defined for transitive groups")
        n = self.degree
        if n == 1:
            return True, None
        for q in range(1, n):
            blocks = self._minimal_block(0, q)
            if 1 < len(blocks[0]) < n:
                return False, blocks
        return True, None

    def _minimal_block(self, a, b):
        """Smallest block system whose block contains {a, b} (union-find closure)."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
                return True
            return False

        union(a, b)
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            for g in self.generators:
                if union(g(x), g(y)):
                    queue.append((g(x), g(y)))
        cells = {}
        for p in range(self.degree):
            cells.setdefault(find(p), []).append(p)
        return sorted(cells.values())

    def element_conjugator(self, g: Permutation, h: Permutation) -> Permutation | None:
        """x in G with g^x = h, or None (exhausted search).

        The chain is rebased so the base walks g's cycles in order; the
        image of each point after a cycle's first is forced by
        x(g(p)) = h(x(p)), so branching happens only at cycle starts and
        fixed points.
        """
        if not self.contains(g):
            raise NotInGroup("first element is not in the group")
        if not self.contains(h):
            raise NotInGroup("second element is not in the group")
        if g.cycle_type() != h.cycle_type():
            return None
        base = []
        for cycle in sorted(g.cycles(), key=lambda c: (-len(c), c)):
            base.extend(cycle)
        base.extend(p for p in range(self.degree) if g(p) == p)
        chain = self.rebased(base).chain
        ginv = g.inverse()
        fixed_h = set(h.fixed_points())
        n_levels = min(len(base), len(chain.base))

        def consistent(a, c, img):
            if g(a) == a and c not in fixed_h:
                return False
            if g(a) in img and img[g(a)] != h(c):
                return False
            prev = ginv(a)
            if prev != a and prev in img and h(img[prev]) != c:
                return False
            return True

        def search(i, targets, img):
            if i == n_levels:
                x = chain.descend(targets)
                if x is None:
                    return None
                # points beyond the chain base are determined; re-check fully
                return x if all(x(g(p)) == h(x(p)) for p in range(self.degree)) else None
            a = chain.base[i]
            prefix = chain._descend(0, targets)
            if prefix is None:
                return None
            used = set(img.values())
            for b in sorted(chain.transversal(i)):
                c = prefix(b)
                if c in used or not consistent(a, c, img):
                    continue
                img[a] = c
                result = search(i + 1, targets + [c], img)
                if result is not None:
                    return result
                del img[a]
            return None

        return search(0, [], {})

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [format_permutation(g) for g in self.generators],
        }

    def __eq__(self, other):
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return self.order() == other.order() and all(
            self.contains(g) for g in other.generators
        )

    def __hash__(self):
        # equal groups may have different generators; degree and order agree
        return hash((self.degree, self.order()))

    def __repr__(self):
        gens = ", ".join(format_permutation(g) for g in self.generators) or "()"
        return f"PermutationGroup(degree={self.degree}, <{gens}>)"


def group_from_json(data) -> PermutationGroup:
    """Accepts {"degree": n, "generators": [...]} or {"degree": n, "generator_images": [...]}."""
    if not isinstance(data, dict) or "degree" not in data:
        raise ParseError("group file must be an object with a 'degree' field")
    degree = data["degree"]
    if not isinstance(degree, int) or degree < 1:
        raise ParseError("'degree' must be a positive integer")
    has_cycles = "generators" in data
    has_images = "generator_images" in data
    if has_cycles == has_images:
        raise ParseError("need exactly one of 'generators' or 'generator_images'")
    gens = []
    try:
        if has_cycles:
            for text in data["generators"]:
                gens.append(parse_permutation(text, degree))
        else:
            for images in data["generator_images"]:
                if sorted(images) != list(range(degree)):
                    raise ParseError(f"images {images} are not a bijection of 0..{degree - 1}")
                gens.append(Permutation(images))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    return PermutationGroup(degree, gens)


def load_group(path) -> PermutationGroup:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc
    return group_from_json(data)


def dump_group(group: PermutationGroup, path):
    with open(path, "w") as fh:
        json.dump(group.to_json(), fh, indent=2)
        fh.write("\n")
