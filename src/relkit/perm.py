"""Permutations of {0..n-1} stored as image arrays.

Points are 0-based everywhere in code; cycle notation in text I/O is
1-based, matching the usual convention.  Composition is left-to-right:
``(p * q)[x] == q[p[x]]``, so ``x^(p*q) == (x^p)^q``.
"""

from __future__ import annotations

import re

from .errors import DegreeMismatch, MalformedSyntax, PointOutOfRange, RepeatedPoint


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise MalformedSyntax("images are not a bijection of {0..n-1}")
        self.images = images

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return _trusted(tuple(range(degree)))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Permutation":
        """Build from disjoint cycles of 0-based points."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for point in cycle:
                if not 0 <= point < degree:
                    raise PointOutOfRange(f"point {point + 1} exceeds degree {degree}")
                if point in seen:
                    raise RepeatedPoint(f"point {point + 1} occurs twice")
                seen.add(point)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DegreeMismatch("cannot compose permutations of different degrees")
        return _trusted(tuple(map(other.images.__getitem__, self.images)))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return _trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def order(self) -> int:
        from math import lcm

        lengths = [len(c) for c in self.cycles()]
        return lcm(*lengths) if lengths else 1

    def cycles(self):
        """Nontrivial cycles as tuples of 0-based points, each starting at its minimum."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

    def cycle_type(self):
        return tuple(sorted(len(c) for c in self.cycles()))

    def support(self):
        return frozenset(i for i, x in enumerate(self.images) if i != x)

    def fixed_points(self):
        return [i for i, x in enumerate(self.images) if i == x]

    def apply_tuple(self, points):
        return tuple(self.images[p] for p in points)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_permutation(self)!r}, degree={self.degree})"

    def __str__(self):
        return format_permutation(self)


def _trusted(images: tuple) -> Permutation:
    """Wrap an image tuple known to be a bijection, skipping the check.

    Products, inverses and identities of valid permutations are bijections
    by construction; only outside input goes through Permutation(images).
    """
    perm = object.__new__(Permutation)
    perm.images = images
    return perm


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_SEP_RE = re.compile(r"[,\s]+")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse whitespace-tolerant disjoint-cycle notation with 1-based points.

    "()" denotes the identity.  Raises RepeatedPoint, PointOutOfRange or
    MalformedSyntax.
    """
    stripped = text.strip()
    if not stripped:
        raise MalformedSyntax("empty permutation string")
    remainder = _CYCLE_RE.sub("", stripped)
    if remainder.strip():
        raise MalformedSyntax(f"unexpected text {remainder.strip()!r} in {text!r}")
    cycles = []
    for match in _CYCLE_RE.finditer(stripped):
        body = match.group(1).strip()
        if not body:
            continue
        try:
            points = [int(tok) for tok in _SEP_RE.split(body)]
        except ValueError:
            raise MalformedSyntax(f"cannot parse cycle {match.group(0)!r}") from None
        if any(p < 1 for p in points):
            raise PointOutOfRange("points are 1-based in cycle notation")
        cycles.append([p - 1 for p in points])
    return Permutation.from_cycles(cycles, degree)


def format_permutation(perm: Permutation) -> str:
    """Disjoint-cycle string with 1-based points; identity renders as "()"."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)
