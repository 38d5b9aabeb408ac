"""k-closures: the largest subgroup of Sym(Omega) with the same orbits on
Omega^k.  Computed as the automorphism group of the orbit coloring of
k-tuples by transversal-harvesting backtrack, seeded with the group
itself (which the closure always contains).
"""

from __future__ import annotations

from .errors import DegreeTooLarge
from .group import PermutationGroup
from .perm import Permutation

CLOSURE_DEGREE_CAP = 64


class OrbitalColoring:
    """Colors on Omega^k: color(t) = index of the G-orbit of t.

    Diagonal tuples are included, so for k=2 the vertex orbits appear as
    colors of (a, a) pairs.  Invariant: colors are constant on G-orbits.
    """

    def __init__(self, group: PermutationGroup, k: int):
        import itertools

        self.degree = group.degree
        self.k = k
        gens = [g.images for g in group.generators]
        color = {}
        index = 0
        for start in itertools.product(range(self.degree), repeat=k):
            if start in color:
                continue
            orbit = {start}
            stack = [start]
            while stack:
                t = stack.pop()
                for g in gens:
                    u = tuple(g[x] for x in t)
                    if u not in orbit:
                        orbit.add(u)
                        stack.append(u)
            for t in orbit:
                color[t] = index
            index += 1
        self.color = color
        self.count = index

    def vertex_signature(self, v: int):
        """Multiset of pair colors at v; automorphism-invariant filter."""
        if self.k == 2:
            sig = sorted(
                (self.color[(v, x)], self.color[(x, v)]) for x in range(self.degree)
            )
        else:
            sig = sorted(
                (self.color[(v,) * (self.k - 1) + (x,)], self.color[(x,) + (v,) * (self.k - 1)])
                for x in range(self.degree)
            )
        return tuple(sig)


def k_closure(group: PermutationGroup, k: int) -> PermutationGroup:
    """The k-closure, k in {2, 3}; contains the group."""
    if k not in (2, 3):
        raise ValueError("k-closure implemented for k in {2, 3}")
    n = group.degree
    if n > CLOSURE_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {n} exceeds closure cap {CLOSURE_DEGREE_CAP}")
    coloring = OrbitalColoring(group, k)
    color = coloring.color
    signatures = [coloring.vertex_signature(v) for v in range(n)]

    def consistent(domain, images, v, c):
        """May v -> c extend the partial map (domain[i] -> images[i], all < v assigned)?"""
        if signatures[v] != signatures[c]:
            return False
        if k == 2:
            if color[(v, v)] != color[(c, c)]:
                return False
            for u, w in zip(domain, images):
                if color[(u, v)] != color[(w, c)] or color[(v, u)] != color[(c, w)]:
                    return False
            return True
        # k == 3: check every tuple pattern over assigned points involving v
        pts = list(zip(domain, images)) + [(v, c)]
        import itertools

        for (a, fa), (b, fb) in itertools.product(pts, repeat=2):
            if color[(a, b, v)] != color[(fa, fb, c)]:
                return False
            if color[(a, v, b)] != color[(fa, c, fb)]:
                return False
            if color[(v, a, b)] != color[(c, fa, fb)]:
                return False
        return True

    known = PermutationGroup(n, group.generators)

    def extend_one(domain, images, remaining, used):
        """Depth-first search for one full extension; None if impossible."""
        if not remaining:
            return Permutation(images_from(domain, images))
        v = remaining[0]
        for c in range(n):
            if c in used or not consistent(domain, images, v, c):
                continue
            result = extend_one(
                domain + [v], images + [c], remaining[1:], used | {c}
            )
            if result is not None:
                return result
        return None

    def images_from(domain, images):
        out = [0] * n
        for u, w in zip(domain, images):
            out[u] = w
        return out

    # harvest transversal representatives level by level, bottom-up
    for d in range(n - 1, -1, -1):
        prefix_domain = list(range(d))
        prefix_images = list(range(d))
        stab = known.pointwise_stabilizer(range(d)) if d else known
        reached = set(stab.orbit(d))
        for c in range(n):
            if c in reached:
                continue
            if c in prefix_images and c != d:
                continue
            if not consistent(prefix_domain, prefix_images, d, c):
                continue
            sigma = extend_one(
                prefix_domain + [d],
                prefix_images + [c],
                list(range(d + 1, n)),
                set(prefix_images) | {c},
            )
            if sigma is not None:
                known = PermutationGroup(n, list(known.generators) + [sigma])
                stab = known.pointwise_stabilizer(range(d)) if d else known
                reached = set(stab.orbit(d))
    return known
