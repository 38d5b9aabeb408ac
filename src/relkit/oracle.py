"""Brute-force reference implementations used as test oracles.

Everything here works from explicit element enumeration or plain
breadth-first closure over tuples; nothing touches stabilizer chains, so
these routines stay independent of the fast paths they validate.
"""

from __future__ import annotations

import itertools

from .errors import GroupTooLarge, TooLarge
from .perm import Permutation

# The caps of the naive oracles: degree (they scan point subsets or tuples)
# and group order (they close the generators under multiplication).
NAIVE_MAX_DEGREE = 8
NAIVE_MAX_ORDER = 10**4
# The element scans of brute_order and brute_transporter.
BRUTE_MAX_ORDER = 10**6
# The literal oracle scans tuples up to length degree, which is exact for
# degree <= 4: every witness normalizes to length at most height + 1 <= degree.
LITERAL_MAX_DEGREE = 4


def mulclose(generators, degree, cap=None):
    """All elements of <generators> as image tuples, by closure."""
    identity = tuple(range(degree))
    gens = [g.images for g in generators]
    els = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = tuple(g[x] for x in a)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if cap is not None and len(els) > cap:
                        raise GroupTooLarge(f"closure exceeded cap {cap}")
        frontier = new
    return sorted(els)


def brute_order(group) -> int:
    return len(mulclose(group.generators, group.degree, BRUTE_MAX_ORDER))


def brute_transporter(group, src, dst):
    """Scan all elements for one mapping src -> dst pointwise."""
    for images in mulclose(group.generators, group.degree, BRUTE_MAX_ORDER):
        if all(images[a] == b for a, b in zip(src, dst)):
            return Permutation(images)
    return None


def brute_automorphism_count(structure) -> int:
    """Count bijections of the vertex set preserving every relation."""
    if structure.vertices > 8:
        raise TooLarge("brute automorphism count capped at 8 vertices")
    count = 0
    verts = range(structure.vertices)
    for images in itertools.permutations(verts):
        ok = True
        for _, tuples in structure.relations:
            mapped = {tuple(images[v] for v in t) for t in tuples}
            if mapped != tuples:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_is_homogeneous(structure) -> bool:
    """Does every isomorphism between induced substructures extend to an
    automorphism?  Tries every injective map of every vertex subset
    against every automorphism, all listed as permutations."""
    if structure.vertices > 5:
        raise TooLarge("brute homogeneity capped at 5 vertices")
    verts = range(structure.vertices)

    def preserves(domain, images):
        image = dict(zip(domain, images))
        return all((t in tuples) == (tuple(image[v] for v in t) in tuples)
                   for arity, tuples in structure.relations
                   for t in itertools.product(domain, repeat=arity))

    auts = [images for images in itertools.permutations(verts) if preserves(verts, images)]
    for size in range(1, structure.vertices):
        for domain in itertools.combinations(verts, size):
            for images in itertools.permutations(verts, size):
                if preserves(domain, images) and not any(
                        all(aut[v] == w for v, w in zip(domain, images)) for aut in auts):
                    return False
    return True


def _tuple_orbit_labels(gens, degree, length):
    """Orbit index for every distinct-entry tuple of the given length."""
    labels = {}
    next_label = 0
    for start in itertools.permutations(range(degree), length):
        if start in labels:
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
            labels[t] = next_label
        next_label += 1
    return labels


def naive_relational_complexity(group) -> int:
    """RC from the definition, over all pairs of distinct-entry tuples.

    Two tuples of length L are (L-1)-subtuple complete exactly when all
    their one-point deletions are G-equivalent, and equivalence of tuples
    is constant on orbit pairs, so it suffices to compare, per orbit, the
    vector of deletion-orbit labels: a label collision between distinct
    orbits is a witness at level L-1.  Orbits are grown by plain closure
    under the generators.
    """
    n = group.degree
    if n > NAIVE_MAX_DEGREE:
        raise TooLarge(f"naive oracle capped at degree {NAIVE_MAX_DEGREE}")
    mulclose(group.generators, n, NAIVE_MAX_ORDER)  # raises GroupTooLarge beyond cap
    gens = [g.images for g in group.generators]
    if not gens:
        return 2
    labels = {length: _tuple_orbit_labels(gens, n, length) for length in range(1, n + 1)}
    best = 1
    for length in range(n, 2, -1):
        if length - 1 <= best:
            break
        lab = labels[length]
        reps = {}
        for t, o in lab.items():
            if o not in reps:
                reps[o] = t
        signatures = {}
        collision = False
        for o, t in reps.items():
            sig = tuple(labels[length - 1][t[:i] + t[i + 1:]] for i in range(length))
            if sig in signatures:
                collision = True
                break
            signatures[sig] = o
        if collision:
            best = length - 1
            break
    return max(2, best + 1)


def literal_relational_complexity(group) -> int:
    """RC by the raw definition: scan every pair of tuples, repeats included.

    Exponential; used only to validate the naive oracle on tiny groups.
    """
    n = group.degree
    if n > LITERAL_MAX_DEGREE:
        raise TooLarge(f"literal oracle capped at degree {LITERAL_MAX_DEGREE}")
    elements = mulclose(group.generators, n)

    def transports(src, dst):
        return any(all(e[a] == b for a, b in zip(src, dst)) for e in elements)

    def stc(src, dst, k):
        size = min(k, len(src))
        return all(
            transports([src[i] for i in subset], [dst[i] for i in subset])
            for subset in itertools.combinations(range(len(src)), size)
        )

    best = 1
    for length in range(2, n + 1):
        for src in itertools.product(range(n), repeat=length):
            for dst in itertools.product(range(n), repeat=length):
                if transports(src, dst):
                    continue
                for level in range(length - 1, best, -1):
                    if stc(src, dst, level):
                        best = max(best, level)
                        break
    return max(2, best + 1)


def naive_base_statistics(group):
    """(b, B, H, I) from the definitions, by scanning every point subset.

    The pointwise stabilizer of a set S is counted as the elements whose
    fixed points include S, so no chain is built.  b is the least size of
    a base, B the largest minimal base (no point can be dropped), H the
    largest independent set (dropping any point enlarges the stabilizer)
    and I the largest irredundant base (some order of it shrinks the
    stabilizer at every step).
    """
    n = group.degree
    if n > NAIVE_MAX_DEGREE:
        raise TooLarge(f"naive statistics capped at degree {NAIVE_MAX_DEGREE}")
    fixed = [
        sum(1 << p for p, x in enumerate(images) if p == x)
        for images in mulclose(group.generators, n, NAIVE_MAX_ORDER)
    ]
    size = [0] * (1 << n)
    for mask in range(1 << n):
        size[mask] = sum(1 for f in fixed if f & mask == mask)
    b = n
    big_b = h = irr = 0
    # an ordering with a strict drop at every step exists for S exactly
    # when it exists for S - {p} and dropping p from S enlarges the stabilizer
    strict = [False] * (1 << n)
    for mask in sorted(range(1 << n), key=lambda m: bin(m).count("1")):
        points = [p for p in range(n) if mask >> p & 1]
        drops = [p for p in points if size[mask & ~(1 << p)] > size[mask]]
        strict[mask] = not mask or any(strict[mask & ~(1 << p)] for p in drops)
        independent = len(drops) == len(points)
        if independent:
            h = max(h, len(points))
        if size[mask] == 1:
            b = min(b, len(points))
            if independent:
                big_b = max(big_b, len(points))
            if strict[mask]:
                irr = max(irr, len(points))
    return b, big_b, h, irr
