"""Relational structures: induced substructures, one partial-isomorphism
search behind isomorphisms, automorphisms and homogeneity failures, the
orbit structure of a group, and structural relational complexity.

A structure is (vertex count, ordered list of relations); a relation is
(arity >= 2, frozenset of tuples).  Isomorphisms are positional: the
i-th relation must map onto the i-th relation.

Homogeneity is decided size by size through one-point extensions over
the orbits of pointwise stabilizers in Aut (the extension property, as
in Cherlin's classification of the homogeneous directed graphs, Mem. AMS
1998); partial isomorphisms are listed only at a size that fails, to
name the failing map.  is_homogeneous gives the proof and the order in
which that map is chosen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .chain import StabilizerChain
from .errors import (
    ArityTooLarge,
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    ParseError,
    TooLarge,
    VertexOutOfRange,
)
from .group import (PermutationGroup, _json_int, _json_list, _read_json, orbits_under,
                    tuple_image, tuple_orbits)
from .perm import Permutation
from .relcomp import relational_complexity

HOMOGENEITY_VERTEX_CAP = 10
TUPLE_CAP = 10**6  # n^arity tuples enumerated for one arity
STRUCTURAL_RC_DEGREE_CAP = 8
STRUCTURAL_RC_ARITY_CAP = 4


@dataclass(frozen=True)
class RelationalStructure:
    vertices: int
    relations: tuple  # of (arity, frozenset of tuples)

    @staticmethod
    def build(vertices, relations):
        cleaned = []
        for arity, tuples in relations:
            if arity < 2:
                raise ParseError("relations must have arity >= 2")
            tupleset = frozenset(tuple(t) for t in tuples)
            for t in tupleset:
                if len(t) != arity:
                    raise ParseError(f"tuple {t} does not match arity {arity}")
                for v in t:
                    if not 0 <= v < vertices:
                        raise VertexOutOfRange(f"vertex {v} outside 0..{vertices - 1}")
            cleaned.append((arity, tupleset))
        return RelationalStructure(vertices, tuple(cleaned))

    def arity_sequence(self):
        return tuple(a for a, _ in self.relations)

    @cached_property
    def signature(self) -> dict:
        """Per arity: tuple -> ascending tuple of the positions of the
        relations holding it; a tuple in no relation is absent."""
        tables = {}
        for i, (arity, tuples) in enumerate(self.relations):
            table = tables.setdefault(arity, {})
            alone = (i,)  # () + alone is alone itself: disjoint relations share it
            for t in tuples:
                table[t] = table.get(t, ()) + alone
        return tables

    def to_json(self) -> dict:
        return {
            "vertices": self.vertices,
            "relations": [
                {"arity": a, "tuples": sorted(list(t) for t in tuples)}
                for a, tuples in self.relations
            ],
        }

    @staticmethod
    def from_json(data) -> "RelationalStructure":
        if not isinstance(data, dict) or "vertices" not in data:
            raise ParseError("structure file needs a 'vertices' field")
        vertices = _json_int(data["vertices"], "'vertices'")
        if vertices < 1:
            raise ParseError("'vertices' must be a positive integer")
        if "edges" in data:  # digraph shorthand
            if "relations" in data:
                raise ParseError("need at most one of 'edges' or 'relations'")
            relations = [{"arity": 2, "tuples": data["edges"]}]
        else:
            relations = _json_list(data.get("relations", []), "'relations'")
        parsed = []
        for rel in relations:
            if not isinstance(rel, dict) or "arity" not in rel or "tuples" not in rel:
                raise ParseError("each relation needs 'arity' and 'tuples' fields")
            rows = _json_list(rel["tuples"], "a relation's tuples")
            tuples = [tuple(_json_list(t, "a tuple")) for t in rows]
            for v in itertools.chain.from_iterable(tuples):
                _json_int(v, "a vertex")
            parsed.append((_json_int(rel["arity"], "an arity"), tuples))
        return RelationalStructure.build(vertices, parsed)


def load_structure(path) -> RelationalStructure:
    return RelationalStructure.from_json(_read_json(path, "structure"))


def induced_substructure(structure, subset) -> RelationalStructure:
    """Relations restricted to the subset, relabeled 0..k-1 ascending."""
    subset = sorted(set(subset))
    for v in subset:
        if not 0 <= v < structure.vertices:
            raise VertexOutOfRange(f"vertex {v} outside the structure")
    index = {v: i for i, v in enumerate(subset)}
    inside = set(subset)
    relations = []
    for arity, tuples in structure.relations:
        kept = frozenset(
            tuple(index[v] for v in t) for t in tuples if all(v in inside for v in t)
        )
        relations.append((arity, kept))
    return RelationalStructure(len(subset), tuple(relations))


def _tuples_through(pool, v, arity):
    """Every tuple over pool of the given arity containing v, once each:
    split at the first position holding v."""
    others = [x for x in pool if x != v]
    for j in range(arity):
        for head in itertools.product(others, repeat=j):
            for tail in itertools.product(pool, repeat=arity - j - 1):
                yield head + (v,) + tail


def _level_checks(source, target, domain):
    """Level k's check extends a partial map domain[:k] -> images by
    domain[k] -> c.  One list serves every codomain the search tries."""
    return [_LevelCheck(_level_entries(source, target, domain, k)) for k in range(len(domain))]


def _level_entries(source, target, domain, k):
    """Per arity, for every tuple over domain[:k+1] involving domain[k]:
    the target's table, the tuple's positions in domain[:k+1] as an item
    getter (arities are >= 2, so it returns a tuple), and the tuple's
    source signature."""
    pool = domain[:k + 1]
    position = {x: i for i, x in enumerate(pool)}
    dst_tables = target.signature
    for arity, src in source.signature.items():
        dst = dst_tables[arity]
        for t in _tuples_through(pool, pool[k], arity):
            yield dst, itemgetter(*map(position.__getitem__, t)), src.get(t, ())


class _LevelCheck:
    """Does images + (c,) still map every tuple through domain[k] into the
    same relations as the tuple itself?  That checks both directions of
    every relation at once.  Entries are drawn from the level's generator
    only as far as some candidate has needed, since most candidates fail
    on an early one, and kept for the next candidate."""

    def __init__(self, entries):
        self.built = []
        self.rest = entries

    def passes(self, row):
        for dst, get, sig in self.built:
            if dst.get(get(row), ()) != sig:
                return False
        for entry in self.rest:
            self.built.append(entry)
            dst, get, sig = entry
            if dst.get(get(row), ()) != sig:
                return False
        return True


def _extensions(checks, codomain, images=()):
    """Every extension of the partial isomorphism domain[i] -> images[i]
    to all of the domain the level checks were made for, as image tuples
    (streaming): the next point of the domain tries the unused points of
    codomain in order."""
    k = len(images)
    if k == len(checks):
        yield images
        return
    check = checks[k]
    for c in codomain:
        if c not in images:
            row = images + (c,)
            if check.passes(row):
                yield from _extensions(checks, codomain, row)


def structure_isomorphisms(source, target):
    """All isomorphisms source -> target as image tuples (streaming).

    Empty when the arity sequences disagree, by definition.
    """
    if source.vertices != target.vertices:
        return
    if source.arity_sequence() != target.arity_sequence():
        return
    points = range(source.vertices)
    yield from _extensions(_level_checks(source, target, points), points)


def automorphism_group(structure, generators=()) -> PermutationGroup:
    """Aut as a permutation group, by transversal harvesting: for each level
    d, find one automorphism fixing 0..d-1 per new orbit point of d.

    The harvest starts from the given automorphisms and lists them first
    among the generators.  One chain of the group found so far, on base
    0..n-1 and extended by each harvested automorphism, gives every level's
    known orbit: its transversal at d is the orbit of d under the
    stabilizer of 0..d-1.
    """
    n = structure.vertices
    if n == 0:
        raise VertexOutOfRange("empty structure has no automorphism group")
    points = range(n)
    gens = list(PermutationGroup(n, generators).generators)
    known = StabilizerChain(n, gens, points)
    checks = _level_checks(structure, structure, points)
    for d in range(n - 1, -1, -1):
        prefix = tuple(range(d))
        for c in range(d, n):
            if c in known.transversal(d):
                continue
            row = prefix + (c,)
            if not checks[d].passes(row):
                continue
            images = next(_extensions(checks, points, row), None)
            if images is not None:
                sigma = Permutation(images)
                gens.append(sigma)
                known.extend(sigma)
    # the returned group's chain, and so the order of its elements(), is
    # the one built from the generators alone, not the grown chain
    return PermutationGroup(n, gens, _order=known.order())


def check_homogeneity_cap(structure):
    """The homogeneity test's caps: at most HOMOGENEITY_VERTEX_CAP vertices,
    and at most TUPLE_CAP tuples n^arity per arity (n counted as at least
    2), since the level checks walk the tuples of every arity.  `relkit
    homog` checks them before it harvests the automorphism group, which
    has no cap of its own; is_homogeneous checks them again."""
    n = structure.vertices
    if n > HOMOGENEITY_VERTEX_CAP:
        raise TooLarge(f"homogeneity test capped at {HOMOGENEITY_VERTEX_CAP} vertices")
    for arity in set(structure.arity_sequence()):
        # the first test keeps the power small
        if arity >= TUPLE_CAP.bit_length() or max(n, 2) ** arity > TUPLE_CAP:
            raise TooLarge(f"homogeneity test over {n}^{arity} tuples is too large")


def _subset_representatives(n, size, gens):
    """The first subset of each Aut-orbit on the subsets of 0..n-1 of the
    given size, in combinations order, as a sorted tuple."""
    subsets = [frozenset(c) for c in itertools.combinations(range(n), size)]
    subset_orbits = orbits_under(
        subsets, gens, lambda subset, images: frozenset(tuple_image(subset, images))
    )
    return [tuple(sorted(src)) for src, _ in subset_orbits]


def is_homogeneous(structure, aut=None):
    """Does every isomorphism of induced substructures extend to an
    automorphism?  Returns (True, None) or (False, failing map).

    Such an isomorphism is a partial isomorphism of the structure itself.
    Sizes k+1 = 1..n-1 are decided in turn by one-point extensions: for
    every Aut-orbit representative A of the k-subsets, and every minimum
    alpha, outside A, of an orbit of the pointwise stabilizer Aut_A, each
    b outside A for which id_A + {alpha -> b} is a partial isomorphism
    must lie in alpha^Aut_A.

    Why this is exact once every partial isomorphism on k points extends:
    let f be one on k+1 points, x a point of its domain and B the other k.
    Compose f with the inverse of an automorphism s extending f on B, so
    that it fixes B pointwise; then conjugate it by an automorphism taking
    B onto its representative A, and by one of Aut_A taking the image of x
    to the minimum alpha of its orbit.  The result is id_A + {alpha -> b}
    for some b, a partial isomorphism that extends exactly when f does,
    and it extends exactly when some automorphism fixes A pointwise and
    takes alpha to b.  The test lists no partial isomorphism, so its cost
    grows with the structure, not with |Aut|.

    At the first size that fails, the failing map is the one the plain
    search meets first: source representatives (sorted) in combinations
    order, then target subsets in combinations order, then image tuples
    in order within each.  The first source whose partial isomorphisms
    into all n points outnumber its tuple orbit, |Aut : Aut_A|, has one
    that does not extend, and among those the least by (sorted image,
    image) is returned.  A caller that already holds the automorphism
    group passes it as aut.
    """
    check_homogeneity_cap(structure)
    n = structure.vertices
    if aut is None:
        aut = automorphism_group(structure)
    gens = [g.images for g in aut.generators]
    for k in range(n - 1):
        for src in _subset_representatives(n, k, gens):
            for alpha, orbit in aut.pointwise_stabilizer(src).orbits():
                if alpha in src:
                    continue
                check = _LevelCheck(_level_entries(structure, structure, src + (alpha,), k))
                if any(b not in orbit and b not in src and check.passes(src + (b,))
                       for b in range(n)):
                    return False, _first_failing_map(structure, aut, k + 1, gens)
    return True, None


def _first_failing_map(structure, aut, size, gens):
    """The failing map of a size at which some partial isomorphism does not
    extend, in the order is_homogeneous documents."""
    n = structure.vertices
    points = range(n)
    for src in _subset_representatives(n, size, gens):
        images = list(_extensions(_level_checks(structure, structure, src), points))
        chain = aut.rebased(src).chain
        if len(images) == aut.order() // chain.order_below(len(src)):
            continue
        image = min(
            (image for image in images if chain.descend(image) is None),
            key=lambda image: (sorted(image), image),
        )
        return dict(zip(src, image))
    raise InternalInconsistency(
        f"no partial isomorphism on {size} points fails to extend, "
        "though the one-point extension step failed"
    )


def canonical_structure(group, s) -> RelationalStructure:
    """Relations = all G-orbits on Omega^i for i = 2..s (repeats included),
    each orbit listed by its lexicographic minimum."""
    if s < 2:
        raise BadParameter("arity must be at least 2")
    if s > STRUCTURAL_RC_ARITY_CAP:
        raise ArityTooLarge(f"arity capped at {STRUCTURAL_RC_ARITY_CAP}")
    n = group.degree
    if n ** s > TUPLE_CAP:
        raise TooLarge(f"orbit enumeration over {n}^{s} tuples is too large")
    relations = []
    for arity in range(2, s + 1):
        tuples = list(itertools.product(range(n), repeat=arity))
        relations.extend(
            (arity, frozenset(map(tuples.__getitem__, orbit)))
            for orbit in tuple_orbits(group, arity)
        )
    return RelationalStructure(n, tuple(relations))


def structural_rc(group):
    """Smallest s with the orbit structure of arity s homogeneous and
    rigidly recovering the group; equals the tuple relational complexity.

    Raises CapExceeded (carrying the tuple value) when the answer exceeds
    the arity cap.
    """
    if group.degree > STRUCTURAL_RC_DEGREE_CAP:
        raise TooLarge(f"structural RC capped at degree {STRUCTURAL_RC_DEGREE_CAP}")
    for s in range(2, STRUCTURAL_RC_ARITY_CAP + 1):
        structure = canonical_structure(group, s)
        aut = automorphism_group(structure)
        if aut.order() != group.order():
            continue
        homogeneous, _ = is_homogeneous(structure, aut=aut)
        if homogeneous:
            return s
    rc, _ = relational_complexity(group)
    raise CapExceeded(
        f"no homogeneous orbit structure of arity <= {STRUCTURAL_RC_ARITY_CAP}; "
        f"tuple RC is {rc}",
        fallback=rc,
    )
