"""Digraphs: constructors for the classification families, the three
sporadic homogeneous digraphs, canonical forms and exhaustive
enumeration of homogeneous digraphs on few vertices.

A digraph is loop-free; vertices are 0..n-1.  The three sporadic
digraphs are built from fixed edge lists; the 12-vertex one is completed
from its six mate pairs by the closure rule: whenever (v, w) is an edge
so is (mate(w), v), and whenever (w, v) is an edge so is (v, mate(w)).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import BadParameter, InternalInconsistency, TooLarge, VertexOutOfRange
from .structures import RelationalStructure, automorphism_group, is_homogeneous


@dataclass(frozen=True)
class Digraph:
    vertices: int
    edges: frozenset  # of ordered pairs, irreflexive

    @staticmethod
    def build(vertices, edges) -> "Digraph":
        edgeset = frozenset((int(a), int(b)) for a, b in edges)
        for a, b in edgeset:
            if not (0 <= a < vertices and 0 <= b < vertices):
                raise VertexOutOfRange(f"edge ({a}, {b}) outside 0..{vertices - 1}")
            if a == b:
                raise BadParameter("digraphs are loop-free")
        return Digraph(vertices, edgeset)

    def to_structure(self) -> RelationalStructure:
        return RelationalStructure(self.vertices, ((2, self.edges),))

    def to_json(self) -> dict:
        return {"vertices": self.vertices, "edges": sorted(list(e) for e in self.edges)}


def complete(n) -> Digraph:
    if n < 1:
        raise BadParameter("need at least one vertex")
    return Digraph.build(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def empty(n) -> Digraph:
    if n < 1:
        raise BadParameter("need at least one vertex")
    return Digraph.build(n, [])


def directed_cycle(n) -> Digraph:
    """Edges (x, y) with x - y = 1 mod n."""
    if n < 3:
        raise BadParameter("cycles need at least 3 vertices")
    return Digraph.build(n, [((y + 1) % n, y) for y in range(n)])


def undirected_cycle(n) -> Digraph:
    if n < 3:
        raise BadParameter("cycles need at least 3 vertices")
    edges = [((y + 1) % n, y) for y in range(n)] + [(y, (y + 1) % n) for y in range(n)]
    return Digraph.build(n, edges)


def complement(graph: Digraph) -> Digraph:
    n = graph.vertices
    return Digraph.build(
        n, [(a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in graph.edges]
    )


def composition(outer: Digraph, inner: Digraph) -> Digraph:
    """Vertices are pairs; connect by the outer edge, or inner edge inside a fiber."""
    n, m = outer.vertices, inner.vertices
    edges = []
    for (u1, v1), (u2, v2) in itertools.product(
        itertools.product(range(n), range(m)), repeat=2
    ):
        if (u1, u2) in outer.edges or (u1 == u2 and (v1, v2) in inner.edges):
            edges.append((u1 * m + v1, u2 * m + v2))
    return Digraph.build(n * m, edges)


def direct_product(left: Digraph, right: Digraph) -> Digraph:
    n, m = left.vertices, right.vertices
    edges = []
    for (u1, v1), (u2, v2) in itertools.product(
        itertools.product(range(n), range(m)), repeat=2
    ):
        if (u1, u2) in left.edges and (v1, v2) in right.edges:
            edges.append((u1 * m + v1, u2 * m + v2))
    return Digraph.build(n * m, edges)


# The three sporadic homogeneous digraphs, from fixed drawings with
# vertices numbered 1..8 (resp. 1..12) and converted to 0-based.

_H0_EDGES = [
    (1, 4), (1, 6), (1, 7), (2, 3), (2, 4), (2, 1), (3, 6), (3, 8), (3, 1),
    (4, 3), (4, 5), (4, 6), (5, 2), (5, 3), (5, 8), (6, 5), (6, 7), (6, 8),
    (7, 5), (7, 2), (7, 4), (8, 2), (8, 7), (8, 1),
]

_H1_UNDIRECTED = [(1, 2), (3, 4), (5, 6), (7, 8)]
_H1_DIRECTED = [
    (1, 8), (1, 3), (2, 7), (2, 4), (3, 6), (3, 2), (4, 1), (4, 5),
    (5, 7), (5, 3), (6, 4), (6, 8), (7, 6), (7, 1), (8, 2), (8, 5),
]

_H2_MATES = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]
_H2_DIRECTED = [
    (1, 12), (1, 10), (2, 5), (3, 2), (4, 5), (4, 7),
    (6, 7), (8, 9), (9, 6), (11, 10), (11, 8), (12, 3),
]


def sporadic_h0() -> Digraph:
    return Digraph.build(8, [(a - 1, b - 1) for a, b in _H0_EDGES])


def sporadic_h1() -> Digraph:
    edges = [(a - 1, b - 1) for a, b in _H1_DIRECTED]
    for a, b in _H1_UNDIRECTED:
        edges += [(a - 1, b - 1), (b - 1, a - 1)]
    return Digraph.build(8, edges)


def sporadic_h2() -> Digraph:
    """Completion: 6 mate pairs (12 directed edges) + 12 drawn directed
    edges, closed under the mate rule, inserting 36 more for 60 total."""
    mate = {}
    for a, b in _H2_MATES:
        mate[a - 1] = b - 1
        mate[b - 1] = a - 1
    edges = set()
    for a, b in _H2_MATES:
        edges.add((a - 1, b - 1))
        edges.add((b - 1, a - 1))
    edges.update((a - 1, b - 1) for a, b in _H2_DIRECTED)
    changed = True
    while changed:
        changed = False
        for v, w in list(edges):
            wp = mate[w]
            if wp != v and (wp, v) not in edges:
                edges.add((wp, v))
                changed = True
        for w, v in list(edges):
            wp = mate[w]
            if wp != v and (v, wp) not in edges:
                edges.add((v, wp))
                changed = True
    graph = Digraph.build(12, edges)
    if len(graph.edges) != 60:
        raise InternalInconsistency("mate completion must reach 60 directed edges")
    return graph


# -- canonical forms and enumeration ----------------------------------------


@functools.cache
def _relabelled_bits(n):
    """Per ordered pair (a, b), a != b, in lex order: the bit of its image
    under each relabeling in itertools.permutations order, as a tuple."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    return {(a, b): tuple(bit[(perm[a], perm[b])] for perm in perms) for a, b in pairs}


def canonical_form(graph: Digraph) -> int:
    """Minimum edge bitmask over all vertex relabelings (bit i for the
    i-th ordered pair (a, b), a != b, in lex order)."""
    n = graph.vertices
    if n > 7:
        raise TooLarge("canonical form by full relabeling capped at 7 vertices")
    if not graph.edges:
        return 0
    bits = _relabelled_bits(n)
    # a relabeling maps distinct pairs to distinct bits, so the sum is the mask
    return min(map(sum, zip(*map(bits.__getitem__, graph.edges))))


def enumerate_homogeneous_digraphs(n) -> list[Digraph]:
    """All homogeneous digraphs on n vertices up to isomorphism (n <= 5).

    Exhaustive over edge masks; a homogeneous digraph is vertex-transitive,
    so only masks with uniform out-degree are generated (one d-subset of
    each vertex's out-pairs) and uniform in-degree filters them, then
    canonical-form deduplication in ascending mask order, then the
    homogeneity test.
    """
    if n > 5:
        raise TooLarge("exhaustive enumeration capped at 5 vertices")
    if n < 1:
        raise BadParameter("need at least one vertex")
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out_bits = [[1 << i for i, (a, _) in enumerate(pairs) if a == v] for v in range(n)]
    in_masks = [sum(1 << i for i, (_, b) in enumerate(pairs) if b == v) for v in range(n)]
    survivors = []
    for d in range(n):
        choices = [[sum(c) for c in itertools.combinations(bits, d)] for bits in out_bits]
        for parts in itertools.product(*choices):
            mask = sum(parts)
            degs_in = [(mask & m).bit_count() for m in in_masks]
            if all(deg == degs_in[0] for deg in degs_in):
                survivors.append(mask)
    survivors.sort()
    canon_seen = set()
    out = []
    for mask in survivors:
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        graph = Digraph.build(n, edges)
        canon = canonical_form(graph)
        if canon in canon_seen:
            continue
        canon_seen.add(canon)
        homogeneous, _ = is_homogeneous(graph.to_structure())
        if homogeneous:
            out.append(graph)
    out.sort(key=lambda g: (len(g.edges), canonical_form(g)))
    return out


def digraph_automorphism_group(graph: Digraph):
    return automorphism_group(graph.to_structure())


# -- classification families at small size ------------------------------------


def _symmetric_family(n) -> list[Digraph]:
    """Homogeneous symmetric digraphs on exactly n vertices (with complements)."""
    out = []
    if n == 5:
        out.append(undirected_cycle(5))
    if n == 9:
        out.append(direct_product(complete(3), complete(3)))
    for m in range(1, n + 1):
        if n % m == 0:
            out.append(composition(complete(m), empty(n // m)))
    out += [complement(g) for g in list(out)]
    return out


def _antisymmetric_family(n) -> list[Digraph]:
    """Homogeneous antisymmetric digraphs on exactly n vertices."""
    out = [empty(n)]
    if n == 4:
        out.append(directed_cycle(4))
    if n % 3 == 0:
        out.append(composition(empty(n // 3), directed_cycle(3)))
        out.append(composition(directed_cycle(3), empty(n // 3)))
    if n == 8:
        out.append(sporadic_h0())
    return out


def small_homogeneous_catalog(n) -> list[Digraph]:
    """The classification's prediction on n vertices, up to isomorphism:
    closures of the symmetric and antisymmetric families under
    composition with complete/edgeless factors, the sporadics, and
    complements."""
    members: list[Digraph] = []
    members += _symmetric_family(n)
    for m in range(1, n + 1):
        if n % m != 0:
            continue
        k = n // m
        for a in _antisymmetric_family(k):
            members.append(composition(complete(m), a))
            members.append(composition(a, complete(m)))
    for s in _symmetric_family(n // 3) if n % 3 == 0 else []:
        members.append(composition(directed_cycle(3), s))
        members.append(composition(s, directed_cycle(3)))
    if n == 8:
        members.append(sporadic_h1())
    if n == 12:
        members.append(sporadic_h2())
    members += [complement(g) for g in list(members)]
    seen = {}
    for g in members:
        seen.setdefault(canonical_form(g), g)
    return sorted(seen.values(), key=lambda g: (len(g.edges), canonical_form(g)))
