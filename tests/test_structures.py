"""Relational structures, digraphs, homogeneity and the orbit structure."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from relkit import catalog as cat, structures as structures_module
from relkit.digraphs import (
    Digraph,
    canonical_form,
    complement,
    complete,
    composition,
    digraph_automorphism_group,
    direct_product,
    directed_cycle,
    empty,
    enumerate_homogeneous_digraphs,
    small_homogeneous_catalog,
    sporadic_h0,
    sporadic_h1,
    sporadic_h2,
    undirected_cycle,
)
from relkit.errors import (
    ArityTooLarge,
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    ParseError,
    TooLarge,
    VertexOutOfRange,
)
from relkit.group import orbits_under, tuple_image
from relkit.oracle import brute_automorphism_count, brute_is_homogeneous
from relkit.relcomp import relational_complexity
from relkit.structures import (
    RelationalStructure,
    automorphism_group,
    canonical_structure,
    induced_substructure,
    is_homogeneous,
    structure_isomorphisms,
    structural_rc,
)


# -- structures ---------------------------------------------------------------

def test_structure_build_validates():
    with pytest.raises(VertexOutOfRange):
        RelationalStructure.build(3, [(2, [(0, 3)])])
    with pytest.raises(ParseError, match="arity >= 2"):
        RelationalStructure.build(3, [(1, [(0,)])])


@pytest.mark.parametrize("vertices", [0, -3])
def test_structure_file_needs_a_positive_vertex_count(vertices):
    with pytest.raises(ParseError, match="'vertices' must be a positive integer"):
        RelationalStructure.from_json({"vertices": vertices, "edges": []})


def test_structure_dedup():
    s = RelationalStructure.build(3, [(2, [(0, 1), (0, 1)])])
    assert len(s.relations[0][1]) == 1


def test_induced_substructure_complete_digraph():
    k4 = complete(4).to_structure()
    sub = induced_substructure(k4, [1, 3])
    assert sub.vertices == 2
    assert sub.relations[0][1] == frozenset({(0, 1), (1, 0)})


def test_induced_substructure_cycle_path():
    c5 = undirected_cycle(5).to_structure()
    sub = induced_substructure(c5, [0, 1, 2])
    assert sub.relations[0][1] == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})


def test_induced_substructure_full():
    h0 = sporadic_h0().to_structure()
    assert induced_substructure(h0, range(8)) == h0


def test_structure_json_roundtrip():
    s = sporadic_h1().to_structure()
    again = RelationalStructure.from_json(s.to_json())
    assert again == s
    shorthand = RelationalStructure.from_json(
        {"vertices": 3, "edges": [[0, 1], [1, 2]]})
    assert shorthand.relations[0][1] == frozenset({(0, 1), (1, 2)})


def test_structure_json_with_edges_and_relations_is_a_parse_error():
    # the shorthand would read the edges and drop the relations
    with pytest.raises(ParseError, match="at most one of 'edges' or 'relations'"):
        RelationalStructure.from_json({"vertices": 3, "edges": [[0, 1]],
                                       "relations": [{"arity": 2, "tuples": [[1, 2]]}]})


# -- isomorphisms and automorphisms ------------------------------------------------

def test_isomorphisms_k3():
    k3 = complete(3).to_structure()
    assert len(list(structure_isomorphisms(k3, k3))) == 6


def test_isomorphisms_directed_triangle_reverse():
    c3 = directed_cycle(3)
    reverse = Digraph.build(3, [(b, a) for a, b in c3.edges])
    isos = list(structure_isomorphisms(c3.to_structure(), reverse.to_structure()))
    assert len(isos) == 3  # frozen: brute force over the 6 bijections


def test_isomorphisms_empty_vs_edge():
    k2 = complete(2).to_structure()
    e2 = empty(2).to_structure()
    assert list(structure_isomorphisms(k2, e2)) == []


def test_automorphism_counts_match_bruteforce():
    for graph in [directed_cycle(4), undirected_cycle(5), complete(4),
                  composition(complete(2), empty(2)), sporadic_h0()]:
        s = graph.to_structure()
        assert automorphism_group(s).order() == brute_automorphism_count(s)


def test_automorphism_groups_of_sporadics():
    assert digraph_automorphism_group(sporadic_h0()).order() == 24
    assert digraph_automorphism_group(sporadic_h1()).order() == 16
    assert digraph_automorphism_group(sporadic_h2()).order() == 48
    assert digraph_automorphism_group(
        direct_product(complete(3), complete(3))).order() == 72


def test_automorphism_group_cycles():
    for n in (3, 4, 5, 6):
        assert digraph_automorphism_group(undirected_cycle(n)).order() == 2 * n
        assert digraph_automorphism_group(directed_cycle(n)).order() == n


@st.composite
def structures(draw, vertices=None, arities=None):
    """A structure on at most 5 vertices with 1-3 relations of arity 2-4.
    Relations may be empty, may overlap an earlier relation of the same
    arity, and arities may interleave, e.g. (2, 4, 2)."""
    n = draw(st.integers(1, 5)) if vertices is None else vertices
    if arities is None:
        arities = draw(st.lists(st.sampled_from((2, 3, 4)), min_size=1, max_size=3))
    relations = []
    for arity in arities:
        tuples = draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * arity), max_size=10))
        earlier = [t for a, t in relations if a == arity]
        if earlier and draw(st.booleans()):
            tuples |= draw(st.sampled_from(earlier))
        relations.append((arity, tuples))
    return RelationalStructure.build(n, relations)


def relabeled(structure, images):
    return RelationalStructure.build(structure.vertices, [
        (arity, [tuple(images[v] for v in t) for t in tuples])
        for arity, tuples in structure.relations
    ])


@st.composite
def structure_pairs(draw):
    """(source, target) with equal vertex count and arity sequence: the
    target is a relabeled source, a relabeled source with one tuple
    toggled, or an unrelated structure."""
    source = draw(structures())
    n, arities = source.vertices, source.arity_sequence()
    kind = draw(st.sampled_from(("relabel", "toggle", "fresh")))
    if kind == "fresh":
        return source, draw(structures(vertices=n, arities=arities))
    target = relabeled(source, draw(st.permutations(range(n))))
    if kind == "toggle":
        i = draw(st.integers(0, len(arities) - 1))
        arity, tuples = target.relations[i]
        t = draw(st.tuples(*[st.integers(0, n - 1)] * arity))
        relations = list(target.relations)
        relations[i] = (arity, tuples ^ {t})
        target = RelationalStructure.build(n, relations)
    return source, target


def brute_isomorphisms(source, target):
    """Bijections mapping every relation onto its counterpart, in
    lexicographic order of the image tuples."""
    return [
        images for images in itertools.permutations(range(source.vertices))
        if all({tuple(images[v] for v in t) for t in src} == dst
               for (_, src), (_, dst) in zip(source.relations, target.relations))
    ]


@settings(max_examples=300, deadline=None)
@given(structure_pairs())
def test_isomorphisms_match_bruteforce(pair):
    source, target = pair
    assert list(structure_isomorphisms(source, target)) == brute_isomorphisms(source, target)


@settings(max_examples=300, deadline=None)
@given(structures())
def test_automorphism_order_matches_bruteforce(structure):
    assert automorphism_group(structure).order() == brute_automorphism_count(structure)


def test_isomorphisms_need_equal_arity_sequences():
    two_three = RelationalStructure.build(3, [(2, []), (3, [])])
    three_two = RelationalStructure.build(3, [(3, []), (2, [])])
    assert list(structure_isomorphisms(two_three, three_two)) == []
    assert len(list(structure_isomorphisms(two_three, two_three))) == 6


# -- homogeneity --------------------------------------------------------------------

def test_homogeneous_complete_digraph():
    assert is_homogeneous(complete(4).to_structure()) == (True, None)


def test_homogeneous_delta5():
    assert is_homogeneous(undirected_cycle(5).to_structure())[0]


def test_not_homogeneous_path():
    path = Digraph.build(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    verdict, failing = is_homogeneous(path.to_structure())
    assert not verdict
    assert failing  # a non-extending isomorphism is reported


def test_not_homogeneous_failing_map_directed_5_cycle():
    # 0 and 2 are non-adjacent, so swapping them is an isomorphism of the
    # induced substructure; no rotation swaps them
    assert is_homogeneous(directed_cycle(5).to_structure()) == (False, {0: 2, 2: 0})


def test_not_homogeneous_single_directed_edge():
    arrow = Digraph.build(2, [(0, 1)])
    assert not is_homogeneous(arrow.to_structure())[0]


def test_homogeneity_cap():
    with pytest.raises(TooLarge):
        is_homogeneous(complete(11).to_structure())


def induced_is_homogeneous(structure):
    """Reference: the induced-substructure loop.  Every isomorphism from
    the substructure induced on an Aut-orbit representative to the one
    induced on a subset of the same size, relabeled back to the parent's
    vertices, must extend to an automorphism."""
    n = structure.vertices
    aut = automorphism_group(structure)
    gens = [g.images for g in aut.generators]
    for size in range(1, n):
        subsets = [frozenset(c) for c in itertools.combinations(range(n), size)]
        subset_orbits = orbits_under(
            subsets, gens, lambda subset, images: frozenset(tuple_image(subset, images))
        )
        reps = [s for s, _ in subset_orbits]
        induced = {s: induced_substructure(structure, s) for s in subsets}
        for src in reps:
            src_sorted = tuple(sorted(src))
            for dst in subsets:
                dst_sorted = tuple(sorted(dst))
                for iso in structure_isomorphisms(induced[src], induced[dst]):
                    image = tuple(dst_sorted[iso[i]] for i in range(size))
                    if aut.transporter(src_sorted, image) is None:
                        return False, dict(zip(src_sorted, image))
    return True, None


@settings(max_examples=300, deadline=None)
@given(structures())
def test_homogeneity_matches_induced_substructure_loop(structure):
    # same verdict and the same failing map, found in the same order
    assert is_homogeneous(structure) == induced_is_homogeneous(structure)


@settings(max_examples=300, deadline=None)
@given(structures())
def test_homogeneity_verdict_matches_bruteforce(structure):
    assert is_homogeneous(structure)[0] == brute_is_homogeneous(structure)


def petersen():
    """The Petersen graph: 2-subsets of 0..4, adjacent when disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    return Digraph.build(10, [(i, j) for i, a in enumerate(pairs)
                              for j, b in enumerate(pairs) if not set(a) & set(b)])


def cube():
    return Digraph.build(8, [(i, j) for i in range(8) for j in range(8)
                             if bin(i ^ j).count("1") == 1])


@pytest.mark.parametrize("structure", [
    RelationalStructure.build(9, [(2, [])]),
    RelationalStructure.build(10, [(2, [])]),
    RelationalStructure.build(10, [(2, [(0, 0)])]),
], ids=["edgeless-9", "edgeless-10", "one-loop-10"])
def test_homogeneity_lists_no_partial_isomorphism_when_it_holds(structure, monkeypatch):
    # the extension step decides every size from Aut_A-orbits alone, so
    # the |Aut|-sized search for partial isomorphisms never runs
    aut = automorphism_group(structure)
    yielded = []
    real = structures_module._extensions

    def counting(*args, **kwargs):
        for images in real(*args, **kwargs):
            yielded.append(images)
            yield images

    monkeypatch.setattr(structures_module, "_extensions", counting)
    assert is_homogeneous(structure, aut=aut) == (True, None)
    assert yielded == []


@pytest.mark.parametrize("structure, failing", [
    (directed_cycle(5).to_structure(), {0: 2, 2: 0}),
    (undirected_cycle(6).to_structure(), {0: 0, 2: 3}),
    (cube().to_structure(), {0: 0, 3: 7}),
    (composition(undirected_cycle(4), complete(2)).to_structure(), {0: 0, 1: 2}),
    (petersen().to_structure(), {0: 0, 1: 1, 2: 4}),
    (canonical_structure(cat.psl2_projective(7).group, 3), {0: 0, 1: 1, 2: 2, 4: 5}),
], ids=["directed-5-cycle", "6-cycle", "cube", "C4[K2]", "petersen", "psl2(7)-arity-3"])
def test_first_failure_beyond_single_points(structure, failing):
    # the first failing size is 2, 3 (Petersen) or 4 (PSL(2,7) on 8 points,
    # all of whose 3-point partial isomorphisms extend)
    assert is_homogeneous(structure) == (False, failing)
    assert induced_is_homogeneous(structure) == (False, failing)


def test_failing_map_is_least_by_target_subset_then_image():
    # on the directed 5-cycle, source (0, 2) has the non-extending image
    # (0, 3), lexicographically before the returned (2, 0), but on the
    # later target subset {0, 3}
    c5 = directed_cycle(5).to_structure()
    aut = automorphism_group(c5)
    assert (0, 3) < (2, 0) and sorted((0, 3)) > sorted((2, 0))
    # 0 -> 0, 2 -> 3 is a partial isomorphism (both pairs are non-adjacent)
    # that no rotation realises
    assert induced_substructure(c5, (0, 2)) == induced_substructure(c5, (0, 3))
    assert aut.transporter((0, 2), (0, 3)) is None
    assert is_homogeneous(c5, aut=aut) == (False, {0: 2, 2: 0})


@pytest.mark.parametrize("graph", [
    directed_cycle(7), sporadic_h0(), sporadic_h1(),
    composition(directed_cycle(3), empty(2)), direct_product(directed_cycle(3), complete(2)),
], ids=["directed-7-cycle", "H0", "H1", "C3[E2]", "C3xK2"])
def test_homogeneity_matches_reference_beyond_five_vertices(graph):
    # the hypothesis strategy stops at 5 vertices (the failures above
    # check the reference on more)
    structure = graph.to_structure()
    assert is_homogeneous(structure) == induced_is_homogeneous(structure)


def test_failing_map_search_with_nothing_to_find_is_an_internal_inconsistency():
    k4 = complete(4).to_structure()
    aut = automorphism_group(k4)
    gens = [g.images for g in aut.generators]
    with pytest.raises(InternalInconsistency):
        structures_module._first_failing_map(k4, aut, 2, gens)


def test_level_checks_are_built_once_per_source(monkeypatch):
    # the harvest shares one set of level checks over 0..n-1, and the
    # homogeneity test builds one level check per extension it tries (a
    # source orbit representative A and a point alpha outside it), shared
    # by every candidate image of alpha: no level's generator is made
    # twice, and no entry of a level is built twice
    levels, entries = [], []
    real = structures_module._level_entries

    def counting(source, target, domain, k):
        levels.append((tuple(domain), k))
        for i, entry in enumerate(real(source, target, domain, k)):
            entries.append((tuple(domain), k, i))
            yield entry

    monkeypatch.setattr(structures_module, "_level_entries", counting)
    h0 = sporadic_h0().to_structure()
    aut = automorphism_group(h0)
    assert levels and len(levels) == len(set(levels))
    assert all(domain == tuple(range(8)) for domain, _ in levels)
    assert entries and len(entries) == len(set(entries))
    levels.clear()
    entries.clear()
    assert is_homogeneous(h0, aut=aut) == (True, None)
    assert levels and len(levels) == len(set(levels))
    assert entries and len(entries) == len(set(entries))


def test_homogeneity_builds_no_induced_substructure(monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for fn in (induced_substructure, structure_isomorphisms):
        monkeypatch.setattr(structures_module, fn.__name__, counting(fn))
    assert is_homogeneous(sporadic_h0().to_structure()) == (True, None)
    assert calls == []


def test_homogeneous_iff_complement():
    for graph in [undirected_cycle(4), directed_cycle(4), complete(4),
                  Digraph.build(4, [(0, 1), (1, 0)])]:
        assert (is_homogeneous(graph.to_structure())[0]
                == is_homogeneous(complement(graph).to_structure())[0])


# -- orbit structure ------------------------------------------------------------------

def test_canonical_structure_sym3():
    s = canonical_structure(cat.symmetric_natural(3).group, 2)
    assert len(s.relations) == 2  # diagonal pairs and distinct pairs


def test_canonical_structure_c3():
    s = canonical_structure(cat.cyclic_regular(3).group, 2)
    assert len(s.relations) == 3  # frozen: diagonal + two directed orbits


def test_canonical_structure_aut_recovers_group():
    # arity degree-1 orbit structure is rigid for degree >= 3
    for entry in [cat.symmetric_natural(4), cat.cyclic_regular(5),
                  cat.dihedral_polygon(4), cat.alternating_natural(4)]:
        g = entry.group
        s = canonical_structure(g, min(g.degree - 1, 4))
        assert automorphism_group(s) == g


def test_canonical_structure_arity_cap():
    with pytest.raises(ArityTooLarge):
        canonical_structure(cat.symmetric_natural(4).group, 5)
    with pytest.raises(BadParameter, match="at least 2"):
        canonical_structure(cat.symmetric_natural(4).group, 1)


# -- structural RC -----------------------------------------------------------------------

def test_structural_rc_values():
    assert structural_rc(cat.symmetric_natural(4).group) == 2
    assert structural_rc(cat.alternating_natural(4).group) == 3
    assert structural_rc(cat.cyclic_regular(5).group) == 2


def test_structural_rc_matches_tuple_rc():
    for entry in [cat.dihedral_polygon(4), cat.agl1(5), cat.psl2_projective(5),
                  cat.cyclic_regular(6), cat.intransitive_join(3)]:
        rc, _ = relational_complexity(entry.group)
        assert structural_rc(entry.group) == rc


def test_structural_rc_cap_carries_tuple_value():
    # Alt(6) has RC 5, above the arity cap of 4
    with pytest.raises(CapExceeded) as err:
        structural_rc(cat.alternating_natural(6).group)
    assert err.value.fallback == 5


# -- digraph constructors --------------------------------------------------------------------

def test_cycle_constructors():
    assert len(undirected_cycle(5).edges) == 10
    assert len(directed_cycle(4).edges) == 4
    with pytest.raises(BadParameter):
        directed_cycle(2)


def test_composition_k2_empty3():
    g = composition(complete(2), empty(3))
    assert g.vertices == 6
    assert len(g.edges) == 18  # complete bipartite, both directions
    assert is_homogeneous(g.to_structure())[0]


def test_h2_edge_count():
    h2 = sporadic_h2()
    assert h2.vertices == 12
    assert len(h2.edges) == 60  # 12 mate-directed + 12 drawn + 36 completed


def test_h0_antisymmetric():
    edges = sporadic_h0().edges
    assert not any((b, a) in edges for a, b in edges)
    assert len(edges) == 24


def test_complement_roundtrip():
    g = sporadic_h1()
    assert complement(complement(g)) == g


def test_no_loops():
    with pytest.raises(BadParameter):
        Digraph.build(3, [(1, 1)])


# -- enumeration ---------------------------------------------------------------------------------

def test_enumeration_small():
    assert len(enumerate_homogeneous_digraphs(1)) == 1
    assert len(enumerate_homogeneous_digraphs(2)) == 2  # arrow is not homogeneous


def test_enumeration_matches_classification():
    for n in (3, 4, 5):
        found = sorted(canonical_form(g) for g in enumerate_homogeneous_digraphs(n))
        predicted = sorted(canonical_form(g) for g in small_homogeneous_catalog(n))
        assert found == predicted


def test_enumeration_n3_members():
    # on n vertices, equal canonical forms are isomorphism
    forms = {canonical_form(g) for g in enumerate_homogeneous_digraphs(3)}
    assert canonical_form(empty(3)) in forms
    assert canonical_form(complete(3)) in forms
    assert canonical_form(directed_cycle(3)) in forms


def test_enumeration_n5_members():
    forms = {canonical_form(g) for g in enumerate_homogeneous_digraphs(5)}
    assert canonical_form(undirected_cycle(5)) in forms
    assert canonical_form(directed_cycle(5)) not in forms


def test_enumeration_keeps_first_representative_in_mask_order():
    # the first edge mask of each isomorphism class, over all 2^(n(n-1)) masks
    n = 4
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    first = {}
    for mask in range(1 << len(pairs)):
        graph = Digraph.build(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        first.setdefault(canonical_form(graph), graph)
    expected = [g for g in first.values() if is_homogeneous(g.to_structure())[0]]
    expected.sort(key=lambda g: (len(g.edges), canonical_form(g)))
    assert enumerate_homogeneous_digraphs(n) == expected


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_homogeneous_digraphs(6)
