"""Groups, chains, orbits, transporters, stabilizers, primitivity."""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from test_chain import conjugator_base, subgroups_with_points

from relkit import catalog as cat
from relkit.errors import (
    DegreeMismatch,
    NotInGroup,
    NotTransitive,
    ParseError,
    PointOutOfRange,
)
from relkit.group import (
    PermutationGroup,
    dump_group,
    group_from_json,
    load_group,
    orbits_under,
    tuple_image,
    tuple_orbits,
)
from relkit.oracle import brute_order, brute_transporter, mulclose
from relkit.perm import Permutation, parse_permutation
from relkit.search import StabilizerLattice


def G(degree, *cycle_strings, base_prefix=()):
    gens = [parse_permutation(s, degree) for s in cycle_strings]
    return PermutationGroup(degree, gens, base_prefix=base_prefix)


def sym(n):
    return G(n, "(1 2)", "(" + " ".join(str(i) for i in range(1, n + 1)) + ")")


def alt4():
    return G(4, "(1 2 3)", "(2 3 4)")


def alt5():
    return G(5, "(1 2 3)", "(3 4 5)")


# -- chain construction ------------------------------------------------------

def test_order_sym4():
    assert sym(4).order() == 24


def test_order_alt5():
    assert alt5().order() == 60


def test_order_c7_base_length():
    c7 = G(7, "(1 2 3 4 5 6 7)")
    assert c7.order() == 7
    assert len(c7.chain.base) == 1


def test_base_prefix_respected():
    g = sym(4).rebased([2, 0])
    assert g.chain.base[:2] == [2, 0]
    assert g.order() == 24


def test_redundant_prefix_allowed():
    c3 = G(5, "(1 2 3)")  # fixes points 3, 4
    g = c3.rebased([3, 4, 0])
    assert g.chain.base[:3] == [3, 4, 0]
    assert g.order() == 3


def test_chain_order_matches_closure():
    # oracle check: chain order equals explicit element count
    for group in [sym(4), alt4(), G(6, "(1 2)(3 4)", "(1 3 5)(2 4 6)"),
                  G(5, "(1 2 3 4 5)", "(2 3 5 4)")]:
        assert group.order() == brute_order(group)


# -- membership ---------------------------------------------------------------

def test_contains_odd_permutation():
    assert not alt4().contains(parse_permutation("(1 2)", 4))
    assert alt4().contains(parse_permutation("(1 2)(3 4)", 4))


def test_contains_identity():
    assert sym(3).contains(Permutation.identity(3))


def test_contains_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        sym(3).contains(Permutation.identity(4))


# -- orbits --------------------------------------------------------------------

def test_orbit_transitive():
    assert alt4().orbit(0) == {0, 1, 2, 3}


def test_orbit_fixed_point():
    g = G(4, "(1 2)")
    assert g.orbit(2) == {2}


def test_orbit_invariant_points():
    g = G(5, "(1 2)", "(1 2 3)")  # Sym(3) fixing points 3, 4
    assert g.orbit(3) == {3}
    assert g.orbit(4) == {4}


def test_orbit_out_of_range():
    with pytest.raises(PointOutOfRange):
        sym(3).orbit(3)


# -- transporter ---------------------------------------------------------------

def test_transporter_cyclic():
    c4 = G(4, "(1 2 3 4)")
    g = c4.transporter((0, 1), (1, 2))
    assert g is not None and g(0) == 1 and g(1) == 2


def test_transporter_alt4_swap():
    g = alt4().transporter((0, 1), (1, 0))
    assert g is not None and g(0) == 1 and g(1) == 0
    assert alt4().contains(g)


def test_transporter_absent():
    c3 = G(3, "(1 2 3)")
    assert c3.transporter((0, 1), (0, 2)) is None


def test_transporter_repeated_entries():
    s4 = sym(4)
    assert s4.transporter((0, 0), (1, 1)) is not None
    assert s4.transporter((0, 0), (1, 2)) is None
    assert s4.transporter((0, 1), (2, 2)) is None


def test_transporter_matches_bruteforce():
    groups = [alt4(), G(6, "(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"), sym(4)]
    tuples = [((0, 1), (2, 3)), ((0, 1, 2), (3, 4, 5)), ((2,), (0,)),
              ((0, 1, 2), (0, 2, 1)), ((1, 3), (3, 1))]
    for group in groups:
        for src, dst in tuples:
            if max(max(src), max(dst)) >= group.degree:
                continue
            fast = group.transporter(src, dst)
            brute = brute_transporter(group, src, dst)
            assert (fast is None) == (brute is None)
            if fast is not None:
                assert fast.apply_tuple(src) == tuple(dst)
                assert group.contains(fast)


def test_transporter_deterministic():
    g1 = alt5().transporter((0, 1), (1, 0))
    g2 = alt5().transporter((0, 1), (1, 0))
    assert g1 == g2


# -- stabilizers -----------------------------------------------------------------

def test_pointwise_stabilizer_sym4():
    assert sym(4).pointwise_stabilizer([0]).order() == 6
    assert sym(4).pointwise_stabilizer([0, 1, 2]).order() == 1


def test_pointwise_stabilizer_d8():
    d8 = G(4, "(1 2 3 4)", "(2 4)")
    assert d8.pointwise_stabilizer([0]).order() == 2  # frozen: enumerated 8 elements


def test_orbit_stabilizer_identity():
    for group in [sym(4), alt5(), G(6, "(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)")]:
        for p in range(group.degree):
            orbit = group.orbit(p)
            stab = group.pointwise_stabilizer([p])
            assert len(orbit) * stab.order() == group.order()


@given(subgroups_with_points())
@settings(max_examples=40, deadline=None)
def test_stabilizers_carry_their_path_levels(case):
    # stabilizers built outside the walk: of several points at once, point
    # by point, and by the lattice's recursion (in ascending order)
    degree, gens, points = case
    group = PermutationGroup(degree, gens)
    elements = mulclose(group.generators, degree)
    distinct = list(dict.fromkeys(points))
    nested = group
    for p in distinct:
        nested = nested.pointwise_stabilizer([p])
    lattice = StabilizerLattice(group)
    for stab, path in ((group.pointwise_stabilizer(points), distinct),
                       (nested, distinct),
                       (lattice.stabilizer(frozenset(points)), sorted(distinct))):
        levels = stab._cut_levels
        assert [level.point for level in levels] == path
        for i, level in enumerate(levels):
            fixing = {e for e in elements if all(e[y] == y for y in path[:i])}
            assert set(level.transversal) == {e[level.point] for e in fixing}
            for s, u in level.transversal.items():
                assert u.images in fixing and u(level.point) == s


def test_setwise_stabilizer_sym4():
    assert sym(4).setwise_stabilizer([0, 1]).order() == 4


def test_setwise_stabilizer_alt4():
    # frozen: enumeration over the 12 elements gives {e, (0 1)(2 3)}
    assert alt4().setwise_stabilizer([0, 1]).order() == 2


def test_setwise_stabilizer_whole_set():
    g = alt5()
    assert g.setwise_stabilizer(range(5)) == g


def test_setwise_contains_pointwise():
    for group in [sym(4), alt5()]:
        for lam in [[0, 1], [0, 2, 3]]:
            setwise = group.setwise_stabilizer(lam)
            pointwise = group.pointwise_stabilizer(lam)
            assert all(setwise.contains(g) for g in pointwise.generators)


def test_setwise_stabilizer_matches_bruteforce():
    for group in [alt5(), G(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")]:
        for lam in [[0, 1], [0, 2, 4], [1, 3]]:
            want = sum(
                1 for e in mulclose(group.generators, group.degree)
                if {e[p] for p in lam} == set(lam)
            )
            assert group.setwise_stabilizer(lam).order() == want


# -- induced action ----------------------------------------------------------------

def test_induced_sym4_on_three_points():
    image, kernel = sym(4).induced_action([0, 1, 2])
    assert image.degree == 3 and image.order() == 6 and kernel == 1


def test_induced_product_action():
    # Sym(2) x Sym(3) on 2+3 points
    g = G(5, "(1 2)", "(3 4)", "(3 4 5)")
    image, kernel = g.induced_action([0, 1])
    assert image.order() == 2 and kernel == 6


def test_induced_full_set():
    image, kernel = alt4().induced_action([0, 1, 2, 3])
    assert image.order() == 12 and kernel == 1


def test_induced_kernel_identity():
    for group in [sym(4), alt5()]:
        for lam in [[0, 1], [0, 1, 2]]:
            stab = group.setwise_stabilizer(lam)
            image, kernel = group.induced_action(lam)
            assert kernel * image.order() == stab.order()


# -- primitivity -------------------------------------------------------------------

def test_primitive_sym4():
    assert sym(4).is_primitive() == (True, None)


def test_imprimitive_d8():
    d8 = G(4, "(1 2 3 4)", "(2 4)")
    flag, blocks = d8.is_primitive()
    assert not flag
    assert blocks == [[0, 2], [1, 3]]  # frozen: pair-closure check


def test_imprimitive_c6():
    flag, blocks = G(6, "(1 2 3 4 5 6)").is_primitive()
    assert not flag


def test_primitive_requires_transitive():
    with pytest.raises(NotTransitive):
        G(4, "(1 2)").is_primitive()


def full_scan_is_primitive(group):
    """is_primitive as it was: a minimal block through {0, q} for every q."""
    n = group.degree
    for q in range(1, n):
        blocks = group._minimal_block(0, q)
        if 1 < len(blocks[0]) < n:
            return False, blocks
    return True, None


@st.composite
def transitive_groups(draw):
    """A transitive group preserving a random block system (blocks of size
    d, d | n, which may be trivial), relabeled at random: the block-cycling
    generator makes it transitive, the others act inside blocks and
    permute them."""
    n = draw(st.integers(2, 12))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    m = n // d

    def blockwise(block_perm, inner):
        return [block_perm[x // d] * d + inner[block_perm[x // d]][x % d] for x in range(n)]

    cycle = [(x + 1) % m for x in range(m)]
    gens = [blockwise(cycle, [[(y + (b == m - 1)) % d for y in range(d)] for b in range(m)])]
    for _ in range(draw(st.integers(0, 2))):
        block_perm = draw(st.permutations(range(m)))
        gens.append(blockwise(block_perm, [draw(st.permutations(range(d))) for _ in range(m)]))
    label = draw(st.permutations(range(n)))
    inverse = [label.index(y) for y in range(n)]
    return PermutationGroup(n, [Permutation([label[g[inverse[y]]] for y in range(n)])
                                for g in gens])


def relabeled(group, seed):
    label = list(range(group.degree))
    random.Random(seed).shuffle(label)
    inverse = [label.index(y) for y in range(group.degree)]
    return PermutationGroup(group.degree, [
        Permutation([label[g.images[inverse[y]]] for y in range(group.degree)])
        for g in group.generators])


@given(transitive_groups())
@settings(max_examples=150, deadline=None)
def test_primitive_scan_by_suborbit_matches_full_scan(group):
    assert group.is_transitive()
    assert group.is_primitive() == full_scan_is_primitive(group)


@pytest.mark.parametrize("seed", range(3))
def test_primitive_scan_by_suborbit_on_catalog_groups(seed):
    for entry in (cat.dihedral_polygon(12), cat.cyclic_regular(12), cat.product_action(3, 2)):
        group = relabeled(entry.group, seed)
        assert group.is_primitive() == full_scan_is_primitive(group)


# -- conjugator ----------------------------------------------------------------------

def test_conjugator_sym3():
    s3 = sym(3)
    g = parse_permutation("(1 2)", 3)
    h = parse_permutation("(1 3)", 3)
    x = s3.element_conjugator(g, h)
    assert x is not None and x.inverse() * g * x == h


def test_conjugator_distinct_classes_alt4():
    a4 = alt4()
    g = parse_permutation("(1 2 3)", 4)
    h = parse_permutation("(1 3 2)", 4)
    assert a4.element_conjugator(g, h) is None  # frozen: scanned all 12 candidates


def test_conjugator_same_element():
    g = parse_permutation("(1 2 3)", 4)
    assert alt4().element_conjugator(g, g) is not None


def test_conjugator_not_in_group():
    with pytest.raises(NotInGroup):
        alt4().element_conjugator(parse_permutation("(1 2)", 4),
                                  parse_permutation("(1 3)", 4))


def sift_sequence(chain, x):
    """The points b_i with x = u_k * ... * u_0, u_i the representative of
    b_i at level i: the order in which the conjugator search meets x."""
    out = []
    for i, p in enumerate(chain.base):
        out.append(x(p))
        x = x * chain.transversal(i)[x(p)].inverse()
    return out


def test_conjugator_matches_bruteforce():
    groups = [sym(4), alt4(), G(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")]
    for group in groups:
        elements = [Permutation(e) for e in mulclose(group.generators, group.degree)]
        for g, h in itertools.islice(itertools.product(elements, repeat=2), 400):
            fast = group.element_conjugator(g, h)
            brute = [x for x in elements if x.inverse() * g * x == h]
            assert (fast is None) == (not brute)
            if fast is not None:
                # the search returns the conjugator it meets first
                chain = group.rebased(conjugator_base(g)).chain
                assert fast == min(brute, key=lambda x: sift_sequence(chain, x))


# -- json io ---------------------------------------------------------------------------

def test_group_json_cycles():
    g = group_from_json({"degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]})
    assert g.order() == 24


def test_group_json_images():
    g = group_from_json({"degree": 3, "generator_images": [[1, 2, 0]]})
    assert g.order() == 3


def test_group_json_bad():
    with pytest.raises(ParseError):
        group_from_json({"degree": 3})
    with pytest.raises(ParseError):
        group_from_json({"degree": 3, "generators": ["(1 2)"],
                         "generator_images": [[1, 0, 2]]})
    with pytest.raises(ParseError):
        group_from_json({"generators": ["(1 2)"]})
    with pytest.raises(ParseError):
        group_from_json({"degree": 3, "generator_images": [[1, 1, 0]]})


def test_group_file_roundtrip(tmp_path):
    g = sym(4)
    path = tmp_path / "group.json"
    dump_group(g, path)
    loaded = load_group(path)
    assert loaded == g


def test_equal_groups_hash_equal():
    g = G(4, "(1 2)", "(1 2 3 4)")
    h = G(4, "(1 2 3 4)", "(1 2)")
    assert g.generators != h.generators
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1
    assert len({g, alt4()}) == 2


# -- property tests ------------------------------------------------------------------

small_groups = st.sampled_from([
    ("(1 2)", "(1 2 3 4)"),
    ("(1 2 3)", "(2 3 4)"),
    ("(1 2 3 4)", "(2 4)"),
    ("(1 2)(3 4)", "(1 3)(2 4)"),
    ("(1 2 3 4)",),
])


@given(small_groups, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_transporter_pointwise_correct(cycles, a, b):
    group = G(4, *cycles)
    g = group.transporter((a,), (b,))
    if g is None:
        assert b not in group.orbit(a)
    else:
        assert g(a) == b and group.contains(g)


@given(small_groups)
@settings(max_examples=20, deadline=None)
def test_sift_products_of_generators(cycles):
    group = G(4, *cycles)
    gens = group.generators
    if len(gens) >= 2:
        assert group.contains(gens[0] * gens[1])
        assert group.contains(gens[1] * gens[0] * gens[1].inverse())


@st.composite
def random_groups(draw):
    degree = draw(st.integers(1, 8))
    perms = st.permutations(range(degree)).map(Permutation)
    return PermutationGroup(degree, draw(st.lists(perms, max_size=3)))


@given(random_groups())
@settings(max_examples=100, deadline=None)
def test_orbits_match_bruteforce(group):
    elements = mulclose(group.generators, group.degree)
    orbits = group.orbits()
    minima = [alpha for alpha, _ in orbits]
    assert minima == sorted(minima)
    assert sorted(p for _, orbit in orbits for p in orbit) == list(range(group.degree))
    for alpha, orbit in orbits:
        assert alpha == min(orbit)
        assert orbit == {e[alpha] for e in elements}
        assert all(g(p) in orbit for g in group.generators for p in orbit)
        for p in orbit:
            assert group.orbit(p) == orbit


def test_orbits_under_partitions_in_domain_order():
    g = G(6, "(1 2 3)", "(4 5)")
    gens = [p.images for p in g.generators]
    pairs = list(itertools.product(range(6), repeat=2))
    for domain in (pairs, pairs[::-1]):
        orbits = list(orbits_under(domain, gens, tuple_image))
        firsts = [first for first, _ in orbits]
        assert firsts == sorted(firsts, key=domain.index)
        assert all(first == min(orbit, key=domain.index) for first, orbit in orbits)
        assert sorted(t for _, orbit in orbits for t in orbit) == pairs
        # point orbits A = {0,1,2}, B = {3,4}, C = {5}: three orbits on A x A,
        # two on B x B, one on each of the seven other products
        assert len(orbits) == 3 + 2 + 7


def brute_tuple_orbits(group, k):
    """G-orbits on k-tuples closed under every element of G, by minimum."""
    elements = mulclose(group.generators, group.degree)
    orbits, seen = [], set()
    for t in itertools.product(range(group.degree), repeat=k):
        if t not in seen:
            orbit = {tuple(e[x] for x in t) for e in elements}
            seen |= orbit
            orbits.append(orbit)
    return orbits


@example((5, [], []), 3)  # the trivial group: one orbit per tuple
@example((1, [], []), 1)
@example((1, [], []), 3)
@given(subgroups_with_points(), st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_tuple_orbits_against_element_closure(case, k):
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    tuples = list(itertools.product(range(degree), repeat=k))
    # code x_1 n^(k-1) + ... + x_k is the tuple's place in lexicographic order
    orbits = [{tuples[c] for c in orbit} for orbit in tuple_orbits(group, k)]
    assert sum(map(len, orbits)) == len(tuples)
    assert set().union(*orbits) == set(tuples)
    minima = [min(orbit) for orbit in orbits]
    assert minima == sorted(minima)
    assert orbits == brute_tuple_orbits(group, k)
