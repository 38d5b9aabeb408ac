"""The non-binarity battery, closures, Frobenius and subset criteria."""

import dataclasses
import itertools
import json
import math
import pathlib
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relkit import catalog as cat
from relkit.chain import StabilizerChain
from relkit.closure import k_closure
from relkit.errors import (
    AbelianInput,
    DegreeTooLarge,
    GroupTooLarge,
    InternalInconsistency,
    NotFrobenius,
    NotNormal,
    NotTransitive,
    PrimeDoesNotDivide,
)
from relkit.group import PermutationGroup
from relkit.oracle import mulclose
from relkit import nonbinary as nb
from relkit.nonbinary import (
    check_beautiful,
    diagonal_patch_witness,
    frobenius_test,
    holomorph_like_action,
    run_battery,
)
from relkit import perm
from relkit.perm import Permutation, parse_permutation
from relkit.relcomp import relational_complexity
from relkit.structures import automorphism_group, canonical_structure


GOLDEN = pathlib.Path(__file__).with_name("golden")


def G(degree, *cycles):
    return PermutationGroup(degree, [parse_permutation(s, degree) for s in cycles])


def counting(monkeypatch, cls, name):
    """Count calls of cls.name from here on; returns a one-item list."""
    calls = [0]
    original = getattr(cls, name)

    def wrapped(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapped)
    return calls


def _counting_passes(monkeypatch, group=None):
    """Count passes over group elements from here on: calls of elements()
    or element_images() on group itself, or on any group when group is
    None."""
    calls = [0]
    for name in ("elements", "element_images"):
        original = getattr(PermutationGroup, name)

        def wrapped(self, original=original):
            if group is None or self is group:
                calls[0] += 1
            return original(self)

        monkeypatch.setattr(PermutationGroup, name, wrapped)
    return calls


def _counting_walks(monkeypatch, *modules):
    """Count the cycle walks made through fixed_count_and_order as the
    given modules see it, from here on: the census and certificate
    checks in nonbinary, Permutation.order in perm."""
    calls = [0]
    original = perm.fixed_count_and_order

    def wrapped(images):
        calls[0] += 1
        return original(images)

    for module in modules:
        monkeypatch.setattr(module, "fixed_count_and_order", wrapped)
    return calls


# -- test 1 -------------------------------------------------------------------

def test1_flags_alt5_at_four(monkeypatch):
    # the search counts by the fixed-point sum, the certificate by tuples
    by_tuples = counting(monkeypatch, nb, "_orbit_count_tuples")
    out = nb.test1_character_bound(cat.alternating_natural(5).group)
    assert out.not_binary
    assert out.certificate.ell == 4
    assert out.certificate.r_ell == 2 and out.certificate.r_2 == 1
    assert by_tuples[0] == 0
    assert out.verify(cat.alternating_natural(5).group)
    assert by_tuples[0] == 2  # r_2 and r_4


def test1_inconclusive_on_sym5():
    out = nb.test1_character_bound(cat.symmetric_natural(5).group)
    assert not out.not_binary
    assert all(v == 1 for v in out.details["counts"].values())


def test1_inconclusive_on_c5():
    out = nb.test1_character_bound(cat.cyclic_regular(5).group, ell_max=4)
    assert not out.not_binary
    assert out.details["counts"][2] == 4  # frozen: direct count


def test1_enumerates_the_group_once(monkeypatch):
    # every ell comes from one histogram of fixed-point counts, counted
    # without walking any cycles, and from no tuple closure
    g = cat.psl2_projective(11).group
    passes = _counting_passes(monkeypatch)
    walks = _counting_walks(monkeypatch, nb, perm)
    by_tuples = counting(monkeypatch, nb, "_orbit_count_tuples")
    out = nb.test1_character_bound(g)
    assert passes[0] == 1
    assert walks[0] == 0
    assert by_tuples[0] == 0
    assert out.details["counts"] == {2: 1, 3: 2}  # 2-transitive, two triple orbits


def test1_requires_transitive():
    with pytest.raises(NotTransitive):
        nb.test1_character_bound(cat.intransitive_join(3).group)


def test1_fixed_point_sum_alone_past_the_tuple_budget(monkeypatch):
    # (30)_4 distinct 4-tuples exceed the budget, which a group within
    # ELEMENT_ENUM_CAP never reads: every ell is a fixed-point sum
    by_tuples = counting(monkeypatch, nb, "_orbit_count_tuples")
    out = nb.test1_character_bound(cat.cyclic_regular(30).group)
    assert out.details["counts"] == {2: 29, 3: 812, 4: 21_924, 5: 570_024}  # (30)_ell / 30
    assert by_tuples[0] == 0
    assert not out.not_binary


def check_orbit_counts(group, ell_max):
    """Test 1's two routes to r_ell agree for ell = 0, ..., ell_max within
    TEST1_TUPLE_BUDGET.  At ell = 0 the fixed-point sum is |G| itself, so
    a census that loses an element fails even where that element fixes
    no point."""
    fixed = nb._element_census(group, ())[0]
    for ell in range(ell_max + 1):
        if math.perm(group.degree, ell) <= nb.TEST1_TUPLE_BUDGET:
            by_elements = nb._orbit_count_fixed(fixed, group.order(), ell)
            assert by_elements == nb._orbit_count_tuples(group, ell), ell


def test_orbit_count_routes_agree_on_catalog_entries():
    # every ell test 1 reads in `relkit tests --all`, and those past its
    # first NotBinary
    checked = 0
    for entry in cat.default_entries():
        group = entry.group
        if group.is_transitive() and group.order() <= nb.ELEMENT_ENUM_CAP:
            check_orbit_counts(group, min(4, group.degree))
            checked += 1
    assert checked >= 40


def test1_tuples_alone_past_the_enumeration_cap(monkeypatch):
    g = cat.symmetric_natural(9).group  # order 362 880 > ELEMENT_ENUM_CAP
    passes = _counting_passes(monkeypatch)
    out = nb.test1_character_bound(g)
    assert out.details["counts"] == {ell: 1 for ell in range(2, 6)}
    assert passes[0] == 0
    assert not out.not_binary


def test1_truncates_where_neither_route_is_affordable():
    # Sym(30), its order given so that no chain is built
    gens = [Permutation.from_cycles([[0, 1]], 30), Permutation.from_cycles([list(range(30))], 30)]
    out = nb.test1_character_bound(PermutationGroup(30, gens, _order=math.factorial(30)))
    assert not out.not_binary
    assert out.details == {"counts": {2: 1, 3: 1}, "truncated_at": 4}


def test1_unaffordable_pairs_are_not_applicable():
    # AGL(1, 641): order 641 * 640 and (641)_2 distinct pairs, both past their caps
    p = 641
    g = PermutationGroup(p, [Permutation((x + 1) % p for x in range(p)),
                             Permutation(3 * x % p for x in range(p))])
    assert g.order() == p * (p - 1)
    with pytest.raises(GroupTooLarge):
        nb.test1_character_bound(g)
    [out] = run_battery(g, tests=["1"])
    assert not out.not_binary
    assert out.details["not_applicable"].startswith("GroupTooLarge: ")


# -- test 2 and closures ---------------------------------------------------------

def test2_flags_alt4():
    g = cat.alternating_natural(4).group
    out = nb.test2_strongly_non_k_ary(g)
    assert out.not_binary
    assert not g.contains(out.certificate.element)
    assert out.verify(g)


def test2_inconclusive_on_2closed():
    out = nb.test2_strongly_non_k_ary(cat.affine_orthogonal(3, 2).group)
    assert not out.not_binary
    out = nb.test2_strongly_non_k_ary(cat.symmetric_natural(4).group)
    assert not out.not_binary


def test_closure_contains_group_and_idempotent():
    for entry in [cat.cyclic_regular(6), cat.dihedral_polygon(5), cat.agl1(5)]:
        closure = k_closure(entry.group, 2)
        assert all(closure.contains(g) for g in entry.group.generators)
        assert k_closure(closure, 2) == closure


def test_closure_of_2transitive_is_symmetric():
    for n in (4, 5, 6):
        closure = k_closure(cat.alternating_natural(n).group, 2)
        assert closure.order() == math.factorial(n)


def test_closure_c4_is_c4():
    # the difference-1 orbital of C4 is the directed square, whose
    # automorphism group is C4 itself (confirmed by a literal scan of
    # Sym(4) against the orbit coloring)
    c4 = cat.cyclic_regular(4).group
    assert k_closure(c4, 2) == c4


def test_closure_matches_orbit_structure_aut():
    for entry in [cat.cyclic_regular(4), cat.dihedral_polygon(4),
                  cat.alternating_natural(4), cat.product_action(2, 3)]:
        closure = k_closure(entry.group, 2)
        aut = automorphism_group(canonical_structure(entry.group, 2))
        assert closure == aut


def test_3closure_of_alt4():
    # odd permutations swap the two Alt(4)-orbits of distinct triples
    a4 = cat.alternating_natural(4).group
    assert k_closure(a4, 3) == a4


def test_closure_degree_cap():
    with pytest.raises(DegreeTooLarge):
        k_closure(cat.k_subsets_action("Sym", 8, 4).group, 2)


# -- test 3 ----------------------------------------------------------------------

def test3_flags_agl15():
    g = cat.agl1(5).group
    out = nb.test3_triples(g)
    assert out.not_binary
    assert out.verify(g)
    rc, _ = relational_complexity(g)
    assert rc > 2


def test3_inconclusive_on_binary():
    assert not nb.test3_triples(cat.symmetric_natural(5).group).not_binary
    assert not nb.test3_triples(cat.dihedral_polygon(7).group).not_binary


def test3_inconclusive_on_3transitive():
    # 3-transitivity makes all distinct triple pairs equivalent, so the
    # triple scan cannot distinguish anything even though Alt(5) is far
    # from binary; test 1 and test 4 cover this case instead
    assert not nb.test3_triples(cat.alternating_natural(5).group).not_binary


def test3_flags_subset_action():
    out = nb.test3_triples(cat.k_subsets_action("Sym", 6, 2).group)
    assert out.not_binary


# Transitive groups of degree <= 7 to draw generators from; random
# permutations alone mostly generate Sym(n) or Alt(n), where test 3 finds
# nothing.
SMALL_TRANSITIVE = [
    cat.cyclic_regular(6).group,
    cat.dihedral_polygon(6).group,
    cat.agl1(5).group,
    cat.agl1(7).group,
    cat.psl2_projective(5).group,
    cat.product_action(2, 2).group,
    cat.alternating_natural(6).group,
]


@st.composite
def small_transitive_groups(draw):
    if draw(st.booleans()):
        degree = draw(st.integers(3, 7))
        pool = st.permutations(range(degree)).map(Permutation)
    else:
        group = draw(st.sampled_from(SMALL_TRANSITIVE))
        degree = group.degree
        pool = st.sampled_from(mulclose(group.generators, degree)).map(Permutation)
    group = PermutationGroup(degree, draw(st.lists(pool, min_size=1, max_size=3)))
    assume(group.is_transitive())
    return group


def brute_test3_pairs(group):
    """Every (b, c, c') with (0, b, c), (0, b, c') 2-subtuple complete but
    not equivalent, by a scan of the elements."""
    elements = mulclose(group.generators, group.degree)

    def orbit_map(fixed):
        """Each point's images under the elements that fix every point of fixed."""
        stabilizer = [e for e in elements if all(e[x] == x for x in fixed)]
        return [{e[c] for e in stabilizer} for c in range(group.degree)]

    at_0 = orbit_map([0])
    pairs = set()
    for b in range(1, group.degree):
        at_b, at_0b = orbit_map([b]), orbit_map([0, b])
        pairs |= {
            (b, c, c2)
            for c in range(group.degree) if c not in (0, b)
            for c2 in (at_0[c] & at_b[c]) - at_0b[c]
        }
    return pairs


# Sym(4) on 2-subsets, labelled so that the stabilizer of 0 fixes 1: the
# first beta tried is redundant and the witness needs the second
SYM4_ON_PAIRS = PermutationGroup(6, [Permutation((1, 0, 4, 5, 2, 3)),
                                     Permutation((5, 2, 4, 0, 1, 3))])


@given(small_transitive_groups())
@example(cat.agl1(5).group)
@example(cat.symmetric_natural(5).group)
@example(SYM4_ON_PAIRS)
@settings(max_examples=150, deadline=None)
def test3_matches_bruteforce(group):
    out = nb.test3_triples(group)
    pairs = brute_test3_pairs(group)
    assert out.not_binary == bool(pairs)
    if out.not_binary:
        I, J = out.certificate.pair.I, out.certificate.pair.J
        assert I[:2] == J[:2] and I[0] == 0
        assert (I[1], I[2], J[2]) in pairs
        assert out.verify(group)


def test_witness_certificate_rejects_equivalent_pairs(monkeypatch):
    g = cat.agl1(5).group
    cert = nb.test3_triples(g).certificate
    full_searches = []
    original = PermutationGroup.transporter

    def transporter(self, src, dst):
        if len(tuple(src)) == 3:
            full_searches.append(src)
        return original(self, src, dst)

    monkeypatch.setattr(PermutationGroup, "transporter", transporter)
    assert cert.verify(g)
    assert len(full_searches) == 1  # the non-equivalence is checked once
    marked = dataclasses.replace(cert.pair, equivalent=True)
    assert not nb.WitnessPairCertificate(marked).verify(g)
    # J a G-image of I: complete on every subset, with the same element
    x = g.generators[0]
    image = dataclasses.replace(
        cert.pair, J=x.apply_tuple(cert.pair.I),
        transporters={subset: x for subset in cert.pair.transporters},
    )
    assert not nb.WitnessPairCertificate(image).verify(g)
    assert not nb.WitnessPairCertificate(
        dataclasses.replace(image, equivalent=True)).verify(g)


# -- test 4 -----------------------------------------------------------------------

def test4_flags_alt6():
    g = cat.alternating_natural(6).group
    out = nb.test4_suborbits(g)
    assert out.not_binary
    assert out.details["suborbit_rc"] == 4
    assert out.verify(g)


def test4_inconclusive_on_regular():
    assert not nb.test4_suborbits(cat.cyclic_regular(7).group).not_binary


def test4_flags_subset_action():
    g = cat.k_subsets_action("Sym", 6, 2).group
    out = nb.test4_suborbits(g)
    assert out.not_binary
    rc, _ = relational_complexity(g)
    assert rc == 3


# -- the element census ------------------------------------------------------


def brute_census(group):
    """The census by brute force: every element as a Permutation, its
    fixed points listed and its order the lcm of its cycle type."""
    elements = list(group.elements())
    fixed = Counter(len(g.fixed_points()) for g in elements)
    by_prime = {}
    for q in nb._prime_divisors(group.order()):
        kept = [g for g in elements if math.lcm(*g.cycle_type()) == q]
        most = max((len(g.fixed_points()) for g in kept), default=0)
        by_prime[q] = ([g.images for g in kept], most)
    return fixed, by_prime


def check_census(group):
    fixed, by_prime = brute_census(group)
    assert nb._element_census(group, nb._prime_divisors(group.order())) == (fixed, by_prime)
    assert nb._element_census(group, ()) == (fixed, {})  # test 1's census
    assert list(group.element_images()) == [g.images for g in group.elements()]


@st.composite
def small_groups(draw):
    degree = draw(st.integers(1, 7))
    pool = st.permutations(range(degree)).map(Permutation)
    return PermutationGroup(degree, draw(st.lists(pool, min_size=1, max_size=3)))


@given(small_groups())
@settings(max_examples=150, deadline=None)
def test_census_matches_bruteforce(group):
    check_census(group)
    check_orbit_counts(group, min(5, group.degree))


def test_census_matches_bruteforce_on_catalog_entries():
    checked = 0
    for entry in cat.default_entries():
        if entry.group.order() <= 5_000:
            check_census(entry.group)
            checked += 1
    assert checked >= 50


# -- test 5 ------------------------------------------------------------------------

def affine_3_2(matrices):
    """The translations of F_3^2 and the given linear maps, on 9 points."""
    def idx(x, y):
        return x * 3 + y
    gens = [
        Permutation(idx((x + 1) % 3, y) for x in range(3) for y in range(3)),
        Permutation(idx(x, (y + 1) % 3) for x in range(3) for y in range(3)),
    ]
    for m in matrices:
        gens.append(Permutation(
            idx((m[0][0] * x + m[1][0] * y) % 3, (m[0][1] * x + m[1][1] * y) % 3)
            for x in range(3) for y in range(3)
        ))
    return PermutationGroup(9, gens)


def agl2_3():
    """AGL_2(3) on 9 points: the divisibility rule fires at p = 3."""
    return affine_3_2([[[1, 1], [0, 1]], [[0, 2], [1, 0]], [[2, 0], [0, 1]]])


def test5_fires_on_agl23():
    g = agl2_3()
    assert g.order() == 432
    out = nb.test5_special_primes(g, 3)
    assert out.not_binary
    assert out.certificate.rule == "stabilizer_divisibility"
    assert out.verify(g)
    rc, _ = relational_complexity(g)
    assert rc > 2  # soundness


def test5_prime_must_divide():
    with pytest.raises(PrimeDoesNotDivide):
        nb.test5_special_primes(cat.cyclic_regular(5).group, 3)


def _test5_prime_by_prime(group):
    outcome = nb.TestOutcome("test5", nb.INCONCLUSIVE, None, {"reason": "trivial group"})
    for p in nb._prime_divisors(group.order()):
        outcome = nb.test5_special_primes(group, p)
        if outcome.not_binary:
            break
    return outcome


@pytest.mark.parametrize("group", [
    agl2_3(), cat.psl2_projective(7).group, cat.symmetric_natural(5).group,
    cat.cyclic_regular(7).group, PermutationGroup(1, []),
], ids=["agl23", "psl27", "sym5", "c7", "trivial"])
def test5_all_primes_matches_prime_by_prime(group):
    assert nb.test5_special_primes(group).to_json() == _test5_prime_by_prime(group).to_json()


def test5_enumerates_the_group_once(monkeypatch):
    # psl2(11) has order 660 = 2^2 * 3 * 5 * 11: four primes, one pass
    g = cat.psl2_projective(11).group
    passes = _counting_passes(monkeypatch)
    walks = _counting_walks(monkeypatch, nb)
    out = nb.test5_special_primes(g)
    assert passes[0] == 1
    assert walks[0] == 660  # one cycle walk per element
    assert out.details == {"p": 11}


@pytest.mark.parametrize("group", [agl2_3(), cat.product_action(3, 3).group],
                         ids=["agl23", "product33"])
def test5_sampled_path(group, monkeypatch):
    # above the cap test 5 samples its p-elements; a cap of 100 sends
    # these groups of order 432 and 1296 down that path.  It closes no
    # conjugacy class: rule 2, the only reader of classes, is off on a
    # sample, and nothing bounds a class by the sample's size
    monkeypatch.setattr(nb, "TEST5_EXHAUSTIVE_CAP", 100)
    conjugations = counting(monkeypatch, nb, "_conjugate")
    out = nb.test5_special_primes(group)
    assert out.details["sampled"]
    assert conjugations[0] == 0
    assert out.not_binary and out.certificate.rule == "stabilizer_divisibility"
    assert out.verify(group)
    assert nb.test5_special_primes(group).to_json() == out.to_json()


def test5_sampled_path_skips_fixed_point_drop(monkeypatch):
    # a sample cannot certify fixed-point maximality; on Alt(6) the full
    # scan certifies p = 2 by that rule
    alt6 = cat.alternating_natural(6).group
    assert nb.test5_special_primes(alt6, 2).certificate.rule == "fixed_point_drop"
    monkeypatch.setattr(nb, "TEST5_EXHAUSTIVE_CAP", 100)
    for group in (alt6, agl2_3(), cat.product_action(3, 3).group):
        for p in nb._prime_divisors(group.order()):
            out = nb.test5_special_primes(group, p)
            assert out.details["sampled"]
            assert out.certificate is None or out.certificate.rule != "fixed_point_drop"


def test5_cyclic_sylow_inconclusive():
    out = nb.test5_special_primes(cat.cyclic_regular(5).group, 5)
    assert not out.not_binary


def test5_silent_on_binary_entries():
    for entry in [cat.symmetric_natural(5), cat.dihedral_polygon(5),
                  cat.affine_orthogonal(3, 2), cat.product_action(2, 2)]:
        order = entry.group.order()
        for p in (2, 3, 5, 7):
            if order % p:
                continue
            assert not nb.test5_special_primes(entry.group, p).not_binary, (entry.label, p)


def test5_wreath_consistent_with_oracle():
    # imprimitive Sym(3) wr Sym(3) on 9 points: whatever the verdict, it
    # must agree with one-sidedness (NotBinary implies RC > 2)
    blocks = ["(1 2 3)", "(1 2)", "(1 4)(2 5)(3 6)", "(1 4 7)(2 5 8)(3 6 9)"]
    g = G(9, *blocks)
    assert g.order() == 1296
    out = nb.test5_special_primes(g, 3)
    if out.not_binary:
        rc, _ = relational_complexity(g)
        assert rc > 2


@pytest.mark.parametrize("entry, rule", [
    (("alternating_natural", "6"), "fixed_point_drop"),
    (("psl2", "13"), "stabilizer_divisibility"),
], ids=["alt6", "psl2_13"])
def test5_tests_all_output_is_pinned(entry, rule):
    # one catalog entry for each test 5 rule; tests/test_golden_catalog.py
    # pins `tests --all --format=json` on every entry byte for byte
    label = cat.build_entry(*entry).label
    lines = (GOLDEN / "catalog.tests_all.jsonl").read_text().splitlines()
    record = next(r for r in map(json.loads, lines) if r["entry"] == label)
    test5 = next(o for o in record["output"] if o["test"] == "test5")
    assert test5["verdict"] == "NotBinary"
    assert test5["certificate"]["rule"] == rule


# -- test 6 ------------------------------------------------------------------------

def test6_flags_sharply_2transitive():
    g = cat.agl1(5).group
    out = nb.test6_trivial_two_point(g)
    assert out.not_binary
    assert out.verify(g)


def test6_inconclusive_on_sym5():
    out = nb.test6_trivial_two_point(cat.symmetric_natural(5).group, trials=10**5)
    assert not out.not_binary


def test6_inconclusive_on_regular():
    out = nb.test6_trivial_two_point(cat.cyclic_regular(7).group)
    assert not out.not_binary
    assert "trivial point stabilizer" in out.details.get("reason", "")


def test6_builds_no_chain_per_pair(monkeypatch):
    # two-point stabilizers of PSL2(13) have order 6, so all 156 pairs are
    # tried and rejected by orbit length, not by one chain each
    g = cat.psl2_projective(13).group
    builds = counting(monkeypatch, StabilizerChain, "__init__")
    out = nb.test6_trivial_two_point(g)
    assert not out.not_binary
    assert out.details["pairs_tried"] == 13 * 12
    assert builds[0] <= g.degree


def test6_deterministic():
    g = cat.agl1(7).group
    a = nb.test6_trivial_two_point(g, trials=1000, seed=7).to_json()
    b = nb.test6_trivial_two_point(g, trials=1000, seed=7).to_json()
    assert a == b


# -- frobenius ------------------------------------------------------------------------

def test_frobenius_flags_agl1():
    for p, complement in [(5, 4), (7, 6)]:
        out = frobenius_test(cat.agl1(p).group)
        assert out.not_binary
        assert out.details["complement_order"] == complement
        assert out.verify(cat.agl1(p).group)


def test_frobenius_dihedral_inconclusive():
    out = frobenius_test(cat.dihedral_polygon(7).group)
    assert not out.not_binary
    assert out.details["complement_order"] == 2


def test_frobenius_rejects_non_frobenius():
    with pytest.raises(NotFrobenius):
        frobenius_test(cat.symmetric_natural(4).group)
    with pytest.raises(NotFrobenius):
        frobenius_test(cat.cyclic_regular(5).group)  # regular: trivial stabilizers


def test_frobenius_cyclic_kernel_path():
    # F = C7 : C3 inside AGL1(7); kernel cyclic, complement has order 3 > 2
    g7 = cat.agl1(7).group
    t = parse_permutation("(1 2 3 4 5 6 7)", 7)
    s = Permutation((2 * x) % 7 for x in range(7))
    F = PermutationGroup(7, [t, s])
    assert F.order() == 21
    out = frobenius_test(g7, normal_subgroup=F)
    assert out.not_binary
    assert out.details["path"] == "cyclic_kernel"
    assert out.verify(g7)


def test_frobenius_counting_path():
    # F = 3^2:Q8 is normal in AGL2(3) and Frobenius on 9 points with a
    # non-cyclic kernel; |AGL2(3)_{a,b}| = |GL2(3)| / 8 = 6 for every pair
    g = agl2_3()
    F = affine_3_2([[[0, 1], [2, 0]], [[1, 1], [1, 2]]])
    assert F.order() == 72
    out = frobenius_test(g, normal_subgroup=F)
    assert out.not_binary
    assert out.details == {"path": "counting", "complement_order": 8, "orbit_size": 9,
                           "min_two_point_stabilizer": 6, "pigeonhole": 6}
    # no certificate: the verdict cannot be re-checked
    assert not out.verify(g)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_frobenius_kernel_generator_matches_a_scan_of_fixed_point_free_elements(p, monkeypatch):
    # C_p : C_d inside AGL1(p) for every d | p - 1, d > 1: the kernel
    # generator, the first element of order p, must be the first of order
    # p among the kernel's elements, the identity and the fixed-point-free
    group = cat.agl1(p).group
    root = cat._primitive_root(p)
    t = Permutation((x + 1) % p for x in range(p))
    seen = []
    original = nb._conjugation_exponent
    monkeypatch.setattr(nb, "_conjugation_exponent",
                        lambda gen, x, n: seen.append(gen) or original(gen, x, n))
    for d in (d for d in range(2, p) if (p - 1) % d == 0):
        s = Permutation(pow(root, (p - 1) // d, p) * x % p for x in range(p))
        F = PermutationGroup(p, [t, s])
        assert F.order() == p * d
        seen.clear()
        out = frobenius_test(group, normal_subgroup=F)
        induced, _ = F.induced_action(range(p))
        brute = next(g for g in induced.elements()
                     if (g.is_identity() or not g.fixed_points()) and g.order() == p)
        # a complement of order 2 has no element of order > 2 to conjugate by
        assert seen == ([brute] if d > 2 else [])
        assert out.not_binary == (d > 2)
        if d > 2:
            assert out.details["path"] == "cyclic_kernel" and out.verify(group)


def test_frobenius_subgroup_requires_normal():
    g = cat.symmetric_natural(4).group
    s3 = PermutationGroup(4, [parse_permutation("(1 2)", 4),
                              parse_permutation("(1 2 3)", 4)])
    with pytest.raises(NotNormal):
        frobenius_test(g, normal_subgroup=s3)


# -- beautiful subsets ------------------------------------------------------------------

def test_beautiful_full_set_psl27():
    g = cat.psl2_projective(7).group
    out = check_beautiful(g, g, range(8))
    assert out.not_binary
    assert out.certificate.induced_order == 168
    assert out.verify(g)


def test_beautiful_rejects_sym_alt():
    g = cat.symmetric_natural(5).group
    assert not check_beautiful(g, g, range(5)).not_binary
    a = cat.alternating_natural(6).group
    assert not check_beautiful(a, a, range(6)).not_binary


def test_beautiful_small_subset_inconclusive():
    g = cat.symmetric_natural(6).group
    out = check_beautiful(g, g, [0, 1, 2])
    assert not out.not_binary  # induced Sym(3) contains Alt(3)


def test_beautiful_not_normal():
    g = cat.symmetric_natural(4).group
    c3 = PermutationGroup(4, [parse_permutation("(1 2 3)", 4)])
    with pytest.raises(NotNormal):
        check_beautiful(g, c3, [0, 1, 2])


# -- diagonal-type patch -----------------------------------------------------------------

def test_diagonal_alt4():
    out = diagonal_patch_witness(cat.alternating_natural(4).group)
    assert out.not_binary
    action, _ = holomorph_like_action(cat.alternating_natural(4).group)
    assert out.verify(action)


def test_diagonal_sym3_binary():
    # the 6-point action for Sym(3) is binary: conjugation composed with
    # inversion maps ab to ba while fixing 1, a, b, for every pair
    out = diagonal_patch_witness(cat.symmetric_natural(3).group)
    assert not out.not_binary
    action, _ = holomorph_like_action(cat.symmetric_natural(3).group)
    rc, _ = relational_complexity(action)
    assert rc == 2


def test_diagonal_rejects_abelian():
    with pytest.raises(AbelianInput):
        diagonal_patch_witness(cat.cyclic_regular(4).group)


def test_diagonal_without_a_candidate_pair_is_internal(monkeypatch):
    # nonabelian T always has a pair; none shows only if every element
    # claims order 2, and that is a bug, not an input error
    monkeypatch.setattr(Permutation, "order", lambda self: 2)
    with pytest.raises(InternalInconsistency):
        diagonal_patch_witness(cat.alternating_natural(4).group)


def test_diagonal_stabilizer_shape():
    T = cat.symmetric_natural(3).group
    action, elements = holomorph_like_action(T)
    assert action.degree == 6
    assert action.order() == 72
    stab = action.pointwise_stabilizer([0])
    assert stab.order() == 12  # Inn(S3) x <inversion>


# -- battery ---------------------------------------------------------------------------------

def test_battery_stops_at_first():
    outcomes = run_battery(cat.alternating_natural(5).group, trials=1000)
    assert outcomes[-1].not_binary
    assert len(outcomes) == 1  # test 1 already fires


def test_battery_all_inconclusive_on_binary():
    outcomes = run_battery(cat.symmetric_natural(5).group,
                           stop_at_first=False, trials=5000)
    assert len(outcomes) == 7
    assert not any(o.not_binary for o in outcomes)


@pytest.mark.parametrize("builder", [
    lambda: cat.symmetric_natural(6).group,
    lambda: cat.psl2_projective(7).group,
    lambda: cat.agl1(7).group,
], ids=["sym6", "psl2_7", "agl1_7"])
def test_battery_tests_1_and_5_share_one_element_pass(monkeypatch, builder):
    group = builder()
    alone = [nb.test1_character_bound(group, 4).to_json(),
             nb.test5_special_primes(group).to_json()]
    passes = _counting_passes(monkeypatch, group)
    walks = _counting_walks(monkeypatch, nb)
    outcomes = run_battery(group, tests=("1", "5"), stop_at_first=False)
    assert passes[0] == 1
    assert walks[0] == group.order()  # one cycle walk per element
    assert [o.to_json() for o in outcomes] == alone
    # each test on its own still makes its own pass
    nb.test1_character_bound(group, 4)
    nb.test5_special_primes(group, 2)
    assert passes[0] == 3


@pytest.mark.parametrize("builder, cap, passes", [
    (lambda: cat.psl2_projective(7).group, nb.TEST5_EXHAUSTIVE_CAP, 1),
    (lambda: cat.psl2_projective(7).group, 100, 1),
    (lambda: cat.intransitive_join(3).group, nb.TEST5_EXHAUSTIVE_CAP, 0),
], ids=["scanned", "sampled", "intransitive"])
def test_full_battery_makes_at_most_one_element_pass(monkeypatch, builder, cap, passes):
    # under a cap of 100, psl2(7) (order 168) lies between the test 5 cap
    # and ELEMENT_ENUM_CAP: test 5 samples, and test 1 alone reads the pass
    monkeypatch.setattr(nb, "TEST5_EXHAUSTIVE_CAP", cap)
    group = builder()
    calls = _counting_passes(monkeypatch, group)
    outcomes = run_battery(group, stop_at_first=False, trials=100)
    assert len(outcomes) == len(nb.BATTERY_ORDER)
    assert calls[0] == passes
    assert outcomes[4].details.get("sampled", False) == (cap == 100)


def test_battery_stopping_at_first_keeps_separate_passes(monkeypatch):
    # Alt(5) stops at test 1, so test 1's pass must not also sort elements
    # by prime order for a test 5 that never runs
    group = cat.alternating_natural(5).group
    passes = _counting_passes(monkeypatch, group)
    walks = _counting_walks(monkeypatch, nb, perm)
    outcomes = run_battery(group, tests=("1", "5"))
    assert len(outcomes) == 1 and outcomes[0].not_binary
    assert passes[0] == 1
    assert walks[0] == 0
    # on a binary group both tests run, each with its own pass
    group = cat.symmetric_natural(6).group
    passes = _counting_passes(monkeypatch, group)
    outcomes = run_battery(group, tests=("1", "5"))
    assert len(outcomes) == 2
    assert passes[0] == 2


def test_battery_handles_inapplicable():
    # intransitive input: transitivity-gated tests report the reason;
    # test 2 still runs (closures make sense intransitively) and may
    # legitimately fire since join(3) has RC 3
    group = cat.intransitive_join(3).group
    outcomes = run_battery(group, stop_at_first=False, trials=100)
    gated = [o for o in outcomes if "not_applicable" in o.details]
    assert gated and all(not o.not_binary for o in gated)
    for o in outcomes:
        if o.not_binary:
            assert o.verify(group)
            rc, _ = relational_complexity(group)
            assert rc > 2


def test_battery_witness_pairs_need_every_recorded_transporter():
    checked = 0
    for entry in cat.default_entries():
        group = entry.group
        if group.degree > 15:
            continue
        for outcome in run_battery(group, stop_at_first=False):
            pair = getattr(outcome.certificate, "pair", None)
            if not outcome.not_binary or pair is None:
                continue
            assert outcome.verify(group)
            for subset in pair.transporters:
                rest = {s: g for s, g in pair.transporters.items() if s != subset}
                cut = dataclasses.replace(pair, transporters=rest)
                certificate = dataclasses.replace(outcome.certificate, pair=cut)
                assert not certificate.verify(group), (entry.label, outcome.test_name, subset)
            checked += 1
    assert checked


def test_complete_pair_refuses_equivalent_tuples():
    I, J = (0, 1, 2), (1, 0, 2)
    # both groups are 2-transitive; only Sym(4) maps I onto J
    assert nb._complete_pair(cat.symmetric_natural(4).group, I, J, 2) is None
    alt4 = cat.alternating_natural(4).group
    pair = nb._complete_pair(alt4, I, J, 2)
    assert pair is not None and nb.WitnessPairCertificate(pair).verify(alt4)


# -- orbital colorings -------------------------------------------------------------------

def test_orbital_coloring_invariant():
    from relkit.closure import OrbitalColoring
    for entry in [cat.dihedral_polygon(5), cat.agl1(5), cat.product_action(2, 2)]:
        n = entry.group.degree
        classes = OrbitalColoring(entry.group, 2).classes
        # the classes partition Omega^2
        assert sum(map(len, classes)) == n * n
        assert set().union(*classes) == set(itertools.product(range(n), repeat=2))
        # and every generator maps each class onto itself
        for g in entry.group.generators:
            for c in classes:
                assert {(g(a), g(b)) for a, b in c} == c


def test_orbital_coloring_counts():
    from relkit.closure import OrbitalColoring
    c5 = OrbitalColoring(cat.cyclic_regular(5).group, 2)
    assert len(c5.classes) == 5  # diagonal + four difference classes
    s5 = OrbitalColoring(cat.symmetric_natural(5).group, 2)
    assert len(s5.classes) == 2  # diagonal + distinct pairs


# -- certificate checks reject ---------------------------------------------------------

def _produced(test, entry, *args):
    """(group, the certificate a battery test produces on a catalog entry)."""
    group = entry.group
    return group, test(group, *args).certificate


def _alt6_fixed_point_drop():
    return _produced(nb.test5_special_primes, cat.alternating_natural(6), 2)


def _mutated(produce, **fields):
    group, cert = produce()
    return group, dataclasses.replace(cert, **fields)


def _pair_with_a_wrong_transporter():
    group, cert = _produced(nb.test3_triples, cat.agl1(5))
    pair = cert.pair
    moved = next(s for s in pair.transporters if any(pair.I[i] != pair.J[i] for i in s))
    return group, dataclasses.replace(
        pair, transporters={**pair.transporters, moved: group.identity()})


def _incomplete_witness_pair():
    group, cert = _produced(nb.test3_triples, cat.agl1(5))
    # complete on the full tuples would make them equivalent
    return group, dataclasses.replace(
        cert, pair=dataclasses.replace(cert.pair, completeness_level=len(cert.pair.I)))


def _h_in_g():
    group, cert = _alt6_fixed_point_drop()
    return group, dataclasses.replace(cert, h=cert.g)


def _frobenius_on_sym5():
    _, cert = _produced(frobenius_test, cat.agl1(5))
    return cat.symmetric_natural(5).group, cert


def _by_hand(entry, rule, g, h, alpha=None):
    """A p = 2 configuration built by hand from cycle lists."""
    n = entry.group.degree
    g, h = Permutation.from_cycles(g, n), Permutation.from_cycles(h, n)
    return entry.group, nb.PrimeConfigCertificate(rule, 2, g, h, alpha)


KLEIN = ([[0, 1], [2, 3]], [[0, 2], [1, 3]])


@pytest.mark.parametrize("case", [
    _pair_with_a_wrong_transporter,
    _incomplete_witness_pair,
    lambda: _mutated(lambda: _produced(nb.test2_strongly_non_k_ary, cat.alternating_natural(4)),
                     element=Permutation.identity(4)),
    _frobenius_on_sym5,
    lambda: _mutated(_alt6_fixed_point_drop, g=Permutation.from_cycles([[0, 1]], 6)),
    lambda: _mutated(_alt6_fixed_point_drop, p=3),
    _h_in_g,
    lambda: _mutated(lambda: _produced(nb.test5_special_primes, cat.psl2_projective(5), 2),
                     alpha=None),
    # degree 5 is odd
    lambda: _by_hand(cat.alternating_natural(5), "stabilizer_divisibility", *KLEIN, alpha=4),
    # a point stabilizer of Alt(6) has order 60, divisible by 4
    lambda: _by_hand(cat.alternating_natural(6), "stabilizer_divisibility", *KLEIN, alpha=4),
    # h is a transposition, g is not
    lambda: _by_hand(cat.symmetric_natural(6), "fixed_point_drop", [[0, 1], [2, 3]], [[4, 5]]),
    # g h^-1 = (0 1)(2 3) is not a transposition
    lambda: _by_hand(cat.symmetric_natural(6), "fixed_point_drop", [[0, 1]], [[2, 3]]),
    # Fix(g) is empty, so no fixed point drops
    lambda: _by_hand(cat.alternating_natural(4), "fixed_point_drop", *KLEIN),
    lambda: _mutated(_alt6_fixed_point_drop, rule="unknown"),
], ids=[
    "pair-wrong-transporter", "witness-incomplete", "closure-element-in-group",
    "frobenius-not-frobenius", "prime-element-outside", "prime-wrong-order",
    "prime-h-in-g", "prime-no-alpha", "prime-degree", "prime-stabilizer-order",
    "prime-h-not-conjugate", "prime-gh-not-conjugate", "prime-no-drop", "prime-unknown-rule",
])
def test_certificate_check_rejects(case):
    group, certificate = case()
    assert not certificate.verify(group)
