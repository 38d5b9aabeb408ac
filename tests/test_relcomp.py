"""Relational complexity, subtuple completeness and the statistics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from relkit import catalog as cat, nonbinary, relcomp
from relkit.errors import (
    DegreeTooLarge,
    GroupTooLarge,
    LengthMismatch,
    NotTransitive,
    ParseError,
)
from relkit.group import PermutationGroup
from relkit.oracle import (
    literal_relational_complexity,
    naive_base_statistics,
    naive_relational_complexity,
)
from relkit.perm import Permutation, parse_permutation
from relkit.relcomp import (
    TuplePair,
    is_binary,
    orbit_equivalent,
    relational_complexity,
    suborbit_rcs,
    subtuple_complete,
)
from relkit.stats import base_height_profile, compute_statistics, height
from test_chain import subgroups_with_points


def G(degree, *cycle_strings):
    return PermutationGroup(degree, [parse_permutation(s, degree) for s in cycle_strings])


# -- subtuple completeness -----------------------------------------------------

def test_subtuple_identity_pair():
    g = cat.symmetric_natural(4).group
    for k in (1, 2, 3, 5):
        assert subtuple_complete(g, (0, 1, 2), (0, 1, 2), k)


def test_subtuple_alternating_swap():
    # the classic pair: (1..t) vs (2,1,3..t) is (t-2)-complete, not t-complete
    t = 5
    g = cat.alternating_natural(t).group
    I = tuple(range(t))
    J = (1, 0) + tuple(range(2, t))
    assert subtuple_complete(g, I, J, t - 2)
    assert not subtuple_complete(g, I, J, t)
    assert not subtuple_complete(g, I, J, t - 1)


def test_subtuple_length_mismatch():
    g = cat.symmetric_natural(3).group
    with pytest.raises(LengthMismatch):
        subtuple_complete(g, (0, 1), (0,), 1)


def test_subtuple_monotone():
    g = cat.alternating_natural(5).group
    I = (0, 1, 2, 3)
    J = (1, 0, 2, 3)
    levels = [bool(subtuple_complete(g, I, J, k)) for k in range(1, 5)]
    # once false, stays false: completeness is downward monotone
    assert levels == sorted(levels, reverse=True)


def test_subtuple_certificates_check_out():
    g = cat.alternating_natural(5).group
    I = (0, 1, 2)
    J = (1, 0, 2)
    result = subtuple_complete(g, I, J, 2)
    assert result
    for subset, perm in result.items():
        for i in subset:
            assert perm(I[i]) == J[i]


# -- orbit equivalence -----------------------------------------------------------

def test_orbit_equivalent_symmetric():
    g = cat.symmetric_natural(5).group
    assert orbit_equivalent(g, (0, 1, 2, 3, 4), (4, 2, 0, 1, 3))


def test_orbit_equivalent_alt4():
    g = cat.alternating_natural(4).group
    assert not orbit_equivalent(g, (0, 1, 2), (1, 0, 2))  # frozen: 12-element scan


def test_orbit_equivalent_shift():
    g = cat.cyclic_regular(5).group
    assert orbit_equivalent(g, (0, 1), (1, 2))


def test_bad_tuple_arguments_raise_length_mismatch():
    # orbit_equivalent leaves the length check to group.transporter
    g = cat.symmetric_natural(3).group
    with pytest.raises(LengthMismatch, match=r"^\|I\|=2 != \|J\|=1$"):
        orbit_equivalent(g, (0, 1), (0,))
    with pytest.raises(LengthMismatch, match="completeness level must be >= 1"):
        subtuple_complete(g, (0, 1), (1, 0), 0)


# -- exact RC ----------------------------------------------------------------------

RC_CASES = [
    ("Sym(5)", lambda: cat.symmetric_natural(5).group, 2),
    ("Alt(5)", lambda: cat.alternating_natural(5).group, 4),
    ("C7", lambda: cat.cyclic_regular(7).group, 2),
    ("Sym(6) on 2-subsets", lambda: cat.k_subsets_action("Sym", 6, 2).group, 3),
    ("Alt(6) on 2-subsets", lambda: cat.k_subsets_action("Alt", 6, 2).group, 4),
    ("D14", lambda: cat.dihedral_polygon(7).group, 2),
    ("AGL1(5)", lambda: cat.agl1(5).group, 3),
    ("affine(3,2)", lambda: cat.affine_orthogonal(3, 2).group, 2),
]


@pytest.mark.parametrize("label,builder,want", RC_CASES, ids=[c[0] for c in RC_CASES])
def test_rc_known_values(label, builder, want):
    rc, witness = relational_complexity(builder())
    assert rc == want
    if witness is not None:
        assert witness.verify(builder())


def test_is_binary():
    assert is_binary(cat.dihedral_polygon(7).group)
    assert not is_binary(cat.agl1(5).group)
    assert is_binary(cat.affine_orthogonal(3, 2).group)


def test_rc_trivial_degenerate():
    trivial = PermutationGroup(3, [])
    assert relational_complexity(trivial) == (2, None)


def test_force_caps_reads_the_forced_order_cap(monkeypatch):
    g = cat.k_subsets_action("Sym", 6, 2).group
    monkeypatch.setattr(relcomp, "RC_DEGREE_CAP", 10)
    with pytest.raises(DegreeTooLarge, match="^degree 15 exceeds cap 10$"):
        relational_complexity(g)
    assert relational_complexity(g, force_caps=True)[0] == 3
    monkeypatch.setattr(relcomp, "RC_FORCED_ORDER_CAP", 719)
    with pytest.raises(GroupTooLarge, match="^order 720 exceeds cap 719$"):
        relational_complexity(g, force_caps=True)


def test_rc_past_the_caps_meets_the_closed_formula():
    # Sym(9) on 4-subsets (degree 126) is past RC_DEGREE_CAP; its RC,
    # 2 + floor(log2 4) = 4, is Cherlin-Martin-Saracino's closed formula
    entry = cat.k_subsets_action("Sym", 9, 4)
    rc, witness = relational_complexity(entry.group, force_caps=True)
    assert rc == entry.expected_rc == 4
    assert witness.verify(entry.group)


def test_rc_witness_structure():
    g = cat.alternating_natural(4).group
    rc, witness = relational_complexity(g)
    assert rc == 3
    assert witness.completeness_level == 2
    assert len(witness.I) == 3 and len(set(witness.I)) == 3
    assert not orbit_equivalent(g, witness.I, witness.J)
    assert subtuple_complete(g, witness.I, witness.J, 2)


def test_rc_invariant_under_conjugation():
    base = cat.agl1(5).group
    relabel = parse_permutation("(1 3 5)", 5)
    conjugated = PermutationGroup(
        5, [relabel.inverse() * g * relabel for g in base.generators]
    )
    assert relational_complexity(base)[0] == relational_complexity(conjugated)[0]


def test_rc_intransitive_lower_bound():
    # orbit restriction never exceeds the whole action
    g = cat.intransitive_join(4).group
    rc, _ = relational_complexity(g)
    first, _ = g.induced_action(range(4))
    rc_first, _ = relational_complexity(first)
    assert rc >= rc_first


def test_witness_json_roundtrip():
    g = cat.alternating_natural(4).group
    _, witness = relational_complexity(g)
    data = witness.to_json()
    back = TuplePair.from_json(data, g.degree)
    assert back.I == witness.I and back.J == witness.J
    assert back.verify(g)
    assert data["equivalent"] is False


def test_verify_rejects_transporters_outside_the_group():
    # (0,1,3) and (0,2,3) are not 2-subtuple complete in the regular C5: no
    # element of C5 fixes 0 and moves 1.  Sym(5) transporters for each pair
    # of positions exist, but the swap (2 3) recorded twice is not in C5.
    c5 = cat.cyclic_regular(5).group
    swap = parse_permutation("(2 3)", 5)
    pair = TuplePair(
        I=(0, 1, 3), J=(0, 2, 3), completeness_level=2,
        transporters={(0, 1): swap, (0, 2): c5.identity(), (1, 2): swap},
        equivalent=False,
    )
    assert not subtuple_complete(c5, pair.I, pair.J, 2)
    assert not c5.contains(swap)
    assert not pair.verify(c5)
    assert pair.verify(cat.symmetric_natural(5).group) is False  # equivalent in Sym(5)
    sym_pair = TuplePair(I=pair.I, J=pair.J, completeness_level=2,
                         transporters=pair.transporters, equivalent=True)
    assert sym_pair.verify(cat.symmetric_natural(5).group)


def test_verify_needs_a_transporter_for_every_subset():
    # the same C5 pair with no transporters: none is wrong, but no 2-subset
    # of positions is covered, and the pair is not 2-subtuple complete
    c5 = cat.cyclic_regular(5).group
    pair = TuplePair(I=(0, 1, 3), J=(0, 2, 3), completeness_level=2, transporters={})
    assert not pair.verify(c5)
    data = {"I": [0, 1, 3], "J": [0, 2, 3], "k": 2, "equivalent": False}
    assert not TuplePair.from_json(data, 5).verify(c5)
    # a certificate read from JSON can be malformed in shape, too
    assert not TuplePair.from_json({**data, "J": [0, 2]}, 5).verify(c5)
    assert not TuplePair.from_json({**data, "k": 0, "certs": {"[]": "()"}}, 5).verify(c5)


def test_verify_rejects_a_point_out_of_range():
    # 5 is past the image tuples; -1 would index them from the end
    c5 = cat.cyclic_regular(5).group
    for I, J in [((0, 5), (0, 1)), ((0, -1), (0, 4))]:
        pair = TuplePair(I=I, J=J, completeness_level=1,
                         transporters={(0,): c5.identity(), (1,): c5.identity()})
        assert pair.verify(c5) is False


def _pair_json():
    g = cat.alternating_natural(4).group
    return relational_complexity(g)[1].to_json()


@pytest.mark.parametrize("field, value", [
    ("I", [0, 1.0, 2]),
    ("I", "012"),
    ("J", [0, 1, 4]),
    ("J", [-1, 1, 2]),
    ("k", True),
    ("k", 2.0),
    ("equivalent", "no"),
    ("equivalent", 0),
    ("certs", [["(1 2)"]]),
])
def test_from_json_rejects_a_malformed_field(field, value):
    data = _pair_json()
    assert TuplePair.from_json(data, 4).verify(cat.alternating_natural(4).group)
    with pytest.raises(ParseError, match=field if field != "certs" else "'certs'"):
        TuplePair.from_json({**data, field: value}, 4)


@pytest.mark.parametrize("field", ["I", "J", "k", "equivalent"])
def test_from_json_rejects_a_missing_field(field):
    data = _pair_json()
    del data[field]
    with pytest.raises(ParseError, match="needs 'I', 'J', 'k' and 'equivalent'"):
        TuplePair.from_json(data, 4)
    with pytest.raises(ParseError):
        TuplePair.from_json([data], 4)


@pytest.mark.parametrize("key, text", [
    ("[0, 1", "()"),
    ("{}", "()"),
    ("[0, 1.5]", "()"),
    ("[0, true]", "()"),
    ("[0, 1]", 7),
    ("[0, 1]", "(1 2"),
    ("[0, 1]", "(1 5)"),
])
def test_from_json_rejects_a_malformed_cert(key, text):
    data = _pair_json()
    with pytest.raises(ParseError):
        TuplePair.from_json({**data, "certs": {**data["certs"], key: text}}, 4)


def test_verify_covers_the_whole_tuple_when_k_exceeds_its_length():
    g = cat.symmetric_natural(4).group
    I = (0, 1, 2)
    transporters = subtuple_complete(g, I, I, 5)
    assert list(transporters) == [(0, 1, 2)]
    assert TuplePair(I=I, J=I, completeness_level=5, transporters=transporters,
                     equivalent=True).verify(g)


def _transporter_calls_and_budget(monkeypatch, group):
    """RC of group, the orbit_transporter calls it made, and the prefix
    points of the witnesses the search returned."""
    calls = []
    prefix_points = []
    orbit_transporter = PermutationGroup.orbit_transporter
    witness_at_prefix = relcomp._witness_at_prefix

    def counting_transporter(self, p):
        calls.append(p)
        return orbit_transporter(self, p)

    def counting_witness(points, stab, sides):
        hit = witness_at_prefix(points, stab, sides)
        if hit is not None:
            prefix_points.append(len(points))
        return hit

    monkeypatch.setattr(PermutationGroup, "orbit_transporter", counting_transporter)
    monkeypatch.setattr(relcomp, "_witness_at_prefix", counting_witness)
    rc, _ = relational_complexity(group)
    return rc, len(calls), sum(prefix_points)


def test_transporter_words_only_for_the_witness(monkeypatch):
    rc, calls, budget = _transporter_calls_and_budget(
        monkeypatch, cat.k_subsets_action("Sym", 6, 2).group)
    assert rc == 3
    assert 0 < calls <= budget
    rc, calls, _ = _transporter_calls_and_budget(monkeypatch, cat.product_action(2, 2).group)
    assert rc == 2
    assert calls == 0


# -- oracle agreement ----------------------------------------------------------------

ORACLE_GROUPS = [
    ("Sym(4)", lambda: cat.symmetric_natural(4).group),
    ("Alt(4)", lambda: cat.alternating_natural(4).group),
    ("C6", lambda: cat.cyclic_regular(6).group),
    ("D8", lambda: cat.dihedral_polygon(4).group),
    ("AGL1(5)", lambda: cat.agl1(5).group),
    ("S2wrS2", lambda: cat.product_action(2, 2).group),
    ("join(3)", lambda: cat.intransitive_join(3).group),
    ("PSL2(5)", lambda: cat.psl2_projective(5).group),
    ("Alt(6)", lambda: cat.alternating_natural(6).group),
    ("matchings Sym(4)", lambda: cat.matchings_action("Sym", 4).group),
]


@pytest.mark.parametrize("label,builder", ORACLE_GROUPS, ids=[c[0] for c in ORACLE_GROUPS])
def test_rc_matches_naive_oracle(label, builder):
    group = builder()
    assert relational_complexity(group)[0] == naive_relational_complexity(group)


def test_naive_oracle_matches_literal_definition():
    # the two oracles agree on tiny groups, repeats included
    for builder in [lambda: cat.symmetric_natural(3).group,
                    lambda: cat.cyclic_regular(4).group,
                    lambda: cat.alternating_natural(4).group,
                    lambda: cat.dihedral_polygon(4).group]:
        group = builder()
        assert naive_relational_complexity(group) == literal_relational_complexity(group)


@given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_rc_matches_oracle_random_subgroups(images):
    group = PermutationGroup(5, [Permutation(p) for p in images])
    assert relational_complexity(group)[0] == naive_relational_complexity(group)


@given(subgroups_with_points())
@settings(max_examples=150, deadline=None)
def test_rc_and_statistics_match_oracles_on_random_subgroups(case):
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    assert relational_complexity(group)[0] == naive_relational_complexity(group)
    profile = base_height_profile(group)
    assert (profile.b, profile.B, profile.H, profile.I) == naive_base_statistics(group)


@pytest.mark.parametrize("label,builder", ORACLE_GROUPS, ids=[c[0] for c in ORACLE_GROUPS])
def test_statistics_match_naive_oracle(label, builder):
    group = builder()
    profile = base_height_profile(group)
    assert (profile.b, profile.B, profile.H, profile.I) == naive_base_statistics(group)


def test_naive_statistics_by_hand():
    # Sym(4): b = 3, every minimal base and irredundant base has 3 points
    assert naive_base_statistics(cat.symmetric_natural(4).group) == (3, 3, 3, 3)
    # C6 regular: one point is a base; no set of two points is independent
    assert naive_base_statistics(cat.cyclic_regular(6).group) == (1, 1, 1, 1)
    assert naive_base_statistics(PermutationGroup(5, [])) == (0, 0, 0, 0)


# -- suborbit bound ---------------------------------------------------------------------

def suborbit_values(group):
    return [rc for _, rc, _ in suborbit_rcs(group)]


def test_suborbit_bound_sym5():
    # Sym(4) on the one suborbit {1..4}: binary
    assert suborbit_values(cat.symmetric_natural(5).group) == [2]


def test_suborbit_bound_alt6():
    # Alt(5) on the one suborbit {1..5}: RC 4
    assert suborbit_values(cat.alternating_natural(6).group) == [4]


def test_suborbit_bound_regular():
    # the point stabilizer is trivial: no suborbit of length >= 2
    assert suborbit_values(cat.cyclic_regular(7).group) == []


def test_suborbit_bound_is_lower_bound():
    for entry in [cat.alternating_natural(6), cat.k_subsets_action("Sym", 6, 2),
                  cat.psl2_projective(7)]:
        rc, _ = relational_complexity(entry.group)
        assert all(value <= rc for value in suborbit_values(entry.group))


def test_suborbit_bound_needs_transitive():
    # test 4 is what lifts a suborbit witness, and only a transitive group's
    with pytest.raises(NotTransitive):
        nonbinary.test4_suborbits(cat.intransitive_join(3).group)


# -- statistics -------------------------------------------------------------------------

def test_profile_sym4():
    p = base_height_profile(cat.symmetric_natural(4).group)
    assert (p.b, p.B, p.H, p.I) == (3, 3, 3, 3)


def test_profile_regular():
    p = base_height_profile(cat.cyclic_regular(5).group)
    assert (p.b, p.B, p.H, p.I) == (1, 1, 1, 1)


def test_profile_product_22():
    p = base_height_profile(cat.product_action(2, 2).group)
    assert p.H == 2  # frozen: subset brute force
    assert p.b == 2


def test_profile_d8():
    p = base_height_profile(cat.dihedral_polygon(4).group)
    assert p.b == 2  # frozen: brute force
    assert p.I == 2


def test_height_regular_iff_one():
    # transitive: height 1 exactly for regular actions
    assert height(cat.cyclic_regular(7).group)[0] == 1
    assert height(cat.dihedral_polygon(7).group)[0] == 2


def test_profile_witnesses_valid():
    for entry in [cat.symmetric_natural(4), cat.dihedral_polygon(5),
                  cat.alternating_natural(5), cat.intransitive_join(3)]:
        g = entry.group
        p = base_height_profile(g)
        assert g.pointwise_stabilizer_order(p.b_witness) == 1
        assert g.pointwise_stabilizer_order(p.I_witness) == 1
        full = g.pointwise_stabilizer_order(p.H_witness)
        for x in p.H_witness:
            others = [y for y in p.H_witness if y != x]
            assert g.pointwise_stabilizer_order(others) > full


def test_statistics_report():
    report = compute_statistics(cat.symmetric_natural(4).group)
    assert report.rc == 2 and report.b == 3 and report.H == 3
    assert report.transitive and report.primitive
    data = report.to_json()
    assert data["order"] == 24 and data["b_witness"] == [0, 1, 2]


def test_statistics_chain_on_catalog_sample():
    for entry in [cat.symmetric_natural(5), cat.alternating_natural(5),
                  cat.matchings_action("Sym", 6), cat.psl2_projective(7),
                  cat.intransitive_join(4)]:
        t = entry.group.degree
        p = base_height_profile(entry.group)
        bound = p.b * max(1, math.ceil(math.log2(t)))
        assert p.b <= p.B <= p.H <= p.I <= bound
        rc, _ = relational_complexity(entry.group)
        assert rc <= p.H + 1


def test_statistics_cap_skip(monkeypatch):
    g = cat.k_subsets_action("Sym", 6, 2).group
    monkeypatch.setattr(relcomp, "RC_DEGREE_CAP", 10)
    report = compute_statistics(g)
    assert report.rc is None
    assert "skipped(cap)" in report.skipped["rc"]
    assert "skipped(cap)" in report.to_json()["rc"]
