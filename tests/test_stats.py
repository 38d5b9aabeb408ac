"""The statistics report from one walk against the two walks it merges:
base_height_profile for b/B/H/I and relational_complexity, with its own
walk cut below redundant sets, for RC and its witness."""

from unittest import mock

import pytest
from hypothesis import example, given, settings

from relkit import catalog as cat
from relkit import relcomp
from relkit.errors import DegreeTooLarge, GroupTooLarge
from relkit.group import PermutationGroup
from relkit.relcomp import relational_complexity
from relkit.stats import StatisticsReport, base_height_profile, compute_statistics
from test_chain import subgroups_with_points
from test_search import PSL25


def two_walk_report(group):
    """The report as the separate walks give it, in to_json() form."""
    profile = base_height_profile(group)
    skipped = {}
    rc, witness = None, None
    try:
        rc, witness = relational_complexity(group)
    except (DegreeTooLarge, GroupTooLarge) as exc:
        skipped["rc"] = f"skipped(cap): {exc}"
    transitive = group.is_transitive()
    return StatisticsReport(
        order=group.order(),
        degree=group.degree,
        transitive=transitive,
        primitive=group.is_primitive()[0] if transitive else None,
        rc=rc,
        rc_witness=witness,
        **vars(profile),
        skipped=skipped,
    ).to_json()


def assert_one_walk_matches(group):
    got = compute_statistics(group).to_json()
    # a fresh copy: the first run must not warm the second one's caches
    fresh = PermutationGroup(group.degree, group.generators)
    assert got == two_walk_report(fresh)
    return got


@given(subgroups_with_points())
@example(PSL25)
@example((7, cat.intransitive_join(5).group.generators, []))
@settings(max_examples=80, deadline=None)
def test_one_walk_matches_two_walks(case):
    degree, gens, _ = case
    assert_one_walk_matches(PermutationGroup(degree, gens))


@pytest.mark.parametrize("entry", cat.default_entries(), ids=lambda e: e.label)
def test_one_walk_matches_two_walks_on_the_catalog(entry):
    assert_one_walk_matches(entry.group)


def witness_checks(run, group):
    """The prefixes, in order, on which run(group) checks for a witness."""
    seen = []
    check = relcomp._witness_at_prefix

    def recording(points, stab, sides):
        seen.append(points)
        return check(points, stab, sides)

    with mock.patch.object(relcomp, "_witness_at_prefix", recording):
        run(PermutationGroup(group.degree, group.generators))
    return seen


@given(subgroups_with_points())
@example(PSL25)
@example((10, cat.k_subsets_action("Sym", 5, 2).group.generators, []))
@example((15, cat.k_subsets_action("Sym", 6, 2).group.generators, []))
@settings(max_examples=40, deadline=None)
def test_rc_checks_the_nodes_its_pruned_walk_checks(case):
    # the one whole walk asks RC about exactly the nodes, in the same
    # order, that RC's own walk, cut below redundant sets, asks about
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    assert (witness_checks(compute_statistics, group)
            == witness_checks(relational_complexity, group))


@pytest.mark.parametrize("entry", [cat.k_subsets_action("Sym", 6, 2),
                                   cat.psl2_projective(7), cat.intransitive_join(4)],
                         ids=lambda e: e.label)
def test_rc_over_its_cap_leaves_the_statistics(entry, monkeypatch):
    group = entry.group
    with monkeypatch.context() as patch:
        patch.setattr(relcomp, "RC_ORDER_CAP", group.order() - 1)
        got = assert_one_walk_matches(group)
    assert got["rc"].startswith("skipped(cap): order ")
    assert got["rc_witness"] is None
    uncapped = compute_statistics(group).to_json()
    for key in ("b", "b_witness", "B", "B_witness", "H", "H_witness", "I", "I_witness"):
        assert got[key] == uncapped[key]


@pytest.mark.parametrize("degree", [1, 2, 5])
def test_trivial_group(degree):
    got = assert_one_walk_matches(PermutationGroup(degree, []))
    assert (got["rc"], got["rc_witness"], got["b"], got["I"]) == (2, None, 0, 0)


def test_trivial_group_over_the_rc_degree_cap(monkeypatch):
    monkeypatch.setattr(relcomp, "RC_DEGREE_CAP", 3)
    got = assert_one_walk_matches(PermutationGroup(5, []))
    assert got["rc"] == "skipped(cap): degree 5 exceeds cap 3"
