"""The prefix walk against a plain copy of the walk that skips only
repeated sets, with G-equivalence of sets decided by brute force, and
RC's witness against the one the plain walk gives."""

import sys
from unittest import mock

from hypothesis import example, given, settings

from relkit import catalog as cat
from relkit import relcomp, stats
from relkit.chain import maps_onto
from relkit.group import PermutationGroup
from relkit.oracle import mulclose
from relkit.perm import Permutation
from relkit.search import StabilizerLattice, canonical_prefixes, path_sides, side_cosets
from test_chain import subgroups_with_points


def set_dedup_walk(lattice, prune=None):
    """The reference walk: canonical prefixes, skipping a child only when
    its set was visited before, and memoising every visited set's
    stabilizer in the lattice."""
    seen = set()

    def walk(points, stab, order):
        if prune is not None and prune(len(points), order):
            return
        for p in [alpha for alpha, orbit in stab.orbits() if len(orbit) > 1]:
            child_set = frozenset(points + (p,))
            if child_set in seen:
                continue
            child = stab.pointwise_stabilizer([p])
            child_order = child.order()
            seen.add(child_set)
            lattice._memo.setdefault(child_set, child)
            yield points + (p,), child
            yield from walk(points + (p,), child, child_order)

    root = lattice.stabilizer(frozenset())
    yield from walk((), root, root.order())


def set_orbit(elements, points):
    return frozenset(frozenset(e[x] for x in points) for e in elements)


# PSL(2,5) on 6 points: two sets of different G-orbits share a set key,
# which random subgroups rarely show
PSL25 = (6, [Permutation((0, 5, 1, 2, 3, 4)), Permutation((1, 3, 5, 0, 2, 4))], [])


@given(subgroups_with_points())
@example(PSL25)
@settings(max_examples=80, deadline=None)
def test_walk_yields_the_first_set_of_each_orbit(case):
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    elements = mulclose(group.generators, degree)
    orbits_seen = set()
    firsts = []
    for points, stab in set_dedup_walk(StabilizerLattice(group)):
        orbit = set_orbit(elements, points)
        if orbit not in orbits_seen:
            orbits_seen.add(orbit)
            firsts.append((points, stab.generators))
    walked = [(points, stab.generators)
              for points, stab in canonical_prefixes(StabilizerLattice(group))]
    assert walked == firsts
    # no two yielded sets are G-equivalent
    assert len({set_orbit(elements, points) for points, _ in walked}) == len(walked)


@given(subgroups_with_points())
@example(PSL25)
@example((7, cat.intransitive_join(5).group.generators, []))
@example((10, cat.k_subsets_action("Sym", 5, 2).group.generators, []))
@settings(max_examples=80, deadline=None)
def test_rc_witness_equals_the_set_dedup_walks(case):
    # The witness's transporters are words in the generators of the side
    # groups the lattice serves, which the walk's memo can change: the
    # certificate must be the one the set-dedup walk gives.
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    rc, witness = relcomp.relational_complexity(group)
    with mock.patch.object(relcomp, "canonical_prefixes", set_dedup_walk):
        want_rc, want = relcomp.relational_complexity(group)
    assert rc == want_rc
    assert (witness is None) == (want is None)
    if witness is not None:
        assert witness.to_json() == want.to_json()


@given(subgroups_with_points())
@settings(max_examples=80, deadline=None)
def test_maps_onto_matches_brute_force(case):
    degree, gens, points = case
    group = PermutationGroup(degree, gens)
    elements = mulclose(group.generators, degree)
    points = list(dict.fromkeys(points))
    stab = group.pointwise_stabilizer(points)
    source = frozenset(points)
    # images of the source (always reached) and of {0, .., k-1} (sometimes)
    for images in elements[:: max(1, len(elements) // 20)]:
        for target in (frozenset(images[x] for x in source), frozenset(images[:len(source)])):
            want = any(frozenset(e[x] for x in source) == target for e in elements)
            assert maps_onto(stab._cut_levels, target) == want


# Alt(7) on 3-subsets: a walk builds a stabilizer along a path that does
# not ascend, with generators other than the lattice's recursion gives
ALT7_3 = (35, list(cat.k_subsets_action("Alt", 7, 3).group.generators), [])


def walked_lattices(run, module, group):
    """The lattices run(group) makes through module.StabilizerLattice."""
    made = []

    def recording(top):
        made.append(StabilizerLattice(top))
        return made[-1]

    with mock.patch.object(module, "StabilizerLattice", recording):
        run(group)
    return made


@given(subgroups_with_points())
@example(PSL25)
@example(ALT7_3)
@settings(max_examples=40, deadline=None)
def test_the_lattice_holds_only_the_groups_its_recursion_builds(case):
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    fresh = StabilizerLattice(group)
    for run, module in ((relcomp.relational_complexity, relcomp),
                        (stats.compute_statistics, stats)):
        for lattice in walked_lattices(run, module, group):
            for points, stab in lattice._memo.items():
                assert stab.generators == fresh.stabilizer(points).generators, sorted(points)


@given(subgroups_with_points())
@example(PSL25)
@example(ALT7_3)
@settings(max_examples=30, deadline=None)
def test_path_side_groups_match_brute_force(case):
    # each side group G_{S-x} read off a node's path levels, against the
    # elements of G that fix S-x pointwise
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    elements = mulclose(group.generators, degree)
    members = set(elements)
    lattice = StabilizerLattice(group)
    for points, stab in canonical_prefixes(lattice):
        fset = frozenset(points)
        levels = stab._cut_levels
        assert [level.point for level in levels] == list(points)
        k_orbit = {x: orbit for _, orbit in stab.orbits() for x in orbit}
        side_orders = []
        for i, x in enumerate(points):
            rest = fset - {x}
            side = [e for e in elements if all(e[y] == y for y in rest)]
            cosets = list(side_cosets(levels, i))
            assert all(g in members and all(g[y] == y for y in rest) for g in cosets)
            assert stab.order() * len(cosets) == len(side)
            for a in range(degree):
                assert set().union(*(k_orbit[g.index(a)] for g in cosets)) \
                    == {e[a] for e in side}
            side_orders.append(len(side))
        redundant = stab.order() in side_orders
        assert (path_sides(stab) is None) == redundant
        assert lattice.is_independent(stab) == (not redundant)


def reversed_walk_child(pointwise_stabilizer):
    """pointwise_stabilizer, with each walk child (a call from the walk's
    own frame, `walk`) handed back with its generators reversed and its
    cut levels kept."""

    def reversing(self, points):
        stab = pointwise_stabilizer(self, points)
        if sys._getframe(1).f_code.co_name != "walk":
            return stab
        child = PermutationGroup(stab.degree, stab.generators[::-1], _order=stab.order())
        child._cut_levels = stab._cut_levels
        return child

    return reversing


def rc_and_stats_json(degree, gens):
    rc, witness = relcomp.relational_complexity(PermutationGroup(degree, gens))
    report = stats.compute_statistics(PermutationGroup(degree, gens))
    return rc, witness.to_json() if witness else None, report.to_json()


@given(subgroups_with_points())
@example(PSL25)
@example(ALT7_3)
@settings(max_examples=40, deadline=None)
def test_outputs_do_not_depend_on_how_the_walk_builds_its_groups(case):
    # words are read off the lattice's own groups, so a walk that keeps
    # none and builds each child from other generators changes nothing
    degree, gens, _ = case
    want = rc_and_stats_json(degree, gens)
    reversing = reversed_walk_child(PermutationGroup.pointwise_stabilizer)
    with mock.patch.object(StabilizerLattice, "adopt", lambda self, group: None), \
            mock.patch.object(PermutationGroup, "pointwise_stabilizer", reversing):
        assert rc_and_stats_json(degree, gens) == want
