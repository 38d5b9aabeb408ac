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
from relkit.search import StabilizerLattice, canonical_prefixes, path_sides
from test_chain import subgroups_with_points


def set_dedup_walk(lattice, redundant=True):
    """The reference walk: canonical prefixes, skipping a child only when
    its set was visited before, and memoising every visited set's
    stabilizer in the lattice; each node's side cosets are computed along
    its path, not carried down from its parent.  It ignores redundant and
    always walks the whole tree."""
    seen = set()

    def walk(points, stab):
        for p in [alpha for alpha, orbit in stab.orbits() if len(orbit) > 1]:
            child_set = frozenset(points + (p,))
            if child_set in seen:
                continue
            child = stab.pointwise_stabilizer([p])
            seen.add(child_set)
            lattice._memo.setdefault(child_set, child)
            yield points + (p,), child, path_sides(child)
            yield from walk(points + (p,), child)

    yield from walk((), lattice.stabilizer(frozenset()))


def set_orbit(elements, points):
    return frozenset(frozenset(e[x] for x in points) for e in elements)


# PSL(2,5) on 6 points: two sets of different G-orbits share a set key,
# which random subgroups rarely show
PSL25 = (6, [Permutation((0, 5, 1, 2, 3, 4)), Permutation((1, 3, 5, 0, 2, 4))], [])
# Sym(5) on 2-subsets: 3 of the walk's 8 nodes have a redundant point
SYM5_2 = (10, list(cat.k_subsets_action("Sym", 5, 2).group.generators), [])
# Alt(7) on 3-subsets: 50 of the walk's 66 nodes have a redundant point,
# and a walk builds a stabilizer along a path that does not ascend, with
# generators other than the lattice's recursion gives
ALT7_3 = (35, list(cat.k_subsets_action("Alt", 7, 3).group.generators), [])


@given(subgroups_with_points())
@example(PSL25)
@example(SYM5_2)
@example(ALT7_3)
@settings(max_examples=80, deadline=None)
def test_walk_yields_the_first_set_of_each_orbit(case):
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    elements = mulclose(group.generators, degree)
    orbits_seen = set()
    firsts = []
    for points, stab, _ in set_dedup_walk(StabilizerLattice(group)):
        orbit = set_orbit(elements, points)
        if orbit not in orbits_seen:
            orbits_seen.add(orbit)
            firsts.append((points, stab.generators))
    walked = [(points, stab.generators)
              for points, stab, _ in canonical_prefixes(StabilizerLattice(group))]
    assert walked == firsts
    # no two yielded sets are G-equivalent
    assert len({set_orbit(elements, points) for points, _ in walked}) == len(walked)


def node_tuples(nodes):
    return [(points, stab.generators, sides) for points, stab, sides in nodes]


@given(subgroups_with_points())
@example(PSL25)
@example(SYM5_2)
@example(ALT7_3)
@settings(max_examples=80, deadline=None)
def test_cut_walk_yields_the_independent_nodes_of_the_whole_walk(case):
    # a redundant point stays redundant in every superset, so the cut
    # drops exactly the whole walk's nodes whose sides are None, and the
    # nodes it keeps come in the same order with the same groups and sides
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    whole = node_tuples(canonical_prefixes(StabilizerLattice(group)))
    cut = node_tuples(canonical_prefixes(StabilizerLattice(group), redundant=False))
    assert cut == [node for node in whole if node[2] is not None]


@given(subgroups_with_points())
@example(PSL25)
@example(SYM5_2)
@example(ALT7_3)
@settings(max_examples=30, deadline=None)
def test_the_cut_drops_only_sets_with_a_redundant_point(case):
    # by brute force: every set of the whole walk that the cut walk drops
    # has a point x with G_{S-x} = G_S, and no set the cut walk yields has one
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    elements = mulclose(group.generators, degree)

    def fixers(fset):
        return sum(all(e[y] == y for y in fset) for e in elements)

    def has_redundant_point(points):
        fset = frozenset(points)
        return any(fixers(fset - {x}) == fixers(fset) for x in points)

    kept = {points for points, _, _ in
            canonical_prefixes(StabilizerLattice(group), redundant=False)}
    for points, _, _ in canonical_prefixes(StabilizerLattice(group)):
        assert has_redundant_point(points) == (points not in kept), points


@given(subgroups_with_points())
@example(PSL25)
@example(SYM5_2)
@example(ALT7_3)
@settings(max_examples=40, deadline=None)
def test_cut_walk_builds_only_the_children_it_yields(case):
    # the cut walk decides a child's redundancy from its orbit before it
    # builds the child, so every stabilizer it builds is a node it yields
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    built = []
    pointwise_stabilizer = PermutationGroup.pointwise_stabilizer

    def recording(self, points):
        stab = pointwise_stabilizer(self, points)
        if sys._getframe(1).f_code.co_name == "walk":
            built.append(stab)
        return stab

    with mock.patch.object(PermutationGroup, "pointwise_stabilizer", recording):
        nodes = list(canonical_prefixes(StabilizerLattice(group), redundant=False))
    assert len(built) == len(nodes)
    assert all(path_sides(child) is not None for child in built)


@given(subgroups_with_points())
@example(PSL25)
@example((7, cat.intransitive_join(5).group.generators, []))
@example(SYM5_2)
@settings(max_examples=80, deadline=None)
def test_rc_witness_equals_the_set_dedup_walks(case):
    # The witness's transporters are words in the generators of the side
    # groups the lattice serves, which the walk's memo can change: the
    # certificate must be the one the set-dedup walk gives.  That walk
    # ignores the cut below redundant sets, so RC reads the whole tree.
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
    # each side group G_{S-x} carried down the walk to a node, against the
    # elements of G that fix S-x pointwise
    degree, gens, _ = case
    group = PermutationGroup(degree, gens)
    elements = mulclose(group.generators, degree)
    members = set(elements)
    lattice = StabilizerLattice(group)
    for points, stab, sides in canonical_prefixes(lattice):
        fset = frozenset(points)
        assert [level.point for level in stab._cut_levels] == list(points)
        assert sides == path_sides(stab)
        side_groups = [[e for e in elements if all(e[y] == y for y in fset - {x})]
                       for x in points]
        redundant = any(len(side) == stab.order() for side in side_groups)
        assert (sides is None) == redundant
        assert lattice.is_independent(sides) == (not redundant)
        if redundant:
            continue
        k_orbit = {x: orbit for _, orbit in stab.orbits() for x in orbit}
        fixers = [e for e in elements if all(e[y] == y for y in fset)]
        for x, side, cosets in zip(points, side_groups, sides):
            rest = fset - {x}
            assert cosets[0] == tuple(range(degree))
            assert all(g in members and all(g[y] == y for y in rest) for g in cosets)
            # one element in each coset G_S g: the cosets are distinct and fill the side
            assert len({frozenset(tuple(g[k] for k in e) for e in fixers) for g in cosets}) \
                == len(cosets)
            assert stab.order() * len(cosets) == len(side)
            for a in range(degree):
                assert set().union(*(k_orbit[g.index(a)] for g in cosets)) \
                    == {e[a] for e in side}


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
