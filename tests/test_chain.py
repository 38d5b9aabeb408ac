"""Stabilizer chains built with a known order, and orders carried by
stabilizers, against full Schreier-Sims builds and the brute-force oracle."""

from hypothesis import given, settings, strategies as st

from relkit.chain import StabilizerChain
from relkit.group import PermutationGroup
from relkit.oracle import brute_order
from relkit.perm import Permutation


@st.composite
def subgroups_with_points(draw):
    """(degree, generators, points): a random subgroup of Sym(5..7) and a
    short list of points, repeats allowed."""
    degree = draw(st.integers(5, 7))
    perms = st.permutations(range(degree)).map(Permutation)
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    points = draw(st.lists(st.integers(0, degree - 1), max_size=4))
    return degree, gens, points


def levels(chain):
    return [
        (level.point,
         [g.images for g in level.added],
         [(b, u.images) for b, u in level.transversal.items()])
        for level in chain._levels
    ]


@given(subgroups_with_points())
@settings(max_examples=150, deadline=None)
def test_known_order_chain_equals_full_build(case):
    degree, gens, prefix = case
    full = StabilizerChain(degree, gens, prefix)
    known = StabilizerChain(degree, gens, prefix, order=full.order())
    assert levels(known) == levels(full)


@given(subgroups_with_points())
@settings(max_examples=60, deadline=None)
def test_pointwise_stabilizer_carries_its_order(case):
    degree, gens, points = case
    group = PermutationGroup(degree, gens)
    stab = group.pointwise_stabilizer(points)
    carried = stab._order
    fresh = PermutationGroup(degree, stab.generators)
    assert carried == brute_order(fresh)
    assert levels(stab.chain) == levels(fresh.chain)
    rebased = stab.rebased(points[::-1])
    assert levels(rebased.chain) == levels(StabilizerChain(degree, stab.generators, points[::-1]))


def test_rebased_does_not_build_a_chain_to_learn_the_order():
    group = PermutationGroup(5, [Permutation([1, 2, 3, 4, 0]), Permutation([1, 0, 2, 3, 4])])
    assert group.rebased([3])._order is None
    assert group.order() == 120
    assert group.rebased([3])._order == 120
