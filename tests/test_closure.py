"""k-closures against a brute-force scan of Sym(n), and the order of the
closure generators, which test 2's certificate depends on."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from relkit import catalog as cat
from relkit.closure import k_closure
from relkit.errors import BadParameter
from relkit.group import PermutationGroup
from relkit.oracle import mulclose
from relkit.perm import Permutation, format_permutation


def brute_closure_order(group, k):
    """Permutations of Sym(n) mapping every k-tuple into its own G-orbit,
    with the orbits read off the element list of G."""
    n = group.degree
    elements = mulclose(group.generators, n)
    label = {}
    for t in itertools.product(range(n), repeat=k):
        if t not in label:
            for g in elements:
                label[tuple(g[x] for x in t)] = t
    return sum(
        all(label[tuple(s[x] for x in t)] == label[t] for t in label)
        for s in itertools.permutations(range(n))
    )


@st.composite
def subgroups(draw):
    """Random subgroups of Sym(4..6).  Generators are random permutations
    or single cycles; the cycles give groups with many orbits on tuples."""
    degree = draw(st.integers(4, 6))
    cycles = st.lists(st.integers(0, degree - 1), min_size=2, max_size=degree, unique=True)
    perms = st.one_of(
        st.permutations(range(degree)).map(Permutation),
        cycles.map(lambda c: Permutation.from_cycles([c], degree)),
    )
    return PermutationGroup(degree, draw(st.lists(perms, min_size=1, max_size=3)))


# Random subgroups are almost always k-closed; these are not.
@example(cat.alternating_natural(4).group, 2)
@example(cat.agl1(5).group, 2)
@example(cat.alternating_natural(5).group, 3)
@given(subgroups(), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_closure_order_equals_brute_force(group, k):
    closure = k_closure(group, k)
    want = brute_closure_order(group, k)
    assert closure.order() == want
    assert len(mulclose(closure.generators, group.degree)) == want
    assert closure.generators[: len(group.generators)] == group.generators


def test_psl2_11_two_closure_generators_are_pinned():
    # test 2 certifies with the first closure generator outside G
    closure = k_closure(cat.psl2_projective(11).group, 2)
    assert [format_permutation(g) for g in closure.generators] == [
        "(1 2 3 4 5 6 7 8 9 10 11)",
        "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)",
        "(11 12)",
    ]


def test_closure_memory_is_linear_in_the_tuple_count():
    """The trivial group has one orbit per k-tuple, so its orbit coloring
    is the largest the closure sees.  The memory per tuple must not grow
    with the number of orbits."""

    def peak_per_tuple(n):
        tracemalloc.start()
        try:
            k_closure(PermutationGroup(n, []), 3)
            return tracemalloc.get_traced_memory()[1] / n**3
        finally:
            tracemalloc.stop()

    assert peak_per_tuple(32) < 1.5 * peak_per_tuple(16)


@pytest.mark.parametrize("k", [1, 4])
def test_closure_arity_outside_2_and_3_is_a_bad_parameter(k):
    with pytest.raises(BadParameter):
        k_closure(cat.symmetric_natural(3).group, k)
