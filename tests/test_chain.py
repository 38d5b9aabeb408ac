"""Stabilizer chains against a plain reference Schreier-Sims loop, chains
built with a known order, and orders carried by stabilizers, against full
Schreier-Sims builds and the brute-force oracle."""

from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from relkit import catalog as cat
from relkit.chain import StabilizerChain
from relkit.errors import PointOutOfRange
from relkit.group import PermutationGroup
from relkit.oracle import brute_order
from relkit.perm import Permutation


@st.composite
def subgroups_with_points(draw, max_degree=7):
    """(degree, generators, points): a random subgroup of Sym(5..max_degree)
    and a short list of points, repeats allowed."""
    degree = draw(st.integers(5, max_degree))
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


def reference_levels(degree, generators, base_prefix=(), order=None, counts=None):
    """levels() of the chain StabilizerChain builds, from the same
    deterministic Schreier-Sims loop written with Permutation products and
    one inverse per step, as it was before the kernel moved to image
    tuples.  The loop sifts every Schreier generator on every scan of a
    level, also those an earlier scan cleared; counts["sifts"], when a
    Counter is given, counts those sifts."""
    identity = Permutation.identity(degree)
    points, added, transversals = [], [], []

    def new_level(p):
        points.append(p)
        added.append([])
        transversals.append({p: identity})

    def install(g):
        i = 0
        while True:
            if i == len(points):
                new_level(min(g.support()))
            if g(points[i]) != points[i]:
                added[i].append(g)
                return i
            i += 1

    def gens_at(i):
        return [g for level in added[i:] for g in level]

    def rebuild(i):
        reps = {points[i]: identity}
        queue = [points[i]]
        while queue:
            nxt = []
            for a in queue:
                for g in gens_at(i):
                    if g(a) not in reps:
                        reps[g(a)] = reps[a] * g
                        nxt.append(g(a))
            queue = nxt
        transversals[i] = reps

    def sift(g, start):
        if counts is not None:
            counts["sifts"] += 1
        for i in range(start, len(points)):
            b = g(points[i])
            if b not in transversals[i]:
                return g
            g = g * transversals[i][b].inverse()
        return g

    for p in dict.fromkeys(base_prefix):
        new_level(p)
    for g in generators:
        if not g.is_identity():
            install(g)
    dirty = set(range(len(points)))
    while dirty:
        i = max(dirty)
        rebuild(i)
        if order is not None and prod(map(len, transversals)) == order:
            for j in dirty - {i}:
                rebuild(j)
            break
        gens = gens_at(i)
        clean = True
        for b in sorted(transversals[i]):
            for g in gens:
                u_b, u_c = transversals[i][b], transversals[i][g(b)]
                residue = sift(u_b * g * u_c.inverse(), i + 1)
                if not residue.is_identity():
                    j = install(residue)
                    dirty.update(range(i + 1, j + 1))
                    dirty.add(i)
                    clean = False
                    break
            if not clean:
                break
        if clean:
            dirty.discard(i)
    return [
        (p, [g.images for g in gens], [(b, u.images) for b, u in reps.items()])
        for p, gens, reps in zip(points, added, transversals)
    ]


@given(subgroups_with_points(max_degree=8))
@settings(max_examples=150, deadline=None)
def test_chain_equals_reference_schreier_sims(case):
    degree, gens, prefix = case
    want = reference_levels(degree, gens, prefix)
    assert levels(StabilizerChain(degree, gens, prefix)) == want
    order = prod(len(reps) for _, _, reps in want)
    assert (levels(StabilizerChain(degree, gens, prefix, order=order))
            == reference_levels(degree, gens, prefix, order))


# The reference loop takes about 0.3 s over all default entries, so none is
# skipped.
@pytest.mark.parametrize("entry", cat.default_entries(), ids=lambda e: e.label)
def test_catalog_chains_equal_reference_schreier_sims(entry):
    degree, gens, order = entry.group.degree, entry.group.generators, entry.group.order()
    prefix = (degree - 1, 0)
    for args in [(), ((), order), (prefix,), (prefix, order)]:
        assert levels(StabilizerChain(degree, gens, *args)) == reference_levels(degree, gens, *args)


def test_cleared_schreier_generators_are_not_sifted_again(monkeypatch):
    degree = 12
    gens = [Permutation.from_cycles([[0, 1]], degree),
            Permutation([*range(1, degree), 0])]
    reference = Counter()
    want = reference_levels(degree, gens, counts=reference)
    kernel = Counter()
    sift = StabilizerChain._sift

    def counted(self, images, start=0):
        kernel["sifts"] += 1
        return sift(self, images, start)

    monkeypatch.setattr(StabilizerChain, "_sift", counted)
    assert levels(StabilizerChain(degree, gens)) == want
    assert 0 < kernel["sifts"] < reference["sifts"]


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


@given(subgroups_with_points(), st.data())
@settings(max_examples=100, deadline=None)
def test_extended_chain_equals_a_fresh_chain(case, data):
    # extend by words in the generators (inside the group) and by drawn
    # permutations (mostly outside it), one at a time
    degree, gens, prefix = case
    perms = st.permutations(range(degree)).map(Permutation)
    words = st.lists(st.integers(0, 5), max_size=6).map(lambda w: _word(gens, w, degree))
    extras = data.draw(st.lists(st.one_of(words, perms), min_size=1, max_size=3))
    samples = data.draw(st.lists(perms, max_size=8))
    chain = StabilizerChain(degree, gens, prefix)
    for k, g in enumerate(extras, 1):
        chain.extend(g)
        fresh = StabilizerChain(degree, gens + extras[:k], prefix)
        assert chain.order() == fresh.order()
        for x in samples + extras[:k] + gens:
            assert chain.contains(x) == fresh.contains(x)
        for i in range(len(dict.fromkeys(prefix))):
            assert chain.transversal(i).keys() == fresh.transversal(i).keys()


@pytest.mark.parametrize("point", [-1, 5])
def test_base_point_out_of_range(point):
    with pytest.raises(PointOutOfRange):
        StabilizerChain(5, [Permutation.from_cycles([[0, 1]], 5)], (0, point))


def test_rebased_does_not_build_a_chain_to_learn_the_order():
    group = PermutationGroup(5, [Permutation([1, 2, 3, 4, 0]), Permutation([1, 0, 2, 3, 4])])
    assert group.rebased([3])._order is None
    assert group.order() == 120
    assert group.rebased([3])._order == 120


@given(subgroups_with_points(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_rebased_on_a_prefix_of_the_base_equals_a_fresh_chain(case, own_prefix):
    # a group's built chain serves rebased() on a prefix of its base; one
    # built from a longer base prefix than asked for may differ from a
    # fresh build, so the points' own prefixes are checked too
    degree, gens, points = case
    group = PermutationGroup(degree, gens, points if own_prefix else ())
    base, order = group.chain.base, group.order()
    points = list(dict.fromkeys(points))
    for prefix in [base[:k] for k in range(len(base) + 1)] + [points[:k] for k in range(len(points))]:
        rebased = group.rebased(prefix)
        assert levels(rebased.chain) == levels(StabilizerChain(degree, gens, prefix, order))
        if not own_prefix and prefix == base[:len(prefix)]:
            assert rebased.chain is group.chain


def reference_elements(chain):
    """elements() of the chain, as it enumerated before it composed image
    tuples: one Permutation product per level, deepest level slowest."""
    ident = Permutation.identity(chain.degree)

    def rec(i, acc):
        if i < 0:
            yield acc
            return
        level = chain._levels[i]
        for b in chain._level_order(i):
            yield from rec(i - 1, level.transversal[b] if acc is None else acc * level.transversal[b])

    if not chain._levels:
        yield ident
        return
    for g in rec(len(chain._levels) - 1, None):
        yield ident if g is None else g


@given(subgroups_with_points(max_degree=8))
@settings(max_examples=80, deadline=None)
def test_elements_equal_reference_enumeration(case):
    degree, gens, prefix = case
    chain = StabilizerChain(degree, gens, prefix)
    if chain.order() > 5040:
        chain = StabilizerChain(degree, gens[:1], prefix)
    got = [g.images for g in chain.elements()]
    assert got == [g.images for g in reference_elements(chain)]
    assert len(got) == chain.order()


def test_elements_of_the_trivial_group():
    chain = StabilizerChain(5, [])
    assert [g.images for g in chain.elements()] == [tuple(range(5))]
    chain = StabilizerChain(5, [], [2, 4])
    assert [g.images for g in chain.elements()] == [tuple(range(5))]


# -- the rebased chains behind transporters and conjugators ----------------


def _word(gens, indices, degree):
    g = Permutation.identity(degree)
    for i in indices:
        g = g * gens[i % len(gens)]
    return g


@st.composite
def groups_with_tuples(draw):
    """(degree, generators, src, g): a subgroup of Sym(5..8), distinct
    points src and a word g in the generators."""
    degree, gens, _ = draw(subgroups_with_points(max_degree=8))
    src = draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=4, unique=True))
    g = _word(gens, draw(st.lists(st.integers(0, 5), max_size=6)), degree)
    return degree, gens, src, g


@given(groups_with_tuples())
@settings(max_examples=100, deadline=None)
def test_transporter_equals_a_fresh_chain(case):
    degree, gens, src, g = case
    group = PermutationGroup(degree, gens)
    dst = [g(p) for p in src]
    fresh = PermutationGroup(degree, gens).rebased(src).chain
    want = fresh.descend(dst)
    for _ in range(2):
        got = group.transporter(src, dst)
        assert got == want and got is not None
    # a repeated source point changes nothing
    assert group.transporter(src + src[:1], dst + dst[:1]) == want
    moved = [g(p) for p in reversed(src)]
    assert group.transporter(src, moved) == fresh.descend(moved)
    # another order of the same points is another chain, with its own element
    other = PermutationGroup(degree, gens).rebased(src[::-1]).chain
    assert group.transporter(src[::-1], dst[::-1]) == other.descend(dst[::-1])


def conjugator_base(g):
    """The base element_conjugator(g, h) rebases to: g's cycles, longest
    first, then its fixed points."""
    base = [p for c in sorted(g.cycles(), key=lambda c: (-len(c), c)) for p in c]
    return base + [p for p in range(g.degree) if g(p) == p]


@given(groups_with_tuples())
@settings(max_examples=60, deadline=None)
def test_conjugator_equals_a_fresh_chain(case):
    degree, gens, _, x = case
    group = PermutationGroup(degree, gens)
    g = gens[0]
    h = x.inverse() * g * x
    want = PermutationGroup(degree, gens).element_conjugator(g, h)
    assert want is not None and want.inverse() * g * want == h
    # the canonical element of the chain on the base the search walks
    base = conjugator_base(g)
    assert want == PermutationGroup(degree, gens).rebased(base).chain.descend(map(want, base))
    for _ in range(2):
        assert group.element_conjugator(g, h) == want


def test_the_memo_under_concurrent_transporters():
    import sys
    import threading

    gens = [Permutation([1, 2, 3, 4, 5, 6, 7, 0]), Permutation([1, 0, 2, 3, 4, 5, 6, 7])]
    pairs = [((a, b, c), (c, a, b)) for a in range(8) for b in range(8) for c in range(8)
             if len({a, b, c}) == 3][:120]
    want = [PermutationGroup(8, gens).rebased(src).chain.descend(dst) for src, dst in pairs]
    group = PermutationGroup(8, gens)
    results = {}

    def worker(k):
        results[k] = [group.transporter(src, dst) for src, dst in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[k] == want for k in range(4))
