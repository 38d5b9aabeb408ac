"""Permutation parsing, formatting and arithmetic."""

import pytest
from hypothesis import given, strategies as st

from relkit.errors import MalformedSyntax, PointOutOfRange, RepeatedPoint
from relkit.perm import Permutation, format_permutation, parse_permutation


def test_parse_basic_cycle():
    p = parse_permutation("(1 2 3)", 4)
    assert p.images == (1, 2, 0, 3)


def test_parse_identity():
    assert parse_permutation("()", 3).is_identity()


def test_parse_disjointness_violation():
    with pytest.raises(RepeatedPoint):
        parse_permutation("(1 2)(2 3)", 3)


def test_parse_point_out_of_range():
    with pytest.raises(PointOutOfRange):
        parse_permutation("(1 5)", 4)
    with pytest.raises(PointOutOfRange):
        parse_permutation("(0 1)", 4)  # 1-based points only


def test_parse_malformed():
    with pytest.raises(MalformedSyntax):
        parse_permutation("(1 2", 4)
    with pytest.raises(MalformedSyntax):
        parse_permutation("1 2 3", 4)
    with pytest.raises(MalformedSyntax):
        parse_permutation("(a b)", 4)
    with pytest.raises(MalformedSyntax):
        parse_permutation("", 4)


def test_parse_whitespace_and_commas():
    p = parse_permutation("  ( 1 , 2 ) ( 3  4 ) ", 5)
    assert p.images == (1, 0, 3, 2, 4)


def test_format_roundtrip():
    for text in ["(1 2 3)(4 5)", "()", "(2 7)(3 5 6)"]:
        p = parse_permutation(text, 8)
        assert parse_permutation(format_permutation(p), 8) == p


def test_composition_order():
    # x^(p*q) applies p first
    p = parse_permutation("(1 2)", 3)
    q = parse_permutation("(2 3)", 3)
    assert (p * q)(0) == q(p(0)) == 2


def test_public_constructor_checks_bijection():
    # products and inverses skip this check; outside input never does
    with pytest.raises(MalformedSyntax):
        Permutation([0, 0, 2])
    with pytest.raises(MalformedSyntax):
        Permutation([1, 2, 3])


def test_order_and_cycle_type():
    p = parse_permutation("(1 2 3)(4 5)", 6)
    assert p.order() == 6
    assert p.cycle_type() == (2, 3)
    assert Permutation.identity(4).order() == 1


def test_support_and_fixed_points():
    p = parse_permutation("(1 3)", 4)
    assert p.support() == {0, 2}
    assert p.fixed_points() == [1, 3]


perm_images = st.permutations(list(range(6)))


@given(perm_images)
def test_inverse_property(images):
    p = Permutation(images)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perm_images, perm_images)
def test_inverse_antihomomorphism(a_images, b_images):
    a, b = Permutation(a_images), Permutation(b_images)
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(perm_images)
def test_format_parse_roundtrip(images):
    p = Permutation(images)
    assert parse_permutation(format_permutation(p), 6) == p


@given(perm_images, st.integers(min_value=-12, max_value=12))
def test_power_consistency(images, n):
    p = Permutation(images)
    direct = Permutation.identity(6)
    step = p if n >= 0 else p.inverse()
    for _ in range(abs(n)):
        direct = direct * step
    assert p ** n == direct
