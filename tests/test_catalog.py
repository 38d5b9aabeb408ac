"""Catalog constructors: degrees, orders, expected values."""

import pytest

from relkit import catalog as cat
from relkit.errors import AbelianInput, BadParameter
from relkit.relcomp import relational_complexity


def test_symmetric_entry():
    e = cat.symmetric_natural(5)
    assert e.group.order() == 120 and e.expected_rc == 2


def test_alternating_entry():
    e = cat.alternating_natural(6)
    assert e.group.order() == 360 and e.expected_rc == 5


def test_cyclic_and_dihedral():
    assert cat.cyclic_regular(7).group.order() == 7
    e = cat.dihedral_polygon(7)
    assert e.group.order() == 14 and e.expected_rc == 2


def test_k_subsets_degrees():
    assert cat.k_subsets_action("Sym", 6, 2).group.degree == 15
    assert cat.k_subsets_action("Alt", 5, 2).group.degree == 10
    assert cat.k_subsets_action("Alt", 7, 3).group.degree == 35
    assert cat.k_subsets_action("Sym", 8, 4).group.degree == 70


def test_k_subsets_expected_values():
    assert cat.k_subsets_action("Sym", 6, 2).expected_rc == 3
    assert cat.k_subsets_action("Alt", 5, 2).expected_rc == 3  # max(n-2, 3)
    assert cat.k_subsets_action("Alt", 7, 3).expected_rc == 4  # n-3 branch
    assert cat.k_subsets_action("Alt", 8, 3).expected_rc == 6  # n = 2k+2 branch
    with pytest.raises(BadParameter):
        cat.k_subsets_action("Sym", 5, 3)  # 2k > n


def test_matchings_degrees():
    assert cat.matchings_action("Sym", 4).group.degree == 3
    assert cat.matchings_action("Sym", 6).group.degree == 15
    assert cat.matchings_action("Alt", 6).expected_rc == 4


def test_matchings_faithful_image():
    # Sym(4) acts on 3 matchings with kernel V4: the image is Sym(3)
    e = cat.matchings_action("Sym", 4)
    assert e.group.order() == 6
    e = cat.matchings_action("Alt", 4)
    assert e.group.order() == 3


def test_product_action_entry():
    e = cat.product_action(2, 3)
    assert e.group.degree == 8 and e.group.order() == 48
    e = cat.product_action(3, 2)
    assert e.group.degree == 9 and e.group.order() == 72
    assert e.expected_rc is None


def test_affine_orthogonal_dim1():
    e = cat.affine_orthogonal(5, 1)
    assert e.group.degree == 5 and e.group.order() == 10


def test_affine_orthogonal_dim2():
    for q in (3, 5, 7):
        e = cat.affine_orthogonal(q, 2)
        assert e.group.degree == q * q
        assert e.group.order() == q * q * 2 * (q + 1)
    with pytest.raises(BadParameter):
        cat.affine_orthogonal(4, 1)  # not prime
    with pytest.raises(BadParameter):
        cat.affine_orthogonal(11, 2)  # beyond the dim-2 cap


def test_agl1_and_psl2():
    assert cat.agl1(5).group.order() == 20
    e = cat.psl2_projective(7)
    assert e.group.degree == 8 and e.group.order() == 168
    e = cat.psl2_projective(5)
    assert e.group.degree == 6 and e.group.order() == 60
    assert e.group.is_transitive()
    stab = e.group.pointwise_stabilizer([0])
    assert len(stab.orbit(1)) == 5  # 2-transitive


def test_diagonal_type_entry():
    e = cat.diagonal_type_on_group(cat.symmetric_natural(3).group)
    assert e.group.degree == 6
    stab = e.group.pointwise_stabilizer([0])
    assert stab.order() >= 6  # contains the conjugation action
    with pytest.raises(AbelianInput):
        cat.diagonal_type_on_group(cat.cyclic_regular(4).group)


def test_intransitive_join_entry():
    e = cat.intransitive_join(4)
    assert e.group.degree == 6 and e.group.order() == 24
    orbits = sorted(len(o) for _, o in e.group.orbits())
    assert orbits == [2, 4]


def expected_primitive(entry):
    """Whether the entry's action is primitive, by the textbook rule for its
    family, or None for a family without one here: the natural actions,
    the 2-transitive AGL(1, p) and PSL(2, p), and the affine orthogonal
    actions (of prime degree, or with an irreducible point stabilizer) are
    primitive; a cyclic or dihedral action on n points is primitive exactly
    when n is prime (and odd, for the dihedral one); the product action of
    Sym(m) wr Sym(r) exactly when m >= 3."""
    params = entry.parameters
    if entry.name in ("symmetric_natural", "alternating_natural", "affine_orthogonal",
                      "agl1", "psl2"):
        return True
    n = params.get("n")
    prime = n is not None and n >= 2 and all(n % d for d in range(2, n))
    if entry.name == "cyclic_regular":
        return prime
    if entry.name == "dihedral_polygon":
        return prime and n % 2 == 1
    if entry.name == "product_action":
        return params["m"] >= 3
    return None


def test_expected_primitivity():
    for entry in cat.default_entries():
        want = expected_primitive(entry)
        if want is None:
            continue
        flag, _ = entry.group.is_primitive()
        assert flag == want, entry.label


def test_expected_rc_small_entries():
    for entry in cat.default_entries():
        if entry.expected_rc is None:
            continue
        if entry.group.degree > 16:
            continue
        rc, _ = relational_complexity(entry.group)
        assert rc == entry.expected_rc, entry.label


def test_build_entry_dispatch():
    e = cat.build_entry("k_subsets", "Sym", "6", "2")
    assert e.group.degree == 15
    with pytest.raises(BadParameter):
        cat.build_entry("nonsense")


def test_default_entries_shape():
    entries = cat.default_entries()
    assert len(entries) > 30
    labels = [e.label for e in entries]
    assert len(labels) == len(set(labels))
