"""Constructors for the standard example actions, with expected values
where a closed formula is known.

Entries record the expected relational complexity where a closed formula
gives it; expected_rc stays None where only an upper bound is known.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    AbelianInput,
    BadParameter,
    DegreeTooLarge,
    GroupTooLarge,
    InternalInconsistency,
)
from .group import DEGREE_CAP, PermutationGroup
from .perm import Permutation

DIAGONAL_ORDER_CAP = 360


@dataclass
class CatalogEntry:
    name: str
    parameters: dict
    group: PermutationGroup
    expected_rc: int | None = None
    expected_order: int | None = None
    in_subset_product_family: bool = False

    def __post_init__(self):
        if self.expected_order is not None and self.group.order() != self.expected_order:
            raise InternalInconsistency(
                f"{self.label}: order {self.group.order()} != expected {self.expected_order}"
            )

    @property
    def label(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.parameters.items())
        return f"{self.name}({params})"


def _cycle(points, degree):
    return Permutation.from_cycles([points], degree)


def _sym_gens(n):
    if n <= 1:
        return []
    if n == 2:
        return [_cycle([0, 1], 2)]
    return [_cycle([0, 1], n), _cycle(list(range(n)), n)]


def _alt_gens(n):
    if n <= 2:
        return []
    if n == 3:
        return [_cycle([0, 1, 2], 3)]
    if n % 2 == 1:
        return [_cycle([0, 1, 2], n), _cycle(list(range(n)), n)]
    return [_cycle([0, 1, 2], n), _cycle(list(range(1, n)), n)]


def symmetric_natural(n) -> CatalogEntry:
    if n < 1:
        raise BadParameter("n must be >= 1")
    group = PermutationGroup(max(n, 1), _sym_gens(n))
    return CatalogEntry(
        name="symmetric_natural",
        parameters={"n": n},
        group=group,
        expected_rc=2 if n >= 2 else None,
        expected_order=math.factorial(n),
        in_subset_product_family=True,
    )


def alternating_natural(n) -> CatalogEntry:
    if n < 3:
        raise BadParameter("alternating entries need n >= 3")
    group = PermutationGroup(n, _alt_gens(n))
    return CatalogEntry(
        name="alternating_natural",
        parameters={"n": n},
        group=group,
        expected_rc=max(2, n - 1),
        expected_order=math.factorial(n) // 2,
        in_subset_product_family=True,
    )


def cyclic_regular(n) -> CatalogEntry:
    if n < 2:
        raise BadParameter("n must be >= 2")
    group = PermutationGroup(n, [_cycle(list(range(n)), n)])
    return CatalogEntry(
        name="cyclic_regular",
        parameters={"n": n},
        group=group,
        expected_rc=2,
        expected_order=n,
    )


def dihedral_polygon(n) -> CatalogEntry:
    if n < 3:
        raise BadParameter("polygons need n >= 3")
    rotation = _cycle(list(range(n)), n)
    reflection = Permutation((-x) % n for x in range(n))
    group = PermutationGroup(n, [rotation, reflection])
    return CatalogEntry(
        name="dihedral_polygon",
        parameters={"n": n},
        group=group,
        expected_rc=2,
        expected_order=2 * n,
    )


def _induced_on_points(base_gens, points):
    """Action induced on an invariant family of combinatorial objects."""
    index = {p: i for i, p in enumerate(points)}
    out = []
    for g in base_gens:
        out.append(Permutation(index[_apply_object(g, p)] for p in points))
    return PermutationGroup(len(points), out)


def _apply_object(perm, obj):
    if isinstance(obj, frozenset):
        return frozenset(_apply_object(perm, x) for x in obj)
    if isinstance(obj, tuple):
        return tuple(sorted(perm(x) for x in obj))
    return perm(obj)


def k_subsets_action(base, n, k) -> CatalogEntry:
    """Sym(n) or Alt(n) on k-subsets; expected values from the closed formulas."""
    if base not in ("Sym", "Alt"):
        raise BadParameter("base must be 'Sym' or 'Alt'")
    if not (1 <= k and 2 * k <= n):
        raise BadParameter("need 1 <= k and 2k <= n")
    # comb(n, k) >= n here, so a huge n is refused before comb is computed
    if n > DEGREE_CAP or math.comb(n, k) > DEGREE_CAP:
        raise DegreeTooLarge(f"{k}-subsets of {n} points exceed the degree cap {DEGREE_CAP}")
    points = [tuple(c) for c in itertools.combinations(range(n), k)]
    gens = _sym_gens(n) if base == "Sym" else _alt_gens(n)
    group = _induced_on_points(gens, points)
    if base == "Sym":
        expected = 2 + int(math.log2(k))
    else:
        if k == 1:
            expected = n - 1
        elif k == 2:
            expected = max(n - 2, 3)
        elif n == 2 * k + 2:
            expected = n - 2
        else:
            expected = n - 3
    order = math.factorial(n) // (1 if base == "Sym" else 2)
    return CatalogEntry(
        name="k_subsets",
        parameters={"base": base, "n": n, "k": k},
        group=group,
        expected_rc=expected,
        expected_order=order if n >= 3 else None,
        in_subset_product_family=True,
    )


def _matchings(n2):
    """Perfect matchings of {0..n2-1} as frozensets of pairs."""
    def rec(points):
        if not points:
            yield frozenset()
            return
        first = points[0]
        for i in range(1, len(points)):
            pair = frozenset((first, points[i]))
            rest = points[1:i] + points[i + 1:]
            for m in rec(rest):
                yield m | {pair}
    return sorted(rec(list(range(n2))), key=lambda m: sorted(sorted(p) for p in m))


def matchings_action(base, n2) -> CatalogEntry:
    """Sym(2n) or Alt(2n) on perfect matchings into n blocks of size 2."""
    if base not in ("Sym", "Alt"):
        raise BadParameter("base must be 'Sym' or 'Alt'")
    if n2 < 4 or n2 % 2 != 0:
        raise BadParameter("need an even degree >= 4")
    count = 1
    for m in range(n2 - 1, 1, -2):  # (n2 - 1)!! matchings, refused early
        count *= m
        if count > DEGREE_CAP:
            raise DegreeTooLarge(f"matchings of {n2} points exceed the degree cap {DEGREE_CAP}")
    n = n2 // 2
    points = [frozenset(frozenset(p) for p in m) for m in _matchings(n2)]
    gens = _sym_gens(n2) if base == "Sym" else _alt_gens(n2)
    group = _induced_on_points(gens, points)  # faithful image of the action
    if base == "Sym":
        expected = n
    else:
        if n == 2:
            expected = 2
        elif n in (3, 4):
            expected = 4
        elif n % 6 in (0, 1, 3, 5):
            expected = n
        else:
            expected = n - 1
    return CatalogEntry(
        name="matchings",
        parameters={"base": base, "degree": n2},
        group=group,
        expected_rc=expected,
    )


def product_action(m, r) -> CatalogEntry:
    """Sym(m) wr Sym(r) in product action on m^r tuples.

    For m = 2 the expected RC is 2 + floor(log2 r) from r = 4 on.  At
    r <= 3 the orbital structure is homogeneous (r = 2: D8 = Aut(C4) with
    C4 = K2,2; r = 3: the cube with its distance colouring), so RC is 2.
    """
    if m < 2 or r < 2:
        raise BadParameter("need m >= 2 and r >= 2")
    degree = m ** r
    if degree > 10**4:
        raise DegreeTooLarge(f"product action degree {degree} exceeds 10^4")

    def point(digits):
        out = 0
        for d in digits:
            out = out * m + d
        return out

    def digits(p):
        out = []
        for _ in range(r):
            out.append(p % m)
            p //= m
        return list(reversed(out))

    gens = []
    for g in _sym_gens(m):
        gens.append(Permutation(
            point([g(ds[0])] + ds[1:]) for ds in (digits(p) for p in range(degree))
        ))
    for g in _sym_gens(r):
        ginv = g.inverse()
        gens.append(Permutation(
            point([ds[ginv(i)] for i in range(r)]) for ds in (digits(p) for p in range(degree))
        ))
    group = PermutationGroup(degree, gens)
    if m != 2:
        expected = None
    elif r <= 3:
        expected = 2
    else:
        expected = 2 + int(math.log2(r))
    return CatalogEntry(
        name="product_action",
        parameters={"m": m, "r": r},
        group=group,
        expected_rc=expected,
        expected_order=math.factorial(m) ** r * math.factorial(r),
        in_subset_product_family=True,
    )


def affine_orthogonal(q, dim) -> CatalogEntry:
    """Translations of F_q^dim extended by the isometries of an anisotropic
    quadratic form; dim 1 gives the dihedral polygon action, dim 2 the
    minus-type plane."""
    if dim not in (1, 2):
        raise BadParameter("dim must be 1 or 2")
    if not _is_prime(q) or q % 2 == 0:
        raise BadParameter("q must be an odd prime")
    if dim == 1:
        if q > 13:
            raise BadParameter("dim-1 entries capped at q <= 13")
        return CatalogEntry(
            name="affine_orthogonal",
            parameters={"q": q, "dim": 1},
            group=dihedral_polygon(q).group,  # x -> x+1 and x -> -x
            expected_rc=2,
            expected_order=2 * q,
        )
    if q > 7:
        raise BadParameter("dim-2 entries capped at q <= 7")
    b, c = _anisotropic_form(q)
    degree = q * q

    def idx(x, y):
        return x * q + y

    def form(x, y):
        return (x * x + b * x * y + c * y * y) % q

    translations = [
        Permutation(idx((x + 1) % q, y) for x in range(q) for y in range(q)),
        Permutation(idx(x, (y + 1) % q) for x in range(q) for y in range(q)),
    ]
    isometries = []
    for m11, m12, m21, m22 in itertools.product(range(q), repeat=4):
        if (m11 * m22 - m12 * m21) % q == 0:
            continue
        if all(
            form((m11 * x + m21 * y) % q, (m12 * x + m22 * y) % q) == form(x, y)
            for x in range(q)
            for y in range(q)
        ):
            isometries.append(
                Permutation(
                    idx((m11 * x + m21 * y) % q, (m12 * x + m22 * y) % q)
                    for x in range(q)
                    for y in range(q)
                )
            )
    if len(isometries) != 2 * (q + 1):
        raise InternalInconsistency("minus-type isometry group has order 2(q+1)")
    group = PermutationGroup(degree, translations + isometries)
    return CatalogEntry(
        name="affine_orthogonal",
        parameters={"q": q, "dim": 2},
        group=group,
        expected_rc=2,
        expected_order=degree * 2 * (q + 1),
    )


def _anisotropic_form(q):
    """Lex-least (b, c) with x^2 + bx + c irreducible over F_q."""
    for b in range(q):
        for c in range(q):
            if all((x * x + b * x + c) % q != 0 for x in range(q)):
                return b, c
    raise BadParameter(f"no irreducible quadratic over F_{q}")


def agl1(p) -> CatalogEntry:
    """The full affine group x -> ax + b on F_p."""
    if not _is_prime(p) or p > 31:
        raise BadParameter("p must be a prime <= 31")
    translation = Permutation((x + 1) % p for x in range(p))
    g = _primitive_root(p)
    scaling = Permutation((g * x) % p for x in range(p))
    group = PermutationGroup(p, [translation, scaling])
    return CatalogEntry(
        name="agl1",
        parameters={"p": p},
        group=group,
        expected_order=p * (p - 1),
    )


def psl2_projective(p) -> CatalogEntry:
    """PSL_2(p) on the projective line (point p is infinity)."""
    if not _is_prime(p) or p > 31 or p < 3:
        raise BadParameter("p must be an odd prime <= 31")
    inf = p

    def mobius_shift(x):
        return inf if x == inf else (x + 1) % p

    def mobius_inv(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return (-pow(x, -1, p)) % p

    gens = [
        Permutation(mobius_shift(x) for x in range(p + 1)),
        Permutation(mobius_inv(x) for x in range(p + 1)),
    ]
    group = PermutationGroup(p + 1, gens)
    return CatalogEntry(
        name="psl2",
        parameters={"p": p},
        group=group,
        expected_order=p * (p * p - 1) // 2,
    )


def holomorph_like_action(T: PermutationGroup):
    """Action on the element set of T generated by right translations,
    conjugations and inversion; the identity is point 0.

    Returns (group, elements list) where elements[i] is the permutation
    of T labeled by point i.
    """
    if T.order() > DIAGONAL_ORDER_CAP:
        raise GroupTooLarge(f"group order {T.order()} exceeds cap {DIAGONAL_ORDER_CAP}")
    if all(a * b == b * a for a in T.generators for b in T.generators):
        raise AbelianInput("diagonal-type construction needs a nonabelian group")
    elements = sorted(T.elements(), key=lambda g: g.images)
    if not elements[0].is_identity():
        raise InternalInconsistency("identity must be the first element")
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    gens = []
    for t in T.generators:
        gens.append(Permutation(index[x * t] for x in elements))  # right translation
        tinv = t.inverse()
        gens.append(Permutation(index[tinv * x * t] for x in elements))  # conjugation
    gens.append(Permutation(index[x.inverse()] for x in elements))  # inversion
    return PermutationGroup(n, gens), elements


def diagonal_type_on_group(T: PermutationGroup) -> CatalogEntry:
    """Action on the element set of T by right translations, conjugations
    and inversion; the point stabilizer of the identity contains Inn(T)."""
    action, _ = holomorph_like_action(T)
    return CatalogEntry(
        name="diagonal_type",
        parameters={"order": T.order()},
        group=action,
    )


def intransitive_join(n) -> CatalogEntry:
    """Sym(n) acting naturally on n points plus by sign on 2 more."""
    if not 3 <= n <= 7:
        raise BadParameter("join entries support 3 <= n <= 7")
    degree = n + 2

    def extend(g, odd):
        images = [g(x) for x in range(n)]
        images += [n + 1, n] if odd else [n, n + 1]
        return Permutation(images)

    base = _sym_gens(n)
    parity = [True, (n - 1) % 2 == 1]  # transposition; n-cycle
    gens = [extend(g, odd) for g, odd in zip(base, parity)]
    group = PermutationGroup(degree, gens)
    return CatalogEntry(
        name="intransitive_join",
        parameters={"n": n},
        group=group,
        expected_rc=n,
        expected_order=math.factorial(n),
    )


def _is_prime(n) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primitive_root(p):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise BadParameter(f"no primitive root for {p}")


BUILDERS = {
    "symmetric_natural": (symmetric_natural, ("n",)),
    "alternating_natural": (alternating_natural, ("n",)),
    "cyclic_regular": (cyclic_regular, ("n",)),
    "dihedral_polygon": (dihedral_polygon, ("n",)),
    "k_subsets": (k_subsets_action, ("base", "n", "k")),
    "matchings": (matchings_action, ("base", "degree")),
    "product_action": (product_action, ("m", "r")),
    "affine_orthogonal": (affine_orthogonal, ("q", "dim")),
    "agl1": (agl1, ("p",)),
    "psl2": (psl2_projective, ("p",)),
    "intransitive_join": (intransitive_join, ("n",)),
}


def build_entry(name, *args) -> CatalogEntry:
    if name not in BUILDERS:
        raise BadParameter(f"unknown catalog entry {name!r}")
    fn, params = BUILDERS[name]
    if len(args) != len(params):
        raise BadParameter(f"{name} takes {len(params)} parameter(s) "
                           f"({', '.join(params)}), not {len(args)}")
    converted = []
    for value, pname in zip(args, params):
        try:
            converted.append(value if pname == "base" else int(value))
        except ValueError:
            raise BadParameter(f"{name} parameter {pname} must be an integer, not {value!r}")
    return fn(*converted)


def default_entries() -> list[CatalogEntry]:
    """The standing catalog used by the verification suite."""
    entries = []
    for n in range(3, 9):
        entries.append(symmetric_natural(n))
    for n in range(3, 8):
        entries.append(alternating_natural(n))
    for n in (3, 4, 5, 6, 7, 11, 13):
        entries.append(cyclic_regular(n))
    for n in (3, 4, 5, 6, 7, 9, 11):
        entries.append(dihedral_polygon(n))
    for base, n, k in [("Sym", 5, 2), ("Sym", 6, 2), ("Alt", 5, 2), ("Alt", 6, 2),
                       ("Sym", 6, 3), ("Alt", 7, 3), ("Sym", 8, 4)]:
        entries.append(k_subsets_action(base, n, k))
    for base, n2 in [("Sym", 4), ("Alt", 4), ("Sym", 6), ("Alt", 6)]:
        entries.append(matchings_action(base, n2))
    for m, r in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        entries.append(product_action(m, r))
    for q, dim in [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2)]:
        entries.append(affine_orthogonal(q, dim))
    for p in (5, 7, 13):
        entries.append(agl1(p))
    for p in (5, 7, 11, 13):
        entries.append(psl2_projective(p))
    for n in (3, 4, 5):
        entries.append(intransitive_join(n))
    entries.append(diagonal_type_on_group(symmetric_natural(3).group))
    return entries
