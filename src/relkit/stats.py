"""Base and height statistics: b(G), B(G), H(G), I(G).

All four are read off one walk over canonical strictly-decreasing
prefixes (see search.py):

  - a minimal-size base never repeats a stabilizer, so b is the minimum
    depth at which the stabilizer hits the identity;
  - I is the maximum such depth (irredundant bases are exactly the
    strict chains reaching the identity);
  - independent sets are the prefixes where dropping any single point
    enlarges the stabilizer, giving H as the deepest one;
  - minimal bases are independent bases, giving B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegreeTooLarge, InternalInconsistency
from .group import PermutationGroup
from .relcomp import TuplePair, relational_complexity
from .search import StabilizerLattice, canonical_prefixes

STATS_DEGREE_CAP = 120


@dataclass
class BaseHeightProfile:
    min_base: int
    min_base_witness: tuple
    max_minimal_base: int
    max_minimal_base_witness: tuple
    height: int
    height_witness: tuple
    max_irredundant: int
    max_irredundant_witness: tuple


def base_height_profile(group: PermutationGroup, degree_cap=STATS_DEGREE_CAP):
    if group.degree > degree_cap:
        raise DegreeTooLarge(f"degree {group.degree} exceeds cap {degree_cap}")
    lattice = StabilizerLattice(group)
    if group.is_trivial():
        empty = ()
        return BaseHeightProfile(0, empty, 0, empty, 0, empty, 0, empty)
    b = None
    b_wit = None
    big_b = 0
    big_b_wit = ()
    h = 0
    h_wit = ()
    irr = 0
    irr_wit = ()
    for points, fset, stab in canonical_prefixes(lattice):
        depth = len(points)
        trivial = stab.is_trivial()
        if trivial:
            if b is None or depth < b:
                b, b_wit = depth, points
            if depth > irr:
                irr, irr_wit = depth, points
        if depth > h and lattice.is_independent(fset):
            h, h_wit = depth, points
        if trivial and depth > big_b and lattice.is_independent(fset):
            big_b, big_b_wit = depth, points
    if b is None:
        raise InternalInconsistency("faithful action must admit a base")
    return BaseHeightProfile(b, b_wit, big_b, big_b_wit, h, h_wit, irr, irr_wit)


def min_base(group, **caps) -> int:
    return base_height_profile(group, **caps).min_base


def max_minimal_base(group, **caps) -> int:
    return base_height_profile(group, **caps).max_minimal_base


def max_irredundant_base(group, **caps) -> int:
    return base_height_profile(group, **caps).max_irredundant


def height(group, **caps):
    """Maximum size of an independent set, with a witness set."""
    profile = base_height_profile(group, **caps)
    return profile.height, profile.height_witness


@dataclass
class StatisticsReport:
    order: int
    degree: int
    transitive: bool
    primitive: bool | None
    rc: int | None
    rc_witness: TuplePair | None
    b: int
    b_witness: tuple
    B: int
    B_witness: tuple
    H: int
    H_witness: tuple
    I: int
    I_witness: tuple
    skipped: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "order": self.order,
            "degree": self.degree,
            "transitive": self.transitive,
            "primitive": self.primitive,
            "rc": self.rc if self.rc is not None else self.skipped.get("rc"),
            "rc_witness": self.rc_witness.to_json() if self.rc_witness else None,
            "b": self.b,
            "b_witness": list(self.b_witness),
            "B": self.B,
            "B_witness": list(self.B_witness),
            "H": self.H,
            "H_witness": list(self.H_witness),
            "I": self.I,
            "I_witness": list(self.I_witness),
        }
        return out


def compute_statistics(group: PermutationGroup, rc_caps=None) -> StatisticsReport:
    """Assemble the full report; RC is reported as skipped beyond its caps."""
    from .errors import DegreeTooLarge, GroupTooLarge

    profile = base_height_profile(group)
    transitive = group.is_transitive()
    primitive = None
    if transitive:
        primitive, _ = group.is_primitive()
    skipped = {}
    rc = None
    rc_witness = None
    try:
        rc, rc_witness = relational_complexity(group, **(rc_caps or {}))
    except (DegreeTooLarge, GroupTooLarge) as exc:
        skipped["rc"] = f"skipped(cap): {exc}"
    report = StatisticsReport(
        order=group.order(),
        degree=group.degree,
        transitive=transitive,
        primitive=primitive,
        rc=rc,
        rc_witness=rc_witness,
        b=profile.min_base,
        b_witness=profile.min_base_witness,
        B=profile.max_minimal_base,
        B_witness=profile.max_minimal_base_witness,
        H=profile.height,
        H_witness=profile.height_witness,
        I=profile.max_irredundant,
        I_witness=profile.max_irredundant_witness,
        skipped=skipped,
    )
    _check_chain(report)
    return report


def _check_chain(report: StatisticsReport):
    """Internal consistency: b <= B <= H <= I <= b*ceil(log2 t), RC <= H+1."""
    t = report.degree
    bound = report.b * max(1, math.ceil(math.log2(t))) if t > 1 else 0
    ok = report.b <= report.B <= report.H <= report.I <= bound if t > 1 else True
    if not ok:
        raise InternalInconsistency(f"statistic chain violated: {report}")
    if report.rc is not None and report.order > 1 and report.rc > report.H + 1:
        raise InternalInconsistency(f"RC exceeds height+1: {report}")
