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

`relkit stats` walks once, unpruned, and feeds every node to RC's
consumer too; `relkit rc` keeps the pruned walk.  RC's answer holds if
it checks for a witness on exactly the nodes its pruned walk checks, in
order: the live nodes.  The root is live unless prune(0, |G|); a child
is live when its parent was live and not cut by the prune read after RC
visited the parent.  No flag is needed: RC checks only nodes deeper
than its best level, and each step down at least halves the order, so
a node under a cut node A has depth <= depth(A) + log2|G_A| <= best.
If the unpruned walk skips a live node N for an earlier orbit-mate M,
either the pruned walk visited M and skips N too, or M lies under a cut
node and depth(N) = depth(M) <= best.  The witness words are read off
the lattice, which holds only its own recursion's groups (search.py),
after the walk; tests/test_stats.py compares the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegreeTooLarge, InternalInconsistency, TooLarge
from .group import PermutationGroup
from .relcomp import TuplePair, WitnessSearch, check_rc_caps
from .search import StabilizerLattice, canonical_prefixes

STATS_DEGREE_CAP = 120


@dataclass
class BaseHeightProfile:
    b: int
    b_witness: tuple
    B: int
    B_witness: tuple
    H: int
    H_witness: tuple
    I: int
    I_witness: tuple


class ProfileSearch:
    """The b/B/H/I consumer of the prefix walk: visit() takes the nodes in
    walk order."""

    def __init__(self, lattice):
        self.lattice = lattice
        # the trivial group's walk is empty, and its profile all zeros
        self.b = 0 if lattice.group.is_trivial() else None
        self.b_wit = self.big_b_wit = self.h_wit = self.irr_wit = ()
        self.big_b = self.h = self.irr = 0

    def visit(self, points, stab):
        depth = len(points)
        trivial = stab.is_trivial()
        if trivial:
            if self.b is None or depth < self.b:
                self.b, self.b_wit = depth, points
            if depth > self.irr:
                self.irr, self.irr_wit = depth, points
        deeper_h = depth > self.h
        deeper_b = trivial and depth > self.big_b
        if (deeper_h or deeper_b) and self.lattice.is_independent(stab):
            if deeper_h:
                self.h, self.h_wit = depth, points
            if deeper_b:
                self.big_b, self.big_b_wit = depth, points

    def result(self) -> BaseHeightProfile:
        if self.b is None:
            raise InternalInconsistency("faithful action must admit a base")
        return BaseHeightProfile(self.b, self.b_wit, self.big_b, self.big_b_wit,
                                 self.h, self.h_wit, self.irr, self.irr_wit)


def base_height_profile(group: PermutationGroup):
    if group.degree > STATS_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {group.degree} exceeds cap {STATS_DEGREE_CAP}")
    lattice = StabilizerLattice(group)
    search = ProfileSearch(lattice)
    for node in canonical_prefixes(lattice):
        search.visit(*node)
    return search.result()


def height(group):
    """Maximum size of an independent set, with a witness set."""
    profile = base_height_profile(group)
    return profile.H, profile.H_witness


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


def compute_statistics(group: PermutationGroup, force_caps=False) -> StatisticsReport:
    """Assemble the full report from one walk; RC is reported as skipped
    beyond its caps (see check_rc_caps for force_caps)."""
    if group.degree > STATS_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {group.degree} exceeds cap {STATS_DEGREE_CAP}")
    lattice = StabilizerLattice(group)
    profile = ProfileSearch(lattice)
    witness_search = None
    skipped = {}
    try:
        check_rc_caps(group, force_caps)
        witness_search = WitnessSearch(lattice)
    except TooLarge as exc:
        skipped["rc"] = f"skipped(cap): {exc}"
    for node in canonical_prefixes(lattice):
        if witness_search is not None:
            witness_search.visit(*node)
        profile.visit(*node)
    rc, rc_witness = witness_search.result() if witness_search is not None else (None, None)
    transitive = group.is_transitive()
    report = StatisticsReport(
        order=group.order(),
        degree=group.degree,
        transitive=transitive,
        primitive=group.is_primitive()[0] if transitive else None,
        rc=rc,
        rc_witness=rc_witness,
        **vars(profile.result()),
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
