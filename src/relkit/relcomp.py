"""Relational complexity: subtuple completeness, witnesses, exact RC.

The witness search normal form: a pair of (m+1)-tuples that is
m-subtuple complete but not equivalent can always be brought, by acting
with one transporter, to the shape

    I = (x_1, ..., x_m, a),   J = (x_1, ..., x_m, b)

with all entries distinct.  Writing H_i for the pointwise stabilizer of
{x_1..x_m} minus x_i and K for the pointwise stabilizer of all of them,
such a pair exists for the prefix {x_1..x_m} exactly when some orbit
intersection  (a^{H_1} & ... & a^{H_m}) \\ a^K  is nonempty.  Each H_i
must properly contain K, so the prefix is an independent set; witness
levels are therefore bounded by the height, which is what makes the
search finite (and is the content of the RC <= height + 1 bound).

Distinct entries lose nothing: at level m >= 2, matching repeat patterns
are forced, and collapsing repeats would shorten an m-subtuple-complete
pair to length <= m, making it equivalent outright.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import (
    DegreeTooLarge,
    GroupTooLarge,
    LengthMismatch,
    MalformedSyntax,
    ParseError,
    PointOutOfRange,
)
from .group import PermutationGroup, _json_int, _json_list
from .perm import Permutation, format_permutation, parse_permutation
from .search import StabilizerLattice, canonical_prefixes, path_sides

RC_DEGREE_CAP = 120
RC_ORDER_CAP = 10**7
RC_FORCED_ORDER_CAP = 10**12


@dataclass
class TuplePair:
    """A certified pair: k-subtuple complete, with transporters per subset.

    ``equivalent`` records whether the full tuples lie in one orbit; a
    witness has equivalent=False, certified by an exhausted transporter
    search over the pointwise stabilizer of the shared prefix.
    """

    I: tuple
    J: tuple
    completeness_level: int
    transporters: dict = field(default_factory=dict)
    equivalent: bool = False

    def verify(self, group: PermutationGroup) -> bool:
        """Re-check the certificate: exactly one recorded transporter per
        min(k, |I|)-subset S of positions, each in the group and mapping
        I|S onto J|S, and the recorded (non-)equivalence of I and J."""
        n = len(self.I)
        if len(self.J) != n or self.completeness_level < 1:
            return False
        if not all(0 <= p < group.degree for p in itertools.chain(self.I, self.J)):
            return False
        size = min(self.completeness_level, n)
        if self.transporters.keys() != set(itertools.combinations(range(n), size)):
            return False
        for subset, perm in self.transporters.items():
            if not group.contains(perm):
                return False
            for i in subset:
                if perm(self.I[i]) != self.J[i]:
                    return False
        full = group.transporter(self.I, self.J)
        return (full is not None) == self.equivalent

    def to_json(self) -> dict:
        certs = {
            json.dumps(list(subset)): format_permutation(perm)
            for subset, perm in sorted(self.transporters.items())
        }
        return {
            "I": list(self.I),
            "J": list(self.J),
            "k": self.completeness_level,
            "certs": certs,
            "equivalent": self.equivalent,
        }

    @staticmethod
    def from_json(data, degree: int) -> "TuplePair":
        """The pair to_json wrote.  ParseError for a missing field, a point
        that is not an integer in 0..degree-1, a 'k' that is not an
        integer, an 'equivalent' that is not a boolean, or a malformed
        cert key or permutation."""
        if not isinstance(data, dict) or not {"I", "J", "k", "equivalent"} <= data.keys():
            raise ParseError("a tuple pair needs 'I', 'J', 'k' and 'equivalent' fields")
        if not isinstance(data["equivalent"], bool):
            raise ParseError(f"'equivalent' must be a boolean, not {data['equivalent']!r}")
        certs_json = data.get("certs", {})
        if not isinstance(certs_json, dict):
            raise ParseError(f"'certs' must be an object, not {certs_json!r}")
        certs = {}
        for key, text in certs_json.items():
            try:
                positions = json.loads(key)
            except (ValueError, RecursionError):
                raise ParseError(f"cert key {key!r} is not a JSON list") from None
            subset = tuple(_json_int(i, "a cert key's position")
                           for i in _json_list(positions, "a cert key"))
            if not isinstance(text, str):
                raise ParseError(f"a cert must be a cycle string, not {text!r}")
            try:
                certs[subset] = parse_permutation(text, degree)
            except (MalformedSyntax, PointOutOfRange) as exc:
                raise ParseError(f"cert {key}: {exc}") from exc
        return TuplePair(
            I=_json_points(data["I"], degree, "'I'"),
            J=_json_points(data["J"], degree, "'J'"),
            completeness_level=_json_int(data["k"], "'k'"),
            transporters=certs,
            equivalent=data["equivalent"],
        )


def _json_points(value, degree, what):
    points = tuple(_json_int(p, f"a point of {what}") for p in _json_list(value, what))
    for p in points:
        if not 0 <= p < degree:
            raise ParseError(f"point {p} of {what} outside 0..{degree - 1}")
    return points


def subtuple_complete(group, I, J, k):
    """The transporters I|S -> J|S, one per k-subset S of positions, or
    None when some subset has none."""
    I = tuple(I)
    J = tuple(J)
    if len(I) != len(J):
        raise LengthMismatch(f"|I|={len(I)} != |J|={len(J)}")
    if k < 1:
        raise LengthMismatch("completeness level must be >= 1")
    size = min(k, len(I))
    certificates = {}
    for subset in itertools.combinations(range(len(I)), size):
        src = tuple(I[i] for i in subset)
        dst = tuple(J[i] for i in subset)
        g = group.transporter(src, dst)
        if g is None:
            return None
        certificates[subset] = g
    return certificates


def orbit_equivalent(group, I, J) -> bool:
    """Is there g in G with I^g = J (full tuples)?"""
    return group.transporter(I, J) is not None


def _witness_at_prefix(points, stab):
    """Search a, b completing the prefix points to a witness: (alpha, beta),
    or None if none exists.  stab is the prefix's stabilizer K, built along
    points: the side groups H_i are read off its path levels as cosets of K
    (see search.py), never built."""
    sides = path_sides(stab)
    if sides is None:
        return None  # a redundant point: the intersection can never escape
    orbits = stab.orbits()
    orbit_of = [0] * stab.degree
    for index, (_, orbit) in enumerate(orbits):
        for x in orbit:
            orbit_of[x] = index
    for own, (alpha, _) in enumerate(orbits):
        if alpha in points:
            continue
        # H_i is the union of the cosets g^-1 K, so the H_i-orbit of alpha
        # is the union of the K-orbits of the points alpha^(g^-1), that is
        # g.index(alpha); once the intersection shrinks to alpha's own
        # K-orbit, nothing is left to escape
        candidates = {orbit_of[g.index(alpha)] for g in sides[0]}
        for cosets in sides[1:]:
            if len(candidates) == 1:
                break
            candidates &= {orbit_of[g.index(alpha)] for g in cosets}
        candidates.discard(own)
        if candidates:
            # orbits ascend by minimum: the least escaped point heads the first
            return alpha, orbits[min(candidates)][0]
    return None


class WitnessSearch:
    """RC's consumer of the prefix walk: visit() takes the nodes in walk
    order, and prune() is RC's cut, read after the node was visited."""

    def __init__(self, lattice):
        self.lattice = lattice
        self.best_level = 1
        self.best = None

    def prune(self, depth, order):
        # a strictly decreasing chain below this node gains at most log2(order) points
        return depth + max(0, order.bit_length() - 1) <= self.best_level

    def visit(self, points, stab):
        if len(points) > self.best_level:
            hit = _witness_at_prefix(points, stab)
            if hit is not None:
                self.best_level = len(points)
                self.best = (tuple(sorted(points)), hit)

    def result(self):
        """(RC, maximal witness pair), or (2, None) for a binary action."""
        if self.best is None:
            return 2, None
        prefix, (alpha, beta) = self.best
        return len(prefix) + 1, lattice_witness(self.lattice, prefix, alpha, beta)


def lattice_witness(lattice, prefix, alpha, beta) -> TuplePair:
    """The witness pair of a hit (alpha, beta) of _witness_at_prefix on the
    sorted prefix, its transporters read off the lattice's side groups.
    The only place that still builds side groups: the witness check reads
    their orders and orbits off the path levels, and words need generators."""
    prefix_set = frozenset(prefix)
    transporters = {
        dropped: lattice.stabilizer(prefix_set - {p}).orbit_transporter(alpha)[beta]
        for dropped, p in enumerate(prefix)
    }
    return witness_pair(lattice.group, prefix, (alpha, beta, transporters))


def witness_pair(group, prefix, hit) -> TuplePair:
    """The pair (prefix + (alpha,), prefix + (beta,)) of a hit
    (alpha, beta, side transporters), the i-th fixing the prefix but its
    i-th point: one transporter per subset of all positions but one."""
    alpha, beta, side_transporters = hit
    m = len(prefix)
    transporters = {tuple(range(m)): group.identity()}
    for dropped, perm in side_transporters.items():
        transporters[tuple(i for i in range(m + 1) if i != dropped)] = perm
    return TuplePair(I=prefix + (alpha,), J=prefix + (beta,),
                     completeness_level=m, transporters=transporters)


def check_rc_caps(group, force_caps=False):
    """RC's caps, read when called.  force_caps drops the degree check
    (group.DEGREE_CAP already bounds every group) and lifts the order cap
    to RC_FORCED_ORDER_CAP."""
    if not force_caps and group.degree > RC_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {group.degree} exceeds cap {RC_DEGREE_CAP}")
    cap = RC_FORCED_ORDER_CAP if force_caps else RC_ORDER_CAP
    if group.order() > cap:
        raise GroupTooLarge(f"order {group.order()} exceeds cap {cap}")


def relational_complexity(group, force_caps=False):
    """Exact RC with a maximal witness pair, or (2, None) for binary actions."""
    check_rc_caps(group, force_caps)
    lattice = StabilizerLattice(group)
    search = WitnessSearch(lattice)
    for node in canonical_prefixes(lattice, prune=search.prune):
        search.visit(*node)
    return search.result()


def is_binary(group) -> bool:
    rc, _ = relational_complexity(group)
    return rc == 2


def suborbit_rcs(group):
    """For each orbit of length >= 2 of the stabilizer of 0, by ascending
    minimum: (the sorted orbit, RC, witness), RC and witness those of the
    stabilizer's action on the orbit."""
    stab = group.pointwise_stabilizer([0])
    for _, orbit in stab.orbits():
        if len(orbit) > 1:
            lam = sorted(orbit)
            induced, _ = stab.induced_action(lam)
            yield (lam, *relational_complexity(induced))
