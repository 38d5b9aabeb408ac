"""Computational non-binarity battery.

Each test is one-sided: NotBinary verdicts carry a certificate that can
be re-validated with the core primitives (all but the counting path of
frobenius_test with a normal subgroup); Inconclusive means the test
found nothing, never that the action is binary.  Tests are pure
functions of (group, parameters, seed).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce

from .catalog import holomorph_like_action
from .closure import k_closure
from .errors import (
    BadParameter,
    DegreeTooLarge,
    GroupTooLarge,
    InternalInconsistency,
    NotFrobenius,
    NotNormal,
    NotTransitive,
    PrimeDoesNotDivide,
    TooLarge,
)
from .group import PermutationGroup, code_table, orbits_under, tuple_image
from .perm import (
    Permutation,
    _trusted,
    fixed_count,
    fixed_count_and_order,
    format_permutation,
)
from .relcomp import (
    TuplePair,
    _witness_at_prefix,
    lattice_witness,
    suborbit_rcs,
    subtuple_complete,
    witness_pair,
)
from .search import StabilizerLattice

ELEMENT_ENUM_CAP = 200_000
TEST1_TUPLE_BUDGET = 400_000
TEST3_DEGREE_CAP = 10**4
TEST5_EXHAUSTIVE_CAP = 10**5
TEST5_SAMPLE_TRIALS = 1000
DEFAULT_TEST6_TRIALS = 100_000
DEFAULT_TEST6_SEED = 0xC4E2

NOT_BINARY = "NotBinary"
INCONCLUSIVE = "Inconclusive"


@dataclass
class TestOutcome:
    test_name: str
    verdict: str
    certificate: object | None = None
    details: dict = field(default_factory=dict)

    @property
    def not_binary(self) -> bool:
        return self.verdict == NOT_BINARY

    def to_json(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = self.certificate.to_json()
        return {
            "test": self.test_name,
            "verdict": self.verdict,
            "certificate": cert,
            **({"details": self.details} if self.details else {}),
        }

    def verify(self, group) -> bool:
        """Re-check the certificate.  Inconclusive claims nothing and
        passes; a NotBinary verdict without a certificate cannot be
        re-checked and fails."""
        if self.certificate is None:
            return not self.not_binary
        return self.certificate.verify(group)


@dataclass
class WitnessPairCertificate:
    """A k-subtuple-complete, non-equivalent pair; checkable directly."""

    pair: TuplePair

    def verify(self, group) -> bool:
        return not self.pair.equivalent and self.pair.verify(group)

    def to_json(self) -> dict:
        return {"kind": "witness_pair", **self.pair.to_json()}


@dataclass
class ClosureElementCertificate:
    """sigma preserving all orbits on k-tuples but outside the group."""

    element: Permutation
    k: int
    pair: TuplePair

    def verify(self, group) -> bool:
        if group.contains(self.element):
            return False
        return WitnessPairCertificate(self.pair).verify(group)

    def to_json(self) -> dict:
        return {
            "kind": "closure_element",
            "element": format_permutation(self.element),
            "k": self.k,
            "pair": self.pair.to_json(),
        }


@dataclass
class OrbitCountCertificate:
    """r_ell exceeding the binary bound r_2^(ell(ell-1)/2)."""

    ell: int
    r_ell: int
    r_2: int

    @property
    def bound(self) -> int:
        return self.r_2 ** (self.ell * (self.ell - 1) // 2)

    def verify(self, group) -> bool:
        # recount by the tuple-orbit route, independent of how it was found
        r2 = _orbit_count_tuples(group, 2)
        rell = _orbit_count_tuples(group, self.ell)
        return r2 == self.r_2 and rell == self.r_ell and rell > self.bound

    def to_json(self) -> dict:
        return {
            "kind": "orbit_count_bound",
            "ell": self.ell,
            "r_ell": self.r_ell,
            "r_2": self.r_2,
            "bound": self.bound,
        }


@dataclass
class FrobeniusCertificate:
    """Frobenius action whose complement has order != 2."""

    complement_order: int

    def verify(self, group) -> bool:
        try:
            order = _frobenius_complement_order(group)
        except (NotTransitive, NotFrobenius):
            return False
        return order == self.complement_order and order != 2

    def to_json(self) -> dict:
        return {"kind": "frobenius_complement", "complement_order": self.complement_order}


@dataclass
class PrimeConfigCertificate:
    """Elementary abelian p^2 configuration forcing non-binarity."""

    rule: str  # "stabilizer_divisibility" or "fixed_point_drop"
    p: int
    g: Permutation
    h: Permutation
    alpha: int | None = None

    def verify(self, group) -> bool:
        p, g, h = self.p, self.g, self.h
        if not (group.contains(g) and group.contains(h)):
            return False
        if g.order() != p or h.order() != p:
            return False
        if not (g * h == h * g) or any(h == g ** i for i in range(p)):
            return False
        if self.rule == "stabilizer_divisibility":
            if self.alpha is None or g(self.alpha) != self.alpha:
                return False
            if group.degree % p != 0:
                return False
            stab_order = group.order() // len(group.orbit(self.alpha))
            if stab_order % p != 0 or stab_order % (p * p) == 0:
                return False
            return (
                _cyclic_conjugate(group, g, h) is not None
                and _cyclic_conjugate(group, g, g * h) is not None
            )
        if self.rule == "fixed_point_drop":
            if group.element_conjugator(g, h) is None:
                return False
            if group.element_conjugator(g, g * h.inverse()) is None:
                return False
            fix_g = set(g.fixed_points())
            fix_v = fix_g & set(h.fixed_points())
            if not len(fix_v) < len(fix_g):
                return False
            # maximality of |Fix(g)| among p-elements
            walks = map(fixed_count_and_order, _element_images(group))
            max_fix = max((f for f, order in walks if order == p), default=0)
            return len(fix_g) == max_fix
        return False

    def to_json(self) -> dict:
        return {
            "kind": "prime_config",
            "rule": self.rule,
            "p": self.p,
            "g": format_permutation(self.g),
            "h": format_permutation(self.h),
            "alpha": self.alpha,
        }


@dataclass
class BeautifulSubsetCertificate:
    """Subset where the induced normal-subgroup action is 2-transitive
    without containing the alternating group; carries a witness pair."""

    subset: tuple
    induced_order: int
    pair: TuplePair

    def verify(self, group) -> bool:
        return WitnessPairCertificate(self.pair).verify(group)

    def to_json(self) -> dict:
        return {
            "kind": "beautiful_subset",
            "subset": list(self.subset),
            "induced_order": self.induced_order,
            "pair": self.pair.to_json(),
        }


# -- shared helpers -----------------------------------------------------


def _element_images(group):
    if group.order() > ELEMENT_ENUM_CAP:
        raise GroupTooLarge(f"element enumeration capped at {ELEMENT_ENUM_CAP}")
    return group.element_images()


def _element_census(group, primes):
    """Facts about a group's elements from one pass over their image
    tuples: (histogram of fixed-point counts, {q: (image tuples of the
    elements of order q in enumeration order, their largest fixed-point
    count)} for each prime q in primes).  Each element costs one cycle
    walk, or, with no prime to sort by, one count of its fixed points."""
    by_prime = {q: [] for q in primes}
    max_fix = dict.fromkeys(by_prime, 0)
    images = group.element_images()
    if not by_prime:
        fixed = Counter(map(fixed_count, images))
    else:
        fixed = Counter()
        for g in images:
            f, o = fixed_count_and_order(g)
            fixed[f] += 1
            found = by_prime.get(o)
            if found is not None:
                found.append(g)
                if f > max_fix[o]:
                    max_fix[o] = f
    return fixed, {q: (by_prime[q], max_fix[q]) for q in by_prime}


def _orbit_count_fixed(fixed, order, ell) -> int:
    """r_ell by the Burnside sum over a histogram of fixed-point counts."""
    total = sum(count * math.perm(f, ell) for f, count in fixed.items())
    if total % order:
        raise InternalInconsistency("orbit-counting sum must divide evenly")
    return total // order


def _orbit_count_tuples(group, ell) -> int:
    """r_ell by closing the codes (code_table) of the distinct ell-tuples
    under the generators: g maps c'n + x to T[c']n + x^g, T its table on
    (ell-1)-tuples."""
    if ell == 0:
        return 1  # the empty tuple alone
    n = group.degree
    gens = [(code_table(g.images, ell - 1), g.images) for g in group.generators]
    domain = (reduce(lambda c, x: c * n + x, t, 0) for t in itertools.permutations(range(n), ell))
    orbits = orbits_under(domain, gens, lambda c, g: g[0][c // n] * n + g[1][c % n])
    return sum(1 for _ in orbits)


def _complete_pair(group, I, J, k):
    """(I, J) as a witness TuplePair with its per-subset transporters, or
    None when some k-subset of positions has no transporter or the full
    tuples are equivalent."""
    transporters = subtuple_complete(group, I, J, k)
    if transporters is None or group.transporter(I, J) is not None:
        return None
    return TuplePair(I=I, J=J, completeness_level=k,
                     transporters=transporters, equivalent=False)


def _cyclic_conjugate(group, g, h):
    """x with g^x generating <h>; tries all generators h^k of <h>."""
    p = h.order()
    for k in range(1, p):
        x = group.element_conjugator(g, h ** k)
        if x is not None:
            return x
    return None


def _distinct_pair_transitive(group) -> bool:
    """2-transitivity: transitive with point stabilizer transitive on the rest."""
    if group.degree < 2:
        return False
    if not group.is_transitive():
        return False
    stab = group.pointwise_stabilizer([0])
    return len(stab.orbit(1)) == group.degree - 1


# -- Test 1: orbit growth vs the binary bound ---------------------------


def test1_character_bound(group, ell_max=5, _census=None) -> TestOutcome:
    """r_ell <= r_2^(ell(ell-1)/2) must hold for binary groups; count and compare.

    Each count takes one route: the element fixed-point sum when the group
    is small enough to enumerate, else explicit tuple-orbit closure within
    TEST1_TUPLE_BUDGET.  The certificate recounts by tuples.
    """
    if not group.is_transitive():
        raise NotTransitive("test 1 requires a transitive group")
    ell_max = min(ell_max, 5, group.degree)
    order = group.order()
    # one pass over the elements serves every ell
    fixed = None
    if order <= ELEMENT_ENUM_CAP:
        fixed = (_census or _element_census(group, ()))[0]

    def r(ell):
        if fixed is not None:
            return _orbit_count_fixed(fixed, order, ell)
        if math.perm(group.degree, ell) <= TEST1_TUPLE_BUDGET:
            return _orbit_count_tuples(group, ell)
        return None  # neither route affordable at this length

    r2 = r(2)
    if r2 is None:
        raise GroupTooLarge("orbit counting unaffordable even for pairs")
    counts = {2: r2}
    for ell in range(3, ell_max + 1):
        r_ell = r(ell)
        if r_ell is None:
            return TestOutcome(
                "test1", INCONCLUSIVE, None,
                {"counts": counts, "truncated_at": ell},
            )
        counts[ell] = r_ell
        if r_ell > r2 ** (ell * (ell - 1) // 2):
            cert = OrbitCountCertificate(ell=ell, r_ell=r_ell, r_2=r2)
            return TestOutcome("test1", NOT_BINARY, cert, {"counts": counts})
    return TestOutcome("test1", INCONCLUSIVE, None, {"counts": counts})


# -- Test 2: strongly non-k-ary via k-closure ---------------------------


def full_tuple_pair(group, sigma, k) -> TuplePair:
    """The strongly-non-k-ary witness induced by a closure element."""
    n = group.degree
    I = tuple(range(n))
    pair = _complete_pair(group, I, sigma.apply_tuple(I), k)
    if pair is None:
        raise InternalInconsistency("closure element must give a witness pair")
    return pair


def test2_strongly_non_k_ary(group) -> TestOutcome:
    closure = k_closure(group, 2)
    if closure.order() == group.order():
        return TestOutcome("test2", INCONCLUSIVE, None, {"closed": True, "k": 2})
    sigma = next(g for g in closure.generators if not group.contains(g))
    # non-2-closed gives a 2-subtuple-complete witness, hence RC > 2
    cert = ClosureElementCertificate(sigma, 2, full_tuple_pair(group, sigma, 2))
    return TestOutcome(
        "test2", NOT_BINARY, cert,
        {"k": 2, "closure_order": closure.order(), "strongly_non_k_ary": True},
    )


# -- Test 3: triples ------------------------------------------------------


def test3_triples(group) -> TestOutcome:
    """First 2-subtuple-complete, non-conjugate triple pair, if any: RC's
    witness check on each prefix {0, beta}, beta an orbit minimum of the
    stabilizer of 0, in ascending order."""
    if not group.is_transitive():
        raise NotTransitive("test 3 requires a transitive group")
    if group.degree > TEST3_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {group.degree} exceeds cap {TEST3_DEGREE_CAP}")
    # G_0 is the lattice's own, so lattice_witness reads it back
    lattice = StabilizerLattice(group)
    stab0 = lattice.stabilizer(frozenset((0,)))
    for beta, _ in stab0.orbits()[1:]:  # the first orbit is {0}
        hit = _witness_at_prefix((0, beta), stab0.pointwise_stabilizer([beta]))
        if hit is not None:
            pair = lattice_witness(lattice, (0, beta), *hit)
            return TestOutcome("test3", NOT_BINARY, WitnessPairCertificate(pair))
    return TestOutcome("test3", INCONCLUSIVE)


# -- Test 4: suborbit actions ---------------------------------------------


def test4_suborbits(group) -> TestOutcome:
    """A non-binary point-stabilizer suborbit action lifts to the group."""
    if not group.is_transitive():
        raise NotTransitive("test 4 requires a transitive group")
    for lam, rc, witness in suborbit_rcs(group):
        if rc > 2 and witness is not None:
            I = (0,) + tuple(lam[p] for p in witness.I)
            J = (0,) + tuple(lam[p] for p in witness.J)
            pair = _complete_pair(group, I, J, 2)
            if pair is None:
                raise InternalInconsistency("lifted suborbit witness must stay a witness pair")
            return TestOutcome(
                "test4", NOT_BINARY, WitnessPairCertificate(pair),
                {"suborbit_size": len(lam), "suborbit_rc": rc},
            )
    return TestOutcome("test4", INCONCLUSIVE)


# -- Test 5: special primes ------------------------------------------------


def test5_special_primes(group, p=None, _census=None) -> TestOutcome:
    """Elementary abelian p^2 configurations (two rules, see certificates).

    Tries p, or else every prime dividing |G| in ascending order, and
    stops at the first NotBinary; otherwise the last prime's outcome
    stands.  Up to TEST5_EXHAUSTIVE_CAP one pass over the elements
    collects the elements of each prime order, in enumeration order, with
    their largest fixed-point count; above it the p-elements are sampled.
    """
    if p is not None and _prime_divisors(p) != [p]:
        raise BadParameter(f"{p} is not a prime")
    order = group.order()
    primes = _prime_divisors(order) if p is None else [p]
    if not primes:
        return TestOutcome("test5", INCONCLUSIVE, None, {"reason": "trivial group"})
    if not group.is_transitive():
        raise NotTransitive("test 5 requires a transitive group")
    if p is not None and order % p != 0:
        raise PrimeDoesNotDivide(f"{p} does not divide the group order {order}")
    exhaustive = order <= TEST5_EXHAUSTIVE_CAP
    if exhaustive:
        p_elements = (_census or _element_census(group, primes))[1]
    for q in primes:
        if exhaustive:
            outcome = _test5_scan(group, q, *p_elements[q])
        else:
            outcome = _test5_sampled(group, q)
        if outcome.not_binary:
            break
    return outcome


def _conjugate(x, c):
    """s^-1 x s for c = (s^-1, s) as image tuples: i goes to s[x[s^-1[i]]]."""
    return tuple_image(tuple_image(c[0], x), c[1])


def _test5_scan(group, p, domain, max_fix=None) -> TestOutcome:
    """Both rules over the image tuples of elements of order p.  Rule 2
    (fixed_point_drop) needs max_fix, the largest fixed-point count of all
    p-elements of the group; without it only rule 1 runs."""
    degree = group.degree
    stab_order = group.order() // degree  # the group is transitive
    rule1_applicable = (
        degree % p == 0 and stab_order % p == 0 and stab_order % (p * p) != 0
    )
    class_of = {}
    if max_fix is None:
        # rule 2, the only reader of classes, is off: each element stands for itself
        reps = dict.fromkeys(domain)
    else:
        # conjugation classes of p-elements, grown under the generators
        conjugators = [(s.inverse().images, s.images) for s in group.generators]
        reps = []
        for g, orbit in orbits_under(domain, conjugators, _conjugate):
            reps.append(g)
            class_of.update(dict.fromkeys(orbit, g))
    for g in map(_trusted, reps):
        fix_g = set(g.fixed_points())
        rule1 = rule1_applicable and bool(fix_g)
        rule2 = max_fix is not None and len(fix_g) == max_fix
        if not (rule1 or rule2):
            continue  # neither rule would read the commuting list
        gi = g.images
        powers = {(g ** i).images for i in range(p)}
        # h commutes with g when h[g[i]] == g[h[i]] for every i
        commuting = [
            hi for hi in domain
            if tuple_image(gi, hi) == tuple_image(hi, gi) and hi not in powers
        ]
        if rule1:
            alpha = min(fix_g)
            for hi in commuting:
                h = _trusted(hi)
                if (
                    _cyclic_conjugate(group, g, h) is not None
                    and _cyclic_conjugate(group, g, g * h) is not None
                ):
                    cert = PrimeConfigCertificate(
                        rule="stabilizer_divisibility", p=p, g=g, h=h, alpha=alpha
                    )
                    return TestOutcome("test5", NOT_BINARY, cert)
        if rule2:
            for hi in commuting:
                if class_of.get(hi) != class_of.get(gi):
                    continue
                h = _trusted(hi)
                if class_of.get((g * h.inverse()).images) != class_of.get(gi):
                    continue
                fix_v = fix_g & set(h.fixed_points())
                if len(fix_v) < len(fix_g):
                    cert = PrimeConfigCertificate(rule="fixed_point_drop", p=p, g=g, h=h)
                    return TestOutcome("test5", NOT_BINARY, cert)
    return TestOutcome("test5", INCONCLUSIVE, None, {"p": p})


def _test5_sampled(group, p) -> TestOutcome:
    """Sampling fallback: p-elements from powers of random elements and
    random conjugates, closed into a p-subgroup until growth stops."""
    rng = random.Random(0)
    chain = group.chain
    levels = [(trans, sorted(trans))
              for trans in map(chain.transversal, range(len(chain.base)))]

    def random_element():
        g = group.identity()
        for trans, points in levels:
            g = g * trans[rng.choice(points)]
        return g

    def p_part(g):
        n = g.order()
        while n % p == 0:
            n //= p
        return g ** n

    p_elements = []
    for _ in range(TEST5_SAMPLE_TRIALS):
        x = p_part(random_element())
        if not x.is_identity():
            p_elements.append(x)
            if len(p_elements) >= 64:
                break
    if not p_elements:
        return TestOutcome("test5", INCONCLUSIVE, None, {"p": p, "sampled": True})
    seen = set()
    pool = []
    for x in p_elements:
        if x not in seen:
            seen.add(x)
            pool.append(x)
        for _ in range(8):
            c = random_element()
            y = c.inverse() * x * c
            if y not in seen:
                seen.add(y)
                pool.append(y)
    # fixed-point maximality cannot be certified from a sample: no max_fix,
    # so rule 2 is off
    outcome = _test5_scan(group, p, [x.images for x in pool if x.order() == p])
    outcome.details["sampled"] = True
    return outcome


# -- Test 6: trivial two-point stabilizers ----------------------------------


def test6_trivial_two_point(group, trials=DEFAULT_TEST6_TRIALS, seed=DEFAULT_TEST6_SEED) -> TestOutcome:
    """Randomized search for g in G_w0 meeting G_w2 G_w1 outside G_w2.

    Needs a pair with trivial two-point stabilizer; each success yields an
    explicitly 2-subtuple-complete, non-equivalent triple pair.
    """
    if trials < 0:
        raise BadParameter(f"trial count must be >= 0, not {trials}")
    if not group.is_transitive():
        raise NotTransitive("test 6 requires a transitive group")
    n = group.degree
    if n < 3:
        return TestOutcome("test6", INCONCLUSIVE)
    w0 = 0
    lattice = StabilizerLattice(group)
    stab0 = lattice.stabilizer(frozenset((w0,)))
    if stab0.is_trivial():
        return TestOutcome("test6", INCONCLUSIVE, None, {"reason": "trivial point stabilizer"})
    if stab0.order() > ELEMENT_ENUM_CAP:
        return TestOutcome("test6", INCONCLUSIVE, None, {"reason": "point stabilizer too large"})
    m_elements = [g for g in stab0.elements() if not g.is_identity()]
    # |G_{w0,w1}| = |G_w0| / |w1^{G_w0}|: trivial exactly on the regular orbits
    regular = {w for _, orbit in stab0.orbits() if len(orbit) == stab0.order() for w in orbit}
    rng = random.Random(seed)
    tried = set()
    total_pairs = (n - 1) * (n - 2)
    for _ in range(trials):
        if len(tried) == total_pairs:
            break  # every ordered pair checked: provably nothing to find
        w1 = rng.randrange(n)
        w2 = rng.randrange(n)
        if w1 in (w0,) or w2 in (w0, w1):
            continue
        if (w1, w2) in tried:
            continue
        tried.add((w1, w2))
        if w1 not in regular:
            continue
        orbit2 = lattice.stabilizer(frozenset((w2,))).orbit_transporter(w1)
        for g in m_elements:
            if g(w2) == w2:
                continue
            pre = g.images.index(w1)
            if pre not in orbit2:
                continue
            # u in G_w2 maps w1 -> pre, so r = u*g fixes w1 and maps w2 as g
            # does: r transports the positions without w0, g those without w1
            r = orbit2[pre] * g
            pair = witness_pair(group, (w0, w1), (w2, g(w2), {0: r, 1: g}))
            cert = WitnessPairCertificate(pair)
            if cert.verify(group):
                return TestOutcome("test6", NOT_BINARY, cert, {"pairs_tried": len(tried)})
    return TestOutcome("test6", INCONCLUSIVE, None, {"pairs_tried": len(tried)})


# -- Frobenius criteria ------------------------------------------------------


def _check_normal(group, subgroup):
    """Raise NotNormal unless subgroup <= group and generator conjugates stay inside."""
    for s in subgroup.generators:
        if not group.contains(s):
            raise NotNormal("supplied subgroup is not contained in the group")
        for g in group.generators:
            if not subgroup.contains(g.inverse() * s * g):
                raise NotNormal("supplied subgroup is not normal in the group")


def _frobenius_complement_order(group) -> int:
    """Complement order if the action is Frobenius, else NotFrobenius.

    Two-point stabilizers are checked on representatives (0, one beta per
    stabilizer orbit), which covers all pairs by transitivity; G_{0,beta}
    is trivial exactly when beta's orbit under G_0 is as long as |G_0|.
    """
    if not group.is_transitive():
        raise NotTransitive("Frobenius detection requires a transitive group")
    stab = group.pointwise_stabilizer([0])
    if stab.is_trivial():
        raise NotFrobenius("point stabilizers are trivial (regular action)")
    for beta, orbit in stab.orbits():
        if beta == 0:
            continue
        if len(orbit) != stab.order():
            raise NotFrobenius(f"two-point stabilizer of (0, {beta}) is nontrivial")
    return stab.order()


def frobenius_test(group, normal_subgroup=None) -> TestOutcome:
    """Frobenius-based non-binarity criteria.

    Without extra arguments: if the action itself is Frobenius with
    complement order != 2, the action is not binary.  With a normal
    subgroup F: its Frobenius orbit through 0 is analyzed for a cyclic
    kernel whose complement has an element of order > 2 (explicit witness
    pair), and for the two-point-stabilizer counting inequality.
    """
    if normal_subgroup is not None:
        return _frobenius_subgroup_paths(group, normal_subgroup)
    order = _frobenius_complement_order(group)
    if order != 2:
        return TestOutcome(
            "frobenius", NOT_BINARY, FrobeniusCertificate(order),
            {"complement_order": order},
        )
    return TestOutcome("frobenius", INCONCLUSIVE, None, {"complement_order": order})


def _frobenius_subgroup_paths(group, F) -> TestOutcome:
    _check_normal(group, F)
    lam = sorted(F.orbit(0))
    induced, kernel_order = F.induced_action(lam)
    if induced.order() > ELEMENT_ENUM_CAP:
        raise GroupTooLarge("Frobenius structure scan capped")
    c = _frobenius_complement_order(induced)
    n = len(lam)
    # cyclic-kernel path: explicit pair (1, y, y^a) vs (1, y, y^b); the
    # regular kernel holds every element of order n, since any other
    # element fixes a point and so has order dividing c < n
    gen = next((g for g in induced.elements() if g.order() == n), None)
    comp = induced.pointwise_stabilizer([0])
    x = next((y for y in comp.elements() if y.order() > 2), None)
    if gen is not None and x is not None:
        k = _conjugation_exponent(gen, x, n)
        a = ((1 + k) * pow(k, -1, n)) % n
        b = (1 + k) % n
        # the kernel is identified with the orbit through 0: gen^i <-> 0^(gen^i)
        to_omega = [lam[(gen ** i)(0)] for i in range(n)]
        I = (to_omega[0], to_omega[1 % n], to_omega[a])
        J = (to_omega[0], to_omega[1 % n], to_omega[b])
        pair = _complete_pair(group, I, J, 2)
        if pair is not None:
            return TestOutcome(
                "frobenius", NOT_BINARY, WitnessPairCertificate(pair),
                {"path": "cyclic_kernel", "kernel_size": n, "exponent": k},
            )
    # counting path: ceil((|C|-1)(|C|-2)/(|L|-2)) >= min two-point stabilizer;
    # needs F faithful on the orbit so the complement order is F_alpha itself
    if len(lam) > 2 and c > 2 and kernel_order == 1:
        # |G_{g1,g2}| = |G_g1| / |g2^{G_g1}|, one stabilizer per g1
        pair_orders = []
        for i, g1 in enumerate(lam[:-1]):
            stab = group.pointwise_stabilizer([g1])
            length = {x: len(orbit) for _, orbit in stab.orbits() for x in orbit}
            pair_orders.extend(stab.order() // length[g2] for g2 in lam[i + 1:])
        m = min(pair_orders)
        lhs = -((-(c - 1) * (c - 2)) // (len(lam) - 2))  # ceil division
        if lhs >= m:
            return TestOutcome(
                "frobenius", NOT_BINARY, None,
                {"path": "counting", "complement_order": c,
                 "orbit_size": len(lam), "min_two_point_stabilizer": m,
                 "pigeonhole": lhs},
            )
    return TestOutcome("frobenius", INCONCLUSIVE, None, {"path": "subgroup"})


def _conjugation_exponent(gen, x, n):
    """k with gen^x = gen^k."""
    conj = x.inverse() * gen * x
    for k in range(1, n + 1):
        if conj == gen ** k:
            return k
    raise NotFrobenius("complement does not normalize the cyclic kernel")


# -- beautiful subsets -------------------------------------------------------


def check_beautiful(group, normal_subgroup, lam) -> TestOutcome:
    """Is lam a subset where the induced action of the (normal) subgroup is
    2-transitive without containing Alt(lam)?  If so the action is not
    binary; the certificate pair transposes the two smallest points of lam.
    """
    S = normal_subgroup
    _check_normal(group, S)
    lam = sorted(set(lam))
    if len(lam) < 2:
        raise BadParameter("a beautiful subset needs at least 2 distinct points")
    induced, _ = S.induced_action(lam)
    size = len(lam)
    details = {"subset_size": size, "induced_order": induced.order()}
    if not _distinct_pair_transitive(induced):
        return TestOutcome("beautiful", INCONCLUSIVE, None,
                           {**details, "reason": "induced action not 2-transitive"})
    if _contains_alternating(induced):
        return TestOutcome("beautiful", INCONCLUSIVE, None,
                           {**details, "reason": "induced action contains Alt"})
    I = tuple(lam)
    J = (lam[1], lam[0]) + tuple(lam[2:])
    pair = _complete_pair(group, I, J, 2)
    if pair is None:
        raise InternalInconsistency("beautiful subset must yield a witness pair")
    cert = BeautifulSubsetCertificate(tuple(lam), induced.order(), pair)
    return TestOutcome("beautiful", NOT_BINARY, cert, details)


def _contains_alternating(group) -> bool:
    """Does the group contain Alt(degree)?  Order comparison for degree >= 5,
    explicit 3-cycle membership below."""
    n = group.degree
    if n < 3:
        return True
    if n >= 5:
        return 2 * group.order() >= math.factorial(n)
    gens = [Permutation.from_cycles([[0, 1, 2]], n)]
    if n == 4:
        gens.append(Permutation.from_cycles([[1, 2, 3]], n))
    return all(group.contains(g) for g in gens)


# -- diagonal-type patch ------------------------------------------------------


def diagonal_patch_witness(T: PermutationGroup) -> TestOutcome:
    """Non-binarity of the diagonal-type action on a nonabelian group T.

    Picks noncommuting a, b in T, not both of order 2, and certifies that
    (1, a, b, ab) and (1, a, b, ba) are 2-subtuple complete (conjugation
    by 1, a and b^-1 supplies the transporters) yet inequivalent.

    The test is one-sided and can return Inconclusive for small
    non-simple T, where every candidate pair is equivalent.  In Sym(3),
    with a of order 3 and b a transposition, conjugation by b composed
    with inversion maps ab to ba while fixing 1, a and b; that 6-point
    action is Aut(K3,3) and binary.
    """
    action, elements = holomorph_like_action(T)
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)

    def conjugation_by(t):
        tinv = t.inverse()
        return Permutation(index[tinv * x * t] for x in elements)

    candidates = [
        (a, b)
        for a in elements
        for b in elements
        if a * b != b * a and not (a.order() <= 2 and b.order() <= 2)
    ]
    if not candidates:
        # cannot happen for nonabelian T: two noncommuting involutions
        # have a noncommuting product of larger order
        raise InternalInconsistency("no noncommuting pair with an element of order > 2")
    for a, b in candidates:
        points = (index[T.identity()], index[a], index[b])
        I = points + (index[a * b],)
        J = points + (index[b * a],)
        # the 4-subtuple failure is a genuine check: inversion composed
        # with a conjugation can defeat it in small non-simple cases
        if action.transporter(I, J) is not None:
            continue
        # the three stated conjugations always certify 2-subtuple
        # completeness; a subset none of them covers fails the verify below
        witnesses = [conjugation_by(T.identity()), conjugation_by(a),
                     conjugation_by(b.inverse())]
        transporters = {}
        for subset in itertools.combinations(range(4), 2):
            src = tuple(I[i] for i in subset)
            dst = tuple(J[i] for i in subset)
            for w in witnesses:
                if w.apply_tuple(src) == dst:
                    transporters[subset] = w
                    break
        pair = TuplePair(I=I, J=J, completeness_level=2,
                         transporters=transporters, equivalent=False)
        outcome = TestOutcome(
            "diagonal_patch", NOT_BINARY, WitnessPairCertificate(pair),
            {"degree": n, "a": format_permutation(a), "b": format_permutation(b)},
        )
        if not outcome.verify(action):
            raise InternalInconsistency("diagonal certificate must re-validate")
        return outcome
    return TestOutcome(
        "diagonal_patch", INCONCLUSIVE, None,
        {"degree": n, "reason": "every candidate 4-tuple pair is equivalent"},
    )


# -- battery -----------------------------------------------------------------

BATTERY_ORDER = ("1", "2", "3", "4", "5", "6", "frobenius")


def run_battery(group, tests=BATTERY_ORDER, stop_at_first=True, prime=None,
                trials=DEFAULT_TEST6_TRIALS, seed=DEFAULT_TEST6_SEED):
    """Run the numbered tests in order; applicability errors become
    Inconclusive outcomes with the reason recorded.  Unknown test names
    and a negative trial count are rejected before any test runs."""
    tests = list(tests)
    unknown = [name for name in tests if name not in BATTERY_ORDER]
    if unknown:
        expected = ", ".join(BATTERY_ORDER)
        raise BadParameter(f"unknown test {unknown[0]!r}; expected one of {expected}")
    if trials < 0:
        raise BadParameter(f"trial count must be >= 0, not {trials}")
    # tests 1 and 5 share one pass over the elements, dropped once both ran;
    # only when both are sure to run and read it: a stop at tests 1-4 would
    # leave test 5's share wasted, and above TEST5_EXHAUSTIVE_CAP test 5
    # samples instead
    sharing = {"1", "5"}
    census = None
    if (not stop_at_first and sharing <= set(tests) and group.is_transitive()
            and group.order() <= TEST5_EXHAUSTIVE_CAP):
        census = _element_census(group, _prime_divisors(group.order()))
    outcomes = []

    def run(name, fn):
        try:
            return fn()
        except (NotTransitive, TooLarge, PrimeDoesNotDivide, NotFrobenius) as exc:
            return TestOutcome(name, INCONCLUSIVE, None,
                               {"not_applicable": f"{type(exc).__name__}: {exc}"})

    for name in tests:
        if name == "1":
            outcome = run("test1", lambda: test1_character_bound(group, 4, _census=census))
        elif name == "2":
            outcome = run("test2", lambda: test2_strongly_non_k_ary(group))
        elif name == "3":
            outcome = run("test3", lambda: test3_triples(group))
        elif name == "4":
            outcome = run("test4", lambda: test4_suborbits(group))
        elif name == "5":
            outcome = run("test5", lambda: test5_special_primes(group, prime, _census=census))
        elif name == "6":
            outcome = run("test6", lambda: test6_trivial_two_point(group, trials, seed))
        else:
            outcome = run("frobenius", lambda: frobenius_test(group))
        outcomes.append(outcome)
        sharing.discard(name)
        if not sharing:
            census = None
        if stop_at_first and outcome.not_binary:
            break
    return outcomes


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
