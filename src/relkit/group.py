"""Permutation groups: orbits, membership, transporters, stabilizers,
induced actions, primitivity and conjugacy search.

A group is immutable after construction; the stabilizer chain is built on
first demand under a lock, so groups are safe to share across threads.
Degrees above DEGREE_CAP are rejected outright.

Transporters, element conjugacy, setwise stabilizers and stabilizer
orders use the chain of rebased(prefix) for the exact points in their
order (built per call unless the group's own equals it): another order
gives other transversals, hence other certificates.
"""

from __future__ import annotations

import json
import threading

from .chain import StabilizerChain, schreier_tree
from .errors import (
    DegreeMismatch,
    DegreeTooLarge,
    LengthMismatch,
    MalformedSyntax,
    NotInGroup,
    NotTransitive,
    ParseError,
    PointOutOfRange,
)
from .perm import Permutation, format_permutation, parse_permutation

DEGREE_CAP = 10**5


def tuple_image(items, images):
    """Image of a tuple (or any iterable) of points under a permutation
    given by its image array."""
    return tuple(map(images.__getitem__, items))


def _point_image(x, images):
    return images[x]


def orbits_under(domain, generators, act):
    """Yield (first item, orbit set) for each orbit that meets the domain,
    in domain order; act(x, g) is the image of x under generator g.

    Over a lexicographically ordered domain each orbit's first item is
    its minimum.  An orbit may leave the domain; its items outside it
    are still in the set.
    """
    seen = set()
    for start in domain:
        if start in seen:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for g in generators:
                y = act(x, g)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        seen |= orbit
        yield start, orbit


def code_table(images, k):
    """The action on k-tuples of the permutation with the given image
    array, as one list over base-n codes: (x_1, ..., x_k) has the code
    x_1 n^(k-1) + ... + x_k, and entry c is the code of c's image."""
    n = len(images)
    codes = [0]
    for _ in range(k):
        codes = [c * n + y for c in codes for y in images]
    return codes


def tuple_orbits(group, k):
    """Yield the G-orbits on k-tuples, repeats included, in order of their
    lexicographic minima, each as a set of codes (code_table), which order
    as the tuples do.  Each generator acts as one list over the codes."""
    gens = [code_table(g.images, k) for g in group.generators]
    for _, orbit in orbits_under(range(group.degree ** k), gens, _point_image):
        yield orbit


class PermutationGroup:
    def __init__(self, degree: int, generators, base_prefix=(), _order=None):
        if degree < 1:
            raise PointOutOfRange("degree must be >= 1")
        if degree > DEGREE_CAP:
            raise DegreeTooLarge(f"degree {degree} exceeds cap {DEGREE_CAP}")
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._base_prefix = tuple(base_prefix)
        # The group order once known: handed in by rebased() or
        # pointwise_stabilizer(), or read off this group's chain.
        self._order: int | None = _order
        # The levels along the path of pointwise_stabilizer calls that made
        # this group (see there); empty for a group built otherwise.
        self._cut_levels: tuple = ()
        self._chain: StabilizerChain | None = None
        self._lock = threading.Lock()

    # -- chain ---------------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = StabilizerChain(
                        self.degree, self.generators, self._base_prefix, self._order
                    )
                    self._order = self._chain.order()
        return self._chain

    def rebased(self, base_prefix) -> "PermutationGroup":
        """Same group with a chain whose base starts with the given points.

        The order is handed on when already known, so the new chain can
        stop early; it is never computed just for that.  This group's chain
        is shared when it is built, its base starts with the points and its
        own base prefix is no longer than theirs: a fresh build then makes
        the same levels in the same order, each generator at the first base
        point it moves, so the same chain.  Only local chains are ever
        extended, never a shared one.
        """
        for p in base_prefix:
            self._check_point(p)
        group = PermutationGroup(self.degree, self.generators, base_prefix, self._order)
        own, prefix = self._chain, list(dict.fromkeys(base_prefix))
        if own is not None and len(prefix) >= len(set(self._base_prefix)) and own.base[:len(prefix)] == prefix:
            group._chain = own
        return group

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain.order()
        return self._order

    def is_trivial(self) -> bool:
        return not self.generators

    # -- basic queries ---------------------------------------------------

    def _check_point(self, p):
        if not 0 <= p < self.degree:
            raise PointOutOfRange(f"point {p} outside 0..{self.degree - 1}")

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatch("degree mismatch in membership test")
        return self.chain.contains(g)

    def orbit(self, p: int) -> set:
        """Orbit of p, as a set."""
        self._check_point(p)
        return next(self._point_orbits((p,)))[1]

    def orbit_transporter(self, p: int):
        """Orbit of p with, per point, an element mapping p there."""
        self._check_point(p)
        return schreier_tree(p, self.generators, self.identity())

    def orbits(self):
        """All orbits as (minimum, orbit set) pairs, by ascending minimum."""
        return list(self._point_orbits(range(self.degree)))

    def _point_orbits(self, domain):
        return orbits_under(domain, [g.images for g in self.generators], _point_image)

    def is_transitive(self) -> bool:
        return self.degree == len(self.orbit(0))

    def elements(self):
        yield from self.chain.elements()

    def element_images(self):
        """The image tuples of elements(), in the same order."""
        return self.chain.element_images()

    # -- transporters and stabilizers -------------------------------------

    def transporter(self, src, dst) -> Permutation | None:
        """Some g with src[i]^g = dst[i] for all i, or None (proof of absence)."""
        src = tuple(src)
        dst = tuple(dst)
        if len(src) != len(dst):
            raise LengthMismatch(f"|I|={len(src)} != |J|={len(dst)}")
        for p in src + dst:
            self._check_point(p)
        pairs = []
        mapping = {}
        for a, b in zip(src, dst):
            if a in mapping:
                if mapping[a] != b:
                    return None
                continue
            mapping[a] = b
            pairs.append((a, b))
        # repeated targets need distinct sources mapped to the same point: impossible
        if len(set(mapping.values())) != len(mapping):
            return None
        if not pairs:
            return self.identity()
        chain = self.rebased([a for a, _ in pairs]).chain
        return chain.descend([b for _, b in pairs])

    def pointwise_stabilizer(self, points) -> "PermutationGroup":
        points = list(points)
        for p in points:
            self._check_point(p)
        chain = self.rebased(points).chain
        k = len(dict.fromkeys(points))
        gens = chain.strong_generators_below(k)
        # Carry the order, not the sliced chain: a chain built from gens
        # has its own base and transversals, which fix the order in which
        # elements() enumerates the stabilizer.
        stab = PermutationGroup(self.degree, gens, _order=chain.order_below(k))
        # The path levels: this group's own, then the levels cut here.
        # Level i holds the orbit of the path's i-th point under the
        # stabilizer of the points before it, with coset representatives
        # (search.py reads set images and side groups off them).
        stab._cut_levels = self._cut_levels + tuple(chain._levels[:k])
        return stab

    def pointwise_stabilizer_order(self, points) -> int:
        points = list(dict.fromkeys(points))
        return self.rebased(points).chain.order_below(len(points))

    def setwise_stabilizer(self, points) -> "PermutationGroup":
        """{g : points^g == points} via backtracking over chosen images.

        The chain is rebased so its base starts with the set; the search
        assigns images within the set level by level.  A branch whose
        partial assignment is already realized by the group found so far
        only repeats known cosets, so it is pruned (the all-identity
        branch, explored first, seeds the stabilizer of the prefix).
        """
        lam = sorted(set(points))
        for p in lam:
            self._check_point(p)
        if len(lam) == self.degree:
            return PermutationGroup(self.degree, self.generators)
        chain = self.rebased(lam).chain
        pointwise = chain.strong_generators_below(len(lam))
        found: list[Permutation] = []
        known = StabilizerChain(self.degree, pointwise, lam)

        # x is the element chain.descend(targets) returns; extending targets
        # by c multiplies it on the left by the representative of x^-1(c)
        def search(i, targets, used, x):
            if i > 0 and targets != lam[:i] and known.descend(targets):
                return
            if i == len(lam):
                if not known.contains(x):
                    found.append(x)
                    known.extend(x)
                return
            reps = {x.images[b]: u for b, u in chain.transversal(i).items()}
            for c in lam:
                if c in used or c not in reps:
                    continue
                search(i + 1, targets + [c], used | {c}, reps[c] * x)

        search(0, [], set(), self.identity())
        return PermutationGroup(self.degree, pointwise + found)

    def induced_action(self, points):
        """Faithful action on the set, relabeled 0..k-1 ascending.

        Returns (image group, kernel order).  If the set is not invariant
        under this group, the setwise stabilizer is taken first.
        """
        lam = sorted(set(points))
        for p in lam:
            self._check_point(p)
        stab = self
        if not all(set(g(p) for p in lam) == set(lam) for g in self.generators):
            stab = self.setwise_stabilizer(lam)
        index = {p: i for i, p in enumerate(lam)}
        images = []
        for g in stab.generators:
            images.append(Permutation(index[g(p)] for p in lam))
        image_group = PermutationGroup(max(len(lam), 1), images)
        kernel_order = stab.order() // image_group.order()
        return image_group, kernel_order

    # -- structure ---------------------------------------------------------

    def is_primitive(self):
        """(True, None) or (False, nontrivial block system)."""
        if not self.is_transitive():
            raise NotTransitive("primitivity is defined for transitive groups")
        n = self.degree
        if n == 1:
            return True, None
        # h in G_0 maps the block system through {0, q} onto itself, so the
        # scan needs one q per G_0-orbit, its minimum (the chain for G_0
        # is cheap to rebase once the order is known)
        self.order()
        g0 = [g.images for g in self.pointwise_stabilizer([0]).generators]
        for q, _ in orbits_under(range(1, n), g0, _point_image):
            blocks = self._minimal_block(0, q)
            if 1 < len(blocks[0]) < n:
                return False, blocks
        return True, None

    def _minimal_block(self, a, b):
        """Smallest block system whose block contains {a, b} (union-find closure)."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
                return True
            return False

        union(a, b)
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            for g in self.generators:
                if union(g(x), g(y)):
                    queue.append((g(x), g(y)))
        cells = {}
        for p in range(self.degree):
            cells.setdefault(find(p), []).append(p)
        return sorted(cells.values())

    def element_conjugator(self, g: Permutation, h: Permutation) -> Permutation | None:
        """x in G with g^x = h, or None (exhausted search).

        The chain is rebased so the base walks g's cycles in order; the
        image of each point after a cycle's first is forced by
        x(g(p)) = h(x(p)), so branching happens only at cycle starts and
        fixed points.
        """
        if not self.contains(g):
            raise NotInGroup("first element is not in the group")
        if not self.contains(h):
            raise NotInGroup("second element is not in the group")
        if g.cycle_type() != h.cycle_type():
            return None
        base = []
        for cycle in sorted(g.cycles(), key=lambda c: (-len(c), c)):
            base.extend(cycle)
        base.extend(p for p in range(self.degree) if g(p) == p)
        chain = self.rebased(base).chain
        ginv = g.inverse()
        fixed_h = set(h.fixed_points())

        def consistent(a, c, img):
            if g(a) == a and c not in fixed_h:
                return False
            if g(a) in img and img[g(a)] != h(c):
                return False
            prev = ginv(a)
            if prev != a and prev in img and h(img[prev]) != c:
                return False
            return True

        # base lists every point once, so the chain has one level per point
        # and x, carried as in setwise_stabilizer, maps each a to img[a]; a
        # leaf's x conjugates, as consistent() checked x(g(p)) = h(x(p)) once
        # the later of p, g(p) was placed (a fixed p against fixed_h)
        def search(i, img, x):
            if i == len(base):
                return x
            a = base[i]
            used = set(img.values())
            for b, u in sorted(chain.transversal(i).items()):
                c = x(b)
                if c in used or not consistent(a, c, img):
                    continue
                img[a] = c
                result = search(i + 1, img, u * x)
                if result is not None:
                    return result
                del img[a]
            return None

        return search(0, {}, self.identity())

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [format_permutation(g) for g in self.generators],
        }

    def __eq__(self, other):
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return self.order() == other.order() and all(
            self.contains(g) for g in other.generators
        )

    def __hash__(self):
        # equal groups may have different generators; degree and order agree
        return hash((self.degree, self.order()))

    def __repr__(self):
        gens = ", ".join(format_permutation(g) for g in self.generators) or "()"
        return f"PermutationGroup(degree={self.degree}, <{gens}>)"


def _json_int(value, what):
    """value, if JSON read it as an integer (not a float or a boolean)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def _json_list(value, what):
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, not {value!r}")
    return value


def group_from_json(data) -> PermutationGroup:
    """Accepts {"degree": n, "generators": [...]} or {"degree": n, "generator_images": [...]}."""
    if not isinstance(data, dict) or "degree" not in data:
        raise ParseError("group file must be an object with a 'degree' field")
    degree = _json_int(data["degree"], "'degree'")
    if degree < 1:
        raise ParseError("'degree' must be a positive integer")
    if degree > DEGREE_CAP:  # before a generator allocates degree images
        raise DegreeTooLarge(f"degree {degree} exceeds cap {DEGREE_CAP}")
    has_cycles = "generators" in data
    has_images = "generator_images" in data
    if has_cycles == has_images:
        raise ParseError("need exactly one of 'generators' or 'generator_images'")
    gens = []
    try:
        if has_cycles:
            for text in _json_list(data["generators"], "'generators'"):
                if not isinstance(text, str):
                    raise ParseError(f"a generator must be a cycle string, not {text!r}")
                gens.append(parse_permutation(text, degree))
        else:
            for images in _json_list(data["generator_images"], "'generator_images'"):
                for point in _json_list(images, "a generator's images"):
                    _json_int(point, "an image point")
                if sorted(images) != list(range(degree)):
                    raise ParseError(f"images {images} are not a bijection of 0..{degree - 1}")
                gens.append(Permutation(images))
    except (MalformedSyntax, PointOutOfRange) as exc:
        raise ParseError(str(exc)) from exc
    return PermutationGroup(degree, gens)


def _read_json(path, kind):
    """The JSON value in the UTF-8 file at path; any failure to read it is
    a ParseError naming the kind of file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers undecodable bytes, bad JSON and integers past
    # int()'s digit limit; RecursionError, nesting past the stack
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc


def load_group(path) -> PermutationGroup:
    return group_from_json(_read_json(path, "group"))


def dump_group(group: PermutationGroup, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group.to_json(), fh, indent=2)
        fh.write("\n")
