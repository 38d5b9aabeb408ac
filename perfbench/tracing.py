"""Outside-in layer trace for the relkit benchmark.

The tracer wraps public functions of relkit's modules from the benchmark's
own files; relkit itself is not changed.  Each wrapped call records one
span (name, start, end, parent) in memory; a generator records one span
per resume, so the time its consumer spends between items is not charged
to it.  Self time is a span's duration minus the time its child spans
cover.  Permutation construction, product and inverse, and a few other
hot leaves, are only counted: they run about 5e5 times per job, and a
span each would cost more than the work it measures.

Spans are written out at the end as a binary file: one JSON header line
({"names": [...], "count": n}), then four arrays of n items each in
native byte order: name index (int32), parent index (int32, -1 for a
root), start and end (float64 seconds of time.perf_counter).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute) pairs that get one span per call.  Spans are named
# "<module>.<attribute>".
SPANNED = [
    ("cli", "main"),
    *[("catalog", name) for name in (
        "symmetric_natural", "alternating_natural", "k_subsets_action",
        "matchings_action", "product_action", "affine_orthogonal", "agl1",
        "psl2_projective", "intransitive_join")],
    ("chain", "StabilizerChain.__init__"),
    *[("group", "PermutationGroup." + name) for name in (
        "pointwise_stabilizer", "pointwise_stabilizer_order", "rebased", "orbits",
        "orbit_transporter", "transporter", "setwise_stabilizer", "induced_action",
        "is_primitive", "element_conjugator")],
    ("group", "group_from_json"),
    ("group", "load_group"),
    ("group", "dump_group"),
    ("relcomp", "relational_complexity"),
    ("relcomp", "_witness_at_prefix"),
    ("relcomp", "subtuple_complete"),
    ("relcomp", "orbit_equivalent"),
    ("relcomp", "TuplePair.verify"),
    ("stats", "base_height_profile"),
    ("stats", "compute_statistics"),
    ("nonbinary", "run_battery"),
    ("nonbinary", "test1_character_bound"),
    ("nonbinary", "test2_strongly_non_k_ary"),
    ("nonbinary", "test3_triples"),
    ("nonbinary", "test4_suborbits"),
    ("nonbinary", "test5_special_primes"),
    ("nonbinary", "test6_trivial_two_point"),
    ("nonbinary", "frobenius_test"),
    ("nonbinary", "TestOutcome.verify"),
    ("structures", "structural_rc"),
    ("structures", "canonical_structure"),
    ("structures", "automorphism_group"),
    ("structures", "is_homogeneous"),
    ("structures", "induced_substructure"),
    ("closure", "k_closure"),
    ("closure", "OrbitalColoring.__init__"),
    ("digraphs", "enumerate_homogeneous_digraphs"),
    ("digraphs", "canonical_form"),
    ("digraphs", "sporadic_h0"),
    ("digraphs", "sporadic_h1"),
    ("digraphs", "sporadic_h2"),
    ("digraphs", "undirected_cycle"),
    # generators: one span per resume
    ("search", "canonical_prefixes"),
    ("structures", "structure_isomorphisms"),
]

# (module, attribute) pairs that are only counted, by calls or by items yielded.
COUNTED = [
    ("perm", "Permutation.__init__"),
    ("perm", "Permutation.__mul__"),
    ("perm", "Permutation.inverse"),
    ("group", "PermutationGroup.elements"),
    ("search", "StabilizerLattice.is_independent"),
]

# Lattice lookups: counted, with a hit when the key is already memoized.
LOOKUPS = [
    ("search", "StabilizerLattice.stabilizer", "_memo"),
    ("search", "StabilizerLattice.order", "_orders"),
]

LAYERS = ("cli", "catalog", "chain", "group", "search", "relcomp", "stats",
          "nonbinary", "structures", "closure", "digraphs")

# Every metric the traced run reports, with its unit.
METRICS = {
    "perm.constructed": "count",
    "perm.products": "count",
    "perm.inverses": "count",
    "chain.builds": "count",
    "chain.build_s": "s",
    "group.pointwise_stabilizer.calls": "count",
    "group.pointwise_stabilizer.self_s": "s",
    "group.rebased.calls": "count",
    "group.orbits.calls": "count",
    "group.orbit_transporter.calls": "count",
    "group.transporter.calls": "count",
    "group.transporter.self_s": "s",
    "group.elements.yielded": "count",
    "search.nodes": "count",
    "search.walk.self_s": "s",
    "search.walk.stabilizer_calls": "count",
    "search.child_useful_ratio": "ratio",
    "search.lattice.lookups": "count",
    "search.lattice.hit_ratio": "ratio",
    "search.lattice.entries": "count",
    "search.independence_checks": "count",
    "relcomp.rc.self_s": "s",
    "relcomp.witness_checks": "count",
    "relcomp.witness_hit_ratio": "ratio",
    "relcomp.witness.self_s": "s",
    "stats.profile.self_s": "s",
    "nonbinary.test1_s": "s",
    "nonbinary.test2_s": "s",
    "nonbinary.test3_s": "s",
    "nonbinary.test4_s": "s",
    "nonbinary.test5_s": "s",
    "nonbinary.test6_s": "s",
    "nonbinary.frobenius_s": "s",
    "nonbinary.cert_verify_s": "s",
    "nonbinary.verdicts": "count",
    "nonbinary.not_binary_ratio": "ratio",
    "structures.structural_rc.self_s": "s",
    "structures.automorphism_group.self_s": "s",
    "structures.is_homogeneous.self_s": "s",
    "structures.structure_isomorphisms.self_s": "s",
    "closure.k_closure.self_s": "s",
    "digraphs.enumerate.self_s": "s",
    "cli.self_s": "s",
    "catalog.build_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "layer.bench.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module_name, path):
    """(owner, attribute name, original) for 'func' or 'Class.method'."""
    owner = importlib.import_module(f"relkit.{module_name}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """Spans and counters of one traced run; install() patches relkit,
    uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name (a root span per job)."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _generator_wrapper(self, fn, name):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        counts = self.counts
        yielded = name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[yielded] += 1
                    yield item
            finally:
                inner.close()
                if hook is not None:
                    hook(counts, args, None)

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            yielded = name + ".yielded"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[yielded] += 1
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lookup_wrapper(self, fn, memo_attr):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(lattice, points):
            counts["search.lattice.lookups"] += 1
            if points in getattr(lattice, memo_attr, ()):
                counts["search.lattice.hits"] += 1
            return fn(lattice, points)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, module_name, path, make):
        try:
            owner, attr, original = _resolve(module_name, path)
        except AttributeError:
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make(original, f"{module_name}.{path}")
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        if inspect.ismodule(owner):
            # names bound by "from .x import f" elsewhere in relkit
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "relkit" or mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def install(self):
        for module_name, path in SPANNED:
            self._patch(module_name, path, lambda fn, name: (
                self._generator_wrapper(fn, name) if inspect.isgeneratorfunction(fn)
                else self._span_wrapper(fn, name)))
        for module_name, path in COUNTED:
            self._patch(module_name, path, self._count_wrapper)
        for module_name, path, memo_attr in LOOKUPS:
            self._patch(module_name, path,
                        lambda fn, name, attr=memo_attr: self._lookup_wrapper(fn, attr))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def write(self, path):
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)

    def metrics(self, traced_wall_s, untraced_wall_s) -> dict:
        """Every entry of METRICS, as a number, from the spans and counters."""
        n = len(self.start)
        names = self.names
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = Counter()
        self_s = Counter()
        total_s = Counter()
        layer_self = Counter()
        walk_id = self._name_ids.get("search.canonical_prefixes", -2)
        pw_id = self._name_ids.get("group.PermutationGroup.pointwise_stabilizer", -2)
        walk_stab_calls = 0
        catalog_s = 0.0
        for i in range(n):
            name = names[self.name_of[i]]
            own = dur[i] - covered[i]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += dur[i]
            layer_self[name.split(".")[0]] += own
            p = self.parent[i]
            if self.name_of[i] == pw_id and p >= 0 and self.name_of[p] == walk_id:
                walk_stab_calls += 1
            if name.startswith("catalog.") and (p < 0 or not names[self.name_of[p]].startswith("catalog.")):
                catalog_s += dur[i]

        c = self.counts
        group = "group.PermutationGroup."

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "perm.constructed": c["perm.Permutation.__init__"],
            "perm.products": c["perm.Permutation.__mul__"],
            "perm.inverses": c["perm.Permutation.inverse"],
            "chain.builds": calls["chain.StabilizerChain.__init__"],
            "chain.build_s": total_s["chain.StabilizerChain.__init__"],
            "group.pointwise_stabilizer.calls": calls[group + "pointwise_stabilizer"],
            "group.pointwise_stabilizer.self_s": self_s[group + "pointwise_stabilizer"],
            "group.rebased.calls": calls[group + "rebased"],
            "group.orbits.calls": calls[group + "orbits"],
            "group.orbit_transporter.calls": calls[group + "orbit_transporter"],
            "group.transporter.calls": calls[group + "transporter"],
            "group.transporter.self_s": self_s[group + "transporter"],
            "group.elements.yielded": c[group + "elements.yielded"],
            "search.nodes": c["search.canonical_prefixes.yielded"],
            "search.walk.self_s": self_s["search.canonical_prefixes"],
            "search.walk.stabilizer_calls": walk_stab_calls,
            "search.child_useful_ratio": ratio(c["search.canonical_prefixes.yielded"], walk_stab_calls),
            "search.lattice.lookups": c["search.lattice.lookups"],
            "search.lattice.hit_ratio": ratio(c["search.lattice.hits"], c["search.lattice.lookups"]),
            "search.lattice.entries": c["search.lattice.entries"],
            "search.independence_checks": c["search.StabilizerLattice.is_independent"],
            "relcomp.rc.self_s": self_s["relcomp.relational_complexity"],
            "relcomp.witness_checks": calls["relcomp._witness_at_prefix"],
            "relcomp.witness_hit_ratio": ratio(c["relcomp.witness_hits"], calls["relcomp._witness_at_prefix"]),
            "relcomp.witness.self_s": self_s["relcomp._witness_at_prefix"],
            "stats.profile.self_s": self_s["stats.base_height_profile"],
            "nonbinary.test1_s": total_s["nonbinary.test1_character_bound"],
            "nonbinary.test2_s": total_s["nonbinary.test2_strongly_non_k_ary"],
            "nonbinary.test3_s": total_s["nonbinary.test3_triples"],
            "nonbinary.test4_s": total_s["nonbinary.test4_suborbits"],
            "nonbinary.test5_s": total_s["nonbinary.test5_special_primes"],
            "nonbinary.test6_s": total_s["nonbinary.test6_trivial_two_point"],
            "nonbinary.frobenius_s": total_s["nonbinary.frobenius_test"],
            "nonbinary.cert_verify_s": total_s["nonbinary.TestOutcome.verify"],
            "nonbinary.verdicts": c["nonbinary.verdicts"],
            "nonbinary.not_binary_ratio": ratio(c["nonbinary.not_binary"], c["nonbinary.verdicts"]),
            "structures.structural_rc.self_s": self_s["structures.structural_rc"],
            "structures.automorphism_group.self_s": self_s["structures.automorphism_group"],
            "structures.is_homogeneous.self_s": self_s["structures.is_homogeneous"],
            "structures.structure_isomorphisms.self_s": self_s["structures.structure_isomorphisms"],
            "closure.k_closure.self_s": self_s["closure.k_closure"],
            "digraphs.enumerate.self_s": self_s["digraphs.enumerate_homogeneous_digraphs"],
            "cli.self_s": self_s["cli.main"],
            "catalog.build_s": catalog_s,
            **{f"layer.{layer}.self_s": layer_self[layer] for layer in LAYERS},
            "layer.bench.self_s": layer_self["bench"],
            "trace.spans": n,
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }
        return out


def _witness_hit(counts, args, result):
    if result is not None:
        counts["relcomp.witness_hits"] += 1


def _battery_verdicts(counts, args, outcomes):
    counts["nonbinary.verdicts"] += len(outcomes)
    counts["nonbinary.not_binary"] += sum(1 for o in outcomes if o.not_binary)


def _walk_end(counts, args, result):
    # the lattice a finished walk leaves behind: what the memo holds
    counts["search.lattice.entries"] += len(getattr(args[0], "_memo", ()))


_HOOKS = {
    "relcomp._witness_at_prefix": _witness_hit,
    "nonbinary.run_battery": _battery_verdicts,
    "search.canonical_prefixes": _walk_end,
}
