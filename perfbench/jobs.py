"""The benchmark's workloads: seeded inputs, the jobs run on them, and the
value gate that checks every answer against a frozen table.

A job is one call into relkit plus the checks on its result.  Every input
group (and digraph) is relabeled by a permutation drawn from the seed, so
the frozen values hold for any seed while the cost of reaching them
changes.  Jobs reach relkit through module attributes, never through
names bound at import, so the layer trace in tracing.py sees each call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from relkit import catalog, cli, closure, digraphs, nonbinary, structures
from relkit.errors import CapExceeded
from relkit.group import PermutationGroup, dump_group
from relkit.perm import Permutation
from relkit.relcomp import TuplePair

EXPECTED_PATH = Path(__file__).with_name("expected.json")
BATTERY_TRIALS = 20_000
BATTERY_TESTS = ["test1", "test2", "test3", "test4", "test5", "test6", "frobenius"]


class GateFailure(Exception):
    """A job's value or certificate disagrees with the frozen table."""


@dataclass(frozen=True)
class Job:
    kind: str  # which runner below handles it
    constructor: str  # function name in relkit.catalog or relkit.digraphs
    params: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.kind} {self.constructor}({','.join(map(str, self.params))})"


@dataclass
class Input:
    group: PermutationGroup | None = None
    graph: digraphs.Digraph | None = None
    path: Path | None = None


@dataclass
class JobResult:
    label: str
    seconds: float
    error: str | None
    certificates: int

    @property
    def ok(self) -> bool:
        return self.error is None


WORKLOADS = {
    "rc_walk": [
        Job("rc", "k_subsets_action", ("Sym", 6, 2)),
        Job("rc", "k_subsets_action", ("Alt", 7, 3)),
        Job("rc", "k_subsets_action", ("Sym", 7, 3)),
        Job("rc", "k_subsets_action", ("Alt", 9, 2)),
    ],
    "stats_walk": [
        Job("stats", "k_subsets_action", ("Sym", 8, 2)),
        Job("stats", "affine_orthogonal", (7, 2)),
        Job("stats", "product_action", (3, 3)),
        Job("stats", "k_subsets_action", ("Sym", 7, 2)),
        Job("stats", "matchings_action", ("Sym", 6)),
    ],
    "battery": [
        Job("battery", "symmetric_natural", (8,)),
        Job("battery", "k_subsets_action", ("Alt", 6, 2)),
        Job("battery", "k_subsets_action", ("Sym", 6, 2)),
        Job("battery", "matchings_action", ("Sym", 6)),
        Job("battery", "agl1", (13,)),
        Job("battery", "psl2_projective", (11,)),
        Job("battery", "psl2_projective", (13,)),
    ],
    "structures": [
        Job("structural_rc", "intransitive_join", (4,)),
        Job("structural_rc", "intransitive_join", (3,)),
        Job("structural_rc", "alternating_natural", (5,)),
        Job("structural_rc", "alternating_natural", (6,)),
        Job("structural_rc", "psl2_projective", (5,)),
        Job("structural_rc", "agl1", (5,)),
        Job("aut", "sporadic_h0"),
        Job("aut", "sporadic_h1"),
        Job("aut", "sporadic_h2"),
        Job("homogeneous", "sporadic_h0"),
        Job("homogeneous", "undirected_cycle", (5,)),
        Job("enumerate", "homog", (5,)),
        Job("closure", "psl2_projective", (11,)),
    ],
}

DIGRAPH_KINDS = {"aut", "homogeneous"}
FILE_KINDS = {"rc", "stats"}


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["jobs"]


def job_rng(seed: int, round_index: int, job: Job) -> random.Random:
    """The labeling source of one job in one round of a run."""
    return random.Random(f"{seed}/{round_index}/{job.label}")


def relabel_group(group: PermutationGroup, rng: random.Random) -> PermutationGroup:
    """The conjugate of the group by a random point permutation."""
    n = group.degree
    pi = list(range(n))
    rng.shuffle(pi)
    inv = [0] * n
    for x, y in enumerate(pi):
        inv[y] = x
    gens = [Permutation([pi[g.images[inv[y]]] for y in range(n)]) for g in group.generators]
    return PermutationGroup(n, gens)


def relabel_digraph(graph, rng: random.Random):
    pi = list(range(graph.vertices))
    rng.shuffle(pi)
    return digraphs.Digraph.build(graph.vertices, [(pi[a], pi[b]) for a, b in graph.edges])


def prepare(job: Job, rng: random.Random, workdir: Path) -> Input:
    """Build a job's input: construct, relabel, build the first chain, and
    write the group file that the command line reads."""
    if job.kind == "enumerate":
        return Input()
    if job.kind in DIGRAPH_KINDS:
        graph = getattr(digraphs, job.constructor)(*job.params)
        return Input(graph=relabel_digraph(graph, rng))
    entry = getattr(catalog, job.constructor)(*job.params)
    group = relabel_group(entry.group, rng)
    group.order()
    if job.kind not in FILE_KINDS:
        return Input(group=group)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / (job.label.replace(" ", "_").replace(",", "_") + ".json")
    dump_group(group, path)
    return Input(group=group, path=path)


# -- the value gate ---------------------------------------------------------


def _check(want: dict, name: str, got):
    if name not in want:
        raise GateFailure(f"no frozen value for {name!r}")
    value, _source = want[name]
    if got != value:
        raise GateFailure(f"{name}: expected {value!r}, got {got!r}")


def _cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise GateFailure(f"relkit {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


def _check_rc_witness(group, data, rc) -> int:
    """A maximal witness: (rc-1)-subtuple complete on every subset, not
    equivalent, and every recorded transporter re-checks."""
    if rc == 2:
        if data is not None:
            raise GateFailure("binary action reported a witness")
        return 0
    if data is None:
        raise GateFailure(f"RC {rc} reported without a witness")
    pair = TuplePair.from_json(data, group.degree)
    subsets = set(itertools.combinations(range(rc), rc - 1))
    if len(pair.I) != rc or pair.completeness_level != rc - 1 or set(pair.transporters) != subsets:
        raise GateFailure(f"RC witness has the wrong shape for RC {rc}")
    if not pair.verify(group):
        raise GateFailure("RC witness fails verify(group)")
    return 1


def run_rc(job, inp, want, seed) -> int:
    model = _cli(["rc", str(inp.path), "--format=json"])
    _check(want, "rc", model["rc"])
    _check(want, "order", model["order"])
    return _check_rc_witness(inp.group, model["witness"], model["rc"])


def run_stats(job, inp, want, seed) -> int:
    model = _cli(["stats", str(inp.path), "--format=json"])
    for name in ("order", "rc", "b", "B", "H", "I"):
        _check(want, name, model[name])
    for name in ("b", "B", "H", "I"):
        if len(model[f"{name}_witness"]) != model[name]:
            raise GateFailure(f"{name} witness does not have size {model[name]}")
    return _check_rc_witness(inp.group, model["rc_witness"], model["rc"])


def run_battery(job, inp, want, seed) -> int:
    outcomes = nonbinary.run_battery(
        inp.group, stop_at_first=False, trials=BATTERY_TRIALS, seed=seed
    )
    names = [o.test_name for o in outcomes]
    if names != BATTERY_TESTS:
        raise GateFailure(f"battery ran {names}")
    certificates = 0
    for outcome in outcomes:
        # tests 5 and 6 search in an order the labeling and the seed set:
        # only their soundness is frozen
        if outcome.test_name not in ("test5", "test6"):
            _check(want, outcome.test_name, outcome.verdict)
        if outcome.not_binary:
            if want["rc"][0] <= 2:
                raise GateFailure(f"{outcome.test_name} says NotBinary for a binary action")
            if outcome.certificate is None or not outcome.verify(inp.group):
                raise GateFailure(f"{outcome.test_name} certificate fails verify(group)")
            certificates += 1
    return certificates


def run_structural_rc(job, inp, want, seed) -> int:
    try:
        value = structures.structural_rc(inp.group)
    except CapExceeded as exc:
        _check(want, "cap_fallback", exc.fallback)
        return 0
    _check(want, "structural_rc", value)
    return 0


def run_aut(job, inp, want, seed) -> int:
    _check(want, "aut_order", structures.automorphism_group(inp.graph.to_structure()).order())
    return 0


def run_homogeneous(job, inp, want, seed) -> int:
    verdict, _ = structures.is_homogeneous(inp.graph.to_structure())
    _check(want, "homogeneous", verdict)
    return 0


def run_enumerate(job, inp, want, seed) -> int:
    (n,) = job.params
    _check(want, "count", _cli(["homog", "--enumerate", str(n), "--format=json"])["count"])
    return 0


def run_closure(job, inp, want, seed) -> int:
    _check(want, "order", closure.k_closure(inp.group, 2).order())
    return 0


RUNNERS = {
    "rc": run_rc,
    "stats": run_stats,
    "battery": run_battery,
    "structural_rc": run_structural_rc,
    "aut": run_aut,
    "homogeneous": run_homogeneous,
    "enumerate": run_enumerate,
    "closure": run_closure,
}


def run_job(job: Job, inp: Input, table: dict, seed: int) -> JobResult:
    """Run and check one job.  A wrong value, a failed certificate or an
    exception makes a failed job; it never ends the run."""
    start = time.perf_counter()
    certificates = 0
    try:
        certificates = RUNNERS[job.kind](job, inp, table.get(job.label, {}), seed)
        error = None
    except GateFailure as exc:
        error = str(exc)
    except Exception as exc:  # a crash inside relkit is a failed job
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    return JobResult(job.label, time.perf_counter() - start, error, certificates)
