"""Run one relkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rc_walk --seed 1 --seconds 30 --trace 0

Run it from the root of a relkit checkout; relkit is imported from ./src
and nowhere else.  Temporary files go to ./.perfbench and are removed at
the end, except the span file of a traced run.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  RATIONALE.md explains the workloads and metrics.

--trace 0 is the timed run.  Jobs run as a closed loop, one at a time
in one thread: round 0 runs every job of the workload, then further
rounds, each on fresh labelings drawn from the seed, run while the next
job still fits in --seconds.  A job's time is the median over its rounds.

--trace 1 is the traced run.  It runs round 0 once untraced and once
with tracing.Tracer installed, on the same inputs, and reports the
per-layer metrics of the traced round.

Times in the JSON result are reference seconds: each job's wall time is
scaled by CALIBRATION_REF_S over the time a fixed calibration kernel
took just before and just after it.  The shared hosts this runs on
change speed by 20 % or more within minutes, and the scaling takes that
drift out while keeping any change in relkit's own cost.  The raw wall
times are printed above the result.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
MIN_SETUPS = 3
CALIBRATION_LOOPS = 6
CALIBRATION_REF_S = 0.02  # the kernel's time on the host that defines a reference second

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def import_relkit():
    """Put ./src first on the path; refuse to measure any other relkit."""
    if not (SRC / "relkit" / "__init__.py").is_file():
        sys.exit(f"error: no relkit sources at {SRC / 'relkit'}")
    sys.path.insert(0, str(SRC))
    import relkit

    if Path(relkit.__file__).resolve().parent != SRC / "relkit":
        sys.exit(f"error: imported relkit from {relkit.__file__}, not from {SRC}")


def calibrate():
    """Seconds a fixed pure-Python kernel takes now, a measure of the
    host's current speed.  The kernel is shaped like relkit's dominant
    cost, a Schreier-Sims transversal: it grows the orbit of a point under
    two permutations of 240 points, building each image tuple by a product
    and checking it is a bijection.  It runs with the collector off, so the
    heap relkit left behind does not slow it."""
    n = 240
    shift = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    identity = list(range(n))
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CALIBRATION_LOOPS):
            transversal = {0: tuple(identity)}
            queue = [0]
            while queue:
                grown = []
                for point in queue:
                    rep = transversal[point]
                    for g in (shift, swap):
                        image = g[point]
                        if image not in transversal:
                            product = tuple(g[x] for x in rep)
                            if sorted(product) == identity:
                                transversal[image] = product
                            grown.append(image)
                queue = grown
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rc_walk", "stats_walk", "battery", "structures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Run:
    """One process's run of one workload."""

    def __init__(self, jobs, workload, seed, workdir):
        self.jobs = jobs
        self.joblist = jobs.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.table = jobs.load_expected()
        self.setup_times = []
        self.calibrations = []
        self.results = []

    def calibrate(self):
        seconds = calibrate()
        self.calibrations.append(seconds)
        return seconds

    def setup(self, round_index):
        """Inputs of one round; the time it takes is one set-up sample."""
        start = time.perf_counter()
        workdir = self.workdir / f"round{round_index}"
        inputs = [
            self.jobs.prepare(job, self.jobs.job_rng(self.seed, round_index, job), workdir)
            for job in self.joblist
        ]
        self.setup_times.append(time.perf_counter() - start)
        return inputs

    def run_round(self, inputs, wrap=None, deadline=None, estimates=None):
        """Run the jobs in order, stopping before a job that would end past
        the deadline.  Returns (result, reference seconds) per job run."""
        done = []
        before = self.calibrate()
        for job, inp in zip(self.joblist, inputs):
            if deadline is not None and time.perf_counter() + estimates[job.label] > deadline:
                break
            args = (job, inp, self.table, self.seed)
            result = wrap(self.jobs.run_job, *args) if wrap else self.jobs.run_job(*args)
            after = self.calibrate()
            done.append((result, result.seconds * CALIBRATION_REF_S / ((before + after) / 2)))
            before = after
            self.results.append(result)
        return done

    def timed(self, seconds):
        """Round 0 in full, then more rounds while jobs fit in the time.
        Returns {job label: [(wall seconds, reference seconds), ...]}."""
        samples = {job.label: [] for job in self.joblist}
        inputs = self.setup(0)
        deadline = time.perf_counter() + seconds
        round_index = 0
        while True:
            estimates = {label: max(raw for raw, _ in s) for label, s in samples.items() if s}
            done = self.run_round(inputs, deadline=deadline if round_index else None,
                                  estimates=estimates)
            for result, ref in done:
                samples[result.label].append((result.seconds, ref))
            if len(done) < len(self.joblist):
                break
            round_index += 1
            inputs = self.setup(round_index)
        while len(self.setup_times) < MIN_SETUPS:
            round_index += 1
            self.setup(round_index)
        return samples

    def attempted(self):
        return len(self.results)

    def failed(self):
        return sum(1 for r in self.results if not r.ok)


def timed_run(run, seconds, import_s):
    samples = run.timed(seconds)
    for label, s in samples.items():
        print(f"  {label:42s} median {statistics.median(raw for raw, _ in s):8.3f} s"
              f" ({statistics.median(ref for _, ref in s):.3f} ref s) over {len(s)} rounds")
    wall_s = sum(statistics.median(raw for raw, _ in s) for s in samples.values())
    setup_s = import_s + statistics.median(run.setup_times)
    host = statistics.median(run.calibrations)
    print(f"  as measured: wall_s {wall_s:.4f} s, setup_s {setup_s:.4f} s;"
          f" calibration kernel {host * 1000:.2f} ms (reference {CALIBRATION_REF_S * 1000:.0f} ms)")
    attempted, failed = run.attempted(), run.failed()
    return {
        "wall_ref_s": sum(statistics.median(ref for _, ref in s) for s in samples.values()),
        "setup_s": setup_s * CALIBRATION_REF_S / host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }


def traced_run(run, tracing, workload):
    untraced = run.run_round(run.setup(0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = tracer.call("bench.setup", run.setup, 0)
        traced = run.run_round(inputs, wrap=lambda fn, *args: tracer.call("bench.job", fn, *args))
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"  not traced (absent from relkit): {', '.join(tracer.missing)}")
    # per-layer figures stay as measured: the calibration kernel runs with
    # the tracer installed, so it must not scale the overhead away
    traced_s = sum(r.seconds for r, _ in traced)
    untraced_s = sum(r.seconds for r, _ in untraced)
    print(f"  untraced round {untraced_s:.3f} s, traced round {traced_s:.3f} s,"
          f" {len(tracer.start)} spans")
    tracer.write(WORKDIR / f"trace-{workload}.spans")
    return tracer.metrics(traced_s, untraced_s)


def main(argv=None):
    args = parse_args(argv)
    import_relkit()
    import jobs
    import tracing

    import_s = time.perf_counter() - _T0
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        run = Run(jobs, args.workload, args.seed, workdir)
        print(f"relkit benchmark: workload {args.workload}, seed {args.seed},"
              f" trace {args.trace}")
        if args.trace:
            values = traced_run(run, tracing, args.workload)
            units = tracing.METRICS
        else:
            values = timed_run(run, args.seconds, import_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for result in run.results:
        if not result.ok:
            print(f"  FAILED {result.label}: {result.error}")
    attempted, failed = run.attempted(), run.failed()
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} ratio"
          f" ({failed} of {attempted} jobs attempted,"
          f" {sum(r.certificates for r in run.results)} certificates verified)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
