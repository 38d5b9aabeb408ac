"""Self-checks of the benchmark's value gate and layer trace.

    PYTHONPATH=src python3 -m pytest -q perfbench

A wrong value, a tampered certificate or a crash inside relkit must show
up as a failed job, never as a crashed run or a passing one.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from relkit import cli, nonbinary, relcomp, structures  # noqa: E402

RC_JOB = jobs.Job("rc", "k_subsets_action", ("Sym", 5, 2))
RC_TABLE = {RC_JOB.label: {"rc": [3, "catalog"], "order": [120, "catalog"]}}
BATTERY_JOB = jobs.Job("battery", "k_subsets_action", ("Sym", 6, 2))
SRC_JOB = jobs.Job("structural_rc", "intransitive_join", (3,))


def run_once(job, table, tmp_path, seed=5):
    inp = jobs.prepare(job, jobs.job_rng(seed, 0, job), tmp_path)
    return jobs.run_job(job, inp, table, seed)


def test_correct_values_pass(tmp_path):
    result = run_once(RC_JOB, RC_TABLE, tmp_path)
    assert result.ok, result.error
    assert result.certificates == 1


def test_wrong_expected_value_is_a_failed_job(tmp_path):
    table = {RC_JOB.label: {"rc": [4, "wrong on purpose"], "order": [120, "catalog"]}}
    result = run_once(RC_JOB, table, tmp_path)
    assert not result.ok
    assert "rc: expected 4, got 3" in result.error


def test_missing_expected_value_is_a_failed_job(tmp_path):
    result = run_once(RC_JOB, {}, tmp_path)
    assert not result.ok
    assert "no frozen value" in result.error


def test_tampered_rc_witness_is_a_failed_job(tmp_path, monkeypatch):
    original = relcomp.relational_complexity

    def tampered(group, **caps):
        rc, witness = original(group, **caps)
        subset = next(s for s, g in witness.transporters.items() if not g.is_identity())
        witness.transporters[subset] = group.identity()
        return rc, witness

    monkeypatch.setattr(cli, "relational_complexity", tampered)
    result = run_once(RC_JOB, RC_TABLE, tmp_path)
    assert not result.ok
    assert "fails verify" in result.error


def test_tampered_battery_certificate_is_a_failed_job(tmp_path, monkeypatch):
    table = jobs.load_expected()
    assert run_once(BATTERY_JOB, table, tmp_path).ok
    original = nonbinary.run_battery

    def tampered(group, **kwargs):
        outcomes = original(group, **kwargs)
        cert = next(o.certificate for o in outcomes if o.test_name == "test1")
        cert.r_ell += 1  # an orbit count the recount cannot confirm
        return outcomes

    monkeypatch.setattr(nonbinary, "run_battery", tampered)
    result = run_once(BATTERY_JOB, table, tmp_path)
    assert not result.ok
    assert "test1 certificate fails verify" in result.error


def test_crash_inside_relkit_is_a_failed_job(tmp_path, monkeypatch):
    def crash(group, **caps):
        raise RuntimeError("boom")

    monkeypatch.setattr(structures, "structural_rc", crash)
    result = run_once(SRC_JOB, jobs.load_expected(), tmp_path)
    assert not result.ok
    assert "RuntimeError: boom" in result.error


def test_failed_job_is_counted_and_the_run_goes_on(tmp_path):
    r = run.Run(jobs, "rc_walk", 3, tmp_path)
    r.joblist = [RC_JOB, RC_JOB]
    r.table = {RC_JOB.label: {"rc": [9, "wrong on purpose"], "order": [120, "catalog"]}}
    r.timed(0.001)
    assert r.attempted() == 2
    assert r.failed() == 2
    assert len(r.setup_times) >= run.MIN_SETUPS


def test_same_seed_same_inputs(tmp_path):
    a = jobs.prepare(RC_JOB, jobs.job_rng(11, 0, RC_JOB), tmp_path / "a")
    b = jobs.prepare(RC_JOB, jobs.job_rng(11, 0, RC_JOB), tmp_path / "b")
    c = jobs.prepare(RC_JOB, jobs.job_rng(12, 0, RC_JOB), tmp_path / "c")
    assert a.group.generators == b.group.generators
    assert a.group.generators != c.group.generators
    assert a.path.read_text() == b.path.read_text()


def test_tracer_reports_every_metric_and_restores_relkit(tmp_path):
    before = (relcomp.relational_complexity, cli.relational_complexity,
              jobs.Permutation.__init__, nonbinary.run_battery)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.relational_complexity is not before[1]
        result = tracer.call("bench.job", run_once, RC_JOB, RC_TABLE, tmp_path)
    finally:
        tracer.uninstall()
    assert result.ok, result.error
    assert tracer.missing == []
    assert (relcomp.relational_complexity, cli.relational_complexity,
            jobs.Permutation.__init__, nonbinary.run_battery) == before
    metrics = tracer.metrics(1.0, 0.5)
    assert list(metrics) == list(tracing.METRICS)
    assert metrics["search.nodes"] > 0
    assert metrics["perm.constructed"] > 0
    assert metrics["relcomp.witness_checks"] > 0
    assert 0 < metrics["search.child_useful_ratio"] <= 1
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    path = tmp_path / "spans"
    tracer.write(path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["count"] == metrics["trace.spans"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert all(job.label in jobs.load_expected()
               for joblist in jobs.WORKLOADS.values() for job in joblist)
