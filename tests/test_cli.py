"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

from relkit.cli import main
from relkit.group import dump_group
from relkit import catalog as cat


@pytest.fixture
def s4_file(tmp_path):
    path = tmp_path / "s4.json"
    dump_group(cat.symmetric_natural(4).group, path)
    return str(path)


@pytest.fixture
def agl15_file(tmp_path):
    path = tmp_path / "agl15.json"
    dump_group(cat.agl1(5).group, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_stats_command(capsys, s4_file):
    code, out = run(capsys, "stats", s4_file, "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 24 and data["rc"] == 2 and data["H"] == 3


def test_rc_command(capsys, agl15_file):
    code, out = run(capsys, "rc", agl15_file, "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["rc"] == 3
    assert data["witness"]["equivalent"] is False


def test_rc_deterministic_output(capsys, agl15_file):
    _, first = run(capsys, "rc", agl15_file, "--format=json")
    _, second = run(capsys, "rc", agl15_file, "--format=json")
    assert first == second


def test_tests_command_stops_at_first(capsys, agl15_file):
    code, out = run(capsys, "tests", agl15_file, "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data[-1]["verdict"] == "NotBinary"


def test_tests_command_all(capsys, s4_file):
    code, out = run(capsys, "tests", s4_file, "--all", "--format=json",
                    "--trials=2000")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 7
    assert all(item["verdict"] == "Inconclusive" for item in data)


def test_tests_beautiful_requires_lambda(capsys, s4_file):
    code = main(["tests", s4_file, "--test=beautiful"])
    assert code == 2


def test_closure_command(capsys, tmp_path):
    path = tmp_path / "a4.json"
    dump_group(cat.alternating_natural(4).group, path)
    code, out = run(capsys, "closure", str(path), "-k", "2", "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["closure_order"] == 24 and not data["closed"]


def test_homog_enumerate(capsys):
    code, out = run(capsys, "homog", "--enumerate", "3", "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3


def test_homog_structure_file(capsys, tmp_path):
    path = tmp_path / "delta5.json"
    path.write_text(json.dumps(
        {"vertices": 5,
         "edges": [[i, (i + 1) % 5] for i in range(5)]
         + [[(i + 1) % 5, i] for i in range(5)]}))
    code, out = run(capsys, "homog", str(path), "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["homogeneous"] is True and data["automorphism_order"] == 10


def test_catalog_list_and_build(capsys, tmp_path):
    code, out = run(capsys, "catalog", "list", "--format=json")
    assert code == 0
    assert any(item["name"] == "psl2" for item in json.loads(out))
    target = tmp_path / "built.json"
    code, out = run(capsys, "catalog", "build", "cyclic_regular", "6",
                    "-o", str(target), "--format=json")
    assert code == 0
    assert json.loads(target.read_text())["degree"] == 6


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stats", str(bad)]) == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text('{"foo": 1}')
    assert main(["stats", str(missing_field)]) == 2


def test_cache_flag_is_rejected(capsys, tmp_path, s4_file, monkeypatch):
    # the on-disk chain cache is gone; --cache is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["rc", s4_file, "--cache", str(tmp_path / "cache")])
    assert exc.value.code == 2
    assert "--cache" in capsys.readouterr().err
    monkeypatch.setenv("RELC_CACHE_DIR", str(tmp_path / "env-cache"))
    code, out = run(capsys, "rc", s4_file, "--format=json")
    assert code == 0 and json.loads(out)["rc"] == 2
    assert not (tmp_path / "env-cache").exists()


def test_verify_filter(capsys):
    code, out = run(capsys, "verify", "--filter=1")
    assert code == 0
    assert "PASS criterion 1" in out


def test_verify_known_defect_exit(capsys, monkeypatch):
    # a failing criterion is reported with its expected/got lines and
    # makes verify exit 1
    from relkit import verify

    def always_fails():
        return {"passed": False, "checks": [
            {"label": "stand-in check", "expected": 3, "got": 2, "ok": False},
        ]}

    monkeypatch.setattr(verify, "CRITERIA", [(99, "always-fails", always_fails)])
    code, out = run(capsys, "verify", "--filter=99")
    assert code == 1
    assert "FAIL criterion 99 (always-fails)" in out
    assert "stand-in check: expected 3, got 2" in out


def test_global_flags_both_positions(capsys, s4_file):
    _, a = run(capsys, "--format=json", "rc", s4_file)
    _, b = run(capsys, "rc", s4_file, "--format=json")
    assert a == b


def test_verify_jobs_parallel(capsys):
    code, out = run(capsys, "verify", "--filter=1,2", "--jobs", "2")
    assert code == 0
    assert out.index("criterion 1") < out.index("criterion 2")  # input order
