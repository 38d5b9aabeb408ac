"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from relkit import catalog as cat, cli, nonbinary, structures
from relkit.cli import main
from relkit.digraphs import sporadic_h0
from relkit.group import dump_group
from relkit.relcomp import TuplePair
from relkit.structures import automorphism_group


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


def test_rc_witness_needs_every_transporter_after_a_round_trip(capsys, tmp_path):
    checked = 0
    for i, entry in enumerate(cat.default_entries()):
        group = entry.group
        if group.degree > 15:
            continue
        path = tmp_path / f"group{i}.json"
        dump_group(group, path)
        _, out = run(capsys, "rc", str(path), "--format=json")
        witness = json.loads(out)["witness"]
        if witness is None:
            continue
        assert TuplePair.from_json(witness, group.degree).verify(group)
        for key in witness["certs"]:
            certs = {k: v for k, v in witness["certs"].items() if k != key}
            cut = TuplePair.from_json({**witness, "certs": certs}, group.degree)
            assert not cut.verify(group), (entry.label, key)
        checked += 1
    assert checked


def test_rc_deterministic_output(capsys, agl15_file):
    _, first = run(capsys, "rc", agl15_file, "--format=json")
    _, second = run(capsys, "rc", agl15_file, "--format=json")
    assert first == second


@pytest.fixture
def c130_file(tmp_path):
    # regular of degree 130: past RC's degree cap of 120 and the stats cap
    path = tmp_path / "c130.json"
    dump_group(cat.cyclic_regular(130).group, path)
    return str(path)


def test_force_caps_lifts_rc_caps(capsys, c130_file):
    code, out = run(capsys, "rc", c130_file, "--format=json", "--force-caps")
    assert code == 0 and json.loads(out)["rc"] == 2
    assert main(["rc", c130_file, "--format=json"]) == 2
    assert "degree 130 exceeds cap 120" in capsys.readouterr().err


def test_force_caps_leaves_the_stats_degree_cap(capsys, c130_file):
    assert main(["stats", c130_file, "--format=json", "--force-caps"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "degree 130 exceeds cap 120" in captured.err


def _table_lines(model, indent=0):
    """The lines the table must print for a JSON model, blank lines aside:
    yes/no for booleans, - for None, flat lists inline, the fields of a
    nested object one level in, list items at the list's own level."""
    pad = "  " * indent
    if isinstance(model, list):
        for item in model:
            yield from _table_lines(item, indent)
        return
    for key, value in model.items():
        if isinstance(value, dict):
            yield f"{pad}{key}:"
            yield from _table_lines(value, indent + 1)
        elif value is None:
            yield f"{pad}{key}: -"
        elif isinstance(value, bool):
            yield f"{pad}{key}: {'yes' if value else 'no'}"
        else:
            yield f"{pad}{key}: {value}"


@pytest.mark.parametrize("argv", [("stats",), ("tests", "--all")])
def test_table_prints_every_field(capsys, agl15_file, argv):
    _, table = run(capsys, argv[0], agl15_file, *argv[1:])
    _, as_json = run(capsys, argv[0], agl15_file, *argv[1:], "--format=json")
    lines = [line for line in table.splitlines() if line]
    assert lines == list(_table_lines(json.loads(as_json)))
    if argv == ("stats",):
        for line in ("transitive: yes", "b_witness: [0, 1]", "rc_witness:",
                     "  certs:", "    [0, 1]: ()", "  equivalent: no"):
            assert line in lines
    else:
        assert "certificate: -" in lines  # test 4 finds nothing on AGL(1,5)


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


@pytest.mark.parametrize("prime", ["4", "9", "1", "0", "-3"])
def test_tests_prime_must_be_prime(capsys, s4_file, prime):
    assert main(["tests", s4_file, "--test", "5", "--prime", prime]) == 2
    assert "is not a prime" in capsys.readouterr().err


@pytest.mark.parametrize("selection", ["7", "1,,2", "1,7", ""])
def test_tests_unknown_name_is_an_input_error(capsys, s4_file, monkeypatch, selection):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a test ran before every name was checked")

    monkeypatch.setattr(nonbinary, "test1_character_bound", must_not_run)
    assert main(["tests", s4_file, "--test", selection]) == 2
    assert "unknown test" in capsys.readouterr().err


def test_tests_negative_trials_is_an_input_error(capsys, s4_file):
    assert main(["tests", s4_file, "--test", "6", "--trials", "-1"]) == 2
    assert "trial count" in capsys.readouterr().err


def test_tests_zero_trials_is_valid(capsys, s4_file):
    code, out = run(capsys, "tests", s4_file, "--test", "6", "--trials", "0",
                    "--format=json")
    assert code == 0
    assert json.loads(out) == [
        {"test": "test6", "verdict": "Inconclusive", "certificate": None,
         "details": {"pairs_tried": 0}}
    ]


def test_tests_beautiful_prints_a_checkable_certificate(capsys, tmp_path):
    group = cat.psl2_projective(7).group
    path = tmp_path / "psl27.json"
    dump_group(group, path)
    code, out = run(capsys, "tests", str(path), "--test", "beautiful",
                    "--lambda", "1,2,3,4,5,6,7,8", "--format=json")
    assert code == 0
    [outcome] = json.loads(out)
    certificate = outcome["certificate"]
    assert certificate["kind"] == "beautiful_subset"
    assert certificate["subset"] == list(range(8))
    assert certificate["induced_order"] == 168
    assert TuplePair.from_json(certificate["pair"], group.degree).verify(group)


def test_tests_beautiful_requires_lambda(capsys, s4_file):
    code = main(["tests", s4_file, "--test=beautiful"])
    assert code == 2
    assert capsys.readouterr().err == "error: --lambda is required for the beautiful-subset test\n"


@pytest.mark.parametrize("selection,lam,message", [
    ("3", "1,2,3", "--lambda applies only to --test beautiful or all"),
    ("3", "", "--lambda applies only to --test beautiful or all"),
    ("all", "", "--lambda needs comma-separated integers, not ''"),
])
def test_tests_lambda_is_never_dropped(capsys, s4_file, monkeypatch, selection, lam, message):
    monkeypatch.setattr(cli, "run_battery", lambda *a, **k: pytest.fail("a test ran"))
    assert main(["tests", s4_file, f"--test={selection}", "--lambda", lam]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["homog"], "need a structure file or --enumerate N"),
    (["catalog", "build"], "catalog build needs a name"),
], ids=["homog", "catalog-build"])
def test_missing_argument_is_an_input_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_closed_stdout_exits_141_without_a_traceback(agl15_file):
    # the read end closes before relkit can have written, so the write fails
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "relkit", "stats", agl15_file, "--format=json"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


@pytest.mark.parametrize("lam", ["1", "1,1", "a,b"])
def test_tests_bad_lambda_is_an_input_error(capsys, s4_file, lam):
    # fewer than two distinct points, or an entry that is not an integer
    assert main(["tests", s4_file, "--test=beautiful", "--lambda", lam]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("lam,bad", [("0,1", "0"), ("1,5", "5"), ("2, -3", "-3")])
def test_tests_lambda_out_of_range_names_the_typed_point(capsys, s4_file, monkeypatch, lam, bad):
    monkeypatch.setattr(cli, "run_battery", lambda *a, **k: pytest.fail("a test ran"))
    assert main(["tests", s4_file, "--test=all", "--lambda", lam]) == 2
    assert capsys.readouterr().err == f"error: --lambda point {bad} outside 1..4\n"


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


def test_homog_computes_the_automorphism_group_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(sporadic_h0().to_structure().to_json()))
    calls = []

    def counting(structure, *args, **kwargs):
        calls.append(structure)
        return automorphism_group(structure, *args, **kwargs)

    monkeypatch.setattr(structures, "automorphism_group", counting)
    monkeypatch.setattr(cli, "automorphism_group", counting)
    code, out = run(capsys, "homog", str(path), "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["homogeneous"] is True and data["automorphism_order"] == 24
    assert len(calls) == 1


def test_homog_edgeless_structure_at_the_cap(capsys, tmp_path):
    path = tmp_path / "edgeless10.json"
    path.write_text(json.dumps({"vertices": 10, "edges": []}))
    code, out = run(capsys, "homog", str(path), "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["homogeneous"] is True and data["automorphism_order"] == 3628800


def test_homog_checks_the_vertex_cap_before_the_harvest(capsys, tmp_path, monkeypatch):
    path = tmp_path / "edgeless80.json"
    path.write_text(json.dumps({"vertices": 80, "edges": []}))

    def refuse(structure, *args, **kwargs):
        raise AssertionError("the harvest ran on a structure past the cap")

    monkeypatch.setattr(structures, "automorphism_group", refuse)
    monkeypatch.setattr(cli, "automorphism_group", refuse)
    assert main(["homog", str(path)]) == 2
    assert capsys.readouterr().err == "error: homogeneity test capped at 10 vertices\n"


@pytest.mark.parametrize("data", [
    {"vertices": 3, "relations": [{"tuples": [[0, 1]]}]},
    {"vertices": 3, "relations": [{"arity": 2, "tuples": 5}]},
    {"vertices": "x", "relations": [{"arity": 2, "tuples": [[0, 1]]}]},
    {"vertices": 3, "relations": [{"arity": 2, "tuples": [[0, 1.5]]}]},
    {"vertices": -3, "edges": []},
    {"vertices": 0, "edges": []},
], ids=["no-arity", "tuples-not-list", "vertices-not-int", "vertex-not-int",
        "vertices-negative", "vertices-zero"])
def test_homog_malformed_structure_is_parse_error(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["homog", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["rc"], ["stats"], ["tests", "--all"], ["closure"], ["homog"]],
                         ids=["rc", "stats", "tests-all", "closure", "homog"])
def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ")
    assert "utf-8" in captured.err


def test_homog_relation_of_arity_zero_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "nullary.json"
    path.write_text(json.dumps({"vertices": 3, "relations": [{"arity": 0, "tuples": [[]]}]}))
    assert main(["homog", str(path)]) == 2
    assert capsys.readouterr().err == "error: relations must have arity >= 2\n"


def test_catalog_list_and_build(capsys, tmp_path):
    code, out = run(capsys, "catalog", "list", "--format=json")
    assert code == 0
    assert any(item["name"] == "psl2" for item in json.loads(out))
    target = tmp_path / "built.json"
    code, out = run(capsys, "catalog", "build", "cyclic_regular", "6",
                    "-o", str(target), "--format=json")
    assert code == 0
    assert json.loads(target.read_text())["degree"] == 6


@pytest.mark.parametrize("params", [["k_subsets", "Sym", "x", "2"], ["agl1"], ["agl1", "7", "9"]],
                         ids=["non-integer", "too-few", "too-many"])
def test_catalog_build_bad_parameters_is_an_input_error(capsys, params):
    code, out = run(capsys, "catalog", "build", *params)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("params", [["k_subsets", "Sym", "40", "20"], ["matchings", "Sym", "30"]],
                         ids=["k_subsets", "matchings"])
@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
def test_catalog_build_checks_the_degree_before_listing_points(capsys, monkeypatch, params, strict):
    # C(40, 20) subsets and 29!! matchings: the degree cap refuses both
    # before a single point is listed
    def listed(*args):
        pytest.fail("the points were listed before the degree was checked")

    monkeypatch.setattr(cat.itertools, "combinations", listed)
    monkeypatch.setattr(cat, "_matchings", listed)
    start = time.perf_counter()
    code = main(["catalog", "build", *params, *(["--strict"] if strict else [])])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == (3 if strict else 2)
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "degree cap" in captured.err


def test_catalog_build_to_an_unwritable_path_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code = main(["catalog", "build", "cyclic_regular", "5", "-o", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_internal_fault_while_reading_a_group_is_not_an_input_error(capsys, monkeypatch, s4_file):
    from relkit import group as group_module
    from relkit.errors import InternalInconsistency

    def broken(text, degree):
        raise InternalInconsistency("parser invariant")

    monkeypatch.setattr(group_module, "parse_permutation", broken)
    assert main(["rc", s4_file]) == 4
    assert capsys.readouterr().err == "error: internal inconsistency: parser invariant\n"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stats", str(bad)]) == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text('{"foo": 1}')
    assert main(["stats", str(missing_field)]) == 2


@pytest.mark.parametrize("data,message", [
    ({"degree": 2, "generator_images": [[1.0, 0.0]]}, "an image point must be an integer, not 1.0"),
    ({"degree": True, "generator_images": [[0]]}, "'degree' must be an integer, not True"),
    ({"degree": 3, "generators": [5]}, "a generator must be a cycle string, not 5"),
    ({"degree": 3, "generators": "(1 2)"}, "'generators' must be a list, not '(1 2)'"),
    ({"degree": 3, "generator_images": [5]}, "a generator's images must be a list, not 5"),
], ids=["float-images", "boolean-degree", "generator-not-a-string", "generators-not-a-list",
        "images-not-a-list"])
def test_group_file_with_wrong_json_types_is_a_parse_error(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["stats", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_internal_inconsistency_exit_code(capsys, s4_file, monkeypatch):
    from relkit import stats

    # b > B breaks the statistic chain b <= B <= H <= I
    broken = stats.BaseHeightProfile(3, (0, 1, 2), 1, (0,), 3, (0, 1, 2), 3, (0, 1, 2))
    monkeypatch.setattr(stats.ProfileSearch, "result", lambda self: broken)
    code = main(["stats", s4_file, "--format=json"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        captured.err.strip()
    ]


def _raises_under_python_O(snippet):
    """Run snippet with asserts stripped; did it raise InternalInconsistency?"""
    code = "from relkit.errors import InternalInconsistency\ntry:\n" + textwrap.indent(
        textwrap.dedent(snippet).strip(), "    "
    ) + "\nexcept InternalInconsistency:\n    print('raised')\n"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip() == "raised"


def test_invariant_checks_survive_python_O():
    assert _raises_under_python_O("""
        from relkit.stats import StatisticsReport, _check_chain
        report = StatisticsReport(order=24, degree=4, transitive=True, primitive=True,
                                  rc=2, rc_witness=None, b=3, b_witness=(), B=1,
                                  B_witness=(), H=3, H_witness=(), I=3, I_witness=())
        _check_chain(report)
    """)


def test_catalog_order_check_survives_python_O():
    # a wrong expected order is a bug in the catalog, not an input error
    assert _raises_under_python_O("""
        from relkit.catalog import CatalogEntry, cyclic_regular
        CatalogEntry(name="c5", parameters={}, group=cyclic_regular(5).group,
                     expected_order=10)
    """)


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


@pytest.mark.parametrize("argv, numbers", [
    (["--filter=1"], [1]),
    (["--filter=1,2", "--jobs", "2"], [1, 2]),
])
def test_verify_json_stdout_parses(capsys, argv, numbers):
    # the PASS lines go to stderr, so stdout is the JSON model alone
    code = main(["verify", *argv, "--format=json"])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["all_passed"] is True
    assert [c["criterion"] for c in data["criteria"]] == numbers
    assert "PASS criterion 1" in captured.err


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


@pytest.mark.parametrize("token", ["99", "nonexistent"])
def test_verify_filter_selecting_nothing_is_an_input_error(capsys, token):
    assert main(["verify", f"--filter=1,{token}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and repr(token) in captured.err


def test_run_criterion_unknown_number_is_a_bad_parameter():
    from relkit.errors import BadParameter
    from relkit.verify import run_criterion

    with pytest.raises(BadParameter, match="no criterion 99"):
        run_criterion(99)


@pytest.mark.parametrize("spec", ["1,", ",1", "1,,2", ""])
def test_verify_filter_empty_token_is_an_input_error(capsys, spec):
    assert main(["verify", f"--filter={spec}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert captured.err.startswith("error: ") and "empty token" in captured.err


def test_global_flags_both_positions(capsys, s4_file):
    _, a = run(capsys, "--format=json", "rc", s4_file)
    _, b = run(capsys, "rc", s4_file, "--format=json")
    assert a == b


def test_verify_jobs_parallel(capsys):
    code, out = run(capsys, "verify", "--filter=1,2", "--jobs", "2")
    assert code == 0
    assert out.index("criterion 1") < out.index("criterion 2")  # input order


def test_verify_starts_no_more_workers_than_criteria(capsys, monkeypatch):
    import concurrent.futures
    import multiprocessing.process

    workers = []

    class InProcessExecutor:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def no_process(self):
        raise AssertionError("verify started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    code, out = run(capsys, "verify", "--filter=1,2", "--jobs", "64")
    assert code == 0 and workers == [2]
    assert out.index("criterion 1") < out.index("criterion 2")
    # one criterion runs in this process, with no pool at all
    code, _ = run(capsys, "verify", "--filter=1", "--jobs", "64")
    assert code == 0 and workers == [2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_an_input_error(capsys, jobs):
    assert main(["verify", "--filter=1", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert captured.err.startswith("error: ") and "--jobs" in captured.err
