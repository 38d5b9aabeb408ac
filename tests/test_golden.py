"""Golden outputs: `--format=json` of closure -k 2/-k 3 on a few small
catalog entries, and of homog on a few digraphs and with --enumerate 4,
compared byte for byte with files frozen under tests/golden/.  The rc,
stats and tests --all outputs of every default entry are pinned by
tests/test_golden_catalog.py.

The outputs are part of the contract (certificates, witnesses and
closure generators are printed in a fixed order), so a refactor that
changes any byte fails here.  Regenerate only after checking that a
change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
import pathlib
import sys

import pytest

from relkit import catalog as cat
from relkit.cli import main
from relkit.digraphs import directed_cycle, sporadic_h0, sporadic_h1, undirected_cycle
from relkit.group import dump_group

GOLDEN = pathlib.Path(__file__).with_name("golden")

ENTRIES = [
    ("k_subsets", "Sym", "6", "2"),
    ("agl1", "7"),
    ("psl2", "7"),
    ("product_action", "2", "3"),
    ("intransitive_join", "3"),
]

COMMANDS = [("closure", "-k", "2"), ("closure", "-k", "3")]

# homog on these digraphs; the directed 5-cycle is not homogeneous, so its
# failing map is pinned too
HOMOG_DIGRAPHS = {
    "sporadic_h0": sporadic_h0,
    "sporadic_h1": sporadic_h1,
    "undirected_cycle_5": functools.partial(undirected_cycle, 5),
    "directed_cycle_5": functools.partial(directed_cycle, 5),
}
HOMOG_ENUMERATE = 4


def _slug(parts):
    return "_".join(p.lstrip("-") for p in parts).lower()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format=json"])
    return code, out.getvalue()


def _output(command, group_file):
    return _run([command[0], str(group_file), *command[1:]])


def _homog_output(name, directory):
    path = pathlib.Path(directory) / f"{name}.structure.json"
    path.write_text(json.dumps(HOMOG_DIGRAPHS[name]().to_structure().to_json()))
    return _run(["homog", str(path)])


def _enumerate_output():
    return _run(["homog", "--enumerate", str(HOMOG_ENUMERATE)])


def _group_file(entry, directory):
    path = pathlib.Path(directory) / f"{_slug(entry)}.json"
    if not path.exists():
        dump_group(cat.build_entry(*entry).group, path)
    return path


@pytest.fixture(scope="module")
def group_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden_groups")


@pytest.mark.parametrize("command", COMMANDS, ids=_slug)
@pytest.mark.parametrize("entry", ENTRIES, ids=_slug)
def test_output_matches_golden(entry, command, group_dir):
    code, text = _output(command, _group_file(entry, group_dir))
    assert code == 0
    assert text == (GOLDEN / f"{_slug(entry)}.{_slug(command)}.json").read_text()


@pytest.mark.parametrize("name", HOMOG_DIGRAPHS)
def test_homog_matches_golden(name, tmp_path):
    code, text = _homog_output(name, tmp_path)
    assert code == 0
    assert text == (GOLDEN / f"homog.{name}.json").read_text()


def test_homog_enumerate_matches_golden():
    code, text = _enumerate_output()
    assert code == 0
    assert text == (GOLDEN / f"homog.enumerate_{HOMOG_ENUMERATE}.json").read_text()


def regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for entry in ENTRIES:
            group_file = _group_file(entry, directory)
            for command in COMMANDS:
                code, text = _output(command, group_file)
                if code != 0:
                    sys.exit(f"{entry} {command} exited {code}")
                (GOLDEN / f"{_slug(entry)}.{_slug(command)}.json").write_text(text)
        outputs = {f"homog.{name}": _homog_output(name, directory) for name in HOMOG_DIGRAPHS}
        outputs[f"homog.enumerate_{HOMOG_ENUMERATE}"] = _enumerate_output()
        for stem, (code, text) in outputs.items():
            if code != 0:
                sys.exit(f"{stem} exited {code}")
            (GOLDEN / f"{stem}.json").write_text(text)


if __name__ == "__main__":
    regenerate()
