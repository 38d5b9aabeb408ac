"""Golden outputs: `--format=json` of rc, stats, tests --all and closure
-k 2/-k 3 on a few small catalog entries, compared byte for byte with
files frozen under tests/golden/.

The outputs are part of the contract (certificates, witnesses and
closure generators are printed in a fixed order), so a refactor that
changes any byte fails here.  Regenerate only after checking that a
change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from relkit import catalog as cat
from relkit.cli import main
from relkit.group import dump_group

GOLDEN = pathlib.Path(__file__).with_name("golden")

ENTRIES = [
    ("k_subsets", "Sym", "6", "2"),
    ("agl1", "7"),
    ("psl2", "7"),
    ("product_action", "2", "3"),
    ("intransitive_join", "3"),
]

COMMANDS = [
    ("rc",),
    ("stats",),
    ("tests", "--all"),
    ("closure", "-k", "2"),
    ("closure", "-k", "3"),
]


def _slug(parts):
    return "_".join(p.lstrip("-") for p in parts).lower()


def _output(entry, command, group_file):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command[0], str(group_file), *command[1:], "--format=json"])
    return code, out.getvalue()


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
    code, text = _output(entry, command, _group_file(entry, group_dir))
    assert code == 0
    expected = (GOLDEN / f"{_slug(entry)}.{_slug(command)}.json").read_text()
    assert text == expected


def regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for entry in ENTRIES:
            group_file = _group_file(entry, directory)
            for command in COMMANDS:
                code, text = _output(entry, command, group_file)
                if code != 0:
                    sys.exit(f"{entry} {command} exited {code}")
                (GOLDEN / f"{_slug(entry)}.{_slug(command)}.json").write_text(text)


if __name__ == "__main__":
    regenerate()
