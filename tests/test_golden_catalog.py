"""Golden outputs of the whole default catalog: `--format=json` of rc,
stats and tests --all on every entry of `catalog.default_entries()`,
compared byte for byte with the corpus frozen under tests/golden/.

The corpus holds one JSON-lines file per command, catalog.<command>.jsonl,
with one line per entry in catalog order: {"entry": label, "exit": code,
"output": model}.  The CLI prints a model as json.dumps(model, indent=2)
plus a newline, which is what the test rebuilds from "output" and compares
with the regenerated stdout.  The writer checks that this round trip
gives back the printed bytes exactly.

A mismatch names the first differing entry, the command and the JSON
path of the first differing value.  Regenerate only after an independent
method shows a changed output right:

    PYTHONPATH=src python tests/test_golden_catalog.py
"""

import contextlib
import io
import itertools
import json
import pathlib
import sys
import tempfile

import pytest

from relkit import catalog as cat
from relkit.cli import main
from relkit.group import dump_group

GOLDEN = pathlib.Path(__file__).with_name("golden")

COMMANDS = {
    "rc": ("rc",),
    "stats": ("stats",),
    "tests_all": ("tests", "--all"),
}


def _corpus(slug):
    return GOLDEN / f"catalog.{slug}.jsonl"


def _outputs(command):
    """(label, exit code, stdout) of the command on every default entry."""
    with tempfile.TemporaryDirectory() as directory:
        for i, entry in enumerate(cat.default_entries()):
            path = pathlib.Path(directory) / f"{i}.json"
            dump_group(entry.group, path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command[0], str(path), *command[1:], "--format=json"])
            yield entry.label, code, out.getvalue()


def _printed(model):
    return json.dumps(model, indent=2) + "\n"


def first_difference(got, want, path="$"):
    """JSON path of the first value where got and want differ, or None."""
    if type(got) is not type(want):
        return path
    if isinstance(got, dict):
        for key in dict.fromkeys([*got, *want]):
            sub = f"{path}.{key}" if key.isidentifier() else f"{path}[{json.dumps(key)}]"
            if key not in got or key not in want:
                return sub
            found = first_difference(got[key], want[key], sub)
            if found:
                return found
        return path if list(got) != list(want) else None
    if isinstance(got, list):
        for i, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return f"{path}[{min(len(got), len(want))}]" if len(got) != len(want) else None
    return None if got == want else path


def mismatch(slug, lines, outputs):
    """Message naming the first entry whose output differs from the corpus
    line at the same place, or None when all match byte for byte."""
    command = " ".join(COMMANDS[slug])
    n = -1
    for n, (label, code, text) in enumerate(outputs):
        if n == len(lines):
            return f"{label}: {command}: no line in {_corpus(slug).name}"
        want = json.loads(lines[n])
        if label != want["entry"]:
            return f"{label}: {command}: the corpus has {want['entry']} here"
        if code != want["exit"]:
            return f"{label}: {command}: exit {code}, golden {want['exit']}"
        expected = _printed(want["output"])
        if text != expected:
            try:
                path = first_difference(json.loads(text), want["output"])
            except json.JSONDecodeError:
                path = "$ (not JSON)"
            return f"{label}: {command}: output differs at {path or '$ (whitespace)'}"
    if len(lines) > n + 1:
        return f"{command}: {_corpus(slug).name} has {len(lines) - n - 1} more line(s)"
    return None


@pytest.mark.parametrize("slug", COMMANDS)
def test_catalog_output_matches_golden(slug):
    lines = _corpus(slug).read_text().splitlines()
    assert mismatch(slug, lines, _outputs(COMMANDS[slug])) is None


def test_a_one_byte_change_names_its_entry():
    lines = _corpus("rc").read_text().splitlines()
    outputs = list(itertools.islice(_outputs(COMMANDS["rc"]), 6))
    label, code, text = outputs[5]
    outputs[5] = (label, code, text.replace('"rc": ', '"rc": 1', 1))
    assert mismatch("rc", lines, outputs) == f"{label}: rc: output differs at $.rc"


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for slug, command in COMMANDS.items():
        lines = {}
        for label, code, text in _outputs(command):
            model = json.loads(text)
            if _printed(model) != text:
                sys.exit(f"{label} {slug}: stdout is not json.dumps(model, indent=2)")
            if label in lines:
                sys.exit(f"two default entries are labelled {label}")
            lines[label] = json.dumps({"entry": label, "exit": code, "output": model})
        _corpus(slug).write_text("\n".join(lines.values()) + "\n")


if __name__ == "__main__":
    regenerate()
