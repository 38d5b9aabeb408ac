"""Every input reader returns or raises an input error, never a traceback.

The readers are group files (`group_from_json`), structure files
(`RelationalStructure.from_json`), witness pairs (`TuplePair.from_json`,
which no command reads yet, so it is only called directly), `tests
--lambda` and `verify --filter`.  Inputs are drawn JSON values, one-node
mutations of valid inputs, and raw bytes for the files.  Called directly,
a reader returns or raises a RelkitError other than InternalInconsistency;
through `cli.main` the exit code is 0, or 2 with an `error:` line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from relkit import catalog as cat, verify
from relkit.cli import main
from relkit.errors import InternalInconsistency, RelkitError
from relkit.group import dump_group, group_from_json
from relkit.relcomp import TuplePair, relational_complexity
from relkit.structures import RelationalStructure

KEYS = ("degree", "generators", "generator_images", "vertices", "edges", "relations",
        "arity", "tuples", "I", "J", "k", "equivalent", "certs")
# text at the edges of the parsers: nesting past the recursion limit, an
# integer past int()'s digit limit, non-ASCII digits, broken cycles
EDGE_TEXT = ("[" * 3000, "1" * 5000, "²", "١", "(1 2", "()", "(1 2)(2 3)",
             "0", "-1", ",", "")
EDGE_BYTES = (b"[" * 5000, b"1" * 5000, b"\xff\xfe{}", b"", b"{}", b"null")

PAIR_DEGREE = 5
_, _WITNESS = relational_complexity(cat.agl1(PAIR_DEGREE).group)
VALID = {
    "group": [
        {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]},
        {"degree": 5, "generator_images": [[1, 2, 3, 4, 0]]},
    ],
    "structure": [
        {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        {"vertices": 3, "relations": [{"arity": 3, "tuples": [[0, 1, 2]]},
                                      {"arity": 2, "tuples": []}]},
    ],
    "pair": [_WITNESS.to_json()],
}
DIRECT = {
    "group": group_from_json,
    "structure": RelationalStructure.from_json,
    "pair": lambda data: TuplePair.from_json(data, PAIR_DEGREE),
}

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.sampled_from((10**12, -10**12)),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.sampled_from(EDGE_TEXT),
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS) | st.sampled_from(EDGE_TEXT) | st.text(max_size=3),
        children, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated(draw, value):
    """value with one node replaced by a drawn JSON value, or one key dropped."""
    if not isinstance(value, (list, dict)) or not value or draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    if isinstance(value, list):
        i = draw(st.integers(0, len(value) - 1))
        return [*value[:i], draw(mutated(value[i])), *value[i + 1:]]
    key = draw(st.sampled_from(sorted(value)))
    if draw(st.booleans()):
        return {k: v for k, v in value.items() if k != key}
    return {**value, key: draw(mutated(value[key]))}


@st.composite
def reader_inputs(draw):
    """(reader, parsed input or None, text or bytes the command line reads)."""
    reader = draw(st.sampled_from(("group", "structure", "pair", "lambda", "filter")))
    if reader in ("lambda", "filter"):
        token = st.integers(-2, 16).map(str) | st.sampled_from(EDGE_TEXT) | st.text(max_size=4)
        return reader, None, draw(st.lists(token, min_size=1, max_size=4).map(",".join))
    doc = draw(json_values | st.sampled_from(VALID[reader]).flatmap(mutated))
    raw = draw(st.just(json.dumps(doc).encode()) | st.binary(max_size=24)
               | st.sampled_from(EDGE_BYTES))
    return reader, doc, raw


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readers")
    dump_group(cat.symmetric_natural(4).group, path / "s4.json")
    return path


def _run(argv):
    """Exit code and stderr of cli.main; an exception it lets escape fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


def _file_case(reader, doc):
    return reader, doc, json.dumps(doc).encode()


@settings(max_examples=250, deadline=None)
@given(case=reader_inputs())
# each of these once escaped a reader as an exception, asked for 10^12
# images, or walked n^arity tuples without end
@example(case=("group", None, b"1" * 5000))
@example(case=("structure", None, b"[" * 5000))
@example(case=("filter", None, "1" * 5000))
@example(case=_file_case("group", {"degree": 10**12, "generators": ["(1 2)"]}))
@example(case=_file_case("structure", {"vertices": 3, "relations": [{"arity": 50, "tuples": []}]}))
@example(case=_file_case("pair", {**VALID["pair"][0], "certs": {"[" * 3000: "()"}}))
def test_every_reader_returns_or_raises_an_input_error(workdir, case):
    reader, doc, raw = case
    if reader in DIRECT:
        try:
            DIRECT[reader](doc)
        except RelkitError as exc:
            assert not isinstance(exc, InternalInconsistency), exc
    if reader == "pair":
        return
    with pytest.MonkeyPatch.context() as patch:
        if reader == "filter":  # the selection is the reader; run no criterion
            patch.setattr(verify, "run_all", lambda numbers, echo, jobs: {"all_passed": True})
            argv = ["verify", f"--filter={raw}"]
        elif reader == "lambda":
            argv = ["tests", str(workdir / "s4.json"), "--test", "beautiful", f"--lambda={raw}"]
        else:
            path = workdir / "input.json"
            path.write_bytes(raw)
            argv = ["rc" if reader == "group" else "homog", str(path)]
        code, err = _run(argv)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(("error: ", "usage: ")), err
