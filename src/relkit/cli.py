"""Command-line front end.

Subcommands: stats, rc, tests, closure, homog, catalog, verify.
All output is built as one JSON-serializable model; --format=table
renders the same model for humans.  Exit codes: 0 success, 1 a
verification criterion failed, 2 input error, 3 caps exceeded under
--strict, 4 an internal invariant failed (a bug in relkit), 141 stdout
was closed before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import catalog as cat, verify
from .closure import k_closure
from .digraphs import enumerate_homogeneous_digraphs
from .errors import (
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    ParseError,
    RelkitError,
    TooLarge,
)
from .group import dump_group, load_group
from .nonbinary import (
    BATTERY_ORDER,
    DEFAULT_TEST6_SEED,
    DEFAULT_TEST6_TRIALS,
    check_beautiful,
    run_battery,
)
from .perm import format_permutation
from .relcomp import relational_complexity
from .stats import compute_statistics
from .structures import (
    automorphism_group,
    check_homogeneity_cap,
    is_homogeneous,
    load_structure,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so the flush
        # at exit cannot fail again, and exit as a shell reports SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TooLarge, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.strict else 2
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except RelkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_global_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=("json", "table"),
                        default=d or "table")
    parser.add_argument("--seed", type=int, default=d or DEFAULT_TEST6_SEED)
    parser.add_argument("--jobs", type=int, default=d or 1)
    parser.add_argument("--strict", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="exit 3 when any field is skipped by a cap")
    parser.add_argument("--force-caps", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="lift RC's degree and order caps, and no other; "
                             "in stats only RC's order cap can matter")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relkit",
        description="relational complexity and non-binarity toolkit",
    )
    _add_global_flags(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common], help="full statistics report for a group file")
    p.add_argument("group_file")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("rc", parents=[common], help="relational complexity with witness")
    p.add_argument("group_file")
    p.set_defaults(handler=cmd_rc)

    p = sub.add_parser("tests", parents=[common], help="run the non-binarity battery")
    p.add_argument("group_file")
    p.add_argument("--test", default="all",
                   help="1..6, frobenius, beautiful, or all")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--trials", type=int, default=DEFAULT_TEST6_TRIALS)
    p.add_argument("--lambda", dest="lambda_", default=None,
                   help="comma-separated 1-based points (for beautiful or all)")
    p.add_argument("--all", action="store_true",
                   help="do not stop at the first NotBinary verdict")
    p.set_defaults(handler=cmd_tests)

    p = sub.add_parser("closure", parents=[common], help="k-closure of a group")
    p.add_argument("group_file")
    p.add_argument("-k", type=int, choices=(2, 3), default=2)
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("homog", parents=[common], help="homogeneity of a structure file")
    p.add_argument("structure_file", nargs="?")
    p.add_argument("--enumerate", type=int, default=None, metavar="N",
                   help="enumerate homogeneous digraphs on N vertices")
    p.set_defaults(handler=cmd_homog)

    p = sub.add_parser("catalog", parents=[common], help="list or build catalog groups")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("name", nargs="?")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance criteria")
    p.add_argument("--filter", default=None,
                   help="comma list of criterion numbers or a name substring")
    p.set_defaults(handler=cmd_verify)

    return parser


# -- output ----------------------------------------------------------------


def emit(args, model):
    if args.format == "json":
        print(json.dumps(model, indent=2))
    else:
        _render_table(model)


def _flat(value):
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _render_table(model, indent=0):
    pad = "  " * indent
    if isinstance(model, dict):
        for key, value in model.items():
            if isinstance(value, (dict, list)) and value and not _flat(value):
                print(f"{pad}{key}:")
                _render_table(value, indent + 1)
            elif _flat(value) and value:
                print(f"{pad}{key}: {value}")
            else:
                print(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(model, list):
        for item in model:
            if _flat(item):
                print(f"{pad}- {item}")
            elif isinstance(item, (dict, list)):
                _render_table(item, indent)
                print()
            else:
                print(f"{pad}- {_scalar(item)}")
    else:
        print(f"{pad}{_scalar(model)}")


def _scalar(value):
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return value


# -- subcommands -------------------------------------------------------------


def cmd_stats(args) -> int:
    group = load_group(args.group_file)
    report = compute_statistics(group, force_caps=args.force_caps)
    emit(args, report.to_json())
    if args.strict and report.skipped:
        return 3
    return 0


def cmd_rc(args) -> int:
    group = load_group(args.group_file)
    rc, witness = relational_complexity(group, force_caps=args.force_caps)
    model = {"degree": group.degree, "order": group.order(), "rc": rc,
             "witness": witness.to_json() if witness else None}
    emit(args, model)
    return 0


def cmd_tests(args) -> int:
    group = load_group(args.group_file)
    selection = args.test
    lam = None
    if selection in ("beautiful", "all") and args.lambda_ is not None:
        tokens = args.lambda_.split(",")
        try:
            lam = [int(x) - 1 for x in tokens]
        except ValueError:
            raise BadParameter(f"--lambda needs comma-separated integers, not {args.lambda_!r}")
        for token, p in zip(tokens, lam):
            if not 0 <= p < group.degree:
                raise BadParameter(f"--lambda point {token.strip()} outside 1..{group.degree}")
    elif selection == "beautiful":
        raise BadParameter("--lambda is required for the beautiful-subset test")
    elif args.lambda_ is not None:
        raise BadParameter("--lambda applies only to --test beautiful or all")
    if selection == "all":
        names = list(BATTERY_ORDER)
    elif selection == "beautiful":
        names = []
    else:
        names = [s.strip() for s in selection.split(",")]
    outcomes = []
    if names:
        outcomes = run_battery(
            group,
            tests=names,
            stop_at_first=not args.all,
            prime=args.prime,
            trials=args.trials,
            seed=args.seed,
        )
    if lam is not None:
        outcomes.append(check_beautiful(group, group, lam))
    emit(args, [o.to_json() for o in outcomes])
    return 0


def cmd_closure(args) -> int:
    group = load_group(args.group_file)
    closure = k_closure(group, args.k)
    model = {
        "k": args.k,
        "group_order": group.order(),
        "closure_order": closure.order(),
        "closed": closure.order() == group.order(),
        "closure_generators": [format_permutation(g) for g in closure.generators],
    }
    emit(args, model)
    return 0


def cmd_homog(args) -> int:
    if args.enumerate is not None:
        graphs = enumerate_homogeneous_digraphs(args.enumerate)
        model = {
            "vertices": args.enumerate,
            "count": len(graphs),
            "digraphs": [g.to_json() for g in graphs],
        }
        emit(args, model)
        return 0
    if not args.structure_file:
        raise BadParameter("need a structure file or --enumerate N")
    structure = load_structure(args.structure_file)
    check_homogeneity_cap(structure)  # before the harvest, which ignores the cap
    aut = automorphism_group(structure)
    verdict, failing = is_homogeneous(structure, aut=aut)
    model = {
        "vertices": structure.vertices,
        "homogeneous": verdict,
        "automorphism_order": aut.order(),
        "failing_map": failing,
    }
    emit(args, model)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        model = [
            {"name": name, "parameters": list(params)}
            for name, (_, params) in sorted(cat.BUILDERS.items())
        ]
        emit(args, model)
        return 0
    if not args.name:
        raise BadParameter("catalog build needs a name")
    entry = cat.build_entry(args.name, *args.params)
    model = {
        "label": entry.label,
        "degree": entry.group.degree,
        "order": entry.group.order(),
        "expected_rc": entry.expected_rc,
        "generators": [format_permutation(g) for g in entry.group.generators],
    }
    if args.output:
        try:
            dump_group(entry.group, args.output)
        except OSError as exc:
            raise BadParameter(f"cannot write {args.output}: {exc}") from exc
        model["written"] = args.output
    emit(args, model)
    return 0


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise BadParameter(f"--jobs must be at least 1, not {args.jobs}")
    numbers = None
    if args.filter is not None:
        tokens = [t.strip() for t in args.filter.split(",")]
        numbers = set()
        for token in tokens:
            if not token:
                raise BadParameter(f"--filter {args.filter!r} has an empty token")
            # a number is compared as text: int() refuses some digit strings
            number = token.lstrip("0") if token.isascii() and token.isdigit() else None
            selected = {num for num, name, _ in verify.CRITERIA
                        if (str(num) == number if number is not None else token in name)}
            if not selected:
                raise BadParameter(f"--filter token {token!r} selects no criterion")
            numbers |= selected
    as_json = args.format == "json"
    # in JSON mode the PASS/FAIL lines go to stderr: stdout holds the model alone
    echo = functools.partial(print, file=sys.stderr) if as_json else print
    summary = verify.run_all(numbers=numbers, echo=echo, jobs=args.jobs)
    if as_json:
        print(json.dumps(summary, indent=2))
    return 0 if summary["all_passed"] else 1

if __name__ == "__main__":
    sys.exit(main())
