"""Command-line front end.

Subcommands: stats, rc, tests, closure, homog, catalog, verify.
All output is built as one JSON-serializable model; --format=table
renders the same model for humans.  Exit codes: 0 success, 1 a
verification criterion failed, 2 input error, 3 caps exceeded under
--strict.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from .closure import k_closure
from .digraphs import enumerate_homogeneous_digraphs
from .errors import (
    CapExceeded,
    DegreeTooLarge,
    GroupTooLarge,
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
from .structures import automorphism_group, is_homogeneous, load_structure
from .verify import run_all


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TooLarge, DegreeTooLarge, GroupTooLarge, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.strict else 2
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
                        help="lift the default degree/order caps")


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
                   help="comma-separated 1-based points (for beautiful)")
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


def _rc_caps(args):
    if args.force_caps:
        return {"degree_cap": 10**5, "order_cap": 10**12}
    return {}


def cmd_stats(args) -> int:
    group = load_group(args.group_file)
    report = compute_statistics(group, rc_caps=_rc_caps(args))
    emit(args, report.to_json())
    if args.strict and report.skipped:
        return 3
    return 0


def cmd_rc(args) -> int:
    group = load_group(args.group_file)
    rc, witness = relational_complexity(group, **_rc_caps(args))
    model = {"degree": group.degree, "order": group.order(), "rc": rc,
             "witness": witness.to_json() if witness else None}
    emit(args, model)
    return 0


def cmd_tests(args) -> int:
    group = load_group(args.group_file)
    selection = args.test
    if selection in ("all", None):
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
    if selection in ("beautiful", "all") and args.lambda_:
        lam = [int(x) - 1 for x in args.lambda_.split(",")]
        outcomes.append(check_beautiful(group, group, lam))
    elif selection == "beautiful" and not args.lambda_:
        print("error: --lambda is required for the beautiful-subset test",
              file=sys.stderr)
        return 2
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
        print("error: need a structure file or --enumerate N", file=sys.stderr)
        return 2
    structure = load_structure(args.structure_file)
    verdict, failing = is_homogeneous(structure)
    aut = automorphism_group(structure)
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
        print("error: catalog build needs a name", file=sys.stderr)
        return 2
    entry = cat.build_entry(args.name, *args.params)
    model = {
        "label": entry.label,
        "degree": entry.group.degree,
        "order": entry.group.order(),
        "expected_rc": entry.expected_rc,
        "generators": [format_permutation(g) for g in entry.group.generators],
    }
    if args.output:
        dump_group(entry.group, args.output)
        model["written"] = args.output
    emit(args, model)
    return 0


def cmd_verify(args) -> int:
    numbers = None
    if args.filter:
        tokens = [t.strip() for t in args.filter.split(",")]
        numbers = set()
        from .verify import CRITERIA

        for token in tokens:
            if token.isdigit():
                numbers.add(int(token))
            else:
                numbers.update(num for num, name, _ in CRITERIA if token in name)
    if args.jobs > 1:
        summary = _verify_parallel(numbers, args.jobs)
    else:
        summary = run_all(numbers=numbers)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    return 0 if summary["all_passed"] else 1


def _verify_parallel(numbers, jobs):
    from concurrent.futures import ProcessPoolExecutor

    from .verify import CRITERIA, run_criterion

    wanted = [num for num, _, _ in CRITERIA if numbers is None or num in numbers]
    summary = {"criteria": [], "all_passed": True}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(run_criterion, wanted))
    for result in results:  # input order, never completion order
        summary["criteria"].append(result)
        if not result["passed"]:
            summary["all_passed"] = False
        status = "PASS" if result["passed"] else "FAIL"
        print(f"{status} criterion {result['criterion']} ({result['name']})"
              f" [{result['seconds']}s]")
        if not result["passed"]:
            for check in result["checks"]:
                if not check["ok"]:
                    print(f"     {check['label']}: expected {check['expected']},"
                          f" got {check['got']}")
    return summary


if __name__ == "__main__":
    sys.exit(main())
