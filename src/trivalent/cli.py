"""Command line front end.

Exit codes: 0 success, 1 semantic failure (failed check, failed
verification, count disagreement, unusable value), 2 malformed input
(unparseable file or arguments), 3 statement not applicable to the
given input, 4 internal error (an unexpected exception; its traceback
goes to stderr).

Graphs come from a file argument or from ``--builtin``; builtin names
are tripod, theta, dumbbell, loop_with_leg and cycle:N.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import semigraph
from .numbering import (
    BranchNumbering,
    check_prime,
    dumps_numbering,
    loads_numbering,
    numbering_to_json_obj,
    radii_of,
)
from .miura import check_pp004, miura_transform
from .search import EnumerationQuery, count, count_by_contraction, enumerate_numberings
from .semigraph import StructureError, validate
from .verify import (
    FIGURE_P,
    TheoremReport,
    verify_figure_vector,
    verify_miura,
    verify_p048,
    verify_p048_structure,
)

PASS, FAIL, MALFORMED, NOT_APPLICABLE, INTERNAL = 0, 1, 2, 3, 4

BUILTINS = {
    "tripod": semigraph.tripod,
    "theta": semigraph.theta,
    "dumbbell": semigraph.dumbbell,
    "loop_with_leg": semigraph.loop_with_leg,
}


def _load_graph(args) -> semigraph.MarkedSemiGraph:
    if args.builtin is not None and args.graph is not None:
        raise StructureError("give either a graph file or --builtin, not both")
    if args.builtin is not None:
        name = args.builtin
        if name in BUILTINS:
            return BUILTINS[name]()
        if name.startswith("cycle:"):
            n = name[len("cycle:"):]
            if _is_integer(n) and int(n) >= 1:
                return semigraph.cycle_with_legs(int(n))
            raise StructureError(f"bad builtin {name!r}")
        raise StructureError(f"unknown builtin {name!r}")
    if args.graph is None:
        raise StructureError("a graph file or --builtin is required")
    return semigraph.loads_graph(_read(args.graph))


def _read(path: str) -> str:
    """The text of a UTF-8 file.  A file that is not UTF-8 is malformed
    input, and ``miura`` reads two files, so the error names this one."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise StructureError(f"{path}: {exc}") from None


def _is_integer(text: str) -> bool:
    """Whether ``text`` is ASCII digits after at most one '-'.  int() would
    also take '+', spaces, underscores and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _integer_arg(text: str) -> int:
    """The argparse type of --p and --limit."""
    if not _is_integer(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_constraint(raw: str | None):
    if raw is None:
        return None
    if not raw:
        return ()
    parts = raw.split(",")
    if not all(_is_integer(part) for part in parts):
        raise StructureError(f"--constraint must be comma-separated integers, got {raw!r}")
    return tuple(int(part) for part in parts)


def _emit(obj):
    print(json.dumps(obj))


def cmd_validate(args) -> int:
    m = _load_graph(args)
    report = validate(m)
    _emit(report.to_json_obj())
    return PASS if report.valid else FAIL


def cmd_enumerate(args) -> int:
    m = _load_graph(args)
    p = check_prime(args.p)
    if args.limit is not None and args.limit < 0:
        raise StructureError(f"--limit must be nonnegative, got {args.limit}")
    query = EnumerationQuery(
        p, args.kind, constraint=_parse_constraint(args.constraint), limit=args.limit
    )
    for numbering in enumerate_numberings(m, query):
        print(dumps_numbering(m, numbering))
    return PASS


def cmd_count(args) -> int:
    m = _load_graph(args)
    query = EnumerationQuery(args.p, args.kind)
    by_exponent = args.by_exponent
    if args.method == "both":
        back = count(m, query, by_exponent=by_exponent)
        cont = count_by_contraction(m, query, by_exponent=by_exponent)
        agree = back.total == cont.total and back.by_exponent == cont.by_exponent
        _emit(
            {
                "backtracking": back.to_json_obj(),
                "contraction": cont.to_json_obj(),
                "agree": agree,
            }
        )
        return PASS if agree else FAIL
    if args.method == "contraction":
        report = count_by_contraction(m, query, by_exponent=by_exponent)
    else:
        report = count(m, query, by_exponent=by_exponent)
    _emit(report.to_json_obj())
    return PASS


def cmd_miura(args) -> int:
    numbering = loads_numbering(_read(args.numbering))
    m = _load_graph(args)
    if not isinstance(numbering, BranchNumbering):
        raise ValueError("miura expects a strict branch-numbering file")
    image = miura_transform(m, numbering)
    obj = numbering_to_json_obj(m, image)
    obj["radii"] = list(radii_of(m, image))
    _emit(obj)
    return PASS


def _report_exit(report: TheoremReport) -> int:
    _emit(report.to_json_obj())
    if not report.applicable:
        return NOT_APPLICABLE
    return PASS if report.passed else FAIL


def _refuse_graph(args, what: str):
    if args.graph is not None or args.builtin is not None:
        raise StructureError(f"verify {args.theorem} takes no graph: it checks {what}")


def cmd_verify(args) -> int:
    if args.theorem == "figure":
        what = f"a fixed tree at p={FIGURE_P}"
        _refuse_graph(args, what)
        if args.p is not None:
            raise StructureError(f"verify figure takes no --p: it checks {what}")
        return _report_exit(verify_figure_vector())
    if args.theorem == "pp004":
        _refuse_graph(args, "the tripod census")
    if args.p is None:
        raise StructureError(f"verify {args.theorem} requires --p")
    p = check_prime(args.p)
    if args.theorem == "pp004":
        result = check_pp004(p)
        report = TheoremReport(
            "pp004",
            {"p": p},
            claim="strictness is equivalent to balancedness of the image on the tripod census",
            observed=f"{len(result.counterexamples)} counterexamples",
            passed=result.holds,
            witness=result.counterexamples,
        )
        return _report_exit(report)
    m = _load_graph(args)
    if args.theorem == "p048":
        return _report_exit(verify_p048(m, p))
    if args.theorem == "p048_structure":
        return _report_exit(verify_p048_structure(m, p))
    return _report_exit(verify_miura(m, p))


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="trivalent",
        description="numberings of 3-regular semi-graphs and their Miura transform",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_command(name, summary):
        commands[name] = sub.add_parser(name, help=summary)
        return commands[name]

    def add_graph_args(p):
        p.add_argument("graph", nargs="?", help="graph JSON file")
        p.add_argument("--builtin", help="tripod, theta, dumbbell, loop_with_leg, cycle:N")

    p_validate = add_command("validate", "run the semantic checks")
    add_graph_args(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_enum = add_command("enumerate", "stream numberings as JSON lines")
    p_enum.add_argument("--p", type=_integer_arg, required=True)
    p_enum.add_argument("--kind", choices=("strict", "balanced"), required=True)
    p_enum.add_argument("--constraint", help="comma-separated exponents or radii")
    p_enum.add_argument("--limit", type=_integer_arg)
    add_graph_args(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_count = add_command("count", "count numberings")
    p_count.add_argument("--p", type=_integer_arg, required=True)
    p_count.add_argument("--kind", choices=("strict", "balanced"), required=True)
    p_count.add_argument("--by-exponent", action="store_true")
    p_count.add_argument(
        "--method", choices=("backtracking", "contraction", "both"), default="backtracking"
    )
    add_graph_args(p_count)
    p_count.set_defaults(func=cmd_count)

    p_miura = add_command("miura", "transform a strict numbering")
    p_miura.add_argument("numbering", help="strict numbering JSON file")
    add_graph_args(p_miura)
    p_miura.set_defaults(func=cmd_miura)

    p_verify = add_command("verify", "check one of the built-in statements")
    p_verify.add_argument(
        "theorem", choices=("pp004", "p048", "p048_structure", "miura", "figure")
    )
    p_verify.add_argument("--p", type=_integer_arg)
    add_graph_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a token that starts with '-' as an option unless it
    # is a plain negative number, so a constraint such as -1,-1,1 is
    # joined to its option.
    for i in range(len(argv) - 2, -1, -1):
        value = argv[i + 1]
        if argv[i] == "--constraint" and value.startswith("-") and _is_integer(value[:2]):
            argv[i:i + 2] = [f"--constraint={value}"]
    parser, commands = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # The top-level parser hands a subcommand its positionals in one
        # chunk, so a graph file after an option (``verify p048 --p 5
        # tree.json``) is left over.  The subcommand's own parser takes
        # options and positionals intermixed, and rejects true extras.
        args = commands[args.command].parse_intermixed_args(
            argv[1:], argparse.Namespace(command=args.command)
        )
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (as in ``| head``): stop quietly, and point
        # stdout at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return PASS
    except (StructureError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MALFORMED
    except ValueError as exc:  # InvalidGraphError included
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except Exception:
        traceback.print_exc()
        return INTERNAL


def entry():
    sys.exit(main())
