"""Command-line interface.

Subcommands:

* ``check <model>`` - referential reachability probability.
* ``sensitivity <model>`` - condition numbers and linear coefficients.
* ``validate <model> --delta d --samples N --seed S`` - empirical bound
  validation with sampled perturbations.
* ``paper-tables`` - regenerate the published case-study tables from the
  built-in models.

Each command builds one record, and :func:`main` renders it in one place;
``--format json|table`` picks the rendering. A problem or direction
stored in the model file can be overridden with ``--constraint``,
``--destination`` and ``--direction`` (flags win). Exit codes: 0 success,
1 input error, 2 internal numerical failure. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import PmcError, SingularSystemError
from .modelfile import parse_direction, parse_model
from .perturbation import Direction, analyze, gradient_coefficients
from .reachability import ReachabilityProblem
from .report import (
    check_record,
    reference_tables_record,
    render_check_table,
    render_json,
    render_reference_tables,
    render_sensitivity_table,
    render_validation_table,
    sensitivity_record,
    use_color,
    validation_record,
)
from .sampler import validate_bounds

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _int_set(text: str) -> frozenset[int]:
    try:
        return frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pmcperturb",
                     description="Perturbation analysis of constrained reachability "
                                 "in parametric Markov chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table",
                        help="output rendering (default: table)")

    model_common = argparse.ArgumentParser(add_help=False)
    model_common.add_argument("model", type=Path, help="path to a .model file")
    model_common.add_argument("--constraint", type=_int_set, default=None,
                              metavar="S1,S2,...",
                              help="constraint states (overrides the model file)")
    model_common.add_argument("--destination", type=_int_set, default=None,
                              metavar="S1,S2,...",
                              help="destination states (overrides the model file)")

    sub.add_parser("check", parents=[common, model_common],
                   help="referential reachability probability")

    sens = sub.add_parser("sensitivity", parents=[common, model_common],
                          help="condition numbers and linear coefficients")
    sens.add_argument("--direction", default=None, metavar="uniform|FILE",
                      help="'uniform' or a JSON file {\"weights\": {...}} "
                           "(overrides the model file)")

    val = sub.add_parser("validate", parents=[common, model_common],
                         help="sample perturbed chains and check the bound")
    val.add_argument("--delta", type=float, default=None,
                     help="distance applied to every parameter")
    val.add_argument("--per-parameter", default=None, metavar="D1,D2,...",
                     help="per-parameter distances in model parameter order "
                          "(overrides --delta)")
    val.add_argument("--samples", type=int, default=1000)
    val.add_argument("--seed", type=int, default=0)

    sub.add_parser("paper-tables", parents=[common],
                   help="regenerate the published case-study tables")
    return parser


def _load_model(args):
    parsed = parse_model(args.model)
    problem = parsed.problem
    if args.constraint is not None or args.destination is not None:
        constraint = args.constraint
        destination = args.destination
        if constraint is None:
            constraint = problem.constraint if problem else frozenset()
        if destination is None:
            destination = problem.destination if problem else frozenset()
        problem = ReachabilityProblem(constraint=constraint, destination=destination)
    if problem is None:
        raise PmcError("no reachability problem: the model file has none and "
                       "--constraint/--destination were not given")
    return parsed.pmc, problem, parsed.direction


def _cmd_check(args) -> dict:
    pmc, problem, _ = _load_model(args)
    return check_record(gradient_coefficients(pmc, problem))


def _direction_from_flag(flag: str) -> Direction | None:
    if flag == "uniform":
        return None  # resolved against the model's parameter ids later
    try:
        doc = json.loads(Path(flag).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise PmcError(f"cannot read direction file {flag!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise PmcError(f"direction file {flag!r}: {exc}") from None
    return parse_direction(doc, f"direction file {flag!r}")


def _cmd_sensitivity(args) -> dict:
    pmc, problem, file_direction = _load_model(args)
    direction = file_direction
    if args.direction is not None:
        direction = _direction_from_flag(args.direction)
    return sensitivity_record(analyze(gradient_coefficients(pmc, problem), direction))


def _cmd_validate(args) -> dict:
    pmc, problem, _ = _load_model(args)
    ids = [p.id for p in pmc.parameters]
    if args.per_parameter is not None:
        try:
            values = [float(part) for part in args.per_parameter.split(",")]
        except ValueError:
            raise PmcError(f"--per-parameter: expected comma-separated numbers, "
                           f"got {args.per_parameter!r}") from None
        if len(values) != len(ids):
            raise PmcError(f"--per-parameter: expected {len(ids)} value(s) "
                           f"for parameters {ids}, got {len(values)}")
        deltas = dict(zip(ids, values))
    elif args.delta is not None:
        deltas = {pid: args.delta for pid in ids}
    else:
        raise PmcError("validate requires --delta or --per-parameter")

    return validation_record(validate_bounds(gradient_coefficients(pmc, problem), deltas,
                                             n_samples=args.samples, seed=args.seed))


#: Each command's record builder and the table renderer of that record.
_COMMANDS = {
    "check": (_cmd_check, render_check_table),
    "sensitivity": (_cmd_sensitivity, render_sensitivity_table),
    "validate": (_cmd_validate, render_validation_table),
    "paper-tables": (lambda args: reference_tables_record(), render_reference_tables),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    build, table = _COMMANDS[args.command]
    try:
        record = build(args)
    except SingularSystemError as exc:
        print(f"pmcperturb: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PmcError as exc:
        print(f"pmcperturb: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "json":
        sys.stdout.write(render_json(record))
    else:
        sys.stdout.write(table(record, color=use_color()))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
