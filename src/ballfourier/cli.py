"""Command-line front end: evaluate, transform, verify, tabulate.

This module parses and routes: each decision it passes on (what a
function computes, when an input is refused, how a report is written) is
made in the library, input rules included (ranges, degrees, the shape
of ``--x`` and ``--xi``, the theta ``--axis``).  The CLI checks only its
own: option presence, the one-entry ``eval`` functions, the table grids,
the work bounds, ``--r`` and finite results.  One table of functions
(``_FUNCTIONS``) names what each ``--fn`` reads and evaluates it at
points; ``eval`` applies it to ``--x`` and ``table`` to its grid.
Exit codes: 0 success, 1 verification failure, 2
usage/configuration error.  Every refusal is reported one way, by the
parser of the subcommand that ran: its usage line, then
``ballfourier <command>: error: <reason>``.  That holds for the checks
made here, for an option the subcommand does not know, and for every
``ValueError`` (``DomainError`` among them) and ``OverflowError`` the
library raises.  The one exception is an
``--output`` path that cannot be written, which prints
``error: cannot write PATH: REASON`` alone.  Outputs are deterministic —
the same arguments (and seed) produce byte-identical files.  Floats are
written with Python's shortest round-trip representation.

Every command computes its whole result first and only then writes it,
through :func:`_write_output`: a usage error therefore writes nothing, and
the output file is opened only after the run.  The writing itself is
streamed (verify reports and table rows go to the destination one at a
time), so the full text is never held in memory.
A reader that closes stdout early ends the output without a traceback, and
the exit code stays the command's own.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .ball import ball_basis_eval
from .classical import continuous_hahn, gegenbauer, jacobi
from .dfamily import DParams, d_family_eval
from .tanh_family import FamilyParams, family_eval, fourier_closed_form, theta_factor
from .verify import SUITE_NAMES, fourier_report, reports_to_csv, reports_to_json, run_suite

USAGE_ERROR = 2
VERIFY_FAILURE = 1
# work bounds, each keeping one call near 1 s: table rows (a ball table
# counts all grid x grid points), table rows x total degree, the total degree
# of one call, and the degree of the exact Jacobi sum, whose cost also grows
# with the bit length of the inputs (subnormal ones are the worst case)
_TABLE_ROW_LIMIT = 100_000
_TABLE_TERM_LIMIT = 10_000_000
_DEGREE_LIMIT = 20_000
_JACOBI_DEGREE_LIMIT = 120


def _parse_multi_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad multi-index {text!r}") from exc


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is negative")
    return value or 0.0  # -0 is written as 0.0


def _parse_vector(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(part) for part in text.split(","))


class _UnwritableOutput(Exception):
    """The --output destination could not be opened or written."""


def _write_output(write, path: str | None) -> None:
    """The one output path of every command: ``write(handle)`` writes the
    finished result to the file at ``path``, opened only now, or to stdout.
    An unwritable path is a usage error; a stdout reader that has gone
    away ends the output quietly."""
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                write(handle)
        except OSError as exc:
            raise _UnwritableOutput(f"cannot write {path}: {exc.strerror or exc}") from exc
        return
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered, and the flush at exit, go to the null
        # device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_record(record: dict, path: str | None) -> None:
    """One JSON record; on stdout it ends with a newline, as every other
    command's text does."""
    text = json.dumps(record, sort_keys=True)
    if path is None:
        text += "\n"
    _write_output(lambda out: out.write(text), path)


def _require(parser: argparse.ArgumentParser, args, names) -> None:
    """Refuse a run that lacks one of the options stored at ``names``,
    naming the option as it is spelled (dest ``lam`` is ``--lambda``)."""
    for name in names:
        if getattr(args, name, None) is None:
            option = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
            parser.error(f"{option} is required for this function")


def _check_r(parser, args, length: int) -> None:
    if args.r is not None and args.r != length:
        parser.error(f"--r={args.r} contradicts a length-{length} vector argument")


def _check_degree(parser, n, limit: int) -> None:
    if sum(n) > limit:
        parser.error(f"total degree {sum(n)} exceeds the limit {limit}")


def _check_finite(parser, values) -> None:
    if not np.all(np.isfinite(values)):
        parser.error("the computed value is not finite at these inputs")


def _check_table_size(rows, degree: int) -> None:
    if rows > _TABLE_ROW_LIMIT:
        raise ValueError(f"the table would have more than {_TABLE_ROW_LIMIT} rows")
    if rows * degree > _TABLE_TERM_LIMIT:
        raise ValueError(f"rows times total degree exceeds the limit {_TABLE_TERM_LIMIT}")


def _range_points(args):
    """Column of the row points start, start + step, ... <= stop."""
    if args.step <= 0:
        raise ValueError("--step must be positive")
    span = (args.stop - args.start) / args.step
    _check_table_size(span + 1.0, sum(args.n))
    return np.array([args.start + k * args.step for k in range(int(round(span)) + 1)
                     if args.start + k * args.step <= args.stop + 1e-12]).reshape(-1, 1)


def _disc_points(args):
    """The points of a grid x grid lattice on [-1, 1]^2 inside the closed disc."""
    if args.grid < 0:
        raise ValueError("--grid must not be negative")
    _check_table_size(args.grid ** 2, sum(args.n))
    axis = np.linspace(-1.0, 1.0, args.grid)
    x1, x2 = (c.reshape(-1) for c in np.meshgrid(axis, axis, indexing="ij"))
    return np.stack([x1, x2], axis=-1)[x1 * x1 + x2 * x2 <= 1.0]


def _d_family(args):
    params = DParams(args.a1, args.a2, args.n)
    return lambda x: d_family_eval(x.astype(complex), params)


def _theta(args):
    params = FamilyParams(args.a, args.mu, args.n)
    return lambda x: theta_factor(args.axis, params.r, params, x[..., 0])


_RANGE = (("start", "stop", "step"), _range_points)
# each --fn: the options its function reads, as stored (--lambda is lam; x
# stands for --x in eval and for the grid options in table); whether eval
# takes a single --n and --x entry (None: no eval); its table, if any: grid
# options, points function, point columns and --n entry count (None: any);
# and a builder that checks its parameters and returns its evaluator at
# points x of shape (..., d), where a one-coordinate function reads x[..., 0]
_FUNCTIONS = {
    "gegenbauer": (("n", "lam", "x"), True, (*_RANGE, ("x",), 1),
                   lambda args: lambda x: gegenbauer(args.n[0], args.lam, x[..., 0])),
    "jacobi": (("n", "alpha", "beta", "x"), True, None,
               lambda args: lambda x: jacobi(args.n[0], args.alpha, args.beta, x[..., 0])),
    "hahn": (("n", "x", "a", "b", "c", "d"), True, None,
             lambda args: lambda x: continuous_hahn(args.n[0], x[..., 0],
                                                    (args.a, args.b, args.c, args.d))),
    "ball": (("n", "mu", "x"), False, (("grid",), _disc_points, ("x1", "x2"), 2),
             lambda args: partial(ball_basis_eval, args.n, args.mu)),
    "f_r": (("n", "a", "mu", "x"), False, None,
            lambda args: partial(family_eval, params=FamilyParams(args.a, args.mu, args.n))),
    "d_family": (("n", "a1", "a2", "x"), False, (*_RANGE, ("x",), 1), _d_family),
    "theta": (("n", "a", "mu", "x"), None, (*_RANGE, ("xi",), None), _theta),
}


def _cmd_eval(parser, args) -> int:
    names, scalar, _, build = _FUNCTIONS[args.fn]
    if args.n is not None:
        _check_degree(parser, args.n,
                      _JACOBI_DEGREE_LIMIT if args.fn == "jacobi" else _DEGREE_LIMIT)
    _require(parser, args, names)
    if not scalar:
        _check_r(parser, args, len(args.n))
    elif len(args.n) != 1 or len(args.x) != 1:
        parser.error(f"--fn {args.fn} takes a single --n and a single --x entry")
    value = build(args)(np.array(args.x))
    _check_finite(parser, value)
    inputs = {"fn": args.fn}
    for name in names:
        given = getattr(args, name)
        if name in ("n", "x"):
            given = given[0] if scalar else list(given)
        inputs["lambda" if name == "lam" else name] = given
    value = complex(value)
    _write_record({"inputs": inputs, "value_re": value.real, "value_im": value.imag},
                  args.output)
    return 0


def _cmd_fourier(parser, args) -> int:
    _check_r(parser, args, len(args.n))
    _check_degree(parser, args.n, _DEGREE_LIMIT)
    params = FamilyParams(args.a, args.mu, args.n)
    closed = fourier_closed_form(params, np.array(args.xi))
    _check_finite(parser, closed)
    record = {
        "inputs": {"n": list(args.n), "a": args.a, "mu": args.mu, "xi": list(args.xi)},
        "closed_re": closed.real,
        "closed_im": closed.imag,
    }
    status = 0
    if args.check:
        report = fourier_report(params, np.array(args.xi), args.tolerance)
        _check_finite(parser, report.rhs)
        record.update({"oracle_re": report.rhs.real, "oracle_im": report.rhs.imag,
                       "rel_error": report.rel_error, "tolerance": report.tolerance,
                       "passed": report.passed,
                       "low_confidence": report.low_confidence})
        if not report.passed:
            status = VERIFY_FAILURE
    _write_record(record, args.output)
    return status


def _cmd_verify(parser, args) -> int:
    reports = run_suite(args.suite, seed=args.seed, r_max=args.r_max,
                        tolerance=args.tolerance)
    if args.format == "json":
        def write(out):
            reports_to_json(reports, out)
            out.write("\n")
    else:
        write = partial(reports_to_csv, reports)
    _write_output(write, args.output)
    failed = sum(1 for report in reports if not report.passed)
    if args.output is not None:
        summary = f"{len(reports) - failed}/{len(reports)} checks passed\n"
        _write_output(lambda out: out.write(summary), None)
    return 0 if failed == 0 else VERIFY_FAILURE


def _cmd_table(parser, args) -> int:
    names, _, (grid_names, grid_points, header, entries), build = _FUNCTIONS[args.fn]
    if args.n is not None:
        _check_degree(parser, args.n, _DEGREE_LIMIT)
    _require(parser, args, [o for name in names for o in (grid_names if name == "x" else (name,))])
    if entries is not None and len(args.n) != entries:
        parser.error(f"--fn {args.fn} tables take an --n of length {entries}")
    # the parameters are built, and so checked, before the grid
    evaluate = build(args)
    points = grid_points(args)
    values = evaluate(points)
    _check_finite(parser, values)
    rows = zip(points.tolist(), np.asarray(values, dtype=complex).tolist())

    def write(out):
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([*header, "value_re", "value_im"])
        for point, value in rows:
            writer.writerow([repr(float(c)) for c in (*point, value.real, value.imag)])
    _write_output(write, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballfourier",
        description="Evaluate ball orthogonal polynomials, their closed-form "
                    "Fourier transforms, and run quadrature verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", default=None, help="write output to this path")

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    add_common(p_eval)
    p_eval.add_argument("--fn", required=True, choices=tuple(
        fn for fn, (_, scalar, _, _) in _FUNCTIONS.items() if scalar is not None))
    p_eval.add_argument("--n", type=_parse_multi_index, help="degree or multi-index (comma separated)")
    p_eval.add_argument("--lambda", dest="lam", type=_finite_float, help="Gegenbauer parameter")
    for name in ("alpha", "beta", "a", "b", "c", "d", "mu", "a1", "a2"):
        p_eval.add_argument("--" + name, type=_finite_float)
    p_eval.add_argument("--x", type=_parse_vector, help="evaluation point (comma separated)")
    p_eval.set_defaults(func=_cmd_eval, parser=p_eval)

    p_fourier = sub.add_parser("fourier", help="closed-form transform, optionally checked")
    add_common(p_fourier)
    p_fourier.add_argument("--n", type=_parse_multi_index, required=True)
    p_fourier.add_argument("--a", type=_finite_float, required=True)
    p_fourier.add_argument("--mu", type=_finite_float, required=True)
    p_fourier.add_argument("--xi", type=_parse_vector, required=True)
    p_fourier.add_argument("--check", action="store_true",
                           help="compare against the quadrature oracle")
    p_fourier.add_argument("--tolerance", type=_tolerance, default=None)
    p_fourier.set_defaults(func=_cmd_fourier, parser=p_fourier)
    for p in (p_eval, p_fourier):
        p.add_argument("--r", type=int, default=None,
                       help="dimension; cross-checked against vector arguments")

    # no abbreviated flags, so a stray --r is not read as --r-max
    p_verify = sub.add_parser("verify", help="run an identity-verification suite",
                              allow_abbrev=False)
    add_common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed of the random parameter draws (default 0)")
    p_verify.add_argument("--r-max", dest="r_max", type=int, default=3,
                          help="largest dimension r (default 3); no suite goes past "
                               "r=3, so --r-max 6 gives the same reports as 3")
    p_verify.add_argument("--tolerance", type=_tolerance, default=None,
                          help="relative tolerance of lhs against rhs only; the "
                               "node-doubling gate keeps the suite's own tolerance")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=_cmd_verify, parser=p_verify)

    p_table = sub.add_parser("table", help="CSV table of values over a grid")
    add_common(p_table)
    # in the order --help has always listed them, which is not the eval order
    p_table.add_argument("--fn", required=True, choices=("theta", "ball", "gegenbauer", "d_family"))
    p_table.add_argument("--n", type=_parse_multi_index)
    p_table.add_argument("--lambda", dest="lam", type=_finite_float)
    for name in ("a", "mu", "a1", "a2"):
        p_table.add_argument("--" + name, type=_finite_float)
    p_table.add_argument("--axis", type=int, default=1,
                         help="theta axis index j (default 1)")
    for name in ("start", "stop", "step"):
        p_table.add_argument("--" + name, type=_finite_float)
    p_table.add_argument("--grid", type=int, help="grid points per axis (ball tables)")
    p_table.set_defaults(func=_cmd_table, parser=p_table)
    return parser


def main(argv=None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        # an unknown option is refused by the subcommand that ran, too
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        # non-finite results are reported as usage errors, not as warnings
        with np.errstate(all="ignore"):
            return args.func(args.parser, args)
    except _UnwritableOutput as exc:
        args.parser.exit(USAGE_ERROR, f"error: {exc}\n")
    except (ValueError, OverflowError) as exc:
        # every refusal of the library (a DomainError is a ValueError) is
        # a usage error of the subcommand that ran
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
