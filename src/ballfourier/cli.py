"""Command-line front end: evaluate, transform, verify, tabulate.

This module parses and routes: each decision it passes on (what a
function computes, when an input is refused, how a report is written) is
made in the library, input rules included (ranges, degrees, the shape
of ``--x`` and ``--xi``, the theta ``--axis``).  The CLI checks only its
own: option presence, the one-entry ``eval`` functions, the table grids,
the work bounds, ``--r`` and finite results.
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
            option = next((action.option_strings[0] for action in parser._actions
                           if action.dest == name), "--" + name.replace("_", "-"))
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


def _check_scalar(parser, args) -> None:
    if len(args.n) != 1 or len(args.x) != 1:
        parser.error(f"--fn {args.fn} takes a single --n and a single --x entry")


# each eval --fn: the options it requires (as stored; --lambda is lam),
# whether --n and --x take one entry, and its evaluator
_EVAL_FUNCTIONS = {
    "gegenbauer": (("n", "lam", "x"), True,
                   lambda args: gegenbauer(args.n[0], args.lam, args.x[0])),
    "jacobi": (("n", "alpha", "beta", "x"), True,
               lambda args: jacobi(args.n[0], args.alpha, args.beta, args.x[0])),
    "hahn": (("n", "x", "a", "b", "c", "d"), True,
             lambda args: continuous_hahn(args.n[0], args.x[0],
                                          (args.a, args.b, args.c, args.d))),
    "ball": (("n", "mu", "x"), False,
             lambda args: ball_basis_eval(args.n, args.mu, np.array(args.x))),
    "f_r": (("n", "a", "mu", "x"), False,
            lambda args: family_eval(np.array(args.x), FamilyParams(args.a, args.mu, args.n))),
    "d_family": (("n", "a1", "a2", "x"), False,
                 lambda args: d_family_eval(np.array(args.x, dtype=complex),
                                            DParams(args.a1, args.a2, args.n))),
}


def _eval_value(parser, args):
    names, scalar, evaluate = _EVAL_FUNCTIONS[args.fn]
    _require(parser, args, names)
    if scalar:
        _check_scalar(parser, args)
    else:
        _check_r(parser, args, len(args.n))
    inputs = {"fn": args.fn}
    for name in names:
        value = getattr(args, name)
        if name in ("n", "x"):
            value = value[0] if scalar else list(value)
        inputs["lambda" if name == "lam" else name] = value
    return inputs, evaluate(args)


def _cmd_eval(parser, args) -> int:
    if args.n is not None:
        _check_degree(parser, args.n,
                      _JACOBI_DEGREE_LIMIT if args.fn == "jacobi" else _DEGREE_LIMIT)
    inputs, value = _eval_value(parser, args)
    _check_finite(parser, value)
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
    fn = args.fn
    if args.n is not None:
        _check_degree(parser, args.n, _DEGREE_LIMIT)
    if fn == "theta":
        _require(parser, args, ("n", "a", "mu", "start", "stop", "step"))
        params = FamilyParams(args.a, args.mu, args.n)
        header = ["xi"]
        points = _grid(args.start, args.stop, args.step, sum(args.n))
        values = theta_factor(args.axis, params.r, params, points[:, 0])
    elif fn == "ball":
        _require(parser, args, ("n", "mu", "grid"))
        if len(args.n) != 2:
            parser.error("--fn ball tables are 2-dimensional; give --n with two entries")
        if args.grid < 0:
            parser.error("--grid must not be negative")
        _check_table_size(args.grid ** 2, sum(args.n))
        header = ["x1", "x2"]
        axis = np.linspace(-1.0, 1.0, args.grid)
        x1, x2 = (c.reshape(-1) for c in np.meshgrid(axis, axis, indexing="ij"))
        points = np.stack([x1, x2], axis=-1)[x1 * x1 + x2 * x2 <= 1.0]
        values = ball_basis_eval(args.n, args.mu, points)
    elif fn == "gegenbauer":
        _require(parser, args, ("n", "lam", "start", "stop", "step"))
        if len(args.n) != 1:
            parser.error("--fn gegenbauer tables take a single --n entry")
        header = ["x"]
        points = _grid(args.start, args.stop, args.step, args.n[0])
        values = gegenbauer(args.n[0], args.lam, points[:, 0])
    elif fn == "d_family":
        _require(parser, args, ("n", "a1", "a2", "start", "stop", "step"))
        if len(args.n) != 1:
            parser.error("--fn d_family tables are 1-dimensional; give a single --n entry")
        params = DParams(args.a1, args.a2, args.n)
        header = ["x"]
        points = _grid(args.start, args.stop, args.step, args.n[0])
        values = d_family_eval(points.astype(complex), params)
    _check_finite(parser, values)
    rows = zip(points.tolist(), np.asarray(values, dtype=complex).tolist())

    def write(out):
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header + ["value_re", "value_im"])
        for point, value in rows:
            writer.writerow([repr(float(c)) for c in (*point, value.real, value.imag)])
    _write_output(write, args.output)
    return 0


def _check_table_size(rows, degree: int) -> None:
    if rows > _TABLE_ROW_LIMIT:
        raise ValueError(f"the table would have more than {_TABLE_ROW_LIMIT} rows")
    if rows * degree > _TABLE_TERM_LIMIT:
        raise ValueError(f"rows times total degree exceeds the limit {_TABLE_TERM_LIMIT}")


def _grid(start: float, stop: float, step: float, degree: int):
    """Column of the row points start, start + step, ... <= stop."""
    if step <= 0:
        raise ValueError("--step must be positive")
    span = (stop - start) / step
    _check_table_size(span + 1.0, degree)
    count = int(round(span))
    return np.array([start + k * step for k in range(count + 1)
                     if start + k * step <= stop + 1e-12]).reshape(-1, 1)


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
    p_eval.add_argument("--fn", required=True, choices=tuple(_EVAL_FUNCTIONS))
    p_eval.add_argument("--n", type=_parse_multi_index, help="degree or multi-index (comma separated)")
    p_eval.add_argument("--lambda", dest="lam", type=_finite_float, help="Gegenbauer parameter")
    p_eval.add_argument("--alpha", type=_finite_float)
    p_eval.add_argument("--beta", type=_finite_float)
    p_eval.add_argument("--a", type=_finite_float)
    p_eval.add_argument("--b", type=_finite_float)
    p_eval.add_argument("--c", type=_finite_float)
    p_eval.add_argument("--d", type=_finite_float)
    p_eval.add_argument("--mu", type=_finite_float)
    p_eval.add_argument("--a1", type=_finite_float)
    p_eval.add_argument("--a2", type=_finite_float)
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
    p_table.add_argument("--fn", required=True,
                         choices=("theta", "ball", "gegenbauer", "d_family"))
    p_table.add_argument("--n", type=_parse_multi_index)
    p_table.add_argument("--lambda", dest="lam", type=_finite_float)
    p_table.add_argument("--a", type=_finite_float)
    p_table.add_argument("--mu", type=_finite_float)
    p_table.add_argument("--a1", type=_finite_float)
    p_table.add_argument("--a2", type=_finite_float)
    p_table.add_argument("--axis", type=int, default=1,
                         help="theta axis index j (default 1)")
    p_table.add_argument("--start", type=_finite_float)
    p_table.add_argument("--stop", type=_finite_float)
    p_table.add_argument("--step", type=_finite_float)
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
