"""Command line interface.

    posicert certify   <problem-file> [--n-max K] [--tol T] [--denom-bound B]
                       [--force] [--out cert-file] [--seed S] [--samples N]
    posicert check-sos <problem-file> [...]
    posicert odd-power <problem-file> [--m-max K] [...]
    posicert epsilon   <problem-file> [...]
    posicert verify    <cert-file>
    posicert dump-sdp  <problem-file> --n N [--out file]

dump-sdp writes the first SDP the file's mode solves at scan exponent N: n
(certify), 0 only (check-sos), an odd m (odd-power), the stage n (epsilon).

Exit codes: 0 certified/valid, 1 not found up to the bound (or certificate
invalid), 2 counterexample found, 3 input error (including a malformed
command line, a polynomial text above the parser's degree cap, a problem
that breaks a ProblemSpec rule, from the file or from --n-max, --m-max or
the subcommand's mode (certify on a zero g, say), dump-sdp on f = 0 or at
an exponent the mode never scans, an --out file that cannot be written, and a system whose dense SDP
tensor exceeds driver.SDP_TENSOR_BYTES), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import driver, sdp
from .driver import (
    DEFAULT_DENOMINATOR_BOUNDS,
    NumericalFailureError,
    SearchOptions,
    positivity_precheck,
)
from .exact import format_certificate, parse_certificate, verify_certificate
from .gram import GramSystem
from .parsing import ParseError, parse_problem

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INPUT_ERROR = 3
EXIT_NUMERICAL_FAILURE = 4


def _add_search_arguments(sub, with_m_max=False):
    sub.add_argument("problem", help="problem file")
    sub.add_argument("--n-max", type=int, default=None, help="largest multiplier power to scan")
    if with_m_max:
        sub.add_argument("--m-max", type=int, default=None, help="largest odd power to scan")
    sub.add_argument("--tol", type=float, default=1e-8, help="SDP relative gap tolerance")
    sub.add_argument(
        "--denom-bound",
        type=int,
        default=None,
        metavar="B",
        help="last rung of the rounding ladder: Gram entries are rounded to multiples of 1/B",
    )
    sub.add_argument("--force", action="store_true", help="search even when the precheck objects")
    sub.add_argument("--out", default=None, help="write the certificate to this file")
    sub.add_argument("--seed", type=int, default=0, help="precheck sampling seed")
    sub.add_argument("--samples", type=int, default=1000, help="precheck sample count")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a malformed command line is an input error
    (argparse itself exits 2, which here means a counterexample)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posicert", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("certify", "check-sos", "odd-power", "epsilon"):
        sub = subs.add_parser(name)
        _add_search_arguments(sub, with_m_max=(name == "odd-power"))
    verify = subs.add_parser("verify")
    verify.add_argument("certificate", help="certificate file (exact arithmetic check only)")
    dump = subs.add_parser("dump-sdp")
    dump.add_argument("problem", help="problem file")
    dump.add_argument("--n", type=int, required=True, help="scan exponent of the file's mode")
    dump.add_argument("--out", default=None, help="write the dump to this file")
    return parser


def _bounds_from_flag(limit):
    if limit is None:
        return DEFAULT_DENOMINATOR_BOUNDS
    if limit < 1:
        raise ParseError("--denom-bound must be positive")
    ladder = tuple(b for b in DEFAULT_DENOMINATOR_BOUNDS if b < limit) + (limit,)
    return ladder


def _format_point(point, variables):
    return ", ".join(f"{name} = {value}" for name, value in zip(variables, point))


def _write_out(path: str, text: str) -> bool:
    """Write text to path; on failure report an input error and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return False
    return True


def _run_search(args, command: str) -> int:
    try:
        with open(args.problem, encoding="utf-8") as fh:
            spec = parse_problem(fh.read())
        if args.n_max is not None:
            spec = replace(spec, n_max=args.n_max)
        if args.samples < 0:
            raise ParseError("--samples must be nonnegative")
        if not 0.0 < args.tol < 1.0:  # also rejects nan
            raise ParseError("--tol must be a finite number in (0, 1)")
        if command == "odd-power" and args.m_max is not None:
            spec = replace(spec, m_max=args.m_max)
        spec = replace(spec, mode={"epsilon": "epsilon-margin"}.get(command, command))
        options = SearchOptions(
            gap_tolerance=args.tol,
            denominator_bounds=_bounds_from_flag(args.denom_bound),
        )
    except (OSError, ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if not args.force:
        check = positivity_precheck(spec, samples=args.samples, seed=args.seed)
        for warning in check.warnings:
            print(f"warning: {warning}")
        if check.negative is not None:
            point, which, value = check.negative
            print(
                f"counterexample: {which} = {value} < 0 at {_format_point(point, spec.variables)}"
            )
            print("search skipped; pass --force to search anyway")
            return EXIT_COUNTEREXAMPLE
        if check.zero is not None:
            point, which = check.zero
            print(f"counterexample to strictness: {which} vanishes at {_format_point(point, spec.variables)}")
            print(
                "nonnegative inputs may still admit certificates; pass --force to search anyway"
            )
            return EXIT_COUNTEREXAMPLE

    try:
        if command in ("certify", "check-sos"):
            report = driver.certify(spec, options)
        elif command == "odd-power":
            report = driver.odd_power(spec, options)
        else:
            report = driver.epsilon_margin(spec, options)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    print(driver.render_report(report))
    if report.certificate is not None and args.out:
        if not _write_out(args.out, format_certificate(report.certificate)):
            return EXIT_INPUT_ERROR
        print(f"certificate written to {args.out}")
    return EXIT_OK if report.outcome == driver.OUTCOME_CERTIFICATE else EXIT_NOT_FOUND


def _run_verify(args) -> int:
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            cert = parse_certificate(fh.read())
    except (OSError, ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    result = verify_certificate(cert)
    if result.valid:
        print("Valid")
        return EXIT_OK
    print(f"Invalid: {result.reason}")
    return EXIT_NOT_FOUND


def _run_dump(args) -> int:
    try:
        with open(args.problem, encoding="utf-8") as fh:
            spec = parse_problem(fh.read())
        if args.n < 0:
            raise ParseError("--n must be nonnegative")
        system, column = driver.exponent_system(spec, args.n)
        problem = driver.system_to_sdp(system, column) if isinstance(system, GramSystem) else None
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if problem is None:
        print(f"no system at n = {args.n}: {system.reason}")
        return EXIT_NOT_FOUND
    dump = sdp.format_debug_dump(problem)
    if args.out:
        if not _write_out(args.out, dump):
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(dump)
    return EXIT_OK


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "dump-sdp":
        return _run_dump(args)
    return _run_search(args, args.command)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
