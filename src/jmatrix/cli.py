"""Command-line entry point.

Subcommands: ``tridiag`` (generic construction), ``morse`` and ``lame``
(the two pipelines), ``families`` (family registry queries), ``quad``
(Gauss rules), ``verify`` (acceptance suites).  Reports are JSON by
default with fixed field order, floats as shortest round-trip decimals,
and rationals as "p/q" strings, so identical inputs give byte-identical
output.  Exit status: 0 on success, 1 on usage errors, 2 on internal
consistency failures (including failed verify suites).

``main`` builds its parser once per process, on its first call, and reuses
it: argparse keeps no state between ``parse_args`` calls, and
``JMATRIX_MODE`` is still read on every call.  ``build_parser`` returns a
fresh parser each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, jacspec, lame, morse, opfamilies, verify
from .errors import InternalConsistencyError, JMatrixError, ValidationError
from .opfamilies import Family
from .polycore import (
    Mode,
    ModeError,
    compose,
    derivative_op,
    format_scalar,
    parse_polynomial,
    q_derivative_op,
    read_scalar,
    second_derivative_op,
)
from .tdop import tridiagonalize, validate_td

DEFAULT_TOLERANCES = {"quad_rtol": 1e-10, "residual_tol": 1e-9}
# Size caps, set by run time: a Legendre rule of 1000 nodes takes about
# 1.5 s; an exact tridiagonalization to n = 200 takes 0.01 s for A = x^3,
# B = x^2, C = x and 0.07 s with small rational coefficients in process
# (0.9 s wall, most of it writing the 15 MB report, 2-core machine); exact
# `families --eval` to n = 3000 is one recurrence pass of about 2 s, and
# 3000 is the closed-pipe test's size;
# `families --bochner` checks the ODE degree by degree, each phi_n built once
# from the two below it, in O(n^2): 0.1-0.17 s at n = 300 and 0.4 s at
# n = 600 in process; exact `morse --identity` takes about 0.02 s at N = 64,
# 0.06 s at N = 128, 0.35 s at N = 256 and 3.2 s at N = 512 in process (level
# 3, 2-core machine), nearly all of it in the Laguerre sum.  These two caps
# keep the values set when they took 3 s (n = 300) and 2.5 s (N = 128).
QUAD_MAX_N = 1000
TRIDIAG_MAX_N = 200
FAMILIES_MAX_N = 3000
BOCHNER_MAX_N = 300
IDENTITY_MAX_N = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _json_default(value):
    """What json cannot write itself: Fractions as "p/q", numpy scalars and
    arrays as builtins, anything else as its str."""
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _emit(report: dict, args, csv_rows=None) -> None:
    """Write the report as JSON or CSV, line by line: on an unbuffered stdout
    one large write to a pipe whose reader has gone can end short without an
    error, while the next line's write raises BrokenPipeError."""
    if args.out == "json":  # serialized first: a value JSON cannot carry leaves no partial report
        try:
            text = json.dumps(report, indent=2, allow_nan=False, default=_json_default)
        except ValueError:
            raise ValidationError("the report holds a number that is not finite, which JSON cannot carry") from None
        lines = (text + "\n").splitlines(keepends=True)
    elif csv_rows is None:
        raise _UsageError("csv output is not defined for this command/flags")
    else:
        lines = (",".join(format_scalar(v) if not isinstance(v, str) else v for v in row) + "\n" for row in csv_rows)
    try:
        out = sys.stdout if args.output is None else open(args.output, "w")
    except OSError as exc:
        raise ValidationError(f"cannot write report to {args.output}: {exc.strerror}") from None
    try:
        out.writelines(lines)
    finally:
        if out is not sys.stdout:
            out.close()


def _base_report(args, command: str, inputs: dict) -> dict:
    return {
        "schema": "jmatrix/1",
        "version": __version__,
        "command": command,
        "mode": args.mode,
        "tolerances": {
            "quad_rtol": args.quad_rtol,
            "residual_tol": args.residual_tol,
        },
        "inputs": inputs,
        "results": {},
    }


def _count(text: str) -> int:
    """The argparse type of every count flag: a nonnegative int."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _count_to(cap: int):
    """The argparse type of a count flag whose work grows too fast to leave
    open: a nonnegative int no larger than ``cap``."""
    def count(text: str) -> int:
        n = _count(text)
        if n > cap:
            raise argparse.ArgumentTypeError(f"at most {cap}, got {n}")
        return n
    return count


def _parse_scalar_arg(text: str, mode: str, flag: str):
    """A scalar flag value: a Fraction in exact mode (decimals read as
    rationals), else a float; finite as a float either way."""
    try:
        value, exact = read_scalar(text)
    except ValidationError as exc:
        raise _UsageError(f"{flag}: {exc}") from None
    return exact if mode == "exact" else value


def _within_residual_tol(worst: float, tol: float, what: str) -> None:
    """The exit rule of the residual ratios a report prints: one above
    --residual-tol, or NaN, is a ValidationError (exit 1)."""
    if not worst <= tol:
        raise ValidationError(f"{what}: residual {worst:.3e} over its rounding scale is not within --residual-tol {tol:g}")


def _cmd_tridiag(args) -> int:
    mode = Mode(args.mode)
    A = parse_polynomial(args.A, mode)
    B = parse_polynomial(args.B, mode)
    C = parse_polynomial(args.C, mode)
    if args.q is not None:
        S = q_derivative_op(_parse_scalar_arg(args.q, args.mode, "--q"))
        T = compose(S, S)
    else:
        S, T = derivative_op(), second_derivative_op()
    op = validate_td(A, B, C, S, T, relaxed=args.relaxed)
    tri = tridiagonalize(op, args.n)
    report = _base_report(
        args,
        "tridiag",
        {"A": args.A, "B": args.B, "C": args.C, "q": args.q, "n": args.n, "relaxed": args.relaxed},
    )
    report["results"] = tri.to_json_dict()
    _emit(report, args)
    return 0


def _cmd_morse(args) -> int:
    if args.grid is not None and args.residual is None:
        raise _UsageError("--grid sets the sample points of --residual and needs it")
    model = morse.build_morse_model(_parse_scalar_arg(args.b, args.mode, "--b"))
    if args.identity is not None and model.N > IDENTITY_MAX_N:
        raise _UsageError(f"--identity: N at most {IDENTITY_MAX_N}, got {model.N}")
    report = _base_report(args, "morse", {"b": args.b})
    report["results"]["model"] = {"b": model.b, "N": model.N}
    csv_rows = None
    if args.levels:
        spectrum = morse.bound_states(model)
        report["results"]["bound_states"] = spectrum.to_json_dict()
        report["results"]["bound_states"]["closed_form"] = morse.bound_state_energies(model)
        csv_rows = [(v,) for v in spectrum.eigenvalues]
    if args.tridiag is not None:
        td = morse.schrodinger_tridiag(model, args.tridiag)
        report["results"]["tridiag"] = {
            "a": list(td.a),
            "diag": list(td.diag),
            "split_index": td.split_index,
        }
    if args.identity is not None:
        r = morse.expansion_identity(model, args.identity)
        if r.rounding_bound > args.residual_tol:
            raise ValidationError(
                f"--identity {args.identity} at N = {model.N}: float rounding alone can reach {r.rounding_bound:.3e} "
                f"> --residual-tol {args.residual_tol:g}; give b as a rational in exact mode for the exact identity")
        report["results"]["expansion_identity"] = {
            "level": args.identity,
            "C": r.C,
            "max_residual": r.max_residual,
            "exact": r.exact,
        }
    if args.parseval is not None:
        n1, n2 = args.parseval
        value = morse.parseval_check(model, n1, n2, rtol=args.quad_rtol)
        report["results"]["parseval"] = {
            "n": n1,
            "m": n2,
            "value": value,
            "delta_error": abs(value - (1.0 if n1 == n2 else 0.0)),
        }
    if args.residual is not None:
        grid = morse.DEFAULT_SAMPLE_GRID
        if args.grid is not None:
            grid = tuple(float(_parse_scalar_arg(tok, args.mode, "--grid")) for tok in args.grid.split(","))
        worst = float(np.max([morse.action_residual(model, k, samples=grid) for k in range(args.residual + 1)]))
        _within_residual_tol(worst, args.residual_tol, f"--residual {args.residual} at b = {args.b}")
        report["results"]["action_residual"] = {
            "n_max": args.residual,
            "grid": list(grid),
            "max_residual": worst,
        }
    _emit(report, args, csv_rows)
    return 0


def _cmd_lame(args) -> int:
    parts = args.e.split(",")
    if len(parts) != 3:
        raise _UsageError("--e needs three comma-separated branch values")
    es = [_parse_scalar_arg(p, args.mode, "--e") for p in parts]
    model = lame.build_lame_model(*es, _parse_scalar_arg(args.m, args.mode, "--m"))
    report = _base_report(args, "lame", {"e": args.e, "m": args.m})
    report["results"]["model"] = {
        "e": list(model.e),
        "m": model.m,
        "a_affine": model.a_affine,
        "b_affine": model.b_affine,
        "alpha": model.alpha,
    }
    csv_rows = None
    if args.spectrum:
        spec = lame.even_spectrum(model)
        residuals = lame.even_eigenfunction_residual(spec, model)
        _within_residual_tol(float(np.max(residuals)), args.residual_tol, f"--spectrum at m = {args.m}")
        report["results"]["even_spectrum"] = {
            "k": spec.k,
            "matrix": [list(row) for row in spec.matrix],
            "eigenvalues": list(spec.eigenvalues),
            "pcoeffs": spec.pcoeffs,
            "ode_residuals": residuals,
        }
        csv_rows = [(v,) for v in spec.eigenvalues]
    if args.residuals is not None:
        rows = []
        for n in range(args.residuals + 1):
            res = lame.tridiag_residual(model, n)
            rows.append({"n": n, "residual_coeffs": [format_scalar(c) for c in res.coeffs]})
        report["results"]["tridiag_residuals"] = rows
    if args.orthonormal is not None:
        form = lame.orthonormal_form(model, args.orthonormal)
        report["results"]["orthonormal_form"] = {
            "a": list(form.a),
            "diag": list(form.diag),
            "alpha_n": list(form.alpha_n),
            "first_row_doubled": form.first_row_doubled,
        }
    if args.diagnostic is not None:
        diag = lame.selfadjoint_diagnostic(model, args.diagnostic)
        report["results"]["selfadjoint_diagnostic"] = {
            "heuristic": True,
            "sign": diag.report.sign,
            "strictly_bounded": diag.report.strictly_bounded,
            "fitted_leading": list(diag.report.leading),
            "predicted_leading": list(diag.predicted_leading),
        }
    _emit(report, args, csv_rows)
    return 0


def _cmd_families(args) -> int:
    if args.bochner and args.n > BOCHNER_MAX_N:
        raise _UsageError(f"--bochner: --n at most {BOCHNER_MAX_N}, got {args.n}")
    fam = Family.parse(args.family)
    report = _base_report(args, "families", {"family": args.family, "n": args.n})
    report["results"]["family"] = fam.spec_string()
    if args.recurrence:
        rows = []
        for n in range(args.n + 1):
            u, v, w = opfamilies.recurrence_coeffs(fam, n)
            rows.append({"n": n, "u": u, "v": v, "w": w})
        report["results"]["recurrence"] = rows
    if args.eval is not None:
        x = _parse_scalar_arg(args.eval, args.mode, "--eval")
        rows = []  # filled as the pass runs, which stops at the first value too long to write
        opfamilies.family_values(
            fam, args.n, x, lambda n, v: rows.append({"n": n, "value": _family_value_text(fam, n, v)})
        )
        report["results"]["values"] = rows
    if args.bochner:
        samples = [-0.9, -0.3, 0.4, 1.7]
        report["results"]["ode_residuals"] = [
            {"n": n, "max_residual": float(opfamilies.bochner_residual(fam, n, samples))}
            for n in range(args.n + 1)
        ]
    if args.asc:
        rows = []
        for n in range(args.n + 1):
            G, a, b, c = opfamilies.asc_relation(fam, n)
            rows.append({"n": n, "G": [format_scalar(v) for v in G.coeffs], "A": a, "B": b, "C": c})
        report["results"]["structure_relation"] = rows
    _emit(report, args)
    return 0


def _family_value_text(fam: Family, n: int, value):
    """An exact value as its "p/q" text (a float as it is), which Python
    writes only for integers of at most sys.get_int_max_str_digits() digits."""
    if not isinstance(value, Fraction):
        return value
    try:
        return format_scalar(value)
    except ValueError:
        raise ValidationError(
            f"{fam.spec_string()} value at degree {n} has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _cmd_quad(args) -> int:
    fam = Family.parse(args.family)
    J, mass = opfamilies.family_jacobi_operator(fam)
    rule = jacspec.golub_welsch(J, args.n, mass)
    report = _base_report(args, "quad", {"family": args.family, "n": args.n})
    report["results"] = {
        "total_mass": rule.total_mass,
        "nodes": list(rule.nodes),
        "weights": list(rule.weights),
    }
    csv_rows = [("node", "weight")] + [(x, w) for x, w in zip(rule.nodes, rule.weights)]
    _emit(report, args, csv_rows)
    return 0


def _cmd_verify(args) -> int:
    names = args.suite or ["all"]
    try:
        results = verify.run_suites(names)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:24s}  {r.detail}", file=sys.stderr)
    report = _base_report(args, "verify", {"suite": names})
    report["results"]["criteria"] = [{"name": r.name, "passed": r.passed} for r in results]
    report["results"]["all_passed"] = all(r.passed for r in results)
    _emit(report, args)
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="jmatrix", description="Tridiagonal representations of second-order operators")
    parser.add_argument("--mode", choices=("exact", "float"), default=None,
                        help="scalar mode (env JMATRIX_MODE overrides the default 'exact')")
    parser.add_argument("--out", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None, help="write the report to this path instead of stdout")
    parser.add_argument("--quad-rtol", type=float, default=DEFAULT_TOLERANCES["quad_rtol"])
    parser.add_argument("--residual-tol", type=float, default=DEFAULT_TOLERANCES["residual_tol"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tridiag", help="canonical tridiagonalization of a TD-operator")
    p.add_argument("--A", required=True, help="coefficients, ascending, e.g. '0,0,0,1' for x^3")
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--q", default=None, help="use q-difference lowering operators with this q")
    p.add_argument("--n", type=_count_to(TRIDIAG_MAX_N), required=True)
    p.add_argument("--relaxed", action="store_true", help="admit deg(A) < 3 and deg(B) < 2")
    p.set_defaults(func=_cmd_tridiag)

    p = sub.add_parser("morse", help="exponential-well pipeline")
    p.add_argument("--b", required=True)
    p.add_argument("--levels", action="store_true", help="bound-state eigenvalues")
    p.add_argument("--tridiag", type=_count, default=None, metavar="N", help="band coefficients to index N")
    p.add_argument("--identity", type=_count, default=None, metavar="M", help="expansion identity at level M")
    p.add_argument("--parseval", type=_count, nargs=2, default=None, metavar=("N", "M"))
    p.add_argument("--residual", type=_count, default=None, metavar="N", help="max action residual for n <= N")
    p.add_argument("--grid", default=None, help="comma-separated sample points for --residual")
    p.set_defaults(func=_cmd_morse)

    p = sub.add_parser("lame", help="cubic-coefficient pipeline")
    p.add_argument("--e", required=True, help="three branch values, e.g. '3,-1,-2'")
    p.add_argument("--m", required=True)
    p.add_argument("--spectrum", action="store_true", help="even-case finite spectrum")
    p.add_argument("--residuals", type=_count, default=None, metavar="N", help="band residual polynomials, n <= N")
    p.add_argument("--orthonormal", type=_count, default=None, metavar="N")
    p.add_argument("--diagnostic", type=_count, default=None, metavar="N")
    p.set_defaults(func=_cmd_lame)

    p = sub.add_parser("families", help="classical family registry")
    p.add_argument("--family", required=True, help="e.g. jacobi:-0.5,-0.5 laguerre:0.5 dualhahn:0.5,0,1 cdh:2.75,0.25,1.75")
    p.add_argument("--n", type=_count_to(FAMILIES_MAX_N), default=5)
    p.add_argument("--recurrence", action="store_true")
    p.add_argument("--eval", default=None, metavar="X")
    p.add_argument("--bochner", action="store_true")
    p.add_argument("--asc", action="store_true")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("quad", help="Gauss rule from a family recurrence")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_count_to(QUAD_MAX_N), required=True)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", nargs="*", default=None,
                   help=f"suites to run; choices: all, {', '.join(verify.SUITES)}")
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _main_parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
        if args.mode is None:
            args.mode = os.environ.get("JMATRIX_MODE", "exact").lower()
        if args.mode not in ("exact", "float"):
            raise _UsageError(f"JMATRIX_MODE must be exact or float, got {args.mode!r}")
        for tol in DEFAULT_TOLERANCES:
            if not (math.isfinite(getattr(args, tol)) and getattr(args, tol) > 0):
                raise _UsageError(f"--{tol.replace('_', '-')} must be finite and positive")
        status = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return status
    except BrokenPipeError:
        # The SIGPIPE recipe of the signal docs: send what is left to devnull
        # so the flush at exit cannot fail again, and end with status 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ModeError, JMatrixError, ValueError, ArithmeticError) as exc:
        if isinstance(exc, InternalConsistencyError):
            print(f"internal consistency failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
