"""Acceptance suites: every shipping criterion as a named, runnable check.

Each function returns a CriterionResult with a pass flag and a short
detail string; the CLI ``verify`` command and tests/test_acceptance.py both
dispatch through ``run_suites``.  Tolerances are pinned here, not
configurable: these are the exit criteria of the build.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jacspec, lame, morse, opfamilies
from .opfamilies import Family
from .polycore import Mode, Polynomial, derivative_op, q_derivative_op, second_derivative_op, compose
from .tdop import TDOperator, reconstruct_diagonalizer, tridiagonalize, validate_td, weight_log_derivative

__all__ = ["CriterionResult", "SUITES", "run_suites", "random_strict_operator"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


_DEGREE_PATTERNS = [(3, b, c) for b in (-1, 0, 1, 2) for c in (-1, 0, 1)] + [
    (a, 2, c) for a in (-1, 0, 1, 2) for c in (-1, 0, 1)
]


def _random_poly(rng: random.Random, deg: int) -> Polynomial:
    if deg < 0:
        return Polynomial.zero(Mode.EXACT)
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(deg + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
    return Polynomial(coeffs)


def random_strict_operator(rng: random.Random, index: int, depth: int = 24) -> TDOperator:
    """A random strict TD-operator with rational coefficients in [-5, 5].

    Degree patterns cycle so each admissible (deg A, deg B, deg C) occurs;
    every fourth operator uses q-difference lowering operators instead of
    derivatives.  Operators whose leading-action coefficient vanishes at
    some k in [2, depth] are resampled: the canonical construction needs
    consistency there (see tridiagonalize).
    """
    da, db, dc = _DEGREE_PATTERNS[index % len(_DEGREE_PATTERNS)]
    if index % 4 == 3:
        q = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))[index % 3]
        S = q_derivative_op(q)
        T = compose(S, S)
    else:
        S, T = derivative_op(), second_derivative_op()
    while True:
        op = validate_td(_random_poly(rng, da), _random_poly(rng, db), _random_poly(rng, dc), S, T)
        if all(op.leading_action(k) != 0 for k in range(2, depth + 1)):
            return op


def _done(name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(name=name, passed=passed, detail=detail, elapsed=time.perf_counter() - t0)


def tridiagonal_relation() -> CriterionResult:
    """200 random strict operators: band relation coefficient-exact for n <= 24."""
    t0 = time.perf_counter()
    rng = random.Random(20100104)
    for i in range(200):
        op = random_strict_operator(rng, i)
        tri = tridiagonalize(op, 25)
        tri.verify(op)  # raises on any nonzero exact residual
    elapsed = time.perf_counter() - t0
    return _done(
        "tridiagonal-relation",
        elapsed < 60.0,
        f"200 operators, n <= 24, exact residuals all zero, {elapsed:.1f}s (budget 60s)",
        t0,
    )


def anticommutator() -> CriterionResult:
    """(D X + X D) x^n = L x^n exactly for n <= 20, 50 random operators."""
    t0 = time.perf_counter()
    rng = random.Random(42)
    x = Polynomial.x()
    for i in range(50):
        op = random_strict_operator(rng, i, depth=21)
        D = reconstruct_diagonalizer(op, 21)
        for n in range(21):
            mono = Polynomial.monomial(n)
            lhs = D.apply(x * mono) + x * D.apply(mono)
            if not (lhs - op.apply(mono)).is_zero():
                return _done("anticommutator", False, f"failed at operator {i}, degree {n}", t0)
    return _done("anticommutator", True, "50 operators, n <= 20, exact", t0)


def morse_bound_states() -> CriterionResult:
    """Block eigenvalues equal -(b-m-1/2)^2 within 1e-10 for four b values."""
    t0 = time.perf_counter()
    worst = 0.0
    dims = []
    for b in (1.2, 2.25, 3.8, 5.7):
        model = morse.build_morse_model(Fraction(b).limit_denominator(100))
        result = morse.bound_states(model)
        expected = morse.bound_state_energies(model)
        dims.append(model.N)
        if model.N:
            worst = max(worst, max(abs(x - e) for x, e in zip(result.eigenvalues, expected)))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-10 and max(dims) <= 6 and elapsed < 1.0
    return _done(
        "morse-bound-states",
        passed,
        f"worst |eig - closed form| = {worst:.2e} (tol 1e-10), dims {dims}, {elapsed * 1e3:.0f}ms",
        t0,
    )


def morse_action() -> CriterionResult:
    """Pointwise operator identity, its residual over its rounding scale
    <= 1e-12, for n <= 8 at b = 2.25."""
    t0 = time.perf_counter()
    model = morse.build_morse_model("9/4")
    worst = float(np.max([morse.action_residual(model, n) for n in range(9)]))  # NaN stays NaN
    return _done("morse-action", worst <= 1e-12, f"max residual ratio {worst:.2e} (tol 1e-12)", t0)


def morse_expansion() -> CriterionResult:
    """Expansion identity with its constant: exact zero residual, N in 1..4."""
    t0 = time.perf_counter()
    for b in ("1", "9/4", "13/5", "19/5"):
        model = morse.build_morse_model(b)
        for level in range(model.N):
            r = morse.expansion_identity(model, level)
            if not r.exact or r.max_residual != 0.0:
                return _done(
                    "morse-expansion", False, f"b={b} level={level}: residual {r.max_residual}", t0
                )
    return _done("morse-expansion", True, "exact zero residual for N = 1, 2, 3, 4, all levels", t0)


def morse_parseval() -> CriterionResult:
    """Continuum orthonormality within 1e-7 for n, m <= 8 (1e-8 at n = m = 0)."""
    t0 = time.perf_counter()
    model = morse.build_morse_model("9/4")
    worst = 0.0
    for n in range(9):
        for m2 in range(n, 9):
            val = morse.parseval_check(model, n, m2)
            err = abs(val - (1.0 if n == m2 else 0.0))
            if n == m2 == 0 and err > 1e-8:
                return _done("morse-parseval", False, f"(0,0) error {err:.2e} > 1e-8", t0)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    return _done(
        "morse-parseval",
        worst <= 1e-7 and elapsed < 30.0,
        f"worst |integral - delta| = {worst:.2e} (tol 1e-7), {elapsed:.1f}s (budget 30s)",
        t0,
    )


_LAME_MODELS = ((3, -1, -2), (1, -1, 0), (5, -2, -3))


def lame_tridiag() -> CriterionResult:
    """Chebyshev band residual is the exact zero polynomial for n <= 20."""
    t0 = time.perf_counter()
    for es, m in zip(_LAME_MODELS, (2, 3, Fraction(5, 2))):
        model = lame.build_lame_model(*es, m)
        for n in range(21):
            if not lame.tridiag_residual(model, n).is_zero():
                return _done("lame-tridiag", False, f"model {es}, n={n}: nonzero residual", t0)
    return _done("lame-tridiag", True, "exact zero polynomials, 3 models, n <= 20", t0)


def lame_even_spectra() -> CriterionResult:
    """Even-case spectra for k <= 6: k+1 eigenvalues, each within 1e-10
    scale, scale = max(1, max |lambda|), of ``numpy.linalg.eigvals`` of the
    unsymmetrized matrix (a general eigensolver on another matrix than
    ``even_spectrum`` solves and checks), with imaginary parts below that
    bound, and eigenfunction residuals over their rounding scale <= 1e-12."""
    t0 = time.perf_counter()
    residuals = []
    for es in ((3, -1, -2), (5, -2, -3), (1, -1, 0)):
        for k in range(7):
            model = lame.build_lame_model(*es, 2 * k)
            spec = lame.even_spectrum(model)
            w = np.sort(spec.eigenvalues)
            ref = np.linalg.eigvals(spec.matrix)
            ref = ref[np.argsort(ref.real)]
            width = 1e-10 * max(1.0, float(np.max(np.abs(w))))
            if not np.all(np.maximum(np.abs(ref.real - w), np.abs(ref.imag)) <= width):
                detail = f"model {es}, k={k}: eigvals {ref.tolist()} against {w.tolist()}"
                return _done("lame-even-spectra", False, detail, t0)
            residuals += lame.even_eigenfunction_residual(spec, model)
    worst_res = float(np.max(residuals))  # NaN stays NaN
    return _done(
        "lame-even-spectra",
        worst_res <= 1e-12,
        "eigenvalues agree with eigvals of the unsymmetrized matrix, "
        f"worst ODE residual ratio {worst_res:.2e} (tol 1e-12), k <= 6",
        t0,
    )


def lame_asymptotics() -> CriterionResult:
    """Fitted leading coefficient of a_n + a_{n-1} +/- b_n over n = 100..500
    matches (1 -+ alpha) to relative 1e-3; the diagnostic selects a branch."""
    t0 = time.perf_counter()
    cases = [
        ((3, -1, -2), -1.5),
        ((Fraction(9, 20), Fraction(-11, 20), Fraction(1, 10)), 0.3),
        ((0, -1, 1), 3.0),
    ]
    worst = 0.0
    for es, alpha in cases:
        model = lame.build_lame_model(*es, Fraction(3, 2))
        form = lame.orthonormal_form(model, 501)
        ns = np.arange(100, 501)
        design = np.column_stack([ns.astype(float) ** 2, np.ones(ns.size)])
        for sign, target in ((+1, 1.0 - alpha), (-1, 1.0 + alpha)):
            s = np.array([form.a[n] + form.a[n - 1] + sign * form.diag[n] for n in ns])
            lead = float(np.linalg.lstsq(design, s, rcond=None)[0][0])
            worst = max(worst, abs(lead - target) / abs(target))
        diag = lame.selfadjoint_diagnostic(model, 500)
        if diag.report.sign is None:
            return _done("lame-asymptotics", False, f"no branch selected at alpha={alpha}", t0)
    return _done(
        "lame-asymptotics",
        worst <= 1e-3,
        f"worst relative leading-coefficient error {worst:.2e} (tol 1e-3); branch selected for all alpha",
        t0,
    )


def weight_ode() -> CriterionResult:
    """Log-derivative residues: -1/2 at {1, -1, alpha} (Lame) and {1, -1}
    (Chebyshev), exactly."""
    t0 = time.perf_counter()
    half = Fraction(-1, 2)
    cheb = validate_td(
        Polynomial([1, 0, -1]), Polynomial([0, -1]), Polynomial([]),
        derivative_op(), second_derivative_op(), relaxed=True,
    )
    ws = weight_log_derivative(cheb)
    got = {rho: res for rho, res in ws.poles}
    if got != {Fraction(1): half, Fraction(-1): half}:
        return _done("weight-ode", False, f"Chebyshev residues {got}", t0)
    model = lame.build_lame_model(3, -1, -2, 2)
    ws2 = weight_log_derivative(lame.transformed_operator(model))
    got2 = {rho: res for rho, res in ws2.poles}
    want2 = {Fraction(1): half, Fraction(-1): half, Fraction(-3, 2): half}
    return _done(
        "weight-ode",
        got2 == want2,
        "exact residues -1/2 at {1,-1} (Chebyshev) and {1,-1,alpha} (Lame)",
        t0,
    )


def _exact_moment(kind: str, j: int) -> float:
    if j % 2 and kind != "laguerre":
        return 0.0
    if kind == "legendre":
        return 2.0 / (j + 1)
    if kind == "chebyshev":
        return math.pi * math.comb(j, j // 2) / 2.0**j
    if kind == "laguerre":
        return float(math.factorial(j))
    if kind == "hermite":
        k = j // 2
        return math.sqrt(math.pi) * math.factorial(j) / (math.factorial(k) * 4.0**k)
    raise ValueError(kind)


def quadrature() -> CriterionResult:
    """Gauss rules of size n <= 20 integrate degree-(2n-1) monomials to
    relative 1e-12, for four classical recurrences."""
    t0 = time.perf_counter()
    fams = {
        "legendre": Family.jacobi(0, 0),
        "chebyshev": Family.chebyshev_t(),
        "laguerre": Family.laguerre(0),
        "hermite": Family.hermite(),
    }
    worst = 0.0
    for kind, fam in fams.items():
        J, mass = opfamilies.family_jacobi_operator(fam)
        for n in range(1, 21):
            rule = jacspec.golub_welsch(J, n, mass)
            for j in range(2 * n):
                got = rule.integrate(lambda x: x**j)
                want = _exact_moment(kind, j)
                scale = max(1.0, rule.integrate(lambda x: np.abs(x) ** j))
                worst = max(worst, abs(got - want) / scale)
    return _done(
        "quadrature", worst <= 1e-12, f"worst scaled moment error {worst:.2e} (tol 1e-12)", t0
    )


SUITES = {
    "tridiagonal-relation": tridiagonal_relation,
    "anticommutator": anticommutator,
    "morse-bound-states": morse_bound_states,
    "morse-action": morse_action,
    "morse-expansion": morse_expansion,
    "morse-parseval": morse_parseval,
    "lame-tridiag": lame_tridiag,
    "lame-even-spectra": lame_even_spectra,
    "lame-asymptotics": lame_asymptotics,
    "weight-ode": weight_ode,
    "quadrature": quadrature,
}


def run_suites(names=None) -> list[CriterionResult]:
    """Run the named suites (all by default) and return their results."""
    if names is None or names == ["all"] or names == "all":
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        results.append(SUITES[name]())
    return results
