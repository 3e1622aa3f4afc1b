"""Schrodinger operator with a Morse-type exponential well.

The potential q(x) = b^2 (exp(-2x) - 2 exp(-x)) supports N = floor(b + 1/2)
bound states.  After the substitution z = 2 b exp(-x) and an exponential
conjugation, -d^2/dx^2 + q becomes a TD-operator on (0, infinity) whose
tridiagonalizing basis pulls back to an orthonormal Laguerre-type basis of
L^2(R).  The operator then acts with symmetric three-band coefficients whose
off-diagonal carries the integer factor (n + 1 - N), splitting the space
into an N-dimensional bound-state block (dual Hahn data) and a half-line
continuum block (continuous dual Hahn data).  Both blocks read the one pair
of bands ``_offdiag``/``_diag``: the continuum block is rows N, N+1, ... of
the same matrix.

All operations are pure given a model; batch computations over levels may
run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import jacspec, opfamilies
from .errors import InternalConsistencyError, ValidationError
from .gammafn import gammaln_real
from .jacspec import JacobiOperator, SpectrumResult, _recurrence, _recurrence_log
from .opfamilies import Family, FamilyOverflowError, pochhammer, recurrence_coeffs
from .polycore import (
    Mode, Polynomial, derivative_op, read_scalar, residual_ratio, resolve_mode, second_derivative_op, to_mode,
)
from .tdop import TDOperator, validate_td

__all__ = [
    "MorseModel",
    "build_morse_model",
    "MorseTridiag",
    "conjugated_operator",
    "schrodinger_tridiag",
    "morse_jacobi_operator",
    "bound_state_energies",
    "bound_states",
    "eval_basis",
    "eval_basis_log",
    "DEFAULT_SAMPLE_GRID",
    "action_residual",
    "discrete_eigvectors",
    "ExpansionIdentity",
    "expansion_identity",
    "ContinuousPolys",
    "continuous_polys",
    "parseval_check",
]

DEFAULT_SAMPLE_GRID = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
# The bound block is an N-by-N eigenproblem held in memory, and the exact
# expansion identity builds polynomials of degree N.
_MAX_BOUND_STATES = 1000


@dataclass(frozen=True)
class MorseModel:
    """Validated potential strength b > 0 with the bound-state count N.

    ``b_exact`` keeps the rational value when one was supplied, enabling
    exact-identity work; ``b`` is the float mirror used by spectra.
    """

    b: float
    N: int
    b_exact: Fraction | None = None

    @property
    def alpha(self) -> float:
        """Laguerre parameter 2b - 2N (> -1 for every valid model)."""
        return 2.0 * self.b - 2 * self.N

    def potential(self, x: float) -> float:
        return self.b**2 * (math.exp(-2.0 * x) - 2.0 * math.exp(-x))


def build_morse_model(b) -> MorseModel:
    """Validate b and derive N = floor(b + 1/2).

    Pass a Fraction, int, or numeric string (e.g. "9/4", "2.25") to keep an
    exact rational b for the identity checks; plain floats run the float
    pipeline only.

    Raises:
        ValidationError: if b is not finite as a float, b <= 0, b lies in
            1/2 + N (the basis and the expansion data degenerate there; such
            models are rejected, not guessed), or N exceeds 1000.
    """
    bf, exact = read_scalar(b)
    if bf <= 0:
        raise ValidationError("b must be positive")
    if exact is not None:
        half_off = exact - Fraction(1, 2)
        if half_off.denominator == 1 and half_off >= 0:
            raise ValidationError("b in 1/2 + N is unsupported (degenerate basis parameter)")
        N = math.floor(exact + Fraction(1, 2))
    else:
        if bf % 1.0 == 0.5:  # exact: bf - 0.5 rounds to an integer for bf >= 2^52
            raise ValidationError("b in 1/2 + N is unsupported (degenerate basis parameter)")
        N = math.floor(bf + 0.5)
    if N > _MAX_BOUND_STATES:
        raise ValidationError(f"b = {bf:g} has more than {_MAX_BOUND_STATES} bound states")
    return MorseModel(b=bf, N=N, b_exact=exact)


def _typed_b(model: MorseModel, mode: Mode | None):
    """The resolved mode and b typed for it."""
    mode = resolve_mode(mode, model.b_exact is not None, "a rational b")
    return mode, to_mode(model.b if model.b_exact is None else model.b_exact, mode)


def conjugated_operator(model: MorseModel, mode: Mode | None = None) -> TDOperator:
    """The TD-operator on (0, infinity) unitarily equivalent to -d^2/dx^2 + q.

    Coefficients: A(z) = -z^2, B(z) = (. + z) z with constant 2N - 2b - 2,
    C(z) = -(N - b - 1/2)^2 + z (1 - N).  Defaults to EXACT when the model
    holds a rational b.
    """
    mode, b = _typed_b(model, mode)
    N = model.N
    half = to_mode(Fraction(1, 2), mode)
    A = Polynomial((0, 0, -1), mode)
    B = Polynomial((0, 2 * N - 2 * b - 2, 1), mode)
    C = Polynomial((-((N - b - half) ** 2), 1 - N), mode)
    return validate_td(A, B, C, derivative_op(), second_derivative_op())


@dataclass(frozen=True)
class MorseTridiag:
    """Symmetric three-band action of -d^2/dx^2 + q on the Laguerre-type basis.

    ``a[n]`` couples indices n and n+1 and carries the integer factor
    (n + 1 - N), evaluated before any square root so the block boundary at
    n = N - 1 is an exact zero.  ``diag[n]`` is the diagonal entry.
    """

    a: tuple[float, ...]
    diag: tuple[float, ...]
    split_index: int | None
    model: MorseModel


def _offdiag(model: MorseModel, n: int) -> float:
    if n < 0:
        return 0.0
    factor = n + 1 - model.N
    if factor == 0:
        return 0.0
    return -factor * math.sqrt((n + 1) * (2.0 * model.b - 2 * model.N + n + 1))


def _diag(model: MorseModel, n: int) -> float:
    b, N = model.b, model.N
    return -((N - b - 0.5) ** 2) + (1 - N + n) * (2 * n + 2 * b - 2 * N + 1) - n


def schrodinger_tridiag(model: MorseModel, n_max: int) -> MorseTridiag:
    """Band coefficients through index n_max (requires n_max >= N)."""
    if n_max < model.N:
        raise ValidationError("n_max must reach at least the split index N")
    a = tuple(_offdiag(model, n) for n in range(n_max))
    diag = tuple(_diag(model, n) for n in range(n_max + 1))
    split = model.N - 1 if model.N >= 1 else None
    return MorseTridiag(a=a, diag=diag, split_index=split, model=model)


def morse_jacobi_operator(model: MorseModel) -> JacobiOperator:
    """The unbounded Jacobi operator with these band coefficients."""
    return JacobiOperator(a=lambda n: _offdiag(model, n), b=lambda n: _diag(model, n), length=None)


def bound_state_energies(model: MorseModel) -> list[float]:
    """Closed-form bound energies -(b - m - 1/2)^2 for m = 0 .. N-1, ascending."""
    return [-((model.b - m - 0.5) ** 2) for m in range(model.N)]


def bound_states(model: MorseModel) -> SpectrumResult:
    """Eigendecomposition of the N-dimensional bound block (``jacspec.eig_block``).

    Cross-checked against the closed-form energies E to 1e-10 * max(1, |E|):
    the energies grow like b^2 and the error like eps b^2, 5e-12 at N = 1000.
    Disagreement raises InternalConsistencyError (never silently wrong data).
    """
    N = model.N
    if N == 0:
        return SpectrumResult(np.empty(0), np.empty((0, 0)), (0, 0))
    result = jacspec.eig_block(morse_jacobi_operator(model), (0, N))
    expected = bound_state_energies(model)
    worst = max(abs(l - e) / max(1.0, abs(e)) for l, e in zip(result.eigenvalues, expected))
    if worst > 1e-10:
        raise InternalConsistencyError(
            f"bound-state eigensolve disagrees with the closed form by {worst:.3e} (relative to max(1, |E|))"
        )
    return result


def _laguerre_coeffs(model: MorseModel):
    """Kernel coefficients (-(n+1), 2n+alpha+1, -(n+alpha)) of L_n^(alpha)(z)."""
    return partial(recurrence_coeffs, Family.laguerre(model.alpha))


def _log_norm(model: MorseModel, n: int) -> float:
    # (2b)^(b-N+1/2) * sqrt(n! / Gamma(2b-2N+n+1)), in logs
    p = model.b - model.N + 0.5
    return p * math.log(2.0 * model.b) + 0.5 * (
        gammaln_real(n + 1.0) - gammaln_real(model.alpha + n + 1.0)
    )


def eval_basis(model: MorseModel, n: int, x: float) -> float:
    """Value of the n-th orthonormal basis function at x.

    The basis is an exponential profile times a Laguerre polynomial in
    z = 2 b exp(-x); evaluation runs in log space throughout, so the
    double-exponential prefactor cannot overflow intermediates.
    """
    sign, logabs = eval_basis_log(model, n, x)
    if logabs == -math.inf or logabs < -745.0:
        return 0.0
    return sign * math.exp(logabs)


def eval_basis_log(model: MorseModel, n: int, x: float) -> tuple[float, float]:
    """(sign, log|y_n(x)|); usable far into both tails."""
    if n < 0:
        raise ValidationError("basis index must be nonnegative")
    z = 2.0 * model.b * math.exp(-x)
    p = model.b - model.N + 0.5
    sign, log_l = _recurrence_log(_laguerre_coeffs(model), z, n)[-1]
    if sign == 0.0:
        return 0.0, -math.inf
    total = _log_norm(model, n) - p * x - 0.5 * z + log_l
    return sign, total


def action_residual(model: MorseModel, n: int, samples=DEFAULT_SAMPLE_GRID) -> float:
    """Max over samples of |(-y_n'' + q y_n) - (a_n y_{n+1} + d_n y_n + a_{n-1} y_{n-1})|
    over its rounding scale, the sum of the five terms' absolute values
    (``polycore.residual_ratio``).

    The second derivative is assembled analytically from the Laguerre
    derivative relation through the chain rule (no numerical
    differentiation), so the residual is limited only by round-off.
    """
    if n < 0:
        raise ValidationError("index must be nonnegative")
    b, N, alpha = model.b, model.N, model.alpha
    p = b - N + 0.5
    laguerre = _laguerre_coeffs(model)
    # The ratio does not see a positive factor common to all five terms, so
    # each sample drops norm_n phi(x) (y_j = norm_j phi L_j) and the largest
    # of |L_{n-2}| .. |L_{n+1}|: where y_n underflows, or L_{n+1} overflows,
    # the terms stay in the float range.
    log_norm = _log_norm(model, n)
    rel_prev = 0.0 if n == 0 else math.exp(_log_norm(model, n - 1) - log_norm)
    rel_next = math.exp(_log_norm(model, n + 1) - log_norm)
    residuals, scales = [], []
    for x in samples:
        x = float(x)
        try:  # exp(-2x) in the potential leaves the float range from about x = -354
            potential, z = model.potential(x), 2.0 * b * math.exp(-x)
        except OverflowError:
            raise ValidationError(f"sample x = {x:g}: the potential overflows the float range there") from None
        # L_{n-2} .. L_{n+1} at z, zero below index 0
        tail = ([(0.0, -math.inf)] * 2 + _recurrence_log(laguerre, z, n + 1))[-4:]
        top = max(log for _, log in tail)
        l_prev2, l_prev, l_n, l_next = (sign * math.exp(log - top) for sign, log in tail)
        # y_n'' through L' relations: d/dx L_j(z(x)) = -j L_j + (j + alpha) L_{j-1}
        g = (0.5 * z - p - n) * l_n + (n + alpha) * l_prev
        g_prime = (
            -0.5 * z * l_n
            + (0.5 * z - p - n) * (-n * l_n + (n + alpha) * l_prev)
            + (n + alpha) * (-(n - 1) * l_prev + (n + alpha - 1) * l_prev2)
        )
        terms = (
            -((0.5 * z - p) * g + g_prime),
            potential * l_n,
            -_offdiag(model, n) * rel_next * l_next,
            -_diag(model, n) * l_n,
            -_offdiag(model, n - 1) * rel_prev * l_prev,
        )
        residuals.append(sum(terms))
        scales.append(sum(map(abs, terms)))
    return residual_ratio(residuals, scales)


def _dual_hahn_column(model: MorseModel, mlevel: int, alpha, one) -> list:
    """R_n(lambda(N-1-mlevel); alpha, 0, N-1) for n < N, typed like ``one`` (just R_0 = 1 when N = 1)."""
    N = model.N
    if N == 0:
        raise ValidationError(f"b = {model.b:g} has no bound states (N = 0), so no level {mlevel}")
    if not 0 <= mlevel <= N - 1:
        raise ValidationError(f"mlevel must lie in 0..{N - 1}")
    if N == 1:
        return [one]
    lam = opfamilies.dual_hahn_argument(N - 1 - mlevel, alpha, 0 * one)
    return opfamilies.family_values(Family.dual_hahn(alpha, 0 * one, N - 1), N - 1, lam)


def discrete_eigvectors(model: MorseModel, mlevel: int) -> list[float]:
    """Bound-block eigenvector for the level mlevel, from the discrete family.

    Component n is sqrt((2b-2N+1)_n / n!) times the dual Hahn value
    R_n(lambda(N-1-mlevel); 2b-2N, 0, N-1); the scale is the running product
    of sqrt((2b-2N+n) / n), so component 0 is exactly 1.0 and no factorial
    leaves the float range.  The direction is verified against the
    eigensolver's eigenvector (cosine similarity within 1e-9), taken on the
    vector divided by its largest component so that its norm cannot overflow.

    Raises:
        ValidationError: if a component leaves the float range; the message
            names N and the level.
    """
    gamma, N = model.alpha, model.N
    try:
        column = _dual_hahn_column(model, mlevel, gamma, 1.0)
    except FamilyOverflowError as exc:
        raise ValidationError(f"discrete eigenvector of level {mlevel} at N = {N} leaves the float range: {exc}") from None
    comps, scale = [], 1.0
    for n, r in enumerate(column):
        if n:
            scale *= math.sqrt((gamma + n) / n)
        comps.append(scale * float(r))
    vec = np.array(comps)
    vec /= np.max(np.abs(vec))
    ql = bound_states(model).eigenvectors[:, mlevel]
    cos = abs(float(np.dot(vec, ql))) / (np.linalg.norm(vec) * np.linalg.norm(ql))
    if cos < 1.0 - 1e-9:
        raise InternalConsistencyError(
            f"discrete eigenvector not parallel to the eigensolver's (cos = {cos:.12f})"
        )
    return comps


@dataclass(frozen=True)
class ExpansionIdentity:
    """Result of the bound-level expansion check: the connecting constant C
    and the residual between the two eigenfunction representations; for a
    float check, ``rounding_bound`` is the residual rounding alone can make."""

    C: object
    max_residual: float
    exact: bool
    rounding_bound: float = 0.0


def expansion_identity(model: MorseModel, mlevel: int, samples=(0.5, 1.0, 3.0)) -> ExpansionIdentity:
    """Check sum_n R_n(lambda(N-1-m)) L_n^(2b-2N)(z) = C z^(N-1-m) L_m^(2b-2m-1)(z).

    C = (-1)^(N+m+1) / ((N+m-2b+1)_(N-1-m) binom(N-1, m)), equivalently
    1 / ((2b-2N+1)_(N-1-m) binom(N-1, m)): the value forced by matching
    leading coefficients, using the hypergeometric evaluation of the
    top-degree discrete value.  With a rational b both sides are exact
    polynomials in z and the residual is demanded to be the exact zero
    polynomial; otherwise the difference is sampled at the given z values
    with a float tolerance left to the caller: ``rounding_bound`` is eps
    times the terms |R_n c_nj| z^j of the left side, which sum to |R_n| L_n(-z)
    (Laguerre coefficients alternate in sign); it is 1.5e-4 at N = 32, level 3.
    """
    N = model.N
    mode, b = _typed_b(model, None)
    exact = mode is Mode.EXACT
    one = to_mode(1, mode)
    alpha = 2 * b - 2 * N
    column = _dual_hahn_column(model, mlevel, alpha, one)
    sign = -one if (N + mlevel + 1) % 2 else one
    C = sign / (pochhammer(N + mlevel - 2 * b + 1, N - 1 - mlevel) * math.comb(N - 1, mlevel))

    lag = lambda deg, par: opfamilies.family_polynomial(Family.laguerre(par), deg, mode)
    lhs = Polynomial.zero(mode)
    for n, r in enumerate(column):
        lhs = lhs + lag(n, alpha) * r
    rhs = Polynomial.monomial(N - 1 - mlevel, C, mode) * lag(mlevel, 2 * b - 2 * mlevel - 1)
    diff = lhs - rhs
    if exact:
        residual = 0.0 if diff.is_zero() else max(abs(float(c)) for c in diff.coeffs)
        return ExpansionIdentity(C=C, max_residual=residual, exact=True)
    residual = max(abs(diff(float(z))) for z in samples)
    terms = max(
        sum(abs(r) * l for r, l in zip(column, _recurrence(_laguerre_coeffs(model), -float(z), N - 1)))
        for z in samples
    )
    return ExpansionIdentity(C=C, max_residual=residual, exact=False, rounding_bound=jacspec._EPS * terms)


def _continuum_kernel(model: MorseModel):
    """Kernel (a_{N+n}, d_{N+n}, a_{N+n-1}) of P_n(gamma^2): rows N.. of the bands (a_{N-1} is an exact 0)."""
    N = model.N
    return lambda n: (_offdiag(model, N + n), _diag(model, N + n), _offdiag(model, N + n - 1))


@dataclass(frozen=True)
class ContinuousPolys:
    """Continuum expansion values computed two independent ways."""

    recurrence: list
    normalized: list
    max_rel_diff: float


def continuous_polys(model: MorseModel, n_max: int, gamma: float) -> ContinuousPolys:
    """P_n(gamma^2) for n = 0..n_max, by the recurrence of the Morse bands and by
    that of the continuous dual Hahn family, normalized, with their max relative gap."""
    z = float(gamma) ** 2
    b, N = model.b, model.N
    rec = _recurrence(_continuum_kernel(model), z, n_max)
    fam = Family.continuous_dual_hahn(b + 0.5, N - b + 0.5, b - N + 0.5)
    normalized = [
        s / (math.factorial(n) * math.sqrt(pochhammer(float(N + 1), n) * pochhammer(2 * b - N + 1.0, n)))
        for n, s in enumerate(opfamilies.family_values(fam, n_max, z))
    ]
    gap = max(
        abs(r - s) / max(abs(r), abs(s), 1e-300) for r, s in zip(rec, normalized)
    )
    return ContinuousPolys(recurrence=rec, normalized=normalized, max_rel_diff=gap)


def parseval_check(model: MorseModel, n: int, m2: int, rtol: float = 1e-10) -> float:
    """Quadrature value of the continuum orthonormality integral for (n, m2).

    The weight is built once per call (``opfamilies._cdh_weight``: the
    closed form with one log|Gamma| per node, its constants, those of the
    log-gamma included, formed once), and the continuum kernel rows
    0 .. max(n, m2) - 1 are read once as float triples.  The integrand is
    called once per 16-node panel; its log|Gamma| is one real-arithmetic
    Lanczos sum over the panel (``gammafn.log_abs_gamma``).  The half-line
    is cut 4 search samples past the last one whose magnitude is above
    1e-16 of the peak (``jacspec.halfline_integrate``), and the tail beyond
    it is checked.

    Contract: within 1e-8 of the Kronecker delta for indices up to 10
    (slightly looser for the most oscillatory pairs).
    """
    if not (0 <= n <= 10 and 0 <= m2 <= 10):
        raise ValidationError("indices up to 10 are supported")
    kmax = max(n, m2)
    kernel = _continuum_kernel(model)
    rows = [kernel(k) for k in range(kmax)]
    weight = opfamilies._cdh_weight(model.b, model.N)

    def integrand(g):
        g = np.asarray(g, dtype=float)
        vals = _recurrence(rows.__getitem__, g * g, kmax)
        return vals[n] * vals[m2] * weight(g)

    return jacspec.halfline_integrate(integrand, lo=0.0, rtol=rtol, atol=1e-12)
