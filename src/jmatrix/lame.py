"""The algebraic-form Lame operator and its Chebyshev tridiagonalization.

Starting from branch values e1 + e2 + e3 = 0 and degree parameter m, the
cubic-leading-coefficient operator is normalized by the affine substitution
x = a y + b (a = (e1-e2)/2, b = (e1+e2)/2) so that two of its singular
points sit at y = -1, 1 and the third at alpha = 3 e3 / (e1 - e2).  On the
Chebyshev polynomials T_n the normalized operator acts with three bands
whose upper coefficient carries the factor (2n - m): for even integer m the
span of T_0..T_{m/2} is invariant and yields a finite spectrum, while for m
strictly inside an odd-to-even integer gap the action can be rescaled to a
symmetric Jacobi form whose coefficients grow like n^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jacspec, opfamilies
from .errors import InternalConsistencyError, ValidationError
from .jacspec import BoundednessReport, JacobiOperator
from .opfamilies import Family
from .polycore import (
    Mode, Polynomial, derivative_op, read_scalar, residual_ratio, resolve_mode, second_derivative_op, to_mode,
)
from .tdop import TDOperator, validate_td

__all__ = [
    "LameModel",
    "build_lame_model",
    "algebraic_operator",
    "transformed_operator",
    "cheb_tridiag_coeffs",
    "chebyshev_poly",
    "tridiag_residual",
    "LameEvenSpectrum",
    "even_spectrum",
    "even_eigenfunction_residual",
    "OrthonormalForm",
    "orthonormal_form",
    "LameDiagnostic",
    "selfadjoint_diagnostic",
]


def _affine(e1, e2, e3):
    """(a, b, alpha) of the normalization x = a y + b, in the scalar type of the e."""
    return (e1 - e2) / 2, (e1 + e2) / 2, 3 * e3 / (e1 - e2)


@dataclass(frozen=True)
class LameModel:
    """Validated branch values and degree parameter, with derived constants.

    Exact mirrors (``*_exact``) are kept when every input was rational;
    the float fields drive spectra and diagnostics.
    """

    e: tuple[float, float, float]
    m: float
    a_affine: float
    b_affine: float
    alpha: float
    e_exact: tuple[Fraction, Fraction, Fraction] | None = None
    m_exact: Fraction | None = None

    @property
    def is_exact(self) -> bool:
        return self.e_exact is not None and self.m_exact is not None


def build_lame_model(e1, e2, e3, m) -> LameModel:
    """Validate the branch values and derive the affine normalization.

    Accepts Fractions, ints, numeric strings, or floats; exact identities
    are available when all four inputs are rational.

    Raises:
        ValidationError: for repeated branch values, a nonzero sum
            (tolerance 1e-12 of the scale), or alpha equal to +-1 (the
            normalization degenerates at those values).
    """
    read = [read_scalar(v) for v in (e1, e2, e3, m)]
    ef, mf = tuple(f for f, _ in read[:3]), read[3][0]
    exacts = [x for _, x in read]
    scale = max(1.0, *(abs(v) for v in ef))
    if len({ef[0], ef[1], ef[2]}) != 3:
        raise ValidationError("branch values must be pairwise distinct")
    if abs(ef[0] + ef[1] + ef[2]) > 1e-12 * scale:
        raise ValidationError("branch values must sum to zero")
    a, b, alpha = _affine(*ef)
    if abs(alpha - 1.0) <= 1e-12 or abs(alpha + 1.0) <= 1e-12:
        raise ValidationError("alpha = +-1 is excluded (degenerate normalization)")
    all_exact = None not in exacts
    return LameModel(
        e=ef,
        m=mf,
        a_affine=a,
        b_affine=b,
        alpha=alpha,
        e_exact=tuple(exacts[:3]) if all_exact else None,
        m_exact=exacts[3] if all_exact else None,
    )


def _typed_data(model: LameModel, mode: Mode | None):
    """The resolved mode, with the branch values, m, alpha and b/a typed for it."""
    mode = resolve_mode(mode, model.is_exact, "rational branch values and m")
    source = (*model.e_exact, model.m_exact) if model.is_exact else (*model.e, model.m)
    e1, e2, e3, m = (to_mode(v, mode) for v in source)
    a, b, alpha = _affine(e1, e2, e3)
    return mode, (e1, e2, e3), m, alpha, b / a


def algebraic_operator(model: LameModel, mode: Mode | None = None) -> TDOperator:
    """The x-variable operator: A = (x-e1)(x-e2)(x-e3), B = A'/2,
    C = -m(m+1) x / 4 (the spectral parameter enters separately)."""
    mode, es, mv, _, _ = _typed_data(model, mode)
    quarter = to_mode(Fraction(1, 4), mode)
    A = Polynomial.one(mode)
    for e in es:
        A = A * Polynomial((-e, 1), mode)
    B = A.derivative() * to_mode(Fraction(1, 2), mode)
    C = Polynomial((0, -quarter * mv * (mv + 1)), mode)
    return validate_td(A, B, C, derivative_op(), second_derivative_op())


def transformed_operator(model: LameModel, mode: Mode | None = None) -> TDOperator:
    """The y-variable operator after x = a y + b: leading factor
    (y-1)(y+1)(y-alpha), first-order part its half-derivative, and
    C = -m(m+1)(y + b/a)/4."""
    mode, _, mv, alpha, boa = _typed_data(model, mode)
    quarter = to_mode(Fraction(1, 4), mode)
    A = Polynomial((-1, 0, 1), mode) * Polynomial((-alpha, 1), mode)
    B = A.derivative() * to_mode(Fraction(1, 2), mode)
    C = Polynomial((-quarter * mv * (mv + 1) * boa, -quarter * mv * (mv + 1)), mode)
    return validate_td(A, B, C, derivative_op(), second_derivative_op())


def chebyshev_poly(n: int, mode: Mode = Mode.EXACT) -> Polynomial:
    """T_n as an explicit coefficient polynomial."""
    return opfamilies.family_polynomial(Family.chebyshev_t(), n, mode)


def cheb_tridiag_coeffs(model: LameModel, n: int, mode: Mode | None = None):
    """Band coefficients of the normalized operator on T_n: (upper, diag, lower).

    For n >= 1: upper = (2n-m)(2n+m+1)/8, diag = -alpha n^2 - m(m+1)(b/a)/4,
    lower = (2n+m)(2n-m-1)/8.  The n = 0 row is NOT the n = 0 case of that
    formula: there upper = -m(m+1)/4 and lower is absent (None).  All
    coefficients are invariant under m -> -m-1.
    """
    if n < 0:
        raise ValidationError("index must be nonnegative")
    mode, _, mv, alpha, boa = _typed_data(model, mode)
    eighth, quarter = to_mode(Fraction(1, 8), mode), to_mode(Fraction(1, 4), mode)
    mm1 = mv * (mv + 1)
    if n == 0:
        return (-quarter * mm1, -quarter * mm1 * boa, None)
    upper = eighth * (2 * n - mv) * (2 * n + mv + 1)
    diag = -alpha * n * n - quarter * mm1 * boa
    lower = eighth * (2 * n + mv) * (2 * n - mv - 1)
    return (upper, diag, lower)


def tridiag_residual(model: LameModel, n: int) -> Polynomial:
    """L T_n minus its three-band combination, as an exact polynomial.

    Contract: the exact zero polynomial for every n (rational model data
    required; this is the module's core correctness guarantee).
    """
    op = transformed_operator(model, Mode.EXACT)
    upper, diag, lower = cheb_tridiag_coeffs(model, n, Mode.EXACT)
    rhs = chebyshev_poly(n + 1) * upper + chebyshev_poly(n) * diag
    if lower is not None and n >= 1:
        rhs = rhs + chebyshev_poly(n - 1) * lower
    return op.apply(chebyshev_poly(n)) - rhs


@dataclass(frozen=True)
class LameEvenSpectrum:
    """Finite spectrum data for even integer m = 2k.

    ``matrix`` is the (k+1)-square coefficient-space matrix whose rows give
    E P_n in terms of P_{n-1}, P_n, P_{n+1}; ``eigenvalues`` ascend;
    ``pcoeffs[i]`` holds the expansion coefficients (P_0..P_k) of the i-th
    eigenfunction over T_0..T_k, normalized to P_0 = 1.
    """

    k: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    pcoeffs: list[list[float]]


# The even-case block is a (k+1)-square matrix with full eigenvectors.
_MAX_EVEN_K = 1000


def even_spectrum(model: LameModel) -> LameEvenSpectrum:
    """Spectrum of the operator restricted to span{T_0, ..., T_k}, m = 2k.

    The eigenpairs are ``jacspec.eig_block`` (LAPACK) of the diagonally
    symmetrized block (every product of paired off-diagonals is positive for
    even m, whatever alpha).  Each eigenvalue lambda_i is then checked by
    Sturm counts on the same band, which share no code with LAPACK: exactly
    i eigenvalues lie below lambda_i - 1e-10 scale and i + 1 below
    lambda_i + 1e-10 scale, scale = max(1, max |lambda|).

    Raises:
        ValidationError: m is not an even nonnegative integer, or m > 2000;
            or an eigenvector cannot be normalized to P_0 = 1 in floats (its
            first component is 0, or the quotients leave the float range).
        InternalConsistencyError: the Sturm counts do not bracket the
            eigenvalues, or the spectrum is not simple.
    """
    m_ex = model.m_exact if model.is_exact else Fraction(model.m)
    if m_ex.denominator != 1 or m_ex < 0 or m_ex % 2 != 0:
        raise ValidationError("finite even-case spectra need m an even nonnegative integer")
    k = int(m_ex) // 2
    if k > _MAX_EVEN_K:
        raise ValidationError(f"m = {float(m_ex):g} asks for a block beyond {_MAX_EVEN_K + 1} rows")
    # Row n of the matrix gives E P_n = lower_{n+1} P_{n+1} + diag_n P_n + upper_{n-1} P_{n-1}.
    upper, diag, lower = zip(*(cheb_tridiag_coeffs(model, n, Mode.FLOAT) for n in range(k + 2)))
    diag = diag[: k + 1]
    mat = np.zeros((k + 1, k + 1))
    idx = np.arange(k + 1)
    mat[idx, idx] = diag
    mat[idx[:-1], idx[1:]] = lower[1 : k + 1]
    mat[idx[1:], idx[:-1]] = upper[:k]

    # Every paired product lower_{i+1} * upper_i is positive, whatever alpha
    # (which enters the diagonal only): at i = 0 it is
    # (2+m)(m-1)m(m+1)/32 > 0 for m = 2k >= 2, and for 1 <= i < k both
    # factors, (2i+2+m)(2i+1-m)/8 and (2i-m)(2i+m+1)/8, are negative.  So the
    # matrix is diagonally similar to a symmetric one and eig_block applies.
    off = [math.sqrt(lower[i + 1] * upper[i]) for i in range(k)]
    solved = jacspec.eig_block(JacobiOperator.from_sequences(off, diag), (0, k + 1))
    eigs = solved.eigenvalues
    width = 1e-10 * max(1.0, float(np.max(np.abs(eigs))))
    below = jacspec._sturm_count(diag, off, np.concatenate([eigs - width, eigs + width]))
    if not np.array_equal(below, np.concatenate([idx, idx + 1])):
        raise InternalConsistencyError(f"m = {float(m_ex):g}: Sturm counts do not bracket the block eigenvalues")

    # undo the diagonal similarity: columns of diag(d) @ U solve the original matrix
    d = np.ones(k + 1)
    for i in range(k):
        d[i + 1] = d[i] * off[i] / lower[i + 1]
    vecs = d[:, None] * solved.eigenvectors
    first = vecs[0]
    vanished = np.flatnonzero(first == 0.0)
    if vanished.size:
        raise ValidationError(
            f"m = {float(m_ex):g}: eigenpair {vanished[0]} has first component 0.0 in floats, so it cannot take P_0 = 1")
    with np.errstate(over="ignore"):
        pcoeffs = vecs / first  # eig_block's sign canonicalization cancels in this ratio
    if not np.isfinite(pcoeffs).all():
        raise ValidationError(f"m = {float(m_ex):g}: eigenfunction coefficients with P_0 = 1 leave the float range")
    return LameEvenSpectrum(k=k, matrix=mat, eigenvalues=eigs, pcoeffs=pcoeffs.T.tolist())


def _chebder(c: np.ndarray, order: int) -> np.ndarray:
    """The Chebyshev series c (coefficients along axis 0) differentiated
    ``order`` times, by the downward recurrence of numpy's ``chebder``, bit
    for bit; numpy.polynomial itself is not imported, as it holds about
    0.9 MB resident for these two routines."""
    c = np.array(c, dtype=float)
    if order >= len(c):
        return c[:1] * 0
    for _ in range(order):
        n = len(c) - 1
        der = np.empty((n,) + c.shape[1:])
        for j in range(n, 2, -1):
            der[j - 1] = (2 * j) * c[j]
            c[j - 2] += (j * c[j]) / (j - 2)
        if n > 1:
            der[1] = 4 * c[2]
        der[0] = c[1]
        c = der
    return c


def _chebval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Clenshaw sum of the Chebyshev series c at every point of x, shape
    c.shape[1:] + x.shape, bit for bit as numpy's ``chebval``."""
    c = c.reshape(c.shape + (1,) * x.ndim)
    if len(c) == 1:
        c0, c1 = c[0], 0
    elif len(c) == 2:
        c0, c1 = c[0], c[1]
    else:
        x2 = 2 * x
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def even_eigenfunction_residual(spec: LameEvenSpectrum, model: LameModel, samples=None) -> list[float]:
    """Residual of the x-variable equation for every eigenpair, over its rounding scale.

    The eigenfunction psi(y) = sum_n P_n T_n(y), with x = a y + b, must solve
    A f'' + B f' - (m(m+1) x + E_x) f / 4 = 0 at the samples; the spectral
    parameter in the x variable picks up the affine scale, E_x = 4 a E for
    the stored eigenvalue E of the normalized operator.  psi, psi' and psi''
    are Clenshaw sums in the Chebyshev basis.  The rounding scale is
    sum_n |P_n| (|A| |T_n''| / a^2 + |B| |T_n'| / |a| + |S| |T_n|), where |S|
    takes the block's largest |E|, so that an eigenvalue at 0 keeps a scale.
    Entry i is ``polycore.residual_ratio`` of eigenpair i over the samples.
    """
    if samples is None:
        samples = (model.e[2] + 0.5, 0.0, 2.0)
    x = np.array([float(s) for s in samples])
    a = model.a_affine
    y = (x - model.b_affine) / a
    op = algebraic_operator(model, Mode.FLOAT)
    A, B = (np.array([poly(s) for s in x.tolist()]) for poly in (op.A, op.B))
    quarter_mm1_x = 0.25 * model.m * (model.m + 1) * x
    E = spec.eigenvalues
    P = np.array(spec.pcoeffs).T  # column i: the coefficients of eigenpair i
    powers = (1.0, a, a**2 if abs(a) < 2.0**512 else math.inf)  # a**2 overflows from |a| = 2^512
    with np.errstate(all="ignore"):  # values beyond the float range make NaN ratios
        # psi^(j)(x) by Clenshaw, row i for eigenpair i and |T_n^(j)(y)|, row
        # n: column n of the identity holds the coefficients of T_n
        psi, dpsi, ddpsi = (_chebval(y, _chebder(P, j)) / powers[j] for j in range(3))
        t0, t1, t2 = (np.abs(_chebval(y, _chebder(np.eye(spec.k + 1), j))) for j in range(3))
        residual = A * ddpsi + B * dpsi - (a * E[:, None] + quarter_mm1_x) * psi
        spectral = abs(a) * np.max(np.abs(E)) + np.abs(quarter_mm1_x)
        scale = np.abs(P).T @ (np.abs(A) / powers[2] * t2 + np.abs(B) / abs(a) * t1 + spectral * t0)
    return [residual_ratio(r, s) for r, s in zip(residual.tolist(), scale.tolist())]


def _orthonormal_k(m: float) -> int:
    k = math.floor((m - 1) / 2)
    if k < 0 or not (2 * k + 1 < m < 2 * k + 2):
        raise ValidationError(
            "the symmetric rescaling needs m strictly inside (2k+1, 2k+2) for some integer k >= 0"
        )
    return k


@dataclass(frozen=True)
class OrthonormalForm:
    """Symmetric Jacobi form of the normalized operator for admissible m.

    ``a[n]`` and ``diag[n]`` are the band coefficients; ``alpha_n`` are the
    positive rescaling factors from T_n to the symmetric basis.  The first
    row is anomalous: the operator sends the 0-th basis element to
    2 a_0 p_1 + b_0 p_0 (flagged by ``first_row_doubled``, never silently
    symmetrized).
    """

    a: tuple[float, ...]
    diag: tuple[float, ...]
    alpha_n: tuple[float, ...]
    first_row_doubled: bool
    model: LameModel


def _orthonormal_a(model: LameModel, n: int) -> float:
    h = 0.5 * model.m
    rad = (n + h + 1) * (n - h + 0.5) * (n - h) * (n + h + 0.5)
    if rad <= 0:
        raise InternalConsistencyError(f"off-diagonal radicand not positive at n = {n}")
    return 0.5 * math.sqrt(rad)


def _orthonormal_b(model: LameModel, n: int) -> float:
    boa = model.b_affine / model.a_affine
    return -model.alpha * n * n - 0.25 * model.m * (model.m + 1) * boa


def orthonormal_form(model: LameModel, n_max: int) -> OrthonormalForm:
    """Band coefficients and rescaling factors through index n_max.

    Requires m in (2k+1, 2k+2) for some integer k >= 0, which makes every
    rescaling factor's radicand positive (asserted while building).
    """
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    _orthonormal_k(model.m)
    m = model.m
    h = 0.5 * m
    alphas = [1.0]
    ratio = 1.0
    for j in range(n_max):
        num = (0.5 * (1 - m) + j) * (1 + h + j)
        den = (-h + j) * (0.5 * (m + 1) + j)
        ratio *= num / den
        if ratio <= 0:
            raise InternalConsistencyError(f"rescaling radicand not positive at n = {j + 1}")
        alphas.append(math.sqrt(ratio))
    a = tuple(_orthonormal_a(model, n) for n in range(n_max))
    diag = tuple(_orthonormal_b(model, n) for n in range(n_max + 1))
    return OrthonormalForm(
        a=a, diag=diag, alpha_n=tuple(alphas), first_row_doubled=True, model=model
    )


@dataclass(frozen=True)
class LameDiagnostic:
    """Boundedness diagnostic plus the predicted quadratic growth rates
    (plus branch 1 - alpha, minus branch 1 + alpha)."""

    report: BoundednessReport
    predicted_leading: tuple[float, float]


def selfadjoint_diagnostic(model: LameModel, n_max: int = 500) -> LameDiagnostic:
    """Run the boundedness test on the symmetric form's coefficient sequences.

    The result is a heuristic indicator only; it reports which branch
    a_n + a_{n-1} +/- b_n stays bounded (or grows slowest) and the leading
    coefficients (1 -+ alpha) predicted by the n -> infinity expansion.
    """
    form = orthonormal_form(model, n_max + 1)
    report = jacspec.berezanskii_test(JacobiOperator.from_sequences(form.a, form.diag), n_max)
    return LameDiagnostic(report=report, predicted_leading=(1.0 - model.alpha, 1.0 + model.alpha))
