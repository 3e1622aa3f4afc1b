"""Operators with tridiagonal action on polynomial bases.

A TD-operator is L = M_A T + M_B S + M_C with polynomial coefficients of
degrees at most (3, 2, 1), where S and T lower polynomial degree by 1 and 2.
This module constructs a monic basis {y_n} on which L acts with three bands,
orthogonalizes such a basis against a supplied inner product, rescales to a
symmetric tridiagonal form, reconstructs the degree-preserving operator D
with D X + X D = L, and solves the first-order ODE for the symmetry weight.

All functions are pure over immutable inputs and safe to call in parallel.
The d/dx and d^2/dx^2 of ``polycore`` are one shared instance each, so
operators built on them share their memo; its fills are idempotent, so that
sharing changes no result and keeps them safe to call in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import JMatrixError, ValidationError
from .jacspec import QuadratureRule
from .polycore import DegreeLoweringOperator, Mode, ModeError, Polynomial, _typed, format_scalar, to_mode

__all__ = [
    "TDOperator",
    "validate_td",
    "Tridiagonalization",
    "TridiagonalizationError",
    "VerifyToleranceError",
    "tridiagonalize",
    "MomentInnerProduct",
    "InnerProductError",
    "orthogonalize",
    "SymmetricTridiag",
    "NotSymmetrizableError",
    "symmetrize",
    "ReconstructedOperator",
    "reconstruct_diagonalizer",
    "WeightSpec",
    "MultiplePoleError",
    "weight_log_derivative",
    "eval_weight",
]

_ZERO = Polynomial.zero()  # the EXACT y_(-1) of the relation at n = 0


class TridiagonalizationError(JMatrixError):
    """The canonical free-parameter choice cannot satisfy the band relation.

    Happens only when the leading-action coefficient A_k vanishes at some
    k >= 2 and the lower coefficient equations are inconsistent; the
    construction then needs non-canonical choices at earlier steps.
    """

    _what = "band relation unsatisfiable at index {} with canonical choices."

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        super().__init__(f"{self._what.format(index)} {detail}")


class VerifyToleranceError(TridiagonalizationError):
    """FLOAT verify: a relation's residual, relative to its terms, exceeds the tolerance."""

    _what = "band relation at index {} exceeds the verify tolerance:"


class InnerProductError(ValidationError):
    """The supplied pairing is not usable (not positive definite, singular, too short)."""


class NotSymmetrizableError(ValidationError):
    """A_n * C_{n+1} <= 0 somewhere, so no real symmetric rescaling exists."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"A_n * C_(n+1) <= 0 at index {index}; not symmetrizable over the reals")


class MultiplePoleError(ValidationError):
    """The leading coefficient has a repeated root; partial fractions unsupported."""


@dataclass(frozen=True)
class TDOperator:
    """L = M_A T + M_B S + M_C with validated degree bounds.

    Build through :func:`validate_td`, which also enforces deg(A) = 3 or
    deg(B) = 2 unless explicitly relaxed.
    """

    A: Polynomial
    B: Polynomial
    C: Polynomial
    S: DegreeLoweringOperator
    T: DegreeLoweringOperator
    _cleared: tuple = field(default=(0, (), (), 1, ()), init=False, repr=False, compare=False)  # see _apply_row

    def __post_init__(self):
        if not (self.A.mode is self.B.mode is self.C.mode):
            raise ModeError("A, B, C must share one mode")
        for op in (self.S, self.T):
            if op.mode not in (None, self.A.mode):
                raise ModeError(f"{op.mode.value} operator {op.label!r} with {self.A.mode.value} A, B, C")
        if self.A.degree > 3 or self.B.degree > 2 or self.C.degree > 1:
            raise ValidationError(
                f"degree bounds violated: deg(A)={self.A.degree}, deg(B)={self.B.degree}, deg(C)={self.C.degree}"
            )
        if self.S.shift != 1 or self.T.shift != 2:
            raise ValidationError("S must lower degree by 1 and T by 2")

    @property
    def mode(self) -> Mode:
        return self.A.mode

    @property
    def strict(self) -> bool:
        return self.A.degree == 3 or self.B.degree == 2

    def apply(self, p: Polynomial) -> Polynomial:
        """L p = A * T(p) + B * S(p) + C * p; on integer rows (``_apply_row``)
        when the operator and p are both EXACT."""
        if self.mode is Mode.EXACT and p.mode is Mode.EXACT:
            LY, den = self._apply_row(p._num)
            return Polynomial._rows(LY, den * p._den)
        return self.A * self.T.apply(p) + self.B * self.S.apply(p) + self.C * p

    __call__ = apply

    def _apply_row(self, row: Sequence[int]) -> tuple[list[int], int]:
        """(LY, den) with L Y = LY / den for the EXACT operator and an integer
        row Y: A T(Y) + B S(Y) + C Y, with A, B, C and the integer rows of S
        and T cleared to one denominator den > 0 once, until a longer row."""
        n, t, s, den, polys = self._cleared
        if n < len(row):
            (t, et), (s, es) = self.T._integer_row(len(row)), self.S._integer_row(len(row))
            dens = (self.A._den * et, self.B._den * es, self.C._den)
            den = math.lcm(*dens)
            polys = [[(i, v * (den // e)) for i, v in enumerate(p._num) if v] for p, e in zip((self.A, self.B, self.C), dens)]
            object.__setattr__(self, "_cleared", (min(len(t), len(s)), t, s, den, polys))
        images = ([y * v for y, v in zip(row[2:], t[2 : len(row)])], [y * v for y, v in zip(row[1:], s[1 : len(row)])], row)
        LY = [0] * (len(row) + 1)
        for coeffs, image in zip(polys, images):
            for i, v in coeffs:
                LY[i : i + len(image)] = [o + v * w for o, w in zip(LY[i:], image)]
        return LY, den

    def leading_action(self, k: int):
        """Coefficient of x^(k+1) in L x^k: alpha_3 d'_k + beta_2 d_k + gamma_1."""
        return self.A.coeff(3) * self.T.coefficient(k) + self.B.coeff(2) * self.S.coefficient(k) + self.C.coeff(1)

    def _bands(self, size: int) -> tuple[list[list], object, Exception | None]:
        """(rows, E, error): the bands of L x^j for the j < ``size`` that can
        be formed, so ``rows[j][i] / E`` is the x^(j-2+i) coefficient of L x^j.

        L x^j = d'_j A x^(j-2) + d_j B x^(j-1) + C x^j, where d_j and d'_j
        are the monomial coefficients of S and T (zero for j below their
        shift), so L x^j has these four bands and no others.  d'_j and then
        d_j are read degree by degree, from the first degree the integer rows
        of S and T do not hold; the rows stop at the first j where one of
        them raises, and ``error`` is that exception (None if all ``size``
        rows are formed).  EXACT: integer rows over E = lcm(den A den T,
        den B den S, den C), with S and T read from their integer rows.
        FLOAT: float rows, E = 1.
        """
        T, S = self.T, self.S
        n, error = size, None
        for j in range(min(len(T._row[0]), len(S._row[0]), size), size):
            try:
                T.coefficient(j)
                S.coefficient(j)
            except Exception as exc:
                n, error = j, exc
                break
        if self.mode is Mode.EXACT:
            (t, et), (s, es) = T._integer_row(n), S._integer_row(n)
            dens = (self.A._den * et, self.B._den * es, self.C._den)
            E = math.lcm(*dens)
            (a0, a1, a2, a3), (b0, b1, b2), (c0, c1) = (
                [v * (E // e) for v in p._num] + [0] * (width - len(p._num))
                for p, e, width in zip((self.A, self.B, self.C), dens, (4, 3, 2))
            )
            reads = zip(t[:n], s[:n])
        else:
            E = 1
            (a0, a1, a2, a3), (b0, b1, b2), (c0, c1) = (
                [p.coeff(i) for i in range(width)] for p, width in ((self.A, 4), (self.B, 3), (self.C, 2))
            )
            reads = [(T.coefficient(j), S.coefficient(j)) for j in range(n)]
        rows = [[a0 * dd, a1 * dd + b0 * d, a2 * dd + b1 * d + c0, a3 * dd + b2 * d + c1] for dd, d in reads]
        return rows, E, error

    def to_float(self) -> "TDOperator":
        return TDOperator(self.A.to_float(), self.B.to_float(), self.C.to_float(), self.S, self.T)


def validate_td(
    A: Polynomial,
    B: Polynomial,
    C: Polynomial,
    S: DegreeLoweringOperator,
    T: DegreeLoweringOperator,
    relaxed: bool = False,
) -> TDOperator:
    """Validate and build a TD-operator.

    Degree caps (3, 2, 1) always apply.  In strict mode deg(A) = 3 or
    deg(B) = 2 is also required; ``relaxed=True`` admits the wider
    second-order class (operators whose eigenfunctions are classical
    orthogonal polynomials), flagged via the ``strict`` property.
    """
    op = TDOperator(A, B, C, S, T)
    if not relaxed and not op.strict:
        raise ValidationError(
            "strict TD-operator needs deg(A) = 3 or deg(B) = 2 (pass relaxed=True to admit this operator)"
        )
    return op


@dataclass(frozen=True)
class Tridiagonalization:
    """Monic basis y_0..y_N with band coefficients for n < N.

    The defining relation L y_n = A_n y_{n+1} + B_n y_n + C_n y_{n-1}
    (C_0 = 0) holds coefficient-exactly for every stored n when produced by
    :func:`tridiagonalize` in EXACT mode.
    """

    y: tuple[Polynomial, ...]
    An: tuple
    Bn: tuple
    Cn: tuple

    @property
    def n_max(self) -> int:
        return len(self.An)

    @property
    def mode(self) -> Mode:
        return self.y[0].mode

    def relation_residual(self, op: TDOperator, n: int) -> Polynomial:
        """L y_n minus the stored three-band combination (exact zero on contract).

        EXACT: with y_k = Y_k / D_k and L Y_n = LY / den (``op._apply_row``),
        the residual times the lcm K of den and the denominators of the band
        terms is one integer row, formed in one pass over the four rows
        padded to the longest, each scaled by one integer known to be exact.
        FLOAT: ``op.apply`` minus the band terms.  A ModeError if the basis
        and the operator differ in mode.
        """
        if op.mode is not self.mode:
            raise ModeError(f"{self.mode.value} basis with {op.mode.value} operator")
        if self.mode is Mode.FLOAT:
            rhs = self.y[n + 1] * self.An[n] + self.y[n] * self.Bn[n]
            if n >= 1:
                rhs = rhs + self.y[n - 1] * self.Cn[n]
            return op.apply(self.y[n]) - rhs
        terms = [(self.y[n + 1], self.An[n]), (self.y[n], self.Bn[n]), (self.y[n - 1], self.Cn[n]) if n else (_ZERO, 0)]
        LY, den = op._apply_row(self.y[n]._num)
        den *= self.y[n]._den
        dens = [p._den * v.denominator for p, v in terms]
        K = math.lcm(den, *dens)
        size = max(len(LY), *[len(p._num) for p, _ in terms])
        LY += [0] * (size - len(LY))
        (Y1, s1), (Y0, s0), (Ym, sm) = [
            (p._num + (0,) * (size - len(p._num)), v.numerator * (K // e)) for (p, v), e in zip(terms, dens)
        ]
        lift = K // den
        return Polynomial._rows([lift * w - s1 * a - s0 * b - sm * c for w, a, b, c in zip(LY, Y1, Y0, Ym)], K)

    def verify(self, op: TDOperator, tol: float = 0.0) -> None:
        """Recheck every stored relation through ``relation_residual``, which
        applies L on its own path, not through the construction's bands.

        EXACT: every residual must be the zero polynomial, else a
        TridiagonalizationError is raised.  FLOAT: the residual must stay
        within ``tol`` times the size of the terms that cancel in it,
        |A_n| |y_{n+1}| + |B_n| |y_n| + |C_n| |y_{n-1}| with |y| the largest
        coefficient, else a VerifyToleranceError is raised; a NaN residual or
        a size that is not finite is never within it.  A ModeError if the
        basis and the operator differ in mode.
        """
        for n in range(self.n_max):
            res = self.relation_residual(op, n)
            if self.mode is Mode.EXACT:
                if not res.is_zero():
                    raise TridiagonalizationError(n, "exact residual nonzero on verify")
                continue
            worst = float(np.max(np.abs(res.coeffs), initial=0.0))  # NaN if any coefficient is NaN
            terms = [(self.An[n], self.y[n + 1]), (self.Bn[n], self.y[n])]
            if n >= 1:
                terms.append((self.Cn[n], self.y[n - 1]))
            scale = sum(abs(v) * max(map(abs, p.coeffs), default=0.0) for v, p in terms)
            if not (worst <= tol * scale and math.isfinite(scale)):
                raise VerifyToleranceError(n, f"residual {worst:.3e} not within {tol} times {scale:.3e}, the size of its terms")

    def to_float(self) -> "Tridiagonalization":
        return Tridiagonalization(
            tuple(p.to_float() for p in self.y),
            tuple(float(v) for v in self.An),
            tuple(float(v) for v in self.Bn),
            tuple(float(v) for v in self.Cn),
        )

    def to_json_dict(self) -> dict:
        return {
            "A_n": [format_scalar(v) for v in self.An],
            "B_n": [format_scalar(v) for v in self.Bn],
            "C_n": [format_scalar(v) for v in self.Cn],
            "y": [[format_scalar(c) for c in p.coeffs] for p in self.y],
        }


def tridiagonalize(op: TDOperator, n_max: int) -> Tridiagonalization:
    """Construct the canonical monic tridiagonalizing basis up to degree n_max.

    Free parameters are canonicalized: the two top coefficients of each new
    y_{k+1} are set to zero (fixing B_k and C_k from the top rows), the rest
    are solved from the coefficient-matching equations, and any coefficient
    left undetermined by A_k = 0 is set to zero.

    L y_k is formed from the coefficients of y_k and the four band columns
    of L x^j (its x^(j-2) .. x^(j+1) coefficients), read once per operator
    from ``TDOperator._bands``: O(k) scalar work per step, in one pass
    (``_band_action``), and no polynomial products.  In EXACT mode that work
    is done on integers: y_k is a row of integer numerators over one
    denominator, the bands are integer columns over one common denominator,
    A_k, B_k and C_k are read from the band of L x^k, and the lower
    coefficients of y_{k+1} are formed in the pass that forms L y_k and
    handed over as its row, reduced by one gcd (see
    ``_tridiagonalize_exact``); the Fraction coefficients are built on
    their first read.  :meth:`Tridiagonalization.verify` applies L through
    its own path, so it checks this construction independently.  In FLOAT
    mode the band scalars are rounded before they multiply y_k, so results
    may differ in the last bits from a product-by-product application of
    L.  Step j raises the error of a degree j whose coefficients cannot be
    read, after the steps below it.

    Raises:
        TridiagonalizationError: if A_k = 0 at some k >= 2 leaves the lower
            coefficient equations inconsistent (no basis with the canonical
            earlier choices satisfies the relation there).
        ValidationError: FLOAT, at the first step k where L y_k or y_{k+1}
            has a coefficient that is not finite.
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    if op.mode is Mode.EXACT:
        return _tridiagonalize_exact(op, n_max)
    mode = op.mode
    bands, _, error = op._bands(n_max)
    columns = _columns(bands)
    ys = [Polynomial.one(mode)]
    abc = []  # (A_k, B_k, C_k)
    for k in range(n_max):
        if k == len(bands):
            raise error
        y = ys[k].coeffs
        Ly = _band_action(y, columns, 0.0)
        if not all(map(math.isfinite, Ly)):
            raise ValidationError(f"step {k} leaves the float range: L y_{k} has a coefficient that is not finite")
        a_k = Ly[k + 1]
        b_k = Ly[k]
        c_k = 0.0 if k == 0 else Ly[k - 1] - b_k * y[k - 1]
        coeffs = [0.0] * (k + 2)
        coeffs[k + 1] = 1.0
        for p in range(k - 2, -1, -1):
            rhs = Ly[p] - b_k * y[p] - c_k * ys[k - 1].coeffs[p]
            if a_k != 0:
                coeffs[p] = rhs / a_k
            elif _nonzero(rhs, mode, Ly):
                raise TridiagonalizationError(
                    k, f"A_{k} = 0 but the x^{p} equation has nonzero right side {format_scalar(rhs)}"
                )
        if not all(map(math.isfinite, coeffs)):
            raise ValidationError(f"step {k} leaves the float range: y_{k + 1} has a coefficient that is not finite")
        ys.append(Polynomial._of(coeffs, mode))
        abc.append((a_k, b_k, c_k))
    return Tridiagonalization(tuple(ys), *zip(*abc))


def _tridiagonalize_exact(op: TDOperator, n_max: int) -> Tridiagonalization:
    """The EXACT construction of :func:`tridiagonalize`, in integers.

    The bands of L x^j for j < n_max are integer columns over one
    denominator E, fixed per operator (``TDOperator._bands``), y_k is the
    integer row Y_k over the positive D_k with gcd(Y_k, D_k) = 1, so
    L y_k = W / (E D_k) for the integer row W.  The canonical y_k has no
    x^(k-1) or x^(k-2) term, so the top of W is D_k times the band of
    L x^k: A_k, B_k and C_k are its x^(k+1), x^k and x^(k-1) entries over
    E.  The lower coefficients of y_{k+1} are Z / (M A_k), where M is the
    lcm of the three denominators of L y_k - B_k y_k - C_k y_{k-1}, so that
    each of the three rows is scaled by one integer known to divide.  The
    row s Z, with s the denominator of A_k carrying its sign, is formed in
    the one pass that sums W (``_band_action``) and handed over as the row
    of y_{k+1}, which ``Polynomial._rows`` reduces by one gcd; A_k, B_k and
    C_k are the reduced Fractions of the Fraction loop.  The first degree
    whose coefficients cannot be read raises its error at its own step,
    after the steps below it.
    """
    # columns[d][j]: E times the x^(j-2+d) coefficient of L x^j
    bands, E, error = op._bands(n_max)
    columns = _columns(bands)
    _, c1, c2, c3 = columns
    Y, D = (1,), 1
    Y_prev, D_prev = (), 1
    ys = [Polynomial.one(Mode.EXACT)]
    abc = []  # (A_k, B_k, C_k)
    for k in range(n_max):
        if k == len(bands):
            raise error
        a_k = Fraction(c3[k], E)
        b_k = Fraction(c2[k], E)
        c_k = Fraction(c1[k], E) if k else Fraction(0)
        # s M A_k y_{k+1}[p] = s M (L y_k - b_k y_k - c_k y_{k-1})[p] for p <= k - 2,
        # where the denominator of b_k divides E, so b_k y_k adds nothing to M
        ED = E * D
        M = math.lcm(ED, c_k.denominator * D_prev)
        s = a_k.denominator if a_k.numerator >= 0 else -a_k.denominator
        s_w = s * (M // ED)
        s_y = s * b_k.numerator * (M // (b_k.denominator * D))
        s_prev = s * c_k.numerator * (M // (c_k.denominator * D_prev))
        Z = _band_action(Y, columns, 0, (s_w, s_y, s_prev, Y_prev[: k - 1]))
        if not a_k:  # s = 1
            p = next((p for p in range(k - 2, -1, -1) if Z[p]), None)
            if p is not None:
                raise TridiagonalizationError(
                    k, f"A_{k} = 0 but the x^{p} equation has nonzero right side {format_scalar(Fraction(Z[p], M))}"
                )
            y = Polynomial._rows([0] * (k + 1) + [1], 1)
        else:  # s Z / (s M A_k)
            den = M * abs(a_k.numerator)
            y = Polynomial._rows(Z + [0] * min(k + 1, 2) + [den], den)
        ys.append(y)
        Y_prev, D_prev, Y, D = Y, D, y._num, y._den
        abc.append((a_k, b_k, c_k))
    return Tridiagonalization(tuple(ys), *zip(*abc))


def _columns(bands: Sequence) -> tuple:
    """The four band columns of ``TDOperator._bands`` rows: column d holds
    the x^(j-2+d) coefficients of L x^j (empty columns for no rows)."""
    return tuple(zip(*bands)) or ((),) * 4


def _band_action(y: tuple, columns: tuple, zero, combine: tuple | None = None) -> list:
    """The coefficients of L y, lowest first, from those of y (or its integer
    row) and the band columns (``_columns``), in one pass.

    The x^m coefficient sums y_j columns[m+2-j][j] over j = m-1 .. m+2 in
    increasing j, starting from ``zero`` (0 or 0.0) at m = 0 only.  A term
    whose j lies outside y is the product ``zero`` times ``-zero``: -0.0 in
    FLOAT, which leaves every sum as it was, signed zeros included.  With
    ``combine`` = (s_w, s_y, s_prev, prev), the same pass returns instead
    s_w (L y)_m - s_y y_m - s_prev prev_m for m < len(prev).
    """
    c0, c1, c2, c3 = columns
    n, pad = len(y), -zero
    rows = (
        (zero,) + y, (zero,) + c3[:n], y + (zero,), c2[:n] + (pad,),
        y[1:] + (zero, zero), c1[1:n] + (pad, pad), y[2:] + (zero, zero, zero), c0[2:n] + (pad, pad, pad),
    )
    if combine is None:
        return [((u * a + v * b) + w * c) + t * d for u, a, v, b, w, c, t, d in zip(*rows)]
    s_w, s_y, s_prev, prev = combine
    return [
        (((u * a + v * b) + w * c) + t * d) * s_w - v * s_y - q * s_prev
        for q, u, a, v, b, w, c, t, d in zip(prev, *rows)
    ]


def _nonzero(value, mode: Mode, coeffs: Sequence) -> bool:
    """Whether ``value`` is nonzero: exactly in EXACT, and in FLOAT beyond
    1e-10 times the largest magnitude in ``coeffs`` (1 if they all vanish)."""
    if mode is Mode.EXACT:
        return value != 0
    return abs(value) > 1e-10 * (max((abs(float(c)) for c in coeffs), default=1.0) or 1.0)


class MomentInnerProduct:
    """Bilinear pairing on polynomials from a finite moment sequence.

    moments[k] is the pairing of x^a with x^b whenever a + b = k; a
    sequence of length 2N + 1 supports polynomials up to degree N.
    """

    def __init__(self, moments: Sequence, mode: Mode | None = None):
        moments, self.mode = _typed(moments, mode, "moments")
        self.moments = tuple(moments)

    def pair(self, p: Polynomial, q: Polynomial):
        if p.degree + q.degree >= len(self.moments):
            raise InnerProductError(
                f"moment sequence of length {len(self.moments)} too short for degrees {p.degree}+{q.degree}"
            )
        acc = to_mode(0, self.mode)
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(q.coeffs):
                acc += a * b * self.moments[i + j]
        return acc


def _horner(p: Polynomial, x: np.ndarray) -> np.ndarray:
    """A float polynomial at every point of x, by the Horner steps of ``Polynomial.__call__``."""
    acc = np.zeros_like(x)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _pairing(ip, tri_mode: Mode):
    """Normalize an inner-product input to (pair_fn, mode)."""
    if isinstance(ip, MomentInnerProduct):
        if ip.mode is Mode.EXACT and tri_mode is Mode.FLOAT:
            return MomentInnerProduct([float(m) for m in ip.moments], Mode.FLOAT).pair, Mode.FLOAT
        return ip.pair, ip.mode
    if isinstance(ip, QuadratureRule):
        return (lambda p, q: ip.integrate(lambda x: _horner(p, x) * _horner(q, x))), Mode.FLOAT
    raise InnerProductError("inner product must be a MomentInnerProduct or a quadrature rule")


def orthogonalize(tri: Tridiagonalization, ip) -> Tridiagonalization:
    """Gram-Schmidt the basis against ``ip`` and recompute band coefficients.

    The output keeps the monic normalization.  Coefficients are obtained by
    expanding L r_n (through the stored relation, no operator needed) in the
    new basis and reading off the three bands; when the inner product makes
    L symmetric the expansion is tridiagonal, so nothing is discarded.

    Raises:
        InnerProductError: if the pairing shows the Gram matrix to be
            numerically singular or not positive definite, or if L r_n has
            a component below r_(n-1) that the three bands would drop
            (judged by ``_nonzero``, as in tridiagonalize).
    """
    pair, mode = _pairing(ip, tri.mode)
    if mode is Mode.FLOAT and tri.mode is Mode.EXACT:
        tri = tri.to_float()
    N = len(tri.y) - 1
    zero = to_mode(0, mode)

    r: list[Polynomial] = []
    cmat: list[list] = []  # cmat[i][j]: coefficient of y_j in r_i
    norms2: list = []
    for n, yn in enumerate(tri.y):
        row = [zero] * (n + 1)
        row[n] = to_mode(1, mode)
        rn = yn
        raw = pair(yn, yn)
        for k in range(n):
            coef = pair(rn, r[k]) / norms2[k]
            rn = rn - r[k] * coef
            for j in range(k + 1):
                row[j] -= coef * cmat[k][j]
        nn = pair(rn, rn)
        if mode is Mode.EXACT:
            if nn <= 0:
                raise InnerProductError(f"pairing not positive definite at degree {n}")
        elif not nn > 1e-13 * abs(float(raw)):
            raise InnerProductError(f"Gram matrix numerically singular at degree {n}")
        r.append(rn)
        cmat.append(row)
        norms2.append(nn)

    new_A, new_B, new_C = [], [], []
    for n in range(N):
        w = [zero] * (n + 2)  # L r_n in the old y basis
        for k in range(n + 1):
            c = cmat[n][k]
            if c == 0:
                continue
            w[k + 1] += c * tri.An[k]
            w[k] += c * tri.Bn[k]
            if k >= 1:
                w[k - 1] += c * tri.Cn[k]
        d = [zero] * (n + 2)  # same vector in the new r basis
        for j in range(n + 1, -1, -1):
            acc = w[j]
            for i in range(j + 1, n + 2):
                acc -= d[i] * cmat[i][j]
            d[j] = acc
        j = max(range(n - 1), key=lambda i: abs(d[i]), default=None)
        if j is not None and _nonzero(d[j], mode, d):
            raise InnerProductError(
                f"L r_{n} has a component {format_scalar(d[j])} along r_{j}, below the three bands at n = {n}"
            )
        new_A.append(d[n + 1])
        new_B.append(d[n])
        new_C.append(d[n - 1] if n >= 1 else zero)
    return Tridiagonalization(tuple(r), tuple(new_A), tuple(new_B), tuple(new_C))


@dataclass(frozen=True)
class SymmetricTridiag:
    """Symmetric band data a_n (off-diagonal), b_n (diagonal), plus the
    positive rescaling factors linking the monic basis to the symmetric one."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    basis_norms: tuple[float, ...]


def symmetrize(tri: Tridiagonalization) -> SymmetricTridiag:
    """Rescale a monic tridiagonalization to symmetric form.

    Requires A_n C_{n+1} > 0 along the available range; then
    a_n = +sqrt(A_n C_{n+1}) (positive branch; a diagonal sign flip is a
    unitary equivalence) and b_n = B_n.  Always returns float data.

    Raises:
        NotSymmetrizableError: at the first index with A_n C_{n+1} <= 0.
    """
    L = tri.n_max
    b = [float(v) for v in tri.Bn]
    a: list[float] = []
    norms = [1.0]
    for n in range(L - 1):
        prod = float(tri.An[n]) * float(tri.Cn[n + 1])
        if not prod > 0:
            raise NotSymmetrizableError(n)
        a.append(math.sqrt(prod))
        norms.append(norms[-1] * math.sqrt(float(tri.Cn[n + 1]) / float(tri.An[n])))
    return SymmetricTridiag(tuple(a), tuple(b), tuple(norms))


@dataclass(frozen=True)
class ReconstructedOperator:
    """Degree-preserving operator D on monomials, with D X + X D = L.

    ``images[n]`` is D x^n; D 1 = 0.
    """

    images: tuple[Polynomial, ...]

    def apply(self, p: Polynomial) -> Polynomial:
        """D p, the sum of c_n D x^n, on rows over one denominator (1 in FLOAT);
        a ModeError if p and an image it reads differ in mode."""
        if p.degree >= len(self.images):
            raise ValidationError("polynomial degree beyond the reconstructed range")
        terms = [(c, self.images[n]) for n, c in enumerate(p._num) if c]
        if any(image.mode is not p.mode for _, image in terms):
            raise ModeError("polynomial modes differ")
        den = math.lcm(*[image._den for _, image in terms])
        out = [0 if p.mode is Mode.EXACT else 0.0] * max((len(image._num) for _, image in terms), default=0)
        for c, image in terms:
            s = c * (den // image._den)
            out[: len(image._num)] = [o + s * v for o, v in zip(out, image._num)]
        return Polynomial._rows(out, den * p._den) if p.mode is Mode.EXACT else Polynomial._of(out, p.mode)

    def matrix(self) -> list[list]:
        """Dense monomial-basis matrix; entry [i][j] is the x^i coefficient of D x^j."""
        size = len(self.images)
        return [[self.images[j].coeff(i) for j in range(size)] for i in range(size)]


def reconstruct_diagonalizer(op: TDOperator, n_max: int) -> ReconstructedOperator:
    """Build D by D x^n = L x^(n-1) - x D x^(n-1) and D 1 = 0.

    The recurrence is D X + X D = L applied to x^(n-1); unrolled, it is the
    alternating sum D x^n = sum_{k<n} (-1)^k x^k L x^(n-1-k).  Each image
    costs O(n) scalar work: x D x^(n-1) is a shift of the previous image
    and L x^(n-1) has four monomial bands.  (D X + X D) p = L p holds for
    every polynomial p of degree < n_max (exactly in EXACT mode).  In EXACT
    mode the recurrence runs on integer rows over the one denominator E of
    the bands (``TDOperator._bands``), fixed per operator, and every image
    is that row over E, reduced by ``Polynomial._rows``; in FLOAT mode
    E = 1.
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    mode = op.mode
    bands, E, error = op._bands(n_max)
    if error is not None:
        raise error
    zero = 0 if mode is Mode.EXACT else 0.0
    images = [Polynomial._of((), mode)]
    prev = [zero]  # D x^(n-1): its numerators over E
    for n, band in enumerate(bands, 1):
        cur = [zero] + [zero - c for c in prev]  # zero - c: no float -0.0
        for p, v in enumerate(band, n - 3):
            if p >= 0:
                cur[p] += v
        images.append(Polynomial._rows(cur, E) if mode is Mode.EXACT else Polynomial._of(cur, mode))
        prev = cur
    return ReconstructedOperator(tuple(images))


@dataclass(frozen=True)
class WeightSpec:
    """Partial-fraction data for the logarithmic derivative of a symmetry weight.

    (ln w)' = poly_part + sum_j residue_j / (x - pole_j), with all poles
    simple.  ``interval`` bounds where the weight is evaluated.
    """

    poles: tuple[tuple[object, object], ...]
    poly_part: Polynomial
    interval: tuple[float, float]
    mode: Mode


def _rational_roots(p: Polynomial) -> list[Fraction]:
    """All roots of an exact polynomial, required to be rational and simple.

    A root 0 comes first.  Every other root a/b in lowest terms has a
    dividing the constant and b the leading coefficient of p with its
    denominators cleared, so the candidates +-a/b are tried in increasing
    (a, b), and each root found is divided out before the next search.

    Raises MultiplePoleError on repeated roots and ValidationError when the
    polynomial does not split over the rationals.
    """

    def divisors(v: int) -> list[int]:
        v = abs(v)
        out = [d for d in range(1, int(math.isqrt(v)) + 1) if v % d == 0]
        return sorted(set(out + [v // d for d in out]))

    roots: list[Fraction] = []
    while p.degree >= 1:
        c = p.coeffs
        if c[0] == 0:
            if c[1] == 0:
                raise MultiplePoleError("repeated root at 0")
            found = Fraction(0)
        else:
            lcm = math.lcm(*(v.denominator for v in c))
            tops, bottoms = divisors(int(c[0] * lcm)), divisors(int(c[-1] * lcm))
            candidates = (Fraction(sign * a, b) for a in tops for b in bottoms for sign in (1, -1))
            found = next((x for x in candidates if p(x) == 0), None)
        if found is None:
            raise ValidationError(
                "leading polynomial has irrational roots; use FLOAT mode for the weight"
            )
        if found in roots:
            raise MultiplePoleError(f"repeated root {found}")
        roots.append(found)
        p, _ = divmod(p, Polynomial((-found, 1)))
    return roots


def _float_roots(p: Polynomial) -> list[float]:
    rts = np.roots(list(reversed([float(c) for c in p.coeffs])))
    if np.any(np.abs(rts.imag) > 1e-9 * (1 + np.abs(rts.real))):
        raise ValidationError("complex roots of the leading polynomial are unsupported here")
    roots = sorted(float(r) for r in rts.real)
    scale = max(1.0, max((abs(r) for r in roots), default=0.0))
    for i in range(len(roots) - 1):
        if abs(roots[i + 1] - roots[i]) <= 1e-9 * scale:
            raise MultiplePoleError(f"repeated root near {roots[i]}")
    return roots


def _check_derivative_pair(op: TDOperator) -> None:
    depth = max(op.A.degree, op.B.degree, 3) + 2
    for k in range(depth):
        if op.S.coefficient(k) != k or op.T.coefficient(k) != k * (k - 1):
            raise ValidationError("weight ODE applies to S = d/dx, T = d^2/dx^2 only")


def weight_log_derivative(op: TDOperator, interval: tuple[float, float] | None = None) -> WeightSpec:
    """Partial-fraction decomposition of (B - A')/A, the weight log-derivative.

    Requires S = d/dx, T = d^2/dx^2 and simple roots of A.  If the numerator
    degree reaches deg(A), the polynomial part is split off first.  The
    default interval lies between the two largest real poles when at least
    two exist, above the pole otherwise, and is the whole line for A' = B.
    """
    _check_derivative_pair(op)
    numer = op.B - op.A.derivative()
    if op.A.is_zero():
        raise ValidationError("leading coefficient A is zero")
    if numer.degree >= op.A.degree:
        poly_part, rem = divmod(numer, op.A)
    else:
        poly_part, rem = Polynomial.zero(op.mode), numer
    mode = op.mode
    roots = _rational_roots(op.A) if mode is Mode.EXACT else _float_roots(op.A)
    a_prime = op.A.derivative()
    poles = tuple((rho, rem(rho) / a_prime(rho)) for rho in roots)
    if interval is None:
        floats = sorted(float(r) for r in roots)
        if len(floats) >= 2:
            interval = (floats[-2], floats[-1])
        elif len(floats) == 1:
            interval = (floats[0], math.inf)
        else:
            interval = (-math.inf, math.inf)
    if not interval[0] < interval[1]:
        raise ValidationError("interval must satisfy lo < hi")
    return WeightSpec(poles=poles, poly_part=poly_part, interval=interval, mode=mode)


def _normalization_point(interval: tuple[float, float]) -> float:
    lo, hi = interval
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 0.0


def eval_weight(ws: WeightSpec, x) -> float:
    """Weight value w(x) = prod |x - pole_j|^residue_j * exp(int poly_part),
    normalized to 1 at the interval's reference point.

    Raises:
        ValidationError: if x is outside the open interval or at a pole.
    """
    xf = float(x)
    lo, hi = ws.interval
    if not lo < xf < hi:
        raise ValidationError(f"{xf} outside the open interval ({lo}, {hi})")

    anti = Polynomial(
        [0.0] + [float(c) / (k + 1) for k, c in enumerate(ws.poly_part.coeffs)], Mode.FLOAT
    )

    def logw(t: float) -> float:
        acc = anti(t)
        for rho, res in ws.poles:
            gap = t - float(rho)
            if gap == 0.0:
                raise ValidationError(f"evaluation at pole {rho}")
            acc += float(res) * math.log(abs(gap))
        return acc

    return math.exp(logw(xf) - logw(_normalization_point(ws.interval)))
