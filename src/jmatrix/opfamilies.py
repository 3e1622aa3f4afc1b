"""Registry of the classical polynomial families used by the pipelines.

Covers the second-order-ODE families (Jacobi, Laguerre, Hermite, Bessel,
monomials, plus Chebyshev T as a convenience normalization), and the two
discrete/continuous hypergeometric families carrying the Morse operator's
spectral data (dual Hahn, continuous dual Hahn).

Normalizations follow the standard hypergeometric reference forms.  Every
recurrence and structure-relation constant is a closed form: Koekoek, Lesky
& Swarttouw, *Hypergeometric Orthogonal Polynomials and Their q-Analogues*
(2010), sections 9.3 (continuous dual Hahn), 9.6 (dual Hahn) and 9.13
(Bessel), and Szego (4.5.7) for the Jacobi structure relation.  The
recurrence is the one generator of every family's polynomials.  The tests
keep each family's hypergeometric series as the oracle: they hold every
constant to an exact linear solve against the series polynomials, and the
recurrence polynomials to the series themselves.  Each (family, mode) keeps
its polynomials in a tuple that a longer one replaces, never appended to,
so concurrent batches read whole tables.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError
from .gammafn import gammaln_real, log_abs_gamma
from .jacspec import JacobiOperator, _recurrence, _recurrence_log
from .polycore import Mode, Polynomial, read_token, residual_ratio, resolve_mode, scalar_mode, to_mode

__all__ = [
    "FamilyKind",
    "Family",
    "FamilyTruncationError",
    "FamilyOverflowError",
    "pochhammer",
    "family_polynomial",
    "recurrence_coeffs",
    "eval_family",
    "family_values",
    "eval_family_log",
    "bochner_ode",
    "bochner_residual",
    "asc_relation",
    "cdh_weight",
    "dual_hahn_value",
    "dual_hahn_weight",
    "dual_hahn_norm",
    "dual_hahn_argument",
    "weight_mass",
    "family_jacobi_operator",
]


class FamilyKind(Enum):
    JACOBI = "jacobi"
    LAGUERRE = "laguerre"
    HERMITE = "hermite"
    BESSEL = "bessel"
    MONOMIAL = "monomial"
    CHEBYSHEV_T = "chebyshev"
    DUAL_HAHN = "dualhahn"
    CONTINUOUS_DUAL_HAHN = "cdh"


_BOCHNER_KINDS = {
    FamilyKind.JACOBI,
    FamilyKind.LAGUERRE,
    FamilyKind.HERMITE,
    FamilyKind.BESSEL,
    FamilyKind.MONOMIAL,
    FamilyKind.CHEBYSHEV_T,
}


class FamilyTruncationError(ValidationError):
    """Requested index at or beyond a finite family's truncation point."""


class FamilyOverflowError(ValidationError, OverflowError):
    """A float family value beyond 1e300 (eval_family_log handles that regime)."""


def pochhammer(x, n: int):
    """Rising factorial x (x+1) ... (x+n-1); preserves exact scalar types."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    acc = x - x + 1 if not isinstance(x, numbers.Integral) else 1
    for i in range(n):
        acc = acc * (x + i)
    return acc


@dataclass(frozen=True)
class Family:
    """A named polynomial family with validated parameters."""

    kind: FamilyKind
    params: tuple

    def __post_init__(self):
        p = self.params
        k = self.kind
        if k is FamilyKind.JACOBI:
            if len(p) != 2 or p[0] <= -1 or p[1] <= -1:
                raise ValidationError("Jacobi needs alpha, beta > -1")
        elif k is FamilyKind.LAGUERRE:
            if len(p) != 1 or p[0] <= -1:
                raise ValidationError("Laguerre needs alpha > -1")
        elif k is FamilyKind.BESSEL:
            if len(p) != 2 or p[1] == 0:
                raise ValidationError("Bessel needs (a, b) with b != 0")
        elif k is FamilyKind.DUAL_HAHN:
            if len(p) != 3 or p[0] <= -1 or p[1] <= -1:
                raise ValidationError("dual Hahn needs gamma, delta > -1")
            if not isinstance(p[2], numbers.Integral) or p[2] < 1:
                raise ValidationError("dual Hahn needs a positive integer N")
        elif k is FamilyKind.CONTINUOUS_DUAL_HAHN:
            if len(p) != 3 or any(v <= 0 for v in p):
                raise ValidationError("continuous dual Hahn needs a, b, c > 0")
        elif p:
            raise ValidationError(f"{k.value} takes no parameters")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def jacobi(cls, alpha, beta):
        return cls(FamilyKind.JACOBI, (alpha, beta))

    @classmethod
    def laguerre(cls, alpha):
        return cls(FamilyKind.LAGUERRE, (alpha,))

    @classmethod
    def hermite(cls):
        return cls(FamilyKind.HERMITE, ())

    @classmethod
    def bessel(cls, a, b=2):
        return cls(FamilyKind.BESSEL, (a, b))

    @classmethod
    def monomial(cls):
        return cls(FamilyKind.MONOMIAL, ())

    @classmethod
    def chebyshev_t(cls):
        return cls(FamilyKind.CHEBYSHEV_T, ())

    @classmethod
    def dual_hahn(cls, gamma, delta, N):
        return cls(FamilyKind.DUAL_HAHN, (gamma, delta, N))

    @classmethod
    def continuous_dual_hahn(cls, a, b, c):
        return cls(FamilyKind.CONTINUOUS_DUAL_HAHN, (a, b, c))

    @classmethod
    def parse(cls, spec: str) -> "Family":
        """Parse a CLI family string, e.g. "jacobi:-0.5,-0.5" or "cdh:2.75,0.25,1.75"."""
        name, _, rest = spec.strip().partition(":")
        try:
            kind = FamilyKind(name.lower())
        except ValueError:
            raise ValidationError(f"unknown family {name!r}") from None
        params = tuple(read_token(tok) for tok in rest.split(",")) if rest else ()
        return cls(kind, params)

    def spec_string(self) -> str:
        if not self.params:
            return self.kind.value
        return self.kind.value + ":" + ",".join(str(p) for p in self.params)

    def params_exact(self) -> bool:
        return all(scalar_mode(p) is not Mode.FLOAT for p in self.params)

    def truncation(self) -> int | None:
        """Largest valid degree + 1, or None for an untruncated family."""
        if self.kind is FamilyKind.DUAL_HAHN:
            return int(self.params[2])
        return None

    # The recurrence of a Jacobi, Laguerre, Hermite or Chebyshev T family, set
    # up once per instance.  A cache keyed on the family would mix types:
    # Family(k, (2.25,)) and Family(k, (Fraction(9, 4),)) compare equal.
    @cached_property
    def _band(self):
        return _quadrature_band(self)


# Cache bound: a 35 s in-process loop of the CLI pipelines creates 82 or 83
# (family, mode) tables (seeds 1-3), so this holds three such runs.
_TABLE_CACHE_SIZE = 256


def family_polynomial(f: Family, n: int, mode: Mode | None = None) -> Polynomial:
    """Degree-n member of the family, as an explicit coefficient polynomial.

    Built by the three-term recurrence of ``recurrence_coeffs`` from
    phi_0 = 1.  For DUAL_HAHN the variable is the quadratic spectral argument
    lambda(x) = x (x + gamma + delta + 1); for CONTINUOUS_DUAL_HAHN it is
    z = x^2.  Exact mode requires rational parameters.

    Raises:
        ValidationError: in FLOAT mode, when a coefficient of phi_0 .. phi_n
            is not finite or the leading one underflows to 0; and for a
            Bessel family that degenerates at degree <= n.
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    mode = resolve_mode(mode, f.params_exact(), "rational family parameters")
    tr = f.truncation()
    if tr is not None and n > tr:
        raise FamilyTruncationError(f"{f.kind.value} truncates at degree {tr}")
    return _family_polynomial(f, n, mode)


# The resolved mode is an argument, so it is part of the cache key:
# Family(k, (2.25,)) and Family(k, (Fraction(9, 4),)) compare and hash equal.
@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _family_table(f: Family, mode: Mode) -> SimpleNamespace:
    """The family's table in the mode: ``polys`` = (phi_0, .., phi_d), d the
    highest degree read so far.  A reader that needs more extends a private
    copy and replaces the tuple whole, so concurrent readers see whole tables."""
    return SimpleNamespace(polys=(Polynomial.one(mode),))


def _family_polynomial(f: Family, n: int, mode: Mode) -> Polynomial:
    """phi_n, by phi_{m+1} = ((x - v_m) phi_m - w_m phi_{m-1}) / u_m on a copy of
    the table; a FLOAT phi_{m+1} of the wrong degree or not finite stops it."""
    table = _family_table(f, mode)
    polys = table.polys
    if n < len(polys):
        return polys[n]
    polys, uvw = list(polys), _typed_coeffs(f, mode)
    for m in range(len(polys) - 1, n):
        u, v, w = uvw(m)
        if mode is Mode.FLOAT and not u:  # a u_m that underflowed to 0
            break
        step = (Polynomial.x(mode) - Polynomial((v,), mode)) * polys[m]
        poly = (step - polys[m - 1] * w if m else step) * (1 / u)
        if mode is Mode.FLOAT and (poly.degree != m + 1 or not all(map(math.isfinite, poly.coeffs))):
            break
        polys.append(poly)
    if len(polys) > len(table.polys):  # every table is a prefix of the same sequence
        table.polys = tuple(polys)
    if len(polys) <= n:
        raise ValidationError(f"{f.kind.value.capitalize()} coefficients of {f.spec_string()} leave the float range")
    return polys[n]


def _check_bessel(f: Family, n: int) -> None:
    """Raise unless the Bessel y_0 .. y_{n+1} all keep their degree.

    The leading coefficient of y_k vanishes for an integer a in [2-2k, 1-k],
    so one of them degenerates exactly when a is an integer in [-2n, 0];
    the first degree lost is then floor((3-a)/2).
    """
    a = f.params[0]
    if a == math.floor(a) and -2 * n <= a <= 0:
        lost = (3 - int(a)) // 2
        raise ValidationError(f"bessel{f.params} degenerates at degree {lost} (leading coefficient vanished)")


_QUADRATURE_KINDS = (FamilyKind.JACOBI, FamilyKind.LAGUERRE, FamilyKind.HERMITE, FamilyKind.CHEBYSHEV_T)

# Band ratios: index n -> (u_num, u_den, v_num, v_den, w_num, w_den), the
# recurrence coefficients u_n = u_num / u_den, .. of the family; w_0 is 0 and
# every denominator is positive.  Parameters enter as numerators A, B over a
# common denominator D.


def _hermite_ratios(n):
    return (1, 2, 0, 1, n, 1)


def _chebyshev_ratios(n):
    return (1, 2, 0, 1, 1, 2) if n else (1, 1, 0, 1, 0, 1)


def _laguerre_ratios(D, A, n):
    return (-(n + 1), 1, 2 * n * D + A + D, D, -(n * D + A) if n else 0, D)


def _jacobi_ratios(D, A, B, n):
    if n == 0:
        return (2 * D, A + B + 2 * D, B - A, A + B + 2 * D, 0, 1)
    S = 2 * n * D + A + B  # D (2n + alpha + beta)
    return (
        2 * (n + 1) * (n * D + A + B + D) * D, (S + D) * (S + 2 * D),
        (B - A) * (B + A), S * (S + 2 * D),
        2 * (n * D + A) * (n * D + B), S * (S + D),
    )


# The parameter-free bands have one non-integer ratio, 1/2: it is built once,
# not on every recurrence_coeffs call.
_constant_ratio = cache(Fraction)


def _quadrature_band(f: Family):
    """(ratios, ratio, typed) of a Jacobi, Laguerre, Hermite or Chebyshev T
    family: its band ratios as a function of n, the division that makes a
    coefficient of a ratio (Fraction for exact parameters, else true
    division), and whether whole coefficients the parameters enter keep the
    parameters' type (Jacobi takes integer parameters as Fractions).

    Exact parameters are read once, as integer numerators over their least
    common denominator D, so an index costs a few integer products and forms
    no Fraction.  Float parameters stand for themselves with D = 1, which
    makes each ratio the float expression of the textbook formula bit for bit
    (a product with 1 and a division by 1 are exact).
    """
    k = f.kind
    if k is FamilyKind.HERMITE:
        return _hermite_ratios, _constant_ratio, False
    if k is FamilyKind.CHEBYSHEV_T:
        return _chebyshev_ratios, _constant_ratio, False
    if f.params_exact():  # ints and Fractions alike carry numerator and denominator
        D = math.lcm(*(int(p.denominator) for p in f.params))
        nums = [int(p.numerator) * (D // int(p.denominator)) for p in f.params]
        ratio = Fraction
    else:
        D, nums, ratio = 1, [float(p) for p in f.params], operator.truediv
    typed = k is FamilyKind.JACOBI or not isinstance(f.params[0], numbers.Integral)
    return partial(_laguerre_ratios if k is FamilyKind.LAGUERRE else _jacobi_ratios, D, *nums), ratio, typed


def recurrence_coeffs(f: Family, n: int):
    """Coefficients (u_n, v_n, w_n) with x phi_n = u phi_{n+1} + v phi_n + w phi_{n-1}.

    The multiplication variable is the family's natural argument (lambda(x)
    for DUAL_HAHN, x^2 for CONTINUOUS_DUAL_HAHN).  Exact-parameter families
    yield exact scalars.  w_0 is 0 by convention.

    Raises:
        FamilyTruncationError: at n = N for dual Hahn (u_N vanishes there).
        ValidationError: for a Bessel family one of whose y_0 .. y_{n+1}
            loses its degree.
    """
    if n < 0:
        raise ValidationError("index must be nonnegative")
    tr = f.truncation()
    if tr is not None and n >= tr:
        raise FamilyTruncationError(f"{f.kind.value} recurrence stops before n = {tr}")
    k = f.kind
    if k in _QUADRATURE_KINDS:
        ratios, ratio, typed = f._band
        nu, du, nv, dv, nw, dw = ratios(n)
        u = ratio(nu, du) if du != 1 or k is FamilyKind.JACOBI else nu
        v = ratio(nv, dv) if dv != 1 or typed else nv
        return (u, v, ratio(nw, dw) if n and (dw != 1 or typed) else nw)
    if k is FamilyKind.MONOMIAL:
        return (1, 0, 0)
    mode = resolve_mode(None, f.params_exact())
    p = tuple(to_mode(v, mode) for v in f.params)  # int / int would be a float
    if k is FamilyKind.BESSEL:
        _check_bessel(f, n)
        a, b = p
        if n == 0:
            return (b / a, -b / a, 0)
        u = b * (n + a - 1) / ((2 * n + a - 1) * (2 * n + a))
        v = b * (2 - a) / ((2 * n + a - 2) * (2 * n + a))
        w = -b * n / ((2 * n + a - 2) * (2 * n + a - 1))
        return (u, v, w)
    if k is FamilyKind.DUAL_HAHN:
        g, d, N = p
        A = (n + g + 1) * (n - N)
        C = n * (n - d - N - 1)
        return (A, -(A + C), C if n else 0)
    # continuous dual Hahn
    a, b, c = p
    A = (n + a + b) * (n + a + c)
    C = n * (n + b + c - 1)
    return (to_mode(-1, mode), A + C - a * a, -C * (n - 1 + a + b) * (n - 1 + a + c) if n else 0)


def _typed_coeffs(f: Family, mode: Mode):
    """recurrence_coeffs of the family, each coefficient typed for the mode."""
    return lambda n: tuple(to_mode(c, mode) for c in recurrence_coeffs(f, n))


def eval_family(f: Family, n: int, x):
    """phi_n(x) by forward three-term recurrence from phi_0, phi_1.

    Exact when both x and the family parameters are exact; an exact x with
    float parameters is a ValidationError.  FamilyOverflowError (a
    ValidationError and an OverflowError) is raised if intermediate values
    exceed 1e300; use eval_family_log in that regime.
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    tr = f.truncation()
    if tr is not None and n > tr:
        raise FamilyTruncationError(f"{f.kind.value} truncates at degree {tr}")
    mode = resolve_mode(scalar_mode(x), f.params_exact(), "rational family parameters")
    values = _recurrence(_typed_coeffs(f, mode), to_mode(x, mode), n)
    if mode is Mode.FLOAT and any(abs(v) > 1e300 for v in values):
        raise FamilyOverflowError(f"{f.kind.value} value at degree <= {n} exceeds 1e300; use eval_family_log")
    return values[-1]


def family_values(f: Family, n: int, x, each=None) -> list:
    """phi_0(x) .. phi_n(x) from one forward recurrence.

    The values, and the error if one is raised, are those of
    ``eval_family(f, m, x)`` for m = 0, 1, .., n in turn: a FLOAT value
    beyond 1e300 is a FamilyOverflowError naming the first degree that
    exceeds it, an error of the recurrence coefficients at index m comes
    only once degrees 0 .. m have passed, and a truncating family fails at
    the first degree past its truncation.  ``each(m, value)``, if given, is
    called on every value as the pass computes it, so that a ValidationError
    it raises stops the pass at that degree.
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    tr = f.truncation()
    mode = resolve_mode(scalar_mode(x), f.params_exact(), "rational family parameters")
    coeffs, x = _typed_coeffs(f, mode), to_mode(x, mode)

    def check(m, value):
        if each is not None:
            each(m, value)
        if mode is Mode.FLOAT and abs(value) > 1e300:
            raise FamilyOverflowError(f"{f.kind.value} value at degree <= {m} exceeds 1e300; use eval_family_log")

    values = _recurrence(coeffs, x, n if tr is None else min(n, tr), check)
    if tr is not None and n > tr:
        raise FamilyTruncationError(f"{f.kind.value} truncates at degree {tr}")
    return values


def eval_family_log(f: Family, n: int, x) -> tuple[float, float]:
    """(sign, log|phi_n(x)|) via a rescaled recurrence; safe for large values."""
    return _recurrence_log(_typed_coeffs(f, Mode.FLOAT), float(x), n)[-1]


def bochner_ode(f: Family, mode: Mode | None = None):
    """The family's second-order data (A, B, lambda_n) with A y'' + B y' + lambda_n y = 0.

    The monomial family uses the canonical representative A = x^2, B = x
    (shared zero), giving lambda_n = -n^2.
    """
    if f.kind not in _BOCHNER_KINDS:
        raise ValidationError(f"{f.kind.value} is not one of the second-order ODE families")
    mode = resolve_mode(mode, f.params_exact(), "rational family parameters")
    one = to_mode(1, mode)
    k = f.kind
    if k is FamilyKind.JACOBI:
        alpha, beta = (to_mode(v, mode) for v in f.params)
        A = Polynomial((one, 0, -one), mode)
        B = Polynomial((beta - alpha, -(alpha + beta + 2 * one)), mode)
        return A, B, lambda n: n * (n + alpha + beta + 1)
    if k is FamilyKind.CHEBYSHEV_T:
        A = Polynomial((one, 0, -one), mode)
        B = Polynomial((0, -one), mode)
        return A, B, lambda n: to_mode(n * n, mode)
    if k is FamilyKind.LAGUERRE:
        alpha = to_mode(f.params[0], mode)
        return Polynomial((0, one), mode), Polynomial((alpha + 1, -one), mode), lambda n: to_mode(n, mode)
    if k is FamilyKind.HERMITE:
        return Polynomial((one,), mode), Polynomial((0, -2 * one), mode), lambda n: to_mode(2 * n, mode)
    if k is FamilyKind.BESSEL:
        a, b = (to_mode(v, mode) for v in f.params)
        return Polynomial((0, 0, one), mode), Polynomial((b, a), mode), lambda n: -n * (n + a - 1)
    # monomials
    return Polynomial((0, 0, one), mode), Polynomial((0, one), mode), lambda n: to_mode(-n * n, mode)


def bochner_residual(f: Family, n: int, samples):
    """Max over the samples s of |A phi_n'' + B phi_n' + lambda_n phi_n|(s) over
    its rounding scale, the sum of |c_j| |s|^j over the coefficients of the terms.

    The derivatives come from the recurrence-generated coefficient
    polynomial, so the residual is exact in EXACT mode.  In FLOAT mode the
    terms are first scaled by the power of two that brings their largest
    coefficient into [1/2, 1): the ratio is unchanged, and a scale near the
    float maximum no longer overflows.  It is NaN where a term coefficient,
    or the residual or scale at a sample, still leaves the float range.
    """
    modes = {scalar_mode(s) for s in samples}
    mode = resolve_mode(None, Mode.FLOAT not in modes and f.params_exact())
    A, B, lam = bochner_ode(f, mode)
    phi = family_polynomial(f, n, mode)
    terms = (A * phi.derivative().derivative(), B * phi.derivative(), phi * lam(n))
    if mode is Mode.FLOAT:
        top = max((abs(c) for t in terms for c in t.coeffs), default=0.0)
        unit = math.ldexp(1.0, -math.frexp(top)[1])  # 1.0 for a top of 0, inf or NaN
        terms = tuple(t * unit for t in terms)
    residual = terms[0] + terms[1] + terms[2]
    scale = sum((Polynomial([abs(c) for c in t.coeffs], mode) for t in terms), Polynomial.zero(mode))
    samples = [to_mode(s, mode) for s in samples]
    return residual_ratio((residual(s) for s in samples), (scale(abs(s)) for s in samples))


def asc_relation(f: Family, n: int):
    """Structure relation G(x) phi_n' = A_n phi_{n+1} + B_n phi_n + C_n phi_{n-1}.

    Returns (G, A_n, B_n, C_n), in closed form for every family: G = 1 - x^2
    for Jacobi (Szego (4.5.7)), x^2 for Bessel, x for Laguerre and
    monomials, 1 for Hermite.  C_0 is 0 by convention.
    """
    k = f.kind
    if k not in _BOCHNER_KINDS or k is FamilyKind.CHEBYSHEV_T:
        raise ValidationError("structure relation provided for Jacobi/Laguerre/Hermite/Bessel/monomials")
    mode = resolve_mode(None, f.params_exact())
    one = to_mode(1, mode)
    if k is FamilyKind.HERMITE:
        return Polynomial((one,), mode), 0, 0, 2 * n
    if k is FamilyKind.LAGUERRE:
        alpha = f.params[0]
        return Polynomial((0, one), mode), 0, n, -(n + alpha) if n else 0
    if k is FamilyKind.MONOMIAL:
        return Polynomial((0, one), mode), 0, n, 0
    if k is FamilyKind.BESSEL:
        _check_bessel(f, n)
        G = Polynomial((0, 0, one), mode)
    else:  # Jacobi
        G = Polynomial((one, 0, -one), mode)
    if n == 0:
        return G, to_mode(0, mode), to_mode(0, mode), 0
    p = tuple(to_mode(v, mode) for v in f.params)
    if k is FamilyKind.BESSEL:
        a, b = p
        u, v, w = recurrence_coeffs(f, n)
        q = n * b / (2 * n + a - 2)
        return G, n * u, n * v - q, n * w + q
    alpha, beta = p
    s = 2 * n + alpha + beta
    t = n + alpha + beta + 1
    A = -2 * n * (n + 1) * t / ((s + 1) * (s + 2))
    B = 2 * n * (alpha - beta) * t / (s * (s + 2))
    C = 2 * (n + alpha) * (n + beta) * t / (s * (s + 1))
    return G, A, B, C


def cdh_weight(b, N: int, gamma):
    """Orthonormality weight for the continuous dual Hahn data (b+1/2, N-b+1/2, b-N+1/2).

    w(gamma) = |Gamma(b+1/2+ig) Gamma(N-b+1/2+ig) Gamma(b-N+1/2+ig) / Gamma(2ig)|^2
               / (2 pi N! Gamma(2b-N+1)).
    The second and third parameters sum to 1, so the reflection formula
    (DLMF 5.5.3) and |Gamma(2ig)|^2 = pi / (2g sinh(2 pi g)) (DLMF 5.4.3)
    leave one log-gamma modulus:
    w = |Gamma(b+1/2+ig)|^2 4 pi g (1 - t^2) / (4 t sin^2(pi a2) + (1 - t)^2)
        / (2 pi N! Gamma(2b-N+1)),  t = exp(-2 pi g).
    Vectorized over numpy arrays of gamma.  This is ``_cdh_weight(b, N)(gamma)``;
    a caller that evaluates the weight many times for one (b, N) builds that
    function once and calls it.

    Raises:
        ValidationError: if gamma is not positive and finite, or b <= N - 1/2.
    """
    return _cdh_weight(b, N)(gamma)


# cdh_weight reads a larger gamma as this one, where every weight is 0.0
_FAR_TAIL = 1e300


def _cdh_weight(b, N: int):
    """The function gamma -> cdh_weight(b, N, gamma), its constants computed once.

    b is checked, and the normalization log(2 pi N! Gamma(2b-N+1)),
    sin^2(pi a2) and the constants of ``gammafn.log_abs_gamma(b + 1/2)`` are
    formed here.  Each call makes one real-arithmetic pass of that kernel over
    the nodes: log|Gamma(b + 1/2 + i gamma)|, one broadcast Lanczos sum.
    1 - t comes from ``expm1``, and t = exp(-2 pi g) <= 1 only multiplies, so
    nothing overflows at large gamma (the sinh form does past g of about 113).
    A gamma past 1e300 is read as 1e300: every weight has underflowed to 0
    long before, and 4 pi g and 2 log|Gamma| stay finite up to the largest
    double.  sin^2(pi a2) = sin^2(pi a3) is taken at the distance of a3 to
    its nearest integer, which keeps it accurate for b near a half-integer.
    """
    bf = float(b)
    if bf <= N - 0.5:
        raise ValidationError("requires b > N - 1/2")
    a1, a3 = bf + 0.5, bf - N + 0.5
    sin2 = math.sin(math.pi * (a3 - round(a3))) ** 2
    log_norm = math.log(2 * math.pi) + gammaln_real(N + 1.0) + gammaln_real(2 * bf - N + 1.0)
    log_abs_gamma_a1 = log_abs_gamma(a1)

    def weight(gamma):
        g = np.asarray(gamma, dtype=float)
        if not np.all((g > 0) & np.isfinite(g)):
            raise ValidationError("gamma must be positive" if np.any(g <= 0) else "gamma must be finite")
        # array loops for a scalar too, so it is the one-point array bit for bit
        x = np.minimum(g.reshape(-1), _FAR_TAIL)
        one_minus_t = -np.expm1(-2 * math.pi * x)
        ratio = 4 * math.pi * x * one_minus_t * (2 - one_minus_t) / (
            4 * sin2 * (1 - one_minus_t) + one_minus_t * one_minus_t
        )
        out = (np.exp(2 * log_abs_gamma_a1(x) - log_norm) * ratio).reshape(g.shape)
        return out if out.shape else float(out)

    return weight


def dual_hahn_argument(x, gamma, delta):
    """The quadratic spectral argument lambda(x) = x (x + gamma + delta + 1)."""
    return x * (x + gamma + delta + 1)


def dual_hahn_value(n: int, x: int, gamma, delta, N: int):
    """R_n(lambda(x)) for the dual Hahn family, by its three-term recurrence."""
    return eval_family(Family.dual_hahn(gamma, delta, N), n, dual_hahn_argument(x, gamma, delta))


def dual_hahn_weight(x: int, gamma, delta, N: int):
    """Discrete orthogonality weight at support point x in {0, ..., N}.

    Normalized so that sum_x w(x) R_m(lambda(x)) R_n(lambda(x)) equals
    delta_{mn} / (binom(gamma+n, n) binom(delta+N-n, N-n)).
    """
    if not 0 <= x <= N:
        raise ValidationError("support point outside {0, ..., N}")
    num = (
        (2 * x + gamma + delta + 1)
        * pochhammer(gamma + 1, x)
        * Fraction(math.factorial(N) ** 2, math.factorial(N - x))
    )
    den = pochhammer(x + gamma + delta + 1, N + 1) * pochhammer(delta + 1, x) * math.factorial(x)
    return num / den


def dual_hahn_norm(n: int, gamma, delta, N: int):
    """Squared norm n! (N-n)! / ((gamma+1)_n (delta+1)_{N-n}) of R_n."""
    num = Fraction(math.factorial(n) * math.factorial(N - n))  # int / int would be a float
    return num / (pochhammer(gamma + 1, n) * pochhammer(delta + 1, N - n))


def weight_mass(f: Family) -> float:
    """Total mass of the family's orthogonality weight (quadrature families only)."""
    k = f.kind
    if k is FamilyKind.CHEBYSHEV_T:
        return math.pi
    if k is FamilyKind.HERMITE:
        return math.sqrt(math.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        if k is FamilyKind.LAGUERRE:
            log_mass = gammaln_real(float(f.params[0]) + 1.0)
        elif k is FamilyKind.JACOBI:
            alpha, beta = (float(v) for v in f.params)
            log_mass = (
                (alpha + beta + 1) * math.log(2.0)
                + gammaln_real(alpha + 1)
                + gammaln_real(beta + 1)
                - gammaln_real(alpha + beta + 2)
            )
        else:
            raise ValidationError(f"{k.value} has no positive orthogonality weight here")
    try:
        mass = math.exp(log_mass)
    except OverflowError:
        mass = math.inf
    if not math.isfinite(mass):
        raise ValidationError(f"weight mass of {f.spec_string()} overflows a float")
    return mass


def family_jacobi_operator(f: Family):
    """Symmetric Jacobi operator (and total mass) for a positive-weight family.

    Off-diagonal entries a_n = sqrt(u_n w_{n+1}) from the family recurrence;
    diagonal b_n = v_n.  Feed this to the Gauss quadrature construction.
    For exact parameters each coefficient is one int true division, which is
    correctly rounded like ``float`` of the Fraction ``recurrence_coeffs``
    returns, so the entries are those floats bit for bit.
    """
    mass = weight_mass(f)
    ratios = cache(f._band[0])  # each index read once per operator

    def a(n: int) -> float:
        nu, du = ratios(n)[:2]
        nw, dw = ratios(n + 1)[4:]
        prod = nu / du * (nw / dw)
        if prod <= 0:
            raise ValidationError("recurrence product u_n * w_{n+1} not positive")
        return math.sqrt(prod)

    def b(n: int) -> float:
        _, _, nv, dv, _, _ = ratios(n)
        return nv / dv

    return JacobiOperator(a=a, b=b), mass
