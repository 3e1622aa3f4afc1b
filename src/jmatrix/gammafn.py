"""Log-gamma via the Lanczos approximation.

Uses the widely published g = 7, n = 9 coefficient set.  Arguments are
shifted by the recurrence log Gamma(z) = log Gamma(z + 2) - log z - log(z + 1)
before applying the series, which keeps the real part comfortably inside the
approximation's sweet spot for the arguments this package produces
(Re z >= 0, including the purely imaginary case).  ``loggamma`` takes complex
scalars or numpy arrays; ``log_abs_gamma`` gives its real part on a line
a + i y, in real arithmetic.  Relative accuracy is around 1e-13 on the tested
domain.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["loggamma", "log_abs_gamma", "gammaln_real"]

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.9189385332046727
_PARTIAL_COEFFS = np.array(_LANCZOS_COEFFS[1:])
# Once |y| or a shift d_k passes this, the partial fractions are below 1e-97,
# far under an ulp of the leading coefficient c_0 ~ 1: evaluating them at the
# clipped values changes no bit, and y^2, d_k^2 cannot overflow.
_SERIES_CLIP = 1e100


def _lanczos_core(z):
    # Valid for Re(z) >= ~1; callers pre-shift.
    w = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        series = series + _LANCZOS_COEFFS[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(series)


def loggamma(z):
    """Principal log Gamma(z) for Re(z) >= 0 (z not a nonpositive real).

    Works elementwise on numpy arrays.  Only the two-step shifted Lanczos
    series is used, so no reflection branch cuts come into play on the
    supported domain.
    """
    z = np.asarray(z, dtype=complex)
    if np.any((z.real < 0) & (z.imag == 0)):
        raise ValueError("loggamma: nonpositive real arguments are outside the supported domain")
    if np.any(z == 0):
        raise ValueError("loggamma: pole at z = 0")
    out = _lanczos_core(z + 2.0) - np.log(z) - np.log(z + 1.0)
    return out if out.shape else complex(out)


def log_abs_gamma(a):
    """The function y -> log|Gamma(a + i y)| = Re loggamma(a + i y), for real a > 0.

    It takes a real y, or a numpy array of them elementwise (a scalar y gives
    a float).  The a-dependent constants are formed here, once; a caller that
    evaluates many y for one a builds the function once and calls it.

    It runs the same shifted series as ``loggamma``, with w = a + 1 + i y, in
    real arithmetic.  The eight partial fractions c_k / (d_k + i y),
    d_k = a + 1 + k, are one broadcast over an (n, 8) array: their real parts
    sum c_k d_k / (d_k^2 + y^2), their imaginary parts -y c_k / (d_k^2 + y^2).
    With t = w + g + 1/2, Re[(w + 1/2) log t] = (a + 3/2) log|t| - y arg t,
    and the logs of the moduli |z|, |z + 1|, |t| are one (n, 3) broadcast of
    ``hypot``.  Every sum runs along a last axis of fixed length (8 or 3), so
    a point's value does not depend on how many points come with it (a
    matrix product's could).  Nothing overflows until y arg t does, at |y| of
    about 1.1e308, or (a + 3/2) log|t| does, at a of about 2.5e305: there
    log|Gamma| itself leaves the double range.

    Raises:
        ValueError: if a is not positive and finite.
    """
    a = float(a)
    if not 0 < a < math.inf:
        raise ValueError("log_abs_gamma requires a positive finite a")
    d = np.minimum(a + 1.0 + np.arange(1.0, 9.0), _SERIES_CLIP)
    d2 = d * d
    shifts = np.array([a, a + 1.0, a + 8.5])  # |z|, |z + 1|, |t| = hypot(shift, y)
    powers = np.array([-1.0, -1.0, a + 1.5])
    const = _HALF_LOG_TWO_PI - (a + 8.5)
    add = np.add.reduce

    def log_abs(y):
        y = np.asarray(y, dtype=float)
        col = y[..., None]
        s = np.minimum(np.abs(col), _SERIES_CLIP)
        q = _PARTIAL_COEFFS / (d2 + s * s)
        series = np.hypot(_LANCZOS_COEFFS[0] + add(d * q, -1), s[..., 0] * add(q, -1))
        out = (const + add(np.log(np.hypot(shifts, col)) * powers, -1) + np.log(series)
               - y * np.arctan2(y, a + 8.5))
        return out if out.shape else float(out)

    return log_abs


def gammaln_real(x):
    """log Gamma(x) for real x > 0 (elementwise on arrays)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("gammaln_real requires x > 0")
    out = np.real(_lanczos_core(x + 2.0)) - np.log(x) - np.log(x + 1.0)
    return out if out.shape else float(out)
