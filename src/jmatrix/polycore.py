"""Polynomial arithmetic over exact rationals or doubles, plus degree-lowering operators.

Two scalar modes are supported and never mixed silently: EXACT uses
``fractions.Fraction`` (identities can be checked coefficient-exactly),
FLOAT uses IEEE doubles (spectra, quadrature).  Plain ints are accepted in
either mode.  An EXACT polynomial computes on a reduced row of integer
numerators over one positive denominator; its ``coeffs``, the reduced
Fractions, are built on their first read.  All values are immutable after
construction, so they can be shared freely across threads; the only
internal mutability is that first-read ``coeffs`` tuple and the memoized
coefficients of a degree-lowering operator, whose fills are idempotent.

The exact-or-float policy of every pipeline is three helpers: ``read_scalar``
reads a model input into its float value and, when it is rational, its exact
Fraction (rejecting what is not finite as a float); ``resolve_mode`` maps a
``mode`` argument to a Mode (None is EXACT when rational data exist, else
FLOAT; EXACT without them is a ValidationError); ``to_mode`` types one
constant for a mode.  ``read_token`` reads a coefficient or family parameter
through ``read_scalar`` and types it by its spelling.  ``residual_ratio`` is
the one rule by which every residual the package reports is measured: over
the scale that rounding alone can make of it.
"""

from __future__ import annotations

import math
import numbers
import re
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ValidationError

__all__ = [
    "Mode",
    "ModeError",
    "Polynomial",
    "DegreeLoweringOperator",
    "DegreeLoweringError",
    "scalar_mode",
    "coerce_scalar",
    "read_scalar",
    "read_token",
    "residual_ratio",
    "resolve_mode",
    "to_mode",
    "derivative_op",
    "second_derivative_op",
    "q_derivative_op",
    "compose",
    "parse_polynomial",
    "format_polynomial",
    "format_scalar",
]


class Mode(Enum):
    """Scalar arithmetic mode of a polynomial or operator."""

    EXACT = "exact"
    FLOAT = "float"


class ModeError(TypeError):
    """Exact and float values met in a single operation."""


def scalar_mode(value) -> Mode | None:
    """Classify a scalar: EXACT (Fraction), FLOAT (real), or None for ints.

    Ints are mode-neutral; they embed exactly in either mode.
    """
    if isinstance(value, Fraction):
        return Mode.EXACT
    if isinstance(value, numbers.Integral):
        return None
    if isinstance(value, numbers.Real):
        return Mode.FLOAT
    raise TypeError(f"unsupported scalar type {type(value).__name__!r}")


def coerce_scalar(value, mode: Mode):
    """Coerce ``value`` into ``mode``, raising ModeError on a genuine conflict."""
    m = scalar_mode(value)
    if m is None:
        return Fraction(value) if mode is Mode.EXACT else float(value)
    if m is not mode:
        raise ModeError(f"{m.value} scalar used in {mode.value} context")
    return value if mode is Mode.EXACT else float(value)


def format_scalar(value) -> str:
    """Render a scalar for CLI/JSON use: rationals as "p/q", floats via repr."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


# Decimal text with a larger exponent is rejected before Fraction expands it:
# Fraction("1e-1000000") alone takes a third of a second.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def read_scalar(value) -> tuple[float, Fraction | None]:
    """A model input as (float value, exact value or None).

    Fractions, ints and numeric text ("9/4", "2.25", "7") are rational and
    keep their exact value; a float keeps None.

    Raises:
        ValidationError: for text that is not a number, for text whose
            decimal exponent exceeds MAX_DECIMAL_EXPONENT in size, and for
            any value that is not finite as a float (NaN, +-inf, 10**400).
    """
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValidationError(f"{value!r} has a decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    try:
        exact = Fraction(value) if isinstance(value, (str, Fraction, numbers.Integral)) else None
        as_float = float(value if exact is None else exact)
    except (ValueError, ZeroDivisionError, OverflowError):  # "nan", "abc", "1/0", 10**400
        as_float = math.nan
    if not math.isfinite(as_float):
        raise ValidationError(f"{value!r} is not finite as a float (or not a number)")
    return as_float, exact


def read_token(token: str):
    """One text scalar, checked by ``read_scalar`` and typed by its spelling:
    "p/q" is a Fraction, an integer literal an int, anything else
    ``float(token)`` (so "-0.0" keeps its sign)."""
    try:
        exact = read_scalar(token)[1]
    except ValidationError as exc:
        raise ValidationError(f"scalar {exc}") from None
    if "/" in token:
        return exact
    try:
        return int(token)
    except ValueError:
        return float(token)


def residual_ratio(residuals, scales):
    """Max over the samples of |residual| over its rounding scale, the sum of
    the absolute values of the terms the residual is formed from.

    An exact zero residual reads 0 whatever its scale (a float scale may have
    overflowed).  A scale that is not finite, or a NaN ratio, makes the
    result NaN: a residual that cannot be formed is not one to skip.  The
    arithmetic is that of the values, so Fractions give an exact ratio.

    Raises:
        ValueError: for no samples.
    """
    worst = None
    for residual, scale in zip(residuals, scales, strict=True):
        ratio = abs(residual)
        if ratio:
            ratio = ratio / scale if scale < math.inf else math.nan
        if ratio != ratio:
            return math.nan
        if worst is None or ratio > worst:
            worst = ratio
    if worst is None:
        raise ValueError("a residual ratio needs at least one sample")
    return worst


def resolve_mode(mode: Mode | None, rational: bool, what: str = "rational data") -> Mode:
    """The mode a computation runs in: ``mode`` if given, else EXACT when
    ``rational`` data exist and FLOAT otherwise.

    Raises:
        ValidationError: EXACT asked for without rational data (``what``
            names the data in the message).
    """
    if mode is None:
        return Mode.EXACT if rational else Mode.FLOAT
    if mode is Mode.EXACT and not rational:
        raise ValidationError(f"exact mode needs {what}")
    return mode


def to_mode(value, mode: Mode):
    """``value`` as a constant of ``mode``: a Fraction in EXACT, a float in FLOAT."""
    if mode is Mode.EXACT:
        return Fraction(value)
    return float(value)


def _typed(values, mode: Mode | None, what: str) -> tuple[list, Mode]:
    """``values`` coerced to ``mode``, or to the one mode they carry when it
    is None (EXACT for ints only).  A ModeError names them as ``what``."""
    modes = {scalar_mode(v) for v in values}
    modes.discard(None)
    if len(modes) > 1:
        raise ModeError(f"mixed exact and float {what}")
    if mode is None:
        mode = modes.pop() if modes else Mode.EXACT
    elif modes and modes != {mode}:
        raise ModeError(f"{modes.pop().value} {what} with mode={mode.value}")
    return [coerce_scalar(v, mode) for v in values], mode


def _from_zero(cs):
    """Float ``cs`` as the sums they would be had they started at 0.0.

    0.0 + c is c except that -0.0 becomes 0.0.  FLOAT arithmetic whose sums
    skip the zero start passes them through this, so its results stay
    bit-identical to zero-started sums.
    """
    return [c + 0.0 for c in cs]


class Polynomial:
    """Dense univariate polynomial with ascending coefficients in one mode.

    The zero polynomial has no coefficients and degree -1.  Trailing zero
    coefficients are stripped on construction.

    An EXACT value is a row of integer numerators ``_num`` over one positive
    denominator ``_den``, reduced (gcd(_num, _den) = 1), so that equal
    values have equal rows.  Its arithmetic runs on the integers: one lcm
    or product for the denominator and one gcd over each result.
    ``coeffs``, the tuple of reduced Fractions, is built on its first read
    and then kept.  A FLOAT value keeps its float tuple as both ``_num`` and
    ``coeffs``, over ``_den`` = 1, and its arithmetic runs on the floats.
    """

    __slots__ = ("mode", "_num", "_den", "_coeffs")

    def __init__(self, coeffs: Sequence, mode: Mode | None = None):
        self._fill(*_typed(coeffs, mode, "coefficients"))

    @classmethod
    def _of(cls, coeffs: Sequence, mode: Mode) -> "Polynomial":
        """Trusted constructor for computed results: ``coeffs`` already hold
        scalars of ``mode`` only, so nothing is re-classified or coerced."""
        p = object.__new__(cls)
        p._fill(coeffs, mode)
        return p

    @classmethod
    def _rows(cls, num: Sequence[int], den: int) -> "Polynomial":
        """Trusted EXACT constructor: the polynomial num / den, for a row of
        ints and an int den > 0.  Strips the row and reduces it by one gcd."""
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        num = num[:n]
        g = math.gcd(*num, den)
        p = object.__new__(cls)
        _put(p, Mode.EXACT, tuple([v // g for v in num]) if g > 1 else tuple(num), den // g, None)
        return p

    def _fill(self, coeffs: Sequence, mode: Mode) -> None:
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        coeffs = tuple(coeffs[:n])
        if mode is Mode.FLOAT:
            _put(self, mode, coeffs, 1, coeffs)
            return
        # over the lcm of reduced denominators, row and den share no factor
        den = math.lcm(*[c.denominator for c in coeffs])
        _put(self, mode, tuple([c.numerator * (den // c.denominator) for c in coeffs]), den, coeffs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients, ascending: floats in FLOAT, reduced Fractions in
        EXACT (built from the row on the first read, then kept)."""
        c = self._coeffs
        if c is None:
            den = self._den
            c = tuple([Fraction(v, den) for v in self._num])
            _SET_COEFFS(self, c)
        return c

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, mode: Mode = Mode.EXACT) -> "Polynomial":
        return cls((), mode)

    @classmethod
    def one(cls, mode: Mode = Mode.EXACT) -> "Polynomial":
        return cls((1,), mode)

    @classmethod
    def x(cls, mode: Mode = Mode.EXACT) -> "Polynomial":
        return cls((0, 1), mode)

    @classmethod
    def monomial(cls, k: int, coefficient=1, mode: Mode = Mode.EXACT) -> "Polynomial":
        (c,), mode = _typed((coefficient,), mode, "coefficients")
        if mode is Mode.EXACT:
            return cls._rows((0,) * k + (c.numerator,), c.denominator)
        return cls._of((0.0,) * k + (c,), mode)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def coeff(self, k: int):
        """Coefficient of x^k (zero beyond the stored degree)."""
        if 0 <= k < len(self._num):
            c = self._coeffs
            return Fraction(self._num[k], self._den) if c is None else c[k]
        return to_mode(0, self.mode)

    def is_zero(self) -> bool:
        return not self._num

    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    def leading(self):
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self._num) - 1)

    def __call__(self, x):
        """Horner evaluation; exact in EXACT mode."""
        x = coerce_scalar(x, self.mode)
        acc = to_mode(0, self.mode)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.mode is not other.mode:
            raise ModeError("polynomial modes differ")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self._num, other._num
        if self.mode is Mode.EXACT:
            return _combine(a, self._den, b, other._den, 1)
        out = [x + y for x, y in zip(a, b)]
        out += _from_zero(a[len(b):] or b[len(a):])
        return Polynomial._of(out, self.mode)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self._num, other._num
        if self.mode is Mode.EXACT:
            return _combine(a, self._den, b, other._den, -1)
        out = [x - y for x, y in zip(a, b)]
        out += a[len(b):]  # c - 0 is c, signed zeros included
        out += _from_zero([-c for c in b[len(a):]])
        return Polynomial._of(out, self.mode)

    def __neg__(self) -> "Polynomial":
        if self.mode is Mode.EXACT:
            return Polynomial._rows([-c for c in self._num], self._den)
        return Polynomial._of([-c for c in self._num], self.mode)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            a, b = self._num, other._num
            if not a or not b:
                return Polynomial._of((), self.mode)
            if self.mode is Mode.EXACT:
                if len(a) > len(b):
                    a, b = b, a
                m = len(b)
                out = [0] * (len(a) + m - 1)
                for i, x in enumerate(a):
                    if x:
                        out[i : i + m] = [s + x * y for s, y in zip(out[i : i + m], b)]
                return Polynomial._rows(out, self._den * other._den)
            # out[i + j] sums a[i] * b[j] in increasing i; row 0 starts the
            # first len(b) sums, row i >= 1 starts slot i + len(b) - 1
            out = [a[0] * y for y in b]
            for i in range(1, len(a)):
                x = a[i]
                out[i:] = [s + x * y for s, y in zip(out[i:], b)] + [x * b[-1]]
            return Polynomial._of(_from_zero(out), self.mode)
        s = coerce_scalar(other, self.mode)
        if self.mode is Mode.EXACT:
            return Polynomial._rows([c * s.numerator for c in self._num], self._den * s.denominator)
        return Polynomial._of([c * s for c in self._num], self.mode)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial"):
        """Polynomial long division: self = q*other + r with deg r < deg other."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(self.mode), self
        quot = [to_mode(0, self.mode)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial._of(quot, self.mode), Polynomial._of(rem[: len(other.coeffs) - 1], self.mode)

    def shift_affine(self, a, b) -> "Polynomial":
        """Return q with q(y) = p(a*y + b); requires a != 0."""
        a = coerce_scalar(a, self.mode)
        b = coerce_scalar(b, self.mode)
        if a == 0:
            raise ValueError("affine substitution requires a != 0")
        inner = Polynomial((b, a), self.mode)
        acc = Polynomial.zero(self.mode)
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial((c,), self.mode)
        return acc

    def derivative(self) -> "Polynomial":
        out = [k * c for k, c in enumerate(self._num[1:], 1)]
        if self.mode is Mode.EXACT:
            return Polynomial._rows(out, self._den)
        return Polynomial._of(out, self.mode)

    def to_float(self) -> "Polynomial":
        if self.mode is Mode.FLOAT:
            return self
        den = self._den  # int / int rounds correctly, as float(Fraction) does
        return Polynomial._of([v / den for v in self._num], Mode.FLOAT)

    # -- comparisons / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.mode is other.mode
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self.mode, self._num, self._den))

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(format_scalar(c) for c in self.coeffs)}], {self.mode.value})"


# Rows, and the star-arguments of gcd and lcm, are built from lists, not
# generators: CPython resizes a tuple built from a generator, and such tuples
# pile up in its tuple free lists (over 1 MB of peak memory in a few thousand
# exact tridiagonalizations).
#
# The slot setters, which skip the immutability guard of __setattr__.
_SET_MODE, _SET_NUM, _SET_DEN, _SET_COEFFS = (getattr(Polynomial, n).__set__ for n in Polynomial.__slots__)


def _put(p: Polynomial, mode: Mode, num: tuple, den, coeffs: tuple | None) -> None:
    _SET_MODE(p, mode)
    _SET_NUM(p, num)
    _SET_DEN(p, den)
    _SET_COEFFS(p, coeffs)


def _combine(a: Sequence[int], da: int, b: Sequence[int], db: int, sign: int) -> Polynomial:
    """a / da + sign * b / db for EXACT rows, over the lcm of da and db."""
    den = da if da == db else math.lcm(da, db)
    sa, sb = den // da, sign * (den // db)
    out = [x * sa + y * sb for x, y in zip(a, b)]
    out += [x * sa for x in a[len(b):]] or [y * sb for y in b[len(a):]]
    return Polynomial._rows(out, den)


def parse_polynomial(text: str, mode: Mode | None = None) -> Polynomial:
    """Parse the CLI text format: comma-separated ascending coefficients.

    Rationals are written "p/q" (e.g. "0,0,0,1" is x^3; "1/2,-3" is 1/2 - 3x).
    The mode is inferred from the tokens unless given explicitly.
    """
    text = text.strip()
    if not text:
        return Polynomial.zero(mode or Mode.EXACT)
    values = [read_token(tok) for tok in text.split(",")]
    return Polynomial(values, mode)


def format_polynomial(p: Polynomial) -> str:
    """Inverse of parse_polynomial (empty string for the zero polynomial)."""
    return ",".join(format_scalar(c) for c in p.coeffs)


class DegreeLoweringError(ValueError):
    """A degree-lowering coefficient violates its nonvanishing contract."""


class DegreeLoweringOperator:
    """Linear operator with x^k mapped to d(k) * x^(k - shift).

    The generator ``d`` must vanish for k < shift and be nonzero for
    k >= shift; the latter is checked lazily as coefficients are requested.
    Each d(k) is typed once, when it is memoized: coerced to ``mode`` if the
    operator has one, else required to be an int (mode-neutral operators,
    such as d/dx and d^2/dx^2, act on either mode).  For EXACT polynomials
    the memo is also held as one integer row over one denominator, extended
    and rescaled as longer polynomials arrive.  Fills are idempotent and
    each replaces one attribute, so the memo is safe for concurrent reads.
    """

    __slots__ = ("shift", "label", "mode", "_d", "_cache", "_row")

    def __init__(self, shift: int, d: Callable[[int], object], label: str = "", mode: Mode | None = None):
        if shift < 1:
            raise ValueError("shift must be a positive integer")
        self.shift = int(shift)
        self.label = label
        self.mode = mode
        self._d = d
        self._cache: dict[int, object] = {}
        self._row: tuple[tuple[int, ...], int] = ((), 1)
        for k in range(self.shift):
            if d(k) != 0:
                raise DegreeLoweringError(f"{label or 'operator'}: d({k}) must be 0 below shift {shift}")

    def coefficient(self, k: int):
        """The monomial coefficient d(k), validated nonzero for k >= shift and
        typed for the operator's mode (ModeError where it cannot be)."""
        if k < self.shift:
            return 0
        try:
            return self._cache[k]
        except KeyError:
            value = self._d(k)
            if value == 0:
                raise DegreeLoweringError(f"{self.label or 'operator'}: d({k}) = 0 at k >= shift")
            if self.mode is not None:
                value = coerce_scalar(value, self.mode)
            elif not isinstance(value, numbers.Integral):
                raise ModeError(f"{self.label or 'operator'}: mode-neutral d({k}) = {value!r} is not an int")
            self._cache[k] = value
            return value

    def _integer_row(self, size: int) -> tuple[tuple[int, ...], int]:
        """(row, den) with d(k) = row[k] / den for k < ``size``; den is the
        lcm of the denominators of d(0) .. d(size - 1)."""
        row, den = self._row
        if len(row) < size:
            new = [self.coefficient(k) for k in range(len(row), size)]
            grown = math.lcm(den, *[v.denominator for v in new])
            if grown != den:
                row = tuple([v * (grown // den) for v in row])
            row += tuple([v.numerator * (grown // v.denominator) for v in new])
            den = grown
            self._row = (row, den)
        return row, den

    def apply(self, p: Polynomial) -> Polynomial:
        """Linear extension of the monomial action; lowers degree by ``shift``.

        On an EXACT polynomial it reads d(k) for every k up to deg p."""
        if self.mode is not None and self.mode is not p.mode:
            raise ModeError(f"{self.mode.value} operator applied to {p.mode.value} polynomial")
        shift, num = self.shift, p._num
        if p.mode is Mode.EXACT:
            row, den = self._integer_row(len(num))
            return Polynomial._rows([c * d for c, d in zip(num[shift:], row[shift:])], p._den * den)
        out = [c * self.coefficient(k) if c != 0 else 0.0 for k, c in enumerate(num[shift:], shift)]
        return Polynomial._of(_from_zero(out), p.mode)

    __call__ = apply

    def __repr__(self) -> str:
        return f"DegreeLoweringOperator(shift={self.shift}, label={self.label!r})"


def derivative_op() -> DegreeLoweringOperator:
    """d/dx as a degree-lowering operator (d_k = k); mode-neutral."""
    return DegreeLoweringOperator(1, lambda k: k, label="d/dx")


def second_derivative_op() -> DegreeLoweringOperator:
    """d^2/dx^2 (d_k = k(k-1)); mode-neutral."""
    return DegreeLoweringOperator(2, lambda k: k * (k - 1), label="d^2/dx^2")


def q_derivative_op(q) -> DegreeLoweringOperator:
    """The q-derivative, with d_k = (1 - q^k)/(1 - q).

    q must not be 0 or 1; roots of unity are caught lazily when the
    corresponding coefficient would vanish.
    """
    (q,), qmode = _typed((q,), None, "q")
    if q == 0 or q == 1:
        raise ValueError("q-derivative requires q not in {0, 1}")
    one = to_mode(1, qmode)

    def d(k: int):
        try:
            return (one - q**k) / (one - q)
        except OverflowError:  # a float q**k beyond the float range
            raise ValidationError(f"q-derivative coefficient d({k}) overflows for q = {q}") from None

    return DegreeLoweringOperator(1, d, label=f"D_q[q={q}]", mode=qmode)


def compose(outer: DegreeLoweringOperator, inner: DegreeLoweringOperator) -> DegreeLoweringOperator:
    """Operator composition outer(inner(.)), e.g. compose(S, S) for T = S^2."""
    if outer.mode is not None and inner.mode is not None and outer.mode is not inner.mode:
        raise ModeError("composed operators have conflicting modes")
    shift = outer.shift + inner.shift

    def d(k: int):
        if k < shift:
            return 0
        return inner.coefficient(k) * outer.coefficient(k - inner.shift)

    label = f"{outer.label or '?'} o {inner.label or '?'}"
    return DegreeLoweringOperator(shift, d, label=label, mode=outer.mode or inner.mode)
