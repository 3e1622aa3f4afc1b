"""Jacobi-operator analytics.

Invariant-block detection along the off-diagonal, eigenpairs of finite
blocks (LAPACK), an implicit-shift QL for the Gauss rules, forward
evaluation of the associated recurrence polynomials, Gauss quadrature by
the Golub-Welsch construction, adaptive integration helpers, and the
boundedness heuristic used as a self-adjointness diagnostic.

Every three-term recurrence in the package, x p_n = u_n p_{n+1} + v_n p_n
+ w_n p_{n-1}, runs through one kernel here: ``_recurrence`` for the
values (exact, float or numpy, since it uses only + - * /) and
``_recurrence_log`` for (sign, log|p_n|) pairs.  This module imports only
``errors``, so ``opfamilies`` and ``morse`` call the kernel without an
import cycle.

Operations here are pure over immutable inputs; distinct blocks may be
solved concurrently.  Sequence generators supplied to JacobiOperator must
be safe for concurrent evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, InternalConsistencyError, ValidationError

__all__ = [
    "JacobiOperator",
    "BlockDecomposition",
    "SpectrumResult",
    "QuadratureRule",
    "BoundednessReport",
    "split_blocks",
    "symmetric_tridiagonal_eig",
    "eig_block",
    "eval_pn",
    "eval_pn_scaled",
    "golub_welsch",
    "gauss_legendre_rule",
    "adaptive_integrate",
    "halfline_integrate",
    "berezanskii_test",
]

_EPS = float(np.finfo(float).eps)
_QL_SWEEPS_PER_ROW = 30


@dataclass(frozen=True)
class JacobiOperator:
    """Symmetric tridiagonal operator given by sequence generators.

    ``a(n)`` is the off-diagonal entry coupling indices n and n+1, ``b(n)``
    the diagonal entry.  ``length`` is None for an operator on the whole
    sequence space.
    """

    a: Callable[[int], float]
    b: Callable[[int], float]
    length: int | None = None

    @classmethod
    def from_sequences(cls, a_seq: Sequence, b_seq: Sequence) -> "JacobiOperator":
        a_t, b_t = tuple(a_seq), tuple(b_seq)
        if len(a_t) < len(b_t) - 1:
            raise ValidationError("need at least len(b)-1 off-diagonal entries")
        return cls(a=lambda n: a_t[n], b=lambda n: b_t[n], length=len(b_t))

    def a_at(self, n: int):
        if n < 0:
            return 0.0
        if self.length is not None and n >= self.length - 1:
            raise IndexError(f"off-diagonal index {n} beyond finite length {self.length}")
        return self.a(n)

    def b_at(self, n: int):
        if self.length is not None and not 0 <= n < self.length:
            raise IndexError(f"diagonal index {n} beyond finite length {self.length}")
        return self.b(n)


@dataclass(frozen=True)
class BlockDecomposition:
    """Invariant blocks delimited by zeros of the off-diagonal sequence.

    ``boundaries`` starts with the conventional -1; a boundary at n means
    a_n = 0, so indices (prev, n] form one invariant block.  Blocks are
    stored as half-open index ranges (start, stop).  ``tail_start`` is the
    first index of the remainder that the scan did not close off, or None.
    """

    boundaries: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]
    tail_start: int | None
    scan_to: int


@dataclass(frozen=True)
class SpectrumResult:
    """Eigendecomposition of one finite block.

    ``eigenvalues`` ascend strictly (simple spectrum); ``eigenvectors``
    holds orthonormal columns, rows indexed relative to the block start.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    block: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "block": [self.block[0], self.block[1]],
            "eigenvalues": self.eigenvalues.tolist(),
            "vectors": self.eigenvectors.T.tolist(),
        }


def _is_exact(v) -> bool:
    return isinstance(v, (Fraction, numbers.Integral))


def split_blocks(J: JacobiOperator, scan_to: int, tol: float = 1e-12) -> BlockDecomposition:
    """Locate off-diagonal zeros among a_0 .. a_{scan_to - 1}.

    A float entry counts as zero when |a_n| <= tol * max(1, |b_n|, |b_{n+1}|);
    exact (int/Fraction) entries must be exactly zero.  Splits coming from
    integer factors are therefore never created or destroyed by round-off.
    """
    if J.length is not None:
        scan_to = min(scan_to, J.length - 1)
    boundaries = [-1]
    for n in range(scan_to):
        a_n = J.a_at(n)
        if _is_exact(a_n):
            is_zero = a_n == 0
        else:
            scale = max(1.0, abs(float(J.b_at(n))), abs(float(J.b_at(n + 1))))
            is_zero = abs(a_n) <= tol * scale
        if is_zero:
            boundaries.append(n)
    blocks = [
        (boundaries[i - 1] + 1, boundaries[i] + 1) for i in range(1, len(boundaries))
    ]
    after_last = boundaries[-1] + 1
    has_tail = J.length is None or after_last < J.length
    return BlockDecomposition(
        boundaries=tuple(boundaries),
        blocks=tuple(blocks),
        tail_start=after_last if has_tail else None,
        scan_to=scan_to,
    )


def symmetric_tridiagonal_eig(diag: Sequence[float], off: Sequence[float]):
    """Eigenvalues and first eigenvector components of a symmetric tridiagonal matrix.

    Implicit-shift QL that rotates only the n first eigenvector components,
    held as Python floats: O(1) work per Givens rotation and O(n^2) in all.
    That is all a Gauss rule needs (Golub and Welsch, Math. Comp. 23, 1969),
    and unlike a dense solver it keeps the smallest weights accurate.

    Args:
        diag: diagonal entries, length n, finite.
        off: subdiagonal entries, length n - 1, finite.

    Returns:
        (w, first): ascending eigenvalues and the first components of the
        corresponding orthonormal eigenvectors.

    Raises:
        ValidationError: if ``off`` does not have length n - 1 or an entry
            is not finite.
        ConvergenceError: if the sweep budget (30 * n) is exhausted, which
            signals pathological input.  It carries the index being
            deflated (``index``), ``sweeps`` against ``budget``, and the
            off-diagonal magnitude |e[index]| that failed to vanish
            (``off_diagonal``).
    """
    n = len(diag)
    if n == 0:
        return np.empty(0), np.empty(0)
    if len(off) != n - 1:
        raise ValidationError(f"off-diagonal must have length n - 1 = {n - 1}, got {len(off)}")
    d = [float(v) for v in diag]
    e = [float(v) for v in off] + [0.0]
    if not all(map(math.isfinite, d + e)):
        raise ValidationError("diagonal and off-diagonal entries must be finite")
    Z = [1.0] + [0.0] * (n - 1)  # Z[j]: first component of eigenvector j
    budget = _QL_SWEEPS_PER_ROW * n
    sweeps = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if sweeps == budget:
                raise ConvergenceError(
                    f"QL iteration cap exceeded: {sweeps} of {budget} sweeps used, "
                    f"index {l} still has |e| = {abs(e[l]):.3e}",
                    index=l,
                    sweeps=sweeps,
                    budget=budget,
                    off_diagonal=abs(e[l]),
                )
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                bb = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                Z[i + 1], Z[i] = s * Z[i] + c * Z[i + 1], c * Z[i] - s * Z[i + 1]
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    order = np.argsort(d, kind="stable")
    return np.array(d)[order], np.array(Z)[order]


def eig_block(J: JacobiOperator, block: tuple[int, int]) -> SpectrumResult:
    """Full eigendecomposition of the symmetric tridiagonal block (start, stop).

    LAPACK (``numpy.linalg.eigh``) of the dense block; a non-finite entry is
    a ValidationError.  Asserted: strictly increasing eigenvalues (minimum
    gap above 1e-12 of the spectral scale) and orthonormal eigenvectors to
    1e-10.  Eigenvector signs are canonicalized so the largest-magnitude
    component of each column is positive.
    """
    start, stop = block
    dim = stop - start
    if dim <= 0:
        return SpectrumResult(np.empty(0), np.empty((0, 0)), block)
    rows = range(start, stop)
    T = np.diag([float(J.b_at(i)) for i in rows]) + np.diag([float(J.a_at(i)) for i in rows[:-1]], -1)
    if not np.isfinite(T).all():
        raise ValidationError("diagonal and off-diagonal entries must be finite")
    w, V = np.linalg.eigh(T)  # reads the lower triangle only
    scale = max(1.0, float(np.max(np.abs(w))))
    if dim > 1 and np.min(np.diff(w)) <= 1e-12 * scale:
        raise InternalConsistencyError("block spectrum not simple within tolerance")
    gram = V.T @ V - np.eye(dim)
    if np.max(np.abs(gram)) > 1e-10:
        raise InternalConsistencyError("eigenvector matrix failed orthonormality check")
    V[:, V[np.argmax(np.abs(V), axis=0), np.arange(dim)] < 0] *= -1.0
    return SpectrumResult(w, V, block)


def _sturm_count(diag: Sequence[float], off: Sequence[float], xs) -> np.ndarray:
    """Number of eigenvalues below each x of ``xs`` of the symmetric tridiagonal
    matrix with diagonal ``diag`` and off-diagonal ``off``.

    By Sylvester's law of inertia it is the number of negative pivots of the
    LDL^T factorization of J - x I, q_0 = d_0 - x and
    q_i = d_i - x - off_{i-1}^2 / q_{i-1}, formed for every x at once.  A
    pivot smaller in size than ``pivmin`` is replaced by -pivmin, as in
    Barth, Martin & Wilkinson, *Numer. Math.* 9 (1967), so no division is by
    zero and no pivot overflows.  It shares no code with LAPACK.
    """
    d = np.asarray(diag, dtype=float)
    e2 = np.square(np.asarray(off, dtype=float))
    xs = np.asarray(xs, dtype=float)
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2, initial=0.0)))
    count = np.zeros(xs.shape, dtype=int)
    q = np.inf  # so that the first pivot is d_0 - x
    for i in range(d.size):
        q = d[i] - xs - (e2[i - 1] if i else 0.0) / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0
    return count


def _recurrence(coeffs, x, n_max: int, each=None) -> list:
    """p_0(x) .. p_{n_max}(x) of x p_n = u_n p_{n+1} + v_n p_n + w_n p_{n-1}.

    ``coeffs(n)`` returns (u_n, v_n, w_n); p_{-1} = 0 and p_0 = x ** 0, the
    one of x's type, so Fractions, floats and numpy arrays pass through.
    ``each(n, p_n)``, if given, sees every value as it is computed.

    Raises:
        ValidationError: if some u_n with n < n_max vanishes.
    """
    prev, cur = 0, x ** 0
    values = [cur]
    if each is not None:
        each(0, cur)
    for n in range(n_max):
        u, v, w = coeffs(n)
        if u == 0:
            raise ValidationError(f"recurrence breaks at index {n}: u_{n} vanishes")
        prev, cur = cur, ((x - v) * cur - w * prev) / u
        values.append(cur)
        if each is not None:
            each(n + 1, cur)
    return values


def _recurrence_log(coeffs, x: float, n_max: int) -> list[tuple[float, float]]:
    """(sign, log|p_n(x)|) for n = 0 .. n_max, by the recurrence of ``_recurrence``.

    The two latest values are divided by their magnitude whenever it
    exceeds 1e120 and the logarithm of the divisor is carried, so large n
    cannot overflow.  A zero value gives (0.0, -inf).
    """
    prev, cur, shift = 0.0, 1.0, 0.0
    out = [(1.0, 0.0)]
    for n in range(n_max):
        u, v, w = coeffs(n)
        if u == 0:
            raise ValidationError(f"recurrence breaks at index {n}: u_{n} vanishes")
        nxt = ((x - v) * cur - w * prev) / u
        mag = max(abs(nxt), abs(cur))
        if mag > 1e120:
            nxt /= mag
            cur /= mag
            shift += math.log(mag)
        prev, cur = cur, nxt
        out.append((math.copysign(1.0, nxt), math.log(abs(nxt)) + shift) if nxt != 0.0 else (0.0, -math.inf))
    return out


def _jacobi_coeffs(J: JacobiOperator):
    """Kernel coefficients (a_n, b_n, a_{n-1}) of a symmetric Jacobi operator."""
    return lambda n: (float(J.a_at(n)), float(J.b_at(n)), float(J.a_at(n - 1)))


def eval_pn(J: JacobiOperator, z: float, n_max: int) -> list[float]:
    """Forward recurrence values p_0(z) .. p_{n_max}(z), p_0 = 1.

    Uses the symmetric form z p_n = a_n p_{n+1} + b_n p_n + a_{n-1} p_{n-1}.

    Raises:
        ValidationError: if an off-diagonal entry vanishes before n_max
            (the recurrence cannot be continued; the index is reported).
    """
    return _recurrence(_jacobi_coeffs(J), z, n_max)


def eval_pn_scaled(J: JacobiOperator, z: float, n_max: int) -> list[tuple[float, float]]:
    """Log-scaled recurrence values: (sign, log|p_n|) pairs, safe for large n."""
    return _recurrence_log(_jacobi_coeffs(J), z, n_max)


def _sample(f, xs: np.ndarray) -> np.ndarray:
    """f at the points xs, from one vectorised call; a ValidationError unless f(xs) has the shape of xs."""
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValidationError(f"integrand returned shape {vals.shape} for points of shape {xs.shape}")
    return vals


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights summing to total_mass."""

    nodes: np.ndarray
    weights: np.ndarray
    total_mass: float

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValidationError("quadrature weights must be positive")
        s = float(np.sum(self.weights))
        if abs(s - self.total_mass) > 1e-12 * max(1.0, abs(self.total_mass)):
            raise ValidationError("weights do not sum to the declared total mass")

    def integrate(self, f) -> float:
        """The rule's sum of f, which must be vectorised (see ``adaptive_integrate``)."""
        return float(np.dot(self.weights, _sample(f, self.nodes)))


def golub_welsch(J: JacobiOperator, n: int, total_mass: float) -> QuadratureRule:
    """Gauss rule from the n-by-n truncation of a Jacobi operator.

    Nodes are the truncation's eigenvalues; the weight at node i is
    total_mass times the squared first component of its eigenvector.  The
    QL solver rotates only those first components, so a rule costs O(n^2)
    work; dense LAPACK, whose components err by about eps, loses small weights.
    """
    if n < 1:
        raise ValidationError("rule size must be at least 1")
    d = [float(J.b_at(i)) for i in range(n)]
    e = [float(J.a_at(i)) for i in range(n - 1)]
    if any(v <= 0 for v in e):
        raise ValidationError("Golub-Welsch requires positive off-diagonal entries")
    w, first = symmetric_tridiagonal_eig(d, e)
    weights = total_mass * first ** 2
    return QuadratureRule(nodes=w, weights=weights, total_mass=float(total_mass))


_LEGENDRE_CACHE_SIZE = 8  # the integrators use one rule size, _PANEL_ORDER


@lru_cache(maxsize=_LEGENDRE_CACHE_SIZE)
def _legendre_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    ref = golub_welsch(
        JacobiOperator(
            a=lambda k: (k + 1) / math.sqrt((2 * k + 1) * (2 * k + 3)),
            b=lambda k: 0.0,
        ),
        n,
        2.0,
    )
    return ref.nodes, ref.weights


def gauss_legendre_rule(n: int, lo: float, hi: float) -> QuadratureRule:
    """Gauss-Legendre rule on [lo, hi], built from the Legendre recurrence."""
    nodes, weights = _legendre_reference(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return QuadratureRule(nodes=mid + half * nodes, weights=half * weights, total_mass=half * 2.0)


_PANEL_ORDER = 16  # Gauss-Legendre nodes per panel
_MAX_DOUBLINGS = 14  # panel-count doublings before adaptive_integrate gives up
_ENVELOPE_DROP = 1e-16  # |f| below this fraction of its peak marks the half-line truncation point
_FIRST_SPAN = 4.0  # first trial length of the half-line truncation
_MAX_EXTENSIONS = 12  # doublings of the trial length before halfline_integrate gives up


def _panel_grid(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``panels`` equal Gauss-Legendre panels on [lo, hi], one row each.

    Row i is ``gauss_legendre_rule(_PANEL_ORDER, edges[i], edges[i + 1])``
    bit for bit: the same per-element formula, over every panel at once.
    """
    ref_nodes, ref_weights = _legendre_reference(_PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[1:] + edges[:-1]))[:, None]
    return mid + half * ref_nodes, half * ref_weights


def _composite_gauss(f, lo: float, hi: float, panels: int) -> tuple[float, float]:
    """Composite Gauss-Legendre sum and a companion sum of |f| (same grid), one f call per panel."""
    total = 0.0
    total_abs = 0.0
    for x, w in zip(*_panel_grid(lo, hi, panels)):
        vals = _sample(f, x)
        total += float(np.dot(w, vals))
        total_abs += float(np.dot(w, np.abs(vals)))
    return total, total_abs


def adaptive_integrate(f, lo: float, hi: float, rtol: float = 1e-10, atol: float | None = None) -> float:
    """Integrate f on [lo, hi], doubling panel counts until two successive
    refinements differ by less than max(atol, rtol * |I|).

    f must be vectorised: called on an array of points, it returns an array
    of their shape, else a ValidationError.  Raises ConvergenceError after
    ``_MAX_DOUBLINGS`` refinements, with the last ``panels`` count, its
    ``estimate`` and the ``difference``.
    """
    if atol is None:
        atol = rtol
    panels = 4
    cur, _ = _composite_gauss(f, lo, hi, panels)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        prev, (cur, cur_abs) = cur, _composite_gauss(f, lo, hi, panels)
        if abs(cur - prev) <= max(atol, rtol * max(abs(cur), 1e-3 * cur_abs)):
            return cur
    raise ConvergenceError(
        f"adaptive quadrature did not converge on [{lo}, {hi}]", panels=panels, estimate=cur, difference=cur - prev
    )


def halfline_integrate(f, lo: float = 0.0, rtol: float = 1e-10, atol: float | None = None) -> float:
    """Integrate f on [lo, infinity) for integrands with super-polynomial decay.

    f must be vectorised, as in ``adaptive_integrate``.  The search samples
    |f| at 64 points of [lo, lo + 4], doubling the trial length until the
    last 4 samples lie below ``_ENVELOPE_DROP`` times the peak of every
    sample so far.  T is then the sample 4 steps past the last sample of
    any pass still above that drop, capped at the trial length, and
    [lo, T] is integrated adaptively; choosing T costs no integrand call.
    The integral over [T, 2L - lo], with L the end of the trial span the
    search stopped at, is added; a ConvergenceError carrying
    ``T``, ``tail`` and ``estimate`` says it exceeds max(atol, rtol * |I|),
    one carrying ``T`` and ``peak`` that no truncation point was found.
    """
    if atol is None:
        atol = rtol
    T = lo + _FIRST_SPAN
    peak = 0.0
    seen = []
    for extension in range(_MAX_EXTENSIONS):
        if extension:
            T = lo + 2 * (T - lo)
        xs = np.linspace(lo, T, 65)[1:]
        mags = np.abs(_sample(f, xs))
        seen.append((xs, mags))
        peak = max(peak, float(np.max(mags)))
        tail = float(np.max(mags[-4:]))
        if peak > 0 and tail <= _ENVELOPE_DROP * peak:
            break
    else:
        raise ConvergenceError("could not find a truncation point for the half-line integral", T=T, peak=peak)
    last = max(float(x[m > _ENVELOPE_DROP * peak].max(initial=lo)) for x, m in seen)  # last sample above the drop
    reach = lo + 2 * (T - lo)
    T = min(T, last + 4 * (T - lo) / 64)
    value = adaptive_integrate(f, lo, T, rtol=rtol, atol=atol)
    tail_part = adaptive_integrate(f, T, reach, rtol=max(rtol, 1e-8), atol=max(atol, 1e-14))
    value += tail_part
    if abs(tail_part) > max(atol, rtol * abs(value)):
        raise ConvergenceError(f"half-line tail {tail_part:.3e} beyond T = {T}", T=T, tail=tail_part, estimate=value)
    return value


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of the off-diagonal/diagonal boundedness diagnostic.

    This is a heuristic indicator, never a proof: ``sign`` names the branch
    s_n = a_n + a_{n-1} + sign * b_n that is bounded above (strict test), or
    the slower-growing branch when both grow (``strictly_bounded`` False).
    ``leading`` holds the fitted n^2 coefficients (plus branch, minus
    branch); ``margin_trace`` samples (n, running_max - s_n) slack values
    for the selected branch.
    """

    sign: int | None
    strictly_bounded: bool
    leading: tuple[float, float]
    margin_trace: tuple[tuple[int, float], ...] = field(repr=False)


def _branch_values(J: JacobiOperator, n_max: int, sign: int) -> np.ndarray:
    ns = np.arange(1, n_max + 1)
    return np.array(
        [float(J.a_at(n)) + float(J.a_at(n - 1)) + sign * float(J.b_at(n)) for n in ns]
    )


def _fit_leading(s: np.ndarray) -> float:
    ns = np.arange(1, s.size + 1, dtype=float)
    lo = s.size // 2
    design = np.column_stack([ns[lo:] ** 2, np.ones(s.size - lo)])
    coef, *_ = np.linalg.lstsq(design, s[lo:], rcond=None)
    return float(coef[0])


def _bounded_above(s: np.ndarray) -> bool:
    half = s.size // 2
    head_max = float(np.max(s[:half]))
    tail_max = float(np.max(s[half:]))
    return tail_max <= head_max + 1e-9 * max(1.0, abs(head_max))


def berezanskii_test(J: JacobiOperator, n_max: int = 500) -> BoundednessReport:
    """Evaluate a_n + a_{n-1} +/- b_n up to n_max and pick a bounded branch.

    Strictly bounded branches win; when both branches grow, the one with
    the smaller fitted leading coefficient is selected and flagged as not
    strictly bounded.  Returns sign None only when the two branches are
    indistinguishable.  Diagnostic only.
    """
    if n_max < 8:
        raise ValidationError("n_max too small for a meaningful diagnostic")
    s_plus = _branch_values(J, n_max, +1)
    s_minus = _branch_values(J, n_max, -1)
    lead_plus = _fit_leading(s_plus)
    lead_minus = _fit_leading(s_minus)
    bounded_plus = _bounded_above(s_plus)
    bounded_minus = _bounded_above(s_minus)

    if bounded_plus and not bounded_minus:
        sign, strict = +1, True
    elif bounded_minus and not bounded_plus:
        sign, strict = -1, True
    elif bounded_plus and bounded_minus:
        sign = +1 if float(np.max(s_plus)) <= float(np.max(s_minus)) else -1
        strict = True
    else:
        gap = abs(lead_plus - lead_minus)
        if gap > 1e-9 * max(1.0, abs(lead_plus), abs(lead_minus)):
            sign, strict = (+1 if lead_plus < lead_minus else -1), False
        else:
            sign, strict = None, False

    traced = s_plus if sign == +1 else s_minus if sign == -1 else s_plus
    running = np.maximum.accumulate(traced)
    stride = max(1, n_max // 50)
    trace = tuple(
        (int(n + 1), float(running[n] - traced[n])) for n in range(0, n_max, stride)
    )
    return BoundednessReport(
        sign=sign,
        strictly_bounded=strict,
        leading=(lead_plus, lead_minus),
        margin_trace=trace,
    )
