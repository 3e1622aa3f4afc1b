import math
import random
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jmatrix import jacspec, opfamilies
from jmatrix.errors import ValidationError
from jmatrix.gammafn import gammaln_real, loggamma
from jmatrix.opfamilies import (
    Family,
    FamilyKind,
    FamilyTruncationError,
    asc_relation,
    bochner_ode,
    bochner_residual,
    cdh_weight,
    dual_hahn_norm,
    dual_hahn_value,
    dual_hahn_weight,
    eval_family,
    eval_family_log,
    family_jacobi_operator,
    family_values,
    family_polynomial,
    pochhammer,
    recurrence_coeffs,
)
from jmatrix.polycore import Mode, Polynomial, to_mode

F = Fraction


def four_call_cdh_weight(b, N, gamma):
    """The weight as four separate complex ``loggamma`` calls and a per-call
    constant: an oracle that shares only the normalization's ``gammaln_real``
    with the closed-form ``cdh_weight``, whose one log-gamma per node is the
    real-arithmetic ``log_abs_gamma``."""
    bf = float(b)
    g = np.asarray(gamma, dtype=float)
    a1, a2, a3 = bf + 0.5, N - bf + 0.5, bf - N + 0.5
    s = (
        np.real(loggamma(a1 + 1j * g))
        + np.real(loggamma(a2 + 1j * g))
        + np.real(loggamma(a3 + 1j * g))
        - np.real(loggamma(2j * g))
    )
    log_norm = math.log(2 * math.pi) + gammaln_real(N + 1.0) + gammaln_real(2 * bf - N + 1.0)
    out = np.exp(2 * s - log_norm)
    return out if out.shape else float(out)


def hexes(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


class TestClosedForms:
    def test_chebyshev_low_degrees(self):
        want = [[1], [0, 1], [-1, 0, 2], [0, -3, 0, 4], [1, 0, -8, 0, 8]]
        for n, coeffs in enumerate(want):
            assert family_polynomial(Family.chebyshev_t(), n) == Polynomial(coeffs)

    def test_laguerre_low_degrees(self):
        f = Family.laguerre(0)
        assert family_polynomial(f, 0) == Polynomial([1])
        assert family_polynomial(f, 1) == Polynomial([1, -1])
        assert family_polynomial(f, 2) == Polynomial([1, -2, F(1, 2)])

    def test_hermite_low_degrees(self):
        f = Family.hermite()
        want = [[1], [0, 2], [-2, 0, 4], [0, -12, 0, 8]]
        for n, coeffs in enumerate(want):
            assert family_polynomial(f, n) == Polynomial(coeffs)

    def test_recurrence_evaluation_matches_polynomials(self):
        fams = [
            Family.chebyshev_t(),
            Family.hermite(),
            Family.laguerre(F(1, 2)),
            Family.jacobi(F(-1, 2), F(-1, 2)),
            Family.jacobi(F(1, 3), F(2, 5)),
            Family.bessel(3, 2),
            Family.monomial(),
        ]
        for f in fams:
            for n in range(9):
                x = F(2, 3)
                assert eval_family(f, n, x) == family_polynomial(f, n)(x)


class TestRecurrences:
    def test_chebyshev(self):
        assert recurrence_coeffs(Family.chebyshev_t(), 0) == (1, 0, 0)
        assert recurrence_coeffs(Family.chebyshev_t(), 4) == (F(1, 2), 0, F(1, 2))

    def test_hermite(self):
        assert recurrence_coeffs(Family.hermite(), 5) == (F(1, 2), 0, 5)

    def test_jacobi_integer_parameters_are_exact(self):
        for n in range(6):
            u, v, w = recurrence_coeffs(Family.jacobi(2, 0), n)
            assert (u, v, w) == recurrence_coeffs(Family.jacobi(F(2), F(0)), n)
            assert all(type(c) is F for c in (u, v, w)[: 3 if n else 2])
        assert all(type(c) is float for c in recurrence_coeffs(Family.jacobi(2, 0.5), 3))

    def test_laguerre_consistent_with_ode(self):
        # the recurrence pins the same polynomials that satisfy the family ODE
        f = Family.laguerre(F(3, 4))
        for n in range(1, 8):
            assert bochner_residual(f, n, [F(1, 3), F(7, 5)]) == 0

    def test_solved_families_are_exact_identities(self):
        for f in (Family.bessel(3, 2), Family.dual_hahn(F(1, 2), 0, 4),
                  Family.continuous_dual_hahn(F(11, 4), F(1, 4), F(7, 4))):
            top = 3 if f.kind is FamilyKind.DUAL_HAHN else 6
            for n in range(top):
                u, v, w = recurrence_coeffs(f, n)
                x_phi = Polynomial.x() * generated(f, n)
                rhs = generated(f, n + 1) * u + generated(f, n) * v
                if n:
                    rhs = rhs + generated(f, n - 1) * w
                assert (x_phi - rhs).is_zero()

    def test_dual_hahn_truncates(self):
        f = Family.dual_hahn(F(1, 2), 0, 1)
        with pytest.raises(FamilyTruncationError):
            recurrence_coeffs(f, 1)
        with pytest.raises(FamilyTruncationError):
            family_polynomial(f, 2)


def series_dual_hahn_polynomial(g, d, N, n):
    """The oracle: R_n(lambda; g, d, N) as a polynomial in lambda, from the
    Newton-type sum of its terminating series over products of (j(g+d+1+j) - lambda)."""
    lam = Polynomial.x()
    acc = prod = Polynomial.one()
    coef = F(1)
    for j in range(n):
        prod = prod * (Polynomial((j * (g + d + 1 + j),)) - lam)
        coef = coef * (-(n - j)) / ((g + 1 + j) * (-N + j) * (j + 1))
        acc = acc + prod * coef
    return acc


def series_jacobi(alpha, beta, n, mode):
    """((alpha+1)_n / n!) 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2)."""
    half = to_mode(F(1, 2), mode)
    base = Polynomial((half, -half), mode)
    acc = power = Polynomial.one(mode)
    coef = to_mode(1, mode)
    for j in range(n):
        coef = coef * (-(n - j)) * (n + alpha + beta + 1 + j) / ((alpha + 1 + j) * (j + 1))
        power = power * base
        acc = acc + power * coef
    return acc * (pochhammer(alpha + 1, n) / to_mode(math.factorial(n), mode))


def series_laguerre(alpha, n, mode):
    """sum_j (-1)^j (alpha+j+1)_{n-j} x^j / ((n-j)! j!)."""
    coeffs = []
    for j in range(n + 1):
        c = pochhammer(alpha + j + 1, n - j) / to_mode(math.factorial(n - j) * math.factorial(j), mode)
        coeffs.append(c if j % 2 == 0 else -c)
    return Polynomial(coeffs, mode)


def series_bessel(a, b, n, mode):
    """2F0(-n, n+a-1; ; -x/b) = sum_j n!/(n-j)! (n+a-1)_j x^j / (j! b^j)."""
    coeffs = []
    for j in range(n + 1):
        num = to_mode(math.factorial(n) // math.factorial(n - j), mode) * pochhammer(a + n - 1, j)
        coeffs.append(num / (to_mode(math.factorial(j), mode) * b**j))
    return Polynomial(coeffs, mode)


def series_cdh(a, b, c, n, mode):
    """(a+b)_n (a+c)_n 3F2(-n, a+ix, a-ix; a+b, a+c; 1) in z = x^2, summed over
    the products (a+ix)_j (a-ix)_j = prod_{i<j} (z + (a+i)^2)."""
    z = Polynomial.x(mode)
    acc = prod = Polynomial.one(mode)
    coef = to_mode(1, mode)
    for j in range(n):
        prod = prod * (z + Polynomial(((a + j) ** 2,), mode))
        coef = coef * (-(n - j)) / ((a + b + j) * (a + c + j) * (j + 1))
        acc = acc + prod * coef
    return acc * (pochhammer(a + b, n) * pochhammer(a + c, n))


SERIES = {
    FamilyKind.JACOBI: series_jacobi,
    FamilyKind.LAGUERRE: series_laguerre,
    FamilyKind.BESSEL: series_bessel,
    FamilyKind.CONTINUOUS_DUAL_HAHN: series_cdh,
}


def generated(f, n, mode=Mode.EXACT):
    """The family's degree-n polynomial from its hypergeometric series: a
    route independent of the recurrence that family_polynomial runs."""
    if f.kind is FamilyKind.DUAL_HAHN:
        assert mode is Mode.EXACT
        return series_dual_hahn_polynomial(*f.params, n)
    return SERIES[f.kind](*(to_mode(v, mode) for v in f.params), n, mode)


def solved(lhs, f, n):
    """(c_up, c_n, c_dn) with lhs = c_up phi_{n+1} + c_n phi_n + c_dn phi_{n-1}.

    An exact linear solve against the generated polynomials, from the top
    coefficient down; the remainder must vanish.  c_dn is the int 0 at n = 0.
    """
    phi_up, phi_n = generated(f, n + 1), generated(f, n)
    up = lhs.coeff(n + 1) / phi_up.leading()
    mid = (lhs.coeff(n) - up * phi_up.coeff(n)) / phi_n.leading()
    rest = lhs - phi_up * up - phi_n * mid
    dn = 0
    if n:
        phi_dn = generated(f, n - 1)
        dn = rest.coeff(n - 1) / phi_dn.leading()
        rest = rest - phi_dn * dn
    assert rest.is_zero()
    return up, mid, dn


def same_values_and_types(got, want):
    return tuple(got) == tuple(want) and [type(v) for v in got] == [type(v) for v in want]


ORACLE_FAMILIES = [
    Family.bessel(3, 2),
    Family.bessel(2, 2),
    Family.bessel(F(7, 3), -5),
    Family.dual_hahn(1, 0, 6),
    Family.dual_hahn(F(1, 2), 0, 5),
    Family.continuous_dual_hahn(F(11, 4), F(1, 4), F(7, 4)),
    Family.jacobi(0, 0),
    Family.jacobi(2, 3),
    Family.jacobi(F(-1, 2), F(-1, 2)),
]


@pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=Family.spec_string)
def test_closed_forms_equal_the_exact_solve(fam):
    top = min(12, (fam.truncation() or 13) - 1)
    for n in range(top + 1):
        phi = generated(fam, n)
        got = recurrence_coeffs(fam, n)
        assert same_values_and_types(got, solved(Polynomial.x() * phi, fam, n)), (n, got)
        if fam.kind in (FamilyKind.JACOBI, FamilyKind.BESSEL):
            G, *got = asc_relation(fam, n)
            assert G == Polynomial([1, 0, -1] if fam.kind is FamilyKind.JACOBI else [0, 0, 1])
            assert same_values_and_types(got, solved(G * phi.derivative(), fam, n)), (n, got)


SERIES_FAMILIES = ORACLE_FAMILIES + [Family.laguerre(0), Family.laguerre(F(1, 2)), Family.laguerre(3)]


@pytest.mark.parametrize("fam", SERIES_FAMILIES, ids=Family.spec_string)
def test_recurrence_polynomials_equal_the_series(fam):
    # exact values (EXACT rows of Fractions), up to degree 14 or the truncation
    for n in range(min(14, fam.truncation() or 14) + 1):
        got = family_polynomial(fam, n)
        assert got.mode is Mode.EXACT and got == generated(fam, n), n


# The largest coefficient error of degrees 0 .. 20, relative to the largest
# coefficient, against the exact series: at most 1.9e-15 measured here (Bessel
# 7/3, -5).  The float series had 2.3e-9 (Jacobi 1/2, -1/4), 1.2e-9 (Jacobi
# 1/2, 1/3) and 1.9e-10 (cdh).
FLOAT_COEFF_RTOL = 2e-15


@pytest.mark.parametrize(
    "spec", ["jacobi:1/2,-1/4", "jacobi:1/2,1/3", "laguerre:1/2", "bessel:3,2", "bessel:7/3,-5", "cdh:11/4,1/4,7/4"]
)
def test_float_polynomials_near_the_exact_series(spec):
    exact = Family.parse(spec)
    decimal = Family(exact.kind, tuple(float(v) for v in exact.params))
    for n in range(21):
        got = family_polynomial(decimal, n).coeffs
        want = generated(exact, n).coeffs
        assert len(got) == len(want) and all(type(c) is float for c in got)
        err = max(abs(F(g) - w) for g, w in zip(got, want)) / max(map(abs, want))
        assert err <= FLOAT_COEFF_RTOL, (n, float(err))


@pytest.mark.parametrize("spec", ["jacobi:1/2,-1/4", "hermite", "cdh:2.75,0.25,1.75", "bessel:3,2"])
def test_float_polynomial_independent_of_the_read_order(spec):
    f = Family.parse(spec)
    opfamilies._family_table.cache_clear()
    cold = family_polynomial(f, 3, Mode.FLOAT)
    opfamilies._family_table.cache_clear()
    family_polynomial(f, 10, Mode.FLOAT)
    assert hexes(family_polynomial(f, 3, Mode.FLOAT).coeffs) == hexes(cold.coeffs)


@pytest.mark.parametrize("a, degree", [(0, 1), (-1, 2), (-4, 3), (F(-3), 3), (-4.0, 3)])
def test_degenerate_bessel_raises(a, degree):
    f = Family.bessel(a, 2)
    lowest = degree - 1  # the first index whose relations involve y_degree
    for n in range(lowest):
        recurrence_coeffs(f, n)
        asc_relation(f, n)
    family_polynomial(f, lowest)
    for call, n in ((recurrence_coeffs, lowest), (asc_relation, lowest), (family_polynomial, degree)):
        with pytest.raises(ValidationError, match=f"degenerates at degree {degree} "):
            call(f, n)
    with pytest.raises(ValidationError, match=f"degenerates at degree {degree} "):
        family_polynomial(f, degree + 1)  # and at every degree past it


class TestEvalFamily:
    def test_chebyshev_cosine(self):
        th = math.pi / 5
        got = eval_family(Family.chebyshev_t(), 3, math.cos(th))
        assert abs(got - math.cos(3 * th)) <= 1e-14

    def test_laguerre_at_two(self):
        assert eval_family(Family.laguerre(0), 1, 2) == -1

    def test_monomial_exact(self):
        assert eval_family(Family.monomial(), 4, F(3, 2)) == F(81, 16)

    def test_overflow_guard_and_log_variant(self):
        f = Family.hermite()
        for error in (OverflowError, ValidationError):  # the CLI exits 1 on a ValidationError
            with pytest.raises(error):
                eval_family(f, 400, 15.0)
        sign, logmag = eval_family_log(f, 400, 15.0)
        small_sign, small_log = eval_family_log(f, 10, 1.25)
        assert abs(small_sign * math.exp(small_log) - eval_family(f, 10, 1.25)) <= 1e-10 * abs(
            eval_family(f, 10, 1.25)
        )
        assert math.isfinite(logmag) and sign in (-1.0, 1.0)


    def test_exact_mode_needs_rational_parameters(self):
        f = Family.jacobi(0.5, -0.25)
        for call in (
            lambda: family_polynomial(f, 2, Mode.EXACT),
            lambda: bochner_ode(f, Mode.EXACT),
            lambda: eval_family(f, 2, F(1, 3)),
        ):
            with pytest.raises(ValidationError, match="exact mode needs rational family parameters"):
                call()


def degree_by_degree(f, n, x):
    """eval_family for each degree in turn, the oracle of family_values:
    the values, or the type and text of the first error."""
    try:
        return [eval_family(f, m, x) for m in range(n + 1)]
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec, n, x", [
    ("jacobi:1/2,-1/4", 40, F(1, 3)),
    ("jacobi:1/2,1/3", 60, 0.3),
    ("laguerre:1/2", 40, 1.5),
    ("cdh:11/4,1/4,7/4", 30, F(2)),
    ("bessel:3,2", 20, F(-1, 2)),
    ("monomial", 4, 2.0),
    # FLOAT values beyond 1e300: the first degree that exceeds it is named
    ("hermite", 400, 30.0),
    ("chebyshev", 50, 1e10),
    # degenerate Bessel: the degeneracy at degree 6, unless a value
    # overflows before it (at degree 2 here)
    ("bessel:-10,2", 10, F(1, 2)),
    ("bessel:-10,2", 10, 0.5),
    ("bessel:-10,2", 10, 1e200),
    # dual Hahn truncates at degree 5
    ("dualhahn:1/2,0,5", 5, F(1, 3)),
    ("dualhahn:1/2,0,5", 8, F(1, 3)),
    ("dualhahn:1/2,0,5", 8, 1e200),
])
def test_family_values_are_eval_family_degree_by_degree(spec, n, x):
    f = Family.parse(spec)
    want = degree_by_degree(f, n, x)
    try:
        got = family_values(f, n, x)
    except Exception as exc:
        got = type(exc), str(exc)
    assert got == want
    if isinstance(want, list):
        assert [type(v) for v in got] == [type(v) for v in want]


class TestCacheModes:
    SPELLINGS = {
        "exact": ("jacobi:9/4,1/2", "cdh:11/4,1/4,7/4"),
        "decimal": ("jacobi:2.25,0.5", "cdh:2.75,0.25,1.75"),
    }

    @pytest.mark.parametrize("order", [("exact", "decimal"), ("decimal", "exact")])
    def test_equal_parameters_keep_their_mode(self, order):
        # Family(k, (2.25,)) == Family(k, (F(9, 4),)), so only the mode in
        # the cache key keeps one spelling from reading the other's results.
        opfamilies._family_table.cache_clear()
        for spelling in order:
            jac, cdh = (Family.parse(s) for s in self.SPELLINGS[spelling])
            want = F if spelling == "exact" else float
            for n in (1, 2):
                _, a, b, c = asc_relation(jac, n)
                assert all(type(v) is want for v in (a, b, c))
                assert all(type(v) is want for v in recurrence_coeffs(cdh, n))
                for f in (jac, cdh):
                    assert all(type(v) is want for v in family_polynomial(f, n).coeffs)


class TestTableReplacedWhole:
    def test_reentrant_read_keeps_every_degree(self, monkeypatch):
        # A read of degree 6 made while degree 8 is being built (as a
        # concurrent batch would) must leave phi_0 .. phi_8 as a cold build.
        f = Family.laguerre(1)
        opfamilies._family_table.cache_clear()
        cold = [family_polynomial(f, n, Mode.EXACT) for n in range(9)]
        opfamilies._family_table.cache_clear()
        plain, reentered = recurrence_coeffs, []

        def coeffs(g, n):
            if g == f and n == 2 and not reentered:
                reentered.append(n)
                family_polynomial(f, 6, Mode.EXACT)
            return plain(g, n)

        monkeypatch.setattr(opfamilies, "recurrence_coeffs", coeffs)
        family_polynomial(f, 8, Mode.EXACT)
        assert reentered == [2]
        assert [family_polynomial(f, n, Mode.EXACT) for n in range(9)] == cold
        opfamilies._family_table.cache_clear()


class TestBochner:
    def test_hermite_exact_zero(self):
        assert bochner_residual(Family.hermite(), 2, [F(1, 3), 2, F(-7, 4)]) == 0

    def test_chebyshev_case_on_grid(self):
        f = Family.jacobi(-0.5, -0.5)
        grid = np.linspace(-1, 1, 9)
        for n in range(11):
            assert float(bochner_residual(f, n, list(grid))) <= 1e-11

    def test_monomial_shared_zero(self):
        A, B, lam = bochner_ode(Family.monomial())
        assert A == Polynomial([0, 0, 1]) and B == Polynomial([0, 1])
        for n in (0, 1, 4, 7):
            assert bochner_residual(Family.monomial(), n, [F(5, 3)]) == 0

    def test_bessel_exact(self):
        assert bochner_residual(Family.bessel(3, 2), 5, [F(1, 2), F(-2, 3)]) == 0

    @pytest.mark.parametrize("f, n", [(Family.bessel(3.0, 2.0), 150), (Family.hermite(), 261)])
    def test_residual_past_the_float_range_is_nan(self, f, n):
        # phi_n is finite, but a coefficient of A phi_n'' is not: NaN, not 0.0
        assert math.isnan(bochner_residual(f, n, [-0.9, -0.3, 0.4, 1.7]))

    def test_discrete_families_rejected(self):
        with pytest.raises(ValidationError):
            bochner_residual(Family.dual_hahn(F(1, 2), 0, 3), 1, [1])

    CLI_SAMPLES = [-0.9, -0.3, 0.4, 1.7]

    @pytest.mark.parametrize("spec, n", [("hermite", 100), ("jacobi:1/2,1/3", 50), ("bessel:3,2", 20)])
    def test_float_residual_is_relative_to_its_terms(self, spec, n):
        # unscaled, these read 8.6e88, 3.6e14 and 8.2e14: rounding of large terms
        assert bochner_residual(Family.parse(spec), n, self.CLI_SAMPLES) <= 1e-15

    @pytest.mark.parametrize("spec, n", [("hermite", 10), ("jacobi:1/2,1/3", 12), ("bessel:3,2", 8)])
    def test_a_wrong_polynomial_reads_far_above_rounding(self, monkeypatch, spec, n):
        f = Family.parse(spec)
        phi = family_polynomial(f, n, Mode.FLOAT)
        wrong = phi + Polynomial.monomial(n - 2, 1e-9 * phi.leading(), Mode.FLOAT)
        monkeypatch.setattr(opfamilies, "family_polynomial", lambda *args: wrong)
        assert bochner_residual(f, n, self.CLI_SAMPLES) > 1e-12

    def test_exact_zeros_stay_exact(self):
        assert type(bochner_residual(Family.hermite(), 7, [F(1, 3), F(-5, 2)])) is F
        assert bochner_residual(Family.chebyshev_t(), 0, self.CLI_SAMPLES) == 0.0

    def test_residual_whose_scale_overflowed_is_at_rounding_level(self):
        # the sum of the term magnitudes of H_258 (largest term coefficient
        # 2.3e305) and of bessel(3, 2)_145 (7.1e298) overflows unless the terms
        # are scaled first; scaled, they read 6.2e-17 and 4.7e-17
        for f, n in ((Family.hermite(), 258), (Family.bessel(3, 2), 145)):
            assert bochner_residual(f, n, self.CLI_SAMPLES) <= 1e-15


class TestStructureRelation:
    def test_hermite(self):
        G, a, b, c = asc_relation(Family.hermite(), 4)
        assert G == Polynomial([1]) and (a, b, c) == (0, 0, 8)

    def test_laguerre(self):
        G, a, b, c = asc_relation(Family.laguerre(F(1, 2)), 3)
        assert G == Polynomial([0, 1]) and (a, b, c) == (0, 3, -F(7, 2))

    def test_monomial(self):
        G, a, b, c = asc_relation(Family.monomial(), 6)
        assert G == Polynomial([0, 1]) and (a, b, c) == (0, 6, 0)

    @pytest.mark.parametrize(
        "fam",
        [Family.jacobi(F(-1, 2), F(-1, 2)), Family.jacobi(F(2, 3), F(-1, 4)), Family.bessel(3, 2)],
    )
    def test_identity_pointwise_exact(self, fam):
        for n in range(11):
            G, a, b, c = asc_relation(fam, n)
            lhs = G * family_polynomial(fam, n).derivative()
            rhs = family_polynomial(fam, n + 1) * a + family_polynomial(fam, n) * b
            if n:
                rhs = rhs + family_polynomial(fam, n - 1) * c
            assert (lhs - rhs).is_zero()


class TestDualHahn:
    @pytest.mark.parametrize("b", [F(9, 4), F(19, 5)])
    def test_discrete_orthogonality(self, b):
        N = math.floor(b + F(1, 2))
        gamma, delta, Nd = 2 * b - 2 * N, F(0), N - 1
        if Nd < 1:
            pytest.skip("single-point support")
        for m1 in range(Nd + 1):
            for m2 in range(Nd + 1):
                s = sum(
                    float(dual_hahn_weight(x, gamma, delta, Nd))
                    * float(dual_hahn_value(m1, x, gamma, delta, Nd))
                    * float(dual_hahn_value(m2, x, gamma, delta, Nd))
                    for x in range(Nd + 1)
                )
                want = float(dual_hahn_norm(m1, gamma, delta, Nd)) if m1 == m2 else 0.0
                assert abs(s - want) <= 1e-12

    def test_norm_exact_for_integer_parameters(self):
        got = dual_hahn_norm(1, 0, 0, 3)
        assert got == 1 and type(got) is F
        assert dual_hahn_norm(1, F(0), F(0), 3) == got
        assert dual_hahn_norm(2, 1, 2, 4) == F(2 * 2, 2 * 3 * 3 * 4)
        assert type(dual_hahn_norm(1, 0.5, 0, 3)) is float

    def test_r0_is_one(self):
        assert dual_hahn_value(0, 2, F(1, 2), 0, 3) == 1

    @pytest.mark.parametrize("g, d, N", [(F(1, 2), 0, 5), (F(1, 3), F(2, 7), 12), (2, 0, 12), (F(-3, 4), 1, 9)])
    def test_recurrence_equals_the_series(self, g, d, N):
        # exact values and types, up to n = 12
        for x in range(N + 1):
            for n in range(min(N, 12) + 1):
                got = dual_hahn_value(n, x, g, d, N)
                assert got == series_dual_hahn(n, x, g, d, N) and type(got) is F
        for n in range(min(N, 12) + 1):
            assert family_polynomial(Family.dual_hahn(g, d, N), n) == series_dual_hahn_polynomial(g, d, N, n)

    def test_float_recurrence_near_the_series(self):
        g, d, N = 0.5, 0.25, 8
        for x in range(N + 1):
            column = family_values(Family.dual_hahn(g, d, N), N, opfamilies.dual_hahn_argument(x, g, d))
            want = [series_dual_hahn(n, x, g, d, N) for n in range(N + 1)]
            assert all(type(v) is float for v in column)
            assert max(abs(a - b) for a, b in zip(column, want)) <= 1e-12 * max(map(abs, want))

    def test_degree_range_checked(self):
        with pytest.raises(FamilyTruncationError, match="truncates at degree 5"):
            dual_hahn_value(6, 0, F(1, 2), 0, 5)
        with pytest.raises(ValidationError, match="nonnegative"):
            dual_hahn_value(-1, 0, F(1, 2), 0, 5)


def series_dual_hahn(n, x, g, d, N):
    """The oracle: R_n(lambda(x)) as the terminating 3F2(-n, -x, x+g+d+1; g+1, -N; 1)."""
    term = total = F(1) if isinstance(g + d, (int, F)) else 1.0
    for k in range(n):
        term = term * (k - n) * (k - x) * (x + g + d + 1 + k) / ((g + 1 + k) * (k - N) * (k + 1))
        total += term
    return total


class TestContinuousDualHahnWeight:
    def test_positive(self):
        for g in (0.1, 1.0, 5.0):
            assert cdh_weight(2.25, 2, g) > 0

    def test_normalized(self):
        val = jacspec.halfline_integrate(lambda g: cdh_weight(2.25, 2, g), lo=0.0, rtol=1e-10, atol=1e-12)
        assert abs(val - 1.0) <= 1e-8

    def test_superpolynomial_decay(self):
        assert cdh_weight(2.25, 2, 20.0) / cdh_weight(2.25, 2, 10.0) < 1e-6

    def test_gamma_positive_required(self):
        with pytest.raises(ValidationError):
            cdh_weight(2.25, 2, 0.0)

    # N = 1 and b just above N - 1/2 included; (4/5, 1) and (17/3, 6) are benchmark models
    WEIGHT_CASES = [(2.25, 2), (F(4, 5), 1), (0.5 + 1e-9, 1), (3.5 + 1e-7, 4), (F(17, 3), 6), (10.3, 10)]
    GRID = np.concatenate([np.linspace(1e-3, 50.0, 301), np.geomspace(1e-3, 50.0, 257)])

    # The two formulas differ by up to 7.7e-13 relative on GRID (most of it
    # the four-call oracle's own error: 1.5e-12 against mpmath, where the
    # closed form is within 6.3e-13); 1e-12 bounds that.
    FOUR_CALL_RTOL = 1e-12

    @pytest.mark.parametrize("b, N", WEIGHT_CASES)
    def test_closed_form_matches_four_calls(self, b, N):
        got = cdh_weight(b, N, self.GRID)
        want = four_call_cdh_weight(b, N, self.GRID)
        assert np.max(np.abs(got - want) / want) <= self.FOUR_CALL_RTOL
        panels = self.GRID[:256].reshape(16, 16)  # a 2-D gamma keeps its shape
        got = cdh_weight(b, N, panels)
        assert got.shape == panels.shape
        assert hexes(got) == hexes(cdh_weight(b, N, panels.ravel()))

    @pytest.mark.parametrize("b, N", WEIGHT_CASES)
    def test_scalar_is_the_one_point_array(self, b, N):
        # a scalar gamma takes the array path, bit for bit
        for g in self.GRID[::23]:
            got = cdh_weight(b, N, float(g))
            assert type(got) is float
            assert float.hex(got) == hexes(cdh_weight(b, N, np.array([g])))[0]
            assert abs(got - four_call_cdh_weight(b, N, float(g))) <= self.FOUR_CALL_RTOL * got

    @pytest.mark.parametrize("b, N", WEIGHT_CASES + [(1 + 1e-7, 1)])
    def test_against_mpmath(self, b, N):
        # 40-digit reference at the float b the weight reads; worst measured here
        # 5.4e-13, and 6.3e-13 on a denser 400-point grid
        with mpmath.workdps(40):
            bm = mpmath.mpf(float(b))

            def reference(g):
                g = mpmath.mpf(g)
                num = mpmath.fprod(abs(mpmath.gamma(a + 1j * g)) ** 2 for a in (bm + 0.5, N - bm + 0.5, bm - N + 0.5))
                norm = 2 * mpmath.pi * mpmath.factorial(N) * mpmath.gamma(2 * bm - N + 1)
                return num / (abs(mpmath.gamma(2j * g)) ** 2 * norm)

            grid = np.geomspace(1e-3, 200.0, 97)
            want = [reference(g) for g in grid]
            got = cdh_weight(b, N, grid)
            assert max(float(abs(v - w) / w) for v, w in zip(got, want)) <= 7e-13

    def test_far_tail_finite_without_warnings(self):
        # the sinh form overflows past g of about 113; the weight underflows to 0 instead
        grid = np.geomspace(1e-3, 1e3, 401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b, N in self.WEIGHT_CASES:
                w = cdh_weight(b, N, grid)
                assert np.all(np.isfinite(w)) and np.all(w >= 0)
                assert cdh_weight(b, N, 1e3) == 0.0

    @pytest.mark.parametrize("b, N", WEIGHT_CASES + [(F(3999, 4), 999)])
    def test_huge_finite_gamma_is_zero_without_warnings(self, b, N):
        # 4 pi g overflows past 1.4e307, g^2 in a naive Lanczos sum past 1.3e154
        huge = [1e154, 1e200, 1e300, sys.float_info.max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in huge:
                assert cdh_weight(b, N, g) == 0.0
            got = cdh_weight(b, N, np.array([1.0] + huge))
        assert got[0] > 0 and np.all(got[1:] == 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, np.array([1.0, math.nan]), np.array([math.inf, 2.0])])
    def test_non_finite_gamma_rejected(self, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^gamma must be finite$"):
                cdh_weight(2.25, 2, gamma)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, -math.inf, np.array([1.0, 0.0, math.nan])])
    def test_non_positive_gamma_message_kept(self, gamma):
        with pytest.raises(ValidationError, match="^gamma must be positive$"):
            cdh_weight(2.25, 2, gamma)

    def test_b_checked_when_the_weight_is_built(self):
        for b, N in [(1.5, 2), (F(3, 2), 2), (0.4, 1)]:
            with pytest.raises(ValidationError, match=r"^requires b > N - 1/2$"):
                cdh_weight(b, N, 1.0)
            with pytest.raises(ValidationError, match=r"^requires b > N - 1/2$"):
                opfamilies._cdh_weight(b, N)


class TestFamilyValidation:
    def test_parameter_domains(self):
        with pytest.raises(ValidationError):
            Family.jacobi(-1, 0)
        with pytest.raises(ValidationError):
            Family.laguerre(-2)
        with pytest.raises(ValidationError):
            Family.dual_hahn(F(1, 2), 0, 0)
        with pytest.raises(ValidationError):
            Family.continuous_dual_hahn(1, -1, 1)
        with pytest.raises(ValidationError):
            Family.bessel(3, 0)

    def test_parse_spec_strings(self):
        assert Family.parse("jacobi:-0.5,-0.5").kind is FamilyKind.JACOBI
        assert Family.parse("laguerre:0.5").params == (0.5,)
        assert Family.parse("dualhahn:0.5,0,1").params == (0.5, 0, 1)
        assert Family.parse("cdh:2.75,0.25,1.75").params == (2.75, 0.25, 1.75)
        with pytest.raises(ValidationError):
            Family.parse("legendre")

    def test_pochhammer(self):
        assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
        assert pochhammer(5, 0) == 1


def test_family_jacobi_operator_mass():
    J, mass = family_jacobi_operator(Family.chebyshev_t())
    assert abs(mass - math.pi) <= 1e-15
    rule = jacspec.golub_welsch(J, 6, mass)
    assert abs(float(np.sum(rule.weights)) - math.pi) <= 1e-12


def jacobi_uvw(n, a, b):
    """(U_n, V_n, W_n) of the Jacobi recurrence, as Fractions for Fraction a, b."""
    s = 2 * n + a + b
    if n == 0:
        return 2 / (a + b + 2), (b - a) / (a + b + 2), 0
    return (
        2 * (n + 1) * (n + a + b + 1) / ((s + 1) * (s + 2)),
        (b - a) * (b + a) / (s * (s + 2)),
        2 * (n + a) * (n + b) / (s * (s + 1)),
    )


def laguerre_uvw(n, a):
    return -(n + 1), 2 * n + a + 1, -(n + a) if n else 0


def textbook_jacobi_matrix(kind, params, n):
    """(diagonal, squared off-diagonal) entry n of the orthonormal Jacobi matrix:
    the monic recurrence coefficients (Gautschi, *Orthogonal Polynomials*, 2004)."""
    if kind is FamilyKind.LAGUERRE:
        (a,) = params
        return 2 * n + a + 1, (n + 1) * (n + 1 + a)
    a, b = params
    k, s = n + 1, 2 * n + a + b
    diag = (b - a) / (a + b + 2) if n == 0 else (b * b - a * a) / (s * (s + 2))
    if k == 1:  # (1 + a + b) cancelled
        return diag, 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    t = 2 * k + a + b
    return diag, 4 * k * (k + a) * (k + b) * (k + a + b) / (t * t * (t + 1) * (t - 1))


def band_oracle_cases():
    rng = random.Random(20)
    cases = []
    while len(cases) < 30:
        a, b = (F(rng.randint(-9, 40), rng.randint(1, 12)) for _ in range(2))
        if a > -1 and b > -1:
            cases.append((a, b, rng.randint(2, 300)))
    return cases


def pq(r):
    """The p/q spelling of a Fraction, "2/1" for an integer value."""
    return f"{r.numerator}/{r.denominator}"


@pytest.mark.parametrize("a, b, n", band_oracle_cases())
def test_band_equals_the_fraction_formulas(a, b, n):
    # p/q spelling: b_n = float(V_n) and a_n = sqrt(float(U_n) float(W_{n+1})),
    # U_n W_{n+1} and V_n the textbook Jacobi matrix; decimal spelling: the
    # same formulas in floats, bit for bit
    for spec, formula, params in (
        (f"jacobi:{pq(a)},{pq(b)}", jacobi_uvw, (a, b)),
        (f"laguerre:{pq(a)}", laguerre_uvw, (a,)),
        (f"jacobi:{float(a)!r},{float(b)!r}", jacobi_uvw, (float(a), float(b))),
        (f"laguerre:{float(a)!r}", laguerre_uvw, (float(a),)),
    ):
        fam = Family.parse(spec)
        J, _ = family_jacobi_operator(fam)
        uvw = [formula(k, *params) for k in range(n + 1)]
        for k in range(n):
            (u, v, w), w_next = uvw[k], uvw[k + 1][2]
            assert same_values_and_types(recurrence_coeffs(fam, k), uvw[k]), (spec, k)
            assert J.b(k) == float(v), (spec, k)
            assert J.a(k) == math.sqrt(float(u) * float(w_next)), (spec, k)
            if isinstance(params[0], F):
                assert (v, u * w_next) == textbook_jacobi_matrix(fam.kind, params, k), (spec, k)


def test_parameter_free_bands():
    for fam, a2 in ((Family.hermite(), lambda k: F(k + 1, 2)),
                    (Family.chebyshev_t(), lambda k: F(1, 2) if k == 0 else F(1, 4))):
        J, _ = family_jacobi_operator(fam)
        for k in range(300):
            u, v, _ = recurrence_coeffs(fam, k)
            assert J.b(k) == v == 0
            assert u * recurrence_coeffs(fam, k + 1)[2] == a2(k)
            assert J.a(k) == math.sqrt(float(a2(k)))
