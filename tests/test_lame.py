import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from jmatrix import jacspec, lame
from jmatrix.errors import InternalConsistencyError, ValidationError
from jmatrix.jacspec import JacobiOperator, berezanskii_test
from jmatrix.lame import (
    algebraic_operator,
    build_lame_model,
    cheb_tridiag_coeffs,
    chebyshev_poly,
    even_eigenfunction_residual,
    even_spectrum,
    orthonormal_form,
    selfadjoint_diagnostic,
    transformed_operator,
    tridiag_residual,
)
from jmatrix.polycore import Mode, Polynomial

F = Fraction


def assert_sturm_bracket(spec):
    """Exactly i eigenvalues of the symmetrized matrix below lambda_i - 1e-10
    scale and i + 1 below lambda_i + 1e-10 scale."""
    w, mat = spec.eigenvalues, spec.matrix
    off = np.sqrt(np.diag(mat, 1) * np.diag(mat, -1))
    width = 1e-10 * max(1.0, float(np.max(np.abs(w))))
    idx = np.arange(w.size)
    assert list(jacspec._sturm_count(np.diag(mat), off, w - width)) == list(idx)
    assert list(jacspec._sturm_count(np.diag(mat), off, w + width)) == list(idx + 1)


class TestModel:
    def test_reference_model(self):
        m = build_lame_model(3, -1, -2, 2)
        assert (m.a_affine, m.b_affine, m.alpha) == (2.0, 1.0, -1.5)
        assert m.is_exact

    def test_zero_third_branch(self):
        assert build_lame_model(1, -1, 0, 2).alpha == 0.0

    def test_normalization_degeneracy_rejected(self):
        # with zero sum, alpha = +-1 happens exactly when two branch values
        # coincide; both guards refuse such configurations
        with pytest.raises(ValidationError):
            build_lame_model(1, -2, 1, 2)  # alpha = +1 shape
        with pytest.raises(ValidationError):
            build_lame_model(-2, 1, 1, 2)  # alpha = -1 shape

    def test_sum_must_vanish(self):
        with pytest.raises(ValidationError):
            build_lame_model(3, -1, -1, 2)

    def test_distinct_branches(self):
        with pytest.raises(ValidationError):
            build_lame_model(1, 1, -2, 2)

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, -1.0, -2.0, 2.0),
            (3.0, -1.0, -2.0, math.inf),
            (3.0, -1.0, -2.0, math.nan),
            ("1e400", -1, -2, 2),
            ("nan", -1, -2, 2),
            (3, -1, -2, "inf"),
        ],
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValidationError, match="finite"):
            build_lame_model(*args)


class TestOperators:
    def test_algebraic_structure(self):
        op = algebraic_operator(build_lame_model(3, -1, -2, 2))
        assert op.A.degree == 3 and op.A.is_monic()
        assert op.B * 2 == op.A.derivative()
        assert op.C == Polynomial([0, F(-3, 2)])

    def test_transformed_leading_factor(self):
        m = build_lame_model(3, -1, -2, 2)
        op = transformed_operator(m)
        want = Polynomial([-1, 1]) * Polynomial([1, 1]) * Polynomial([F(3, 2), 1])
        assert op.A == want

    def test_exact_requires_rational(self):
        with pytest.raises(ValidationError):
            transformed_operator(build_lame_model(3.0001, -1.0001, -2.0, 2), Mode.EXACT)


class TestBandCoefficients:
    def test_reference_row(self):
        m = build_lame_model(3, -1, -2, 2)
        upper, diag, lower = cheb_tridiag_coeffs(m, 1)
        assert (upper, diag, lower) == (0, F(3, 4), F(-1, 2))

    def test_first_row_special(self):
        m = build_lame_model(3, -1, -2, 4)
        upper, diag, lower = cheb_tridiag_coeffs(m, 0)
        assert upper == -5 and diag == F(-5, 2) and lower is None
        # and it is genuinely not the n = 0 case of the generic row
        assert upper != F(1, 8) * (0 - 4) * (0 + 5)

    def test_parameter_reflection_symmetry(self):
        for mval in (F(3, 2), 2, F(7, 3)):
            m1 = build_lame_model(3, -1, -2, mval)
            m2 = build_lame_model(3, -1, -2, -mval - 1)
            for n in range(8):
                assert cheb_tridiag_coeffs(m1, n) == cheb_tridiag_coeffs(m2, n)


class TestBandResidual:
    @pytest.mark.parametrize(
        "es,mval",
        [((3, -1, -2), 2), ((1, -1, 0), 3), ((5, -2, -3), F(5, 2))],
    )
    def test_exact_zero(self, es, mval):
        model = build_lame_model(*es, mval)
        for n in range(21):
            assert tridiag_residual(model, n).is_zero()

    def test_first_row_zero(self):
        model = build_lame_model(3, -1, -2, 4)
        assert tridiag_residual(model, 0).is_zero()

    def test_float_model_rejected(self):
        with pytest.raises(ValidationError):
            tridiag_residual(build_lame_model(3.0, -1.0, -2.0, 2.5000001), 1)


class TestEvenSpectrum:
    def test_trivial_case(self):
        spec = even_spectrum(build_lame_model(3, -1, -2, 0))
        assert spec.k == 0 and spec.eigenvalues[0] == 0.0

    def test_reference_two_level(self):
        # hand oracle: degree-1 eigenfunctions x + c need c^2 = 7/3 and
        # spectral parameter -6c in the x variable, i.e. -+2 sqrt(21);
        # the normalized-variable eigenvalue is that over 4a = 8
        model = build_lame_model(3, -1, -2, 2)
        spec = even_spectrum(model)
        assert np.allclose(spec.matrix, [[-0.75, -0.5], [-1.5, 0.75]])
        want = math.sqrt(21.0) / 4.0
        assert np.allclose(spec.eigenvalues, [-want, want], atol=1e-12)
        assert_sturm_bracket(spec)

    def test_reference_eigenfunctions(self):
        model = build_lame_model(3, -1, -2, 2)
        spec = even_spectrum(model)
        for i in range(2):
            c = -6.0 * 4.0 * model.a_affine * spec.eigenvalues[i] / 36.0  # E_x = -6c
            psi = Polynomial([c, 1.0], Mode.FLOAT)
            coeffs = spec.pcoeffs[i]
            recon = Polynomial([coeffs[0]], Mode.FLOAT) + chebyshev_poly(1, Mode.FLOAT) * coeffs[1]
            f = recon.shift_affine(1.0 / model.a_affine, -model.b_affine / model.a_affine)
            ratio = f(0.4) / psi(0.4)
            for x in (-1.0, 1.7, 2.6):
                assert abs(f(x) - ratio * psi(x)) <= 1e-12 * max(1.0, abs(psi(x)))

    @pytest.mark.parametrize("k", range(7))
    def test_methods_agree_and_spectrum_real_simple(self, k):
        # LAPACK's eigenvalues against Sturm counts on the same band
        model = build_lame_model(5, -2, -3, 2 * k)
        spec = even_spectrum(model)
        assert spec.eigenvalues.size == k + 1
        assert_sturm_bracket(spec)
        scale = max(1.0, float(np.max(np.abs(spec.eigenvalues))))
        if k:
            assert np.min(np.diff(spec.eigenvalues)) > 1e-12 * scale

    def test_ode_residuals(self):
        for es in ((3, -1, -2), (5, -2, -3)):
            for k in (1, 2, 3, 4):
                model = build_lame_model(*es, 2 * k)
                residuals = even_eigenfunction_residual(even_spectrum(model), model)
                assert len(residuals) == k + 1 and max(residuals) <= 1e-14

    @pytest.mark.parametrize("m", [40, 60])
    def test_ode_residuals_of_a_large_block(self, m):
        # the monomial route read 1.8e-6 at m = 40 and failed from m = 50
        model = build_lame_model(3, -1, -2, m)
        spec = even_spectrum(model)
        assert_sturm_bracket(spec)
        assert max(even_eigenfunction_residual(spec, model)) <= 1e-12

    def test_zero_eigenvalue_keeps_a_spectral_scale(self):
        # alpha = 0: the spectrum is symmetric and E = 0 is an eigenvalue; a
        # scale from |E_i| alone would read its residual as 1
        model = build_lame_model(1, -1, 0, 4)
        spec = even_spectrum(model)
        assert abs(spec.eigenvalues[1]) <= 1e-14
        assert max(even_eigenfunction_residual(spec, model)) <= 1e-14

    def test_vanishing_first_component_is_a_validation_error(self):
        # at m = 140 one eigenvector's first component is 0.0 in floats
        with pytest.raises(ValidationError, match=r"^m = 140: eigenpair \d+ has first component 0.0"):
            even_spectrum(build_lame_model(3, -1, -2, 140))

    def test_largest_block(self):
        # m = 2000, the cap: the Sturm bracket holds; the residuals exist for
        # every eigenpair (NaN where a term leaves the float range)
        model = build_lame_model(1, -1, 0, 2000)
        spec = even_spectrum(model)
        assert spec.k == 1000
        assert_sturm_bracket(spec)
        assert len(even_eigenfunction_residual(spec, model)) == 1001

    def test_sturm_mutation_is_caught(self, monkeypatch):
        # one LAPACK eigenvalue moved by 1e-6 relative leaves its Sturm bracket
        real = jacspec.eig_block

        def shifted(J, block):
            solved = real(J, block)
            w = solved.eigenvalues.copy()
            w[2] += 1e-6 * max(1.0, float(np.max(np.abs(w))))
            return dataclasses.replace(solved, eigenvalues=w)

        monkeypatch.setattr(jacspec, "eig_block", shifted)
        with pytest.raises(InternalConsistencyError, match="Sturm"):
            even_spectrum(build_lame_model(3, -1, -2, 10))

    def test_verify_suite_does_not_recount_with_the_sturm_check(self, monkeypatch):
        # a lost eigenvalue (pair 1 replaced by pair 0) behind a Sturm count
        # that always brackets: every pair still solves the ODE, so only the
        # suite's comparison with numpy.linalg.eigvals can see it
        from jmatrix import verify

        real = jacspec.eig_block

        def lose_one(J, block):
            solved = real(J, block)
            w, v = solved.eigenvalues.copy(), solved.eigenvectors.copy()
            if w.size > 1:
                w[1], v[:, 1] = w[0], v[:, 0]
            return dataclasses.replace(solved, eigenvalues=w, eigenvectors=v)

        def bracket(diag, off, xs):  # the counts of a simple spectrum at w - width, then w + width
            n = xs.size // 2
            return np.concatenate([np.arange(n), np.arange(1, n + 1)])

        assert verify.lame_even_spectra().passed
        monkeypatch.setattr(jacspec, "_sturm_count", bracket)
        monkeypatch.setattr(jacspec, "eig_block", lose_one)
        result = verify.lame_even_spectra()
        assert not result.passed and "eigvals" in result.detail

    @pytest.mark.parametrize("es", [(3, -1, -2), (5, -2, -3), (1, -1, 0)])
    @pytest.mark.parametrize("k", range(7))
    def test_eigenvalues_match_dense_nonsymmetric_solve(self, es, k):
        # LAPACK on the unsymmetrized matrix: an oracle that shares no code
        # with the QL solver or the similarity that symmetrizes the matrix
        spec = even_spectrum(build_lame_model(*es, 2 * k))
        want = np.sort(np.linalg.eigvals(spec.matrix).real)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-12 * scale

    def test_odd_or_noninteger_rejected(self):
        with pytest.raises(ValidationError):
            even_spectrum(build_lame_model(3, -1, -2, 3))
        with pytest.raises(ValidationError):
            even_spectrum(build_lame_model(3, -1, -2, F(5, 2)))
        with pytest.raises(ValidationError, match="block"):
            even_spectrum(build_lame_model(3, -1, -2, 2002))


class TestChebyshevSums:
    def test_bit_for_bit_numpys_chebder_and_chebval(self):
        # the residual's Clenshaw sums, against numpy.polynomial.chebyshev,
        # down to the sign of a zero
        from numpy.polynomial import chebyshev

        rng = np.random.default_rng(7)
        y = np.array([-0.75, 0.0, 1.5])
        for length in range(1, 9):
            for c in (rng.standard_normal((length, 3)), np.eye(length), -np.eye(length)):
                for order in range(3):
                    got = lame._chebval(y, lame._chebder(c, order))
                    want = chebyshev.chebval(y, chebyshev.chebder(c, order))
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOrthonormalForm:
    def test_reference_values(self):
        form = orthonormal_form(build_lame_model(3, -1, -2, F(3, 2)), 4)
        assert abs(form.alpha_n[1] - math.sqrt(7.0 / 15.0)) <= 1e-15
        assert abs(form.a[0] - math.sqrt(105.0) / 32.0) <= 1e-15
        assert form.first_row_doubled

    def test_inadmissible_m_rejected(self):
        for bad in (F(5, 2), 1, 2, F(1, 2), 3):
            with pytest.raises(ValidationError):
                orthonormal_form(build_lame_model(3, -1, -2, bad), 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            orthonormal_form(build_lame_model(3, -1, -2, F(3, 2)), -3)

    @pytest.mark.parametrize("mval", [F(3, 2), F(33, 10), F(57, 10)])
    def test_radicands_positive_to_200(self, mval):
        form = orthonormal_form(build_lame_model(3, -1, -2, mval), 200)
        assert all(a > 0 for a in form.a)
        assert all(a > 0 for a in form.alpha_n)

    def test_growth_profile(self):
        # a_n = n^2/2 (1 + 1/n + c/n^2 + ...): fit the 1/n correction over
        # n = 100..500 and recover its unit coefficient
        form = orthonormal_form(build_lame_model(3, -1, -2, F(3, 2)), 501)
        ns = np.arange(100, 501, dtype=float)
        ratios = np.array([form.a[int(n)] / (0.5 * n * n) for n in ns])
        design = np.column_stack([1.0 / ns, 1.0 / ns**2])
        coef, *_ = np.linalg.lstsq(design, ratios - 1.0, rcond=None)
        assert abs(coef[0] - 1.0) <= 1e-3


class TestDiagnostic:
    def test_negative_alpha_selects_minus(self):
        d = selfadjoint_diagnostic(build_lame_model(3, -1, -2, F(3, 2)))
        assert d.report.sign == -1 and d.report.strictly_bounded
        assert d.predicted_leading == (2.5, -0.5)

    def test_large_alpha_selects_plus(self):
        d = selfadjoint_diagnostic(build_lame_model(0, -1, 1, F(3, 2)))
        assert d.report.sign == +1 and d.report.strictly_bounded
        assert d.predicted_leading == (-2.0, 4.0)

    def test_small_alpha_uses_fallback(self):
        model = build_lame_model(F(9, 20), F(-11, 20), F(1, 10), F(3, 2))
        d = selfadjoint_diagnostic(model)
        assert d.report.sign == +1 and not d.report.strictly_bounded

    def test_fitted_leading_matches_prediction(self):
        model = build_lame_model(3, -1, -2, F(3, 2))
        d = selfadjoint_diagnostic(model, 500)
        assert abs(d.report.leading[0] - 2.5) <= 1e-3 * 2.5
        assert abs(d.report.leading[1] + 0.5) <= 1e-3 * 0.5

    @pytest.mark.parametrize(
        "es, mval",
        [((3, -1, -2), F(3, 2)), ((0, -1, 1), F(3, 2)), ((F(9, 20), F(-11, 20), F(1, 10)), F(7, 2)),
         ((5, -2, -3), F(13, 4))],
    )
    def test_matches_the_closed_form_operator(self, es, mval):
        # the symmetric form's bands in closed form, evaluated lazily per index
        model = build_lame_model(*es, mval)
        h, boa = 0.5 * model.m, model.b_affine / model.a_affine
        J = JacobiOperator(
            a=lambda n: 0.5 * math.sqrt((n + h + 1) * (n - h + 0.5) * (n - h) * (n + h + 0.5)),
            b=lambda n: -model.alpha * n * n - 0.25 * model.m * (model.m + 1) * boa,
        )
        got = selfadjoint_diagnostic(model, 300).report
        want = berezanskii_test(J, 300)
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
