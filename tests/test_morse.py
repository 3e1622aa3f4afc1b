import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from jmatrix import jacspec, morse, opfamilies
from jmatrix.errors import InternalConsistencyError, ValidationError
from jmatrix.jacspec import JacobiOperator
from jmatrix.morse import (
    action_residual,
    bound_state_energies,
    bound_states,
    build_morse_model,
    conjugated_operator,
    continuous_polys,
    discrete_eigvectors,
    eval_basis,
    eval_basis_log,
    expansion_identity,
    morse_jacobi_operator,
    parseval_check,
    schrodinger_tridiag,
)
from jmatrix.polycore import Mode, Polynomial
from jmatrix.tdop import tridiagonalize
from test_opfamilies import four_call_cdh_weight, hexes, series_cdh, series_dual_hahn

F = Fraction


class TestModel:
    def test_counts(self):
        assert build_morse_model(2.25).N == 2
        assert build_morse_model(5.7).N == 6
        assert build_morse_model(0.4).N == 0

    def test_half_integer_rejected(self):
        for b in (0.5, 1.5, F(5, 2), "7/2"):
            with pytest.raises(ValidationError):
                build_morse_model(b)

    def test_positive_required(self):
        with pytest.raises(ValidationError):
            build_morse_model(-1.0)

    @pytest.mark.parametrize("b", [
        float("nan"), float("inf"), float("-inf"), F(10**400), "1e400",
        pytest.param("nan", id="str-nan"), pytest.param("inf", id="str-inf"),
    ])
    def test_non_finite_rejected(self, b):
        with pytest.raises(ValidationError, match="finite"):
            build_morse_model(b)

    def test_float_half_integer_read_exactly(self):
        # bf - 0.5 rounds to an integer from bf = 2^52 on: those b were
        # called half-integers instead of having too many bound states
        for b in (2.5, 2.0**51 + 0.5):
            with pytest.raises(ValidationError, match=r"1/2 \+ N"):
                build_morse_model(b)
        for b in (1e300, 2.0**53 + 2, 2.0**52 + 1):
            with pytest.raises(ValidationError, match="more than 1000 bound states"):
                build_morse_model(b)

    def test_bound_state_count_capped(self):
        assert build_morse_model(F(3999, 4)).N == 1000
        for b in (F(4005, 4), 1001.3, "1e200"):
            with pytest.raises(ValidationError, match="bound states"):
                build_morse_model(b)

    def test_exact_parameter_kept(self):
        m = build_morse_model("9/4")
        assert m.b_exact == F(9, 4) and m.b == 2.25
        assert 2 * m.b_exact - 2 * m.N == F(1, 2)
        assert build_morse_model(2.2).b_exact is None

    def test_basis_parameter_above_minus_one(self):
        for b in ("9/4", "1/5", "19/5", 7):
            assert build_morse_model(b).alpha > -1


class TestConjugatedOperator:
    def test_coefficients(self):
        op = conjugated_operator(build_morse_model("9/4"))
        assert op.A == Polynomial([0, 0, -1])
        assert op.C == Polynomial([F(-9, 16), -1])  # -(N-b-1/2)^2 = -0.5625, slope 1-N
        assert op.B.coeff(2) == 1 and op.strict

    def test_tridiagonalization_exact(self):
        for b in ("1", "9/4", "13/5"):
            op = conjugated_operator(build_morse_model(b))
            tri = tridiagonalize(op, 15)
            tri.verify(op)

    def test_exact_needs_rational(self):
        with pytest.raises(ValidationError):
            conjugated_operator(build_morse_model(2.2), Mode.EXACT)


class TestTridiag:
    def test_reference_values(self):
        td = schrodinger_tridiag(build_morse_model("9/4"), 6)
        assert td.diag[0] == -2.0625 and td.diag[1] == -1.5625
        assert abs(td.a[0] - math.sqrt(1.5)) <= 1e-15

    def test_split_entry_exact_zero(self):
        for b in ("9/4", "19/5", 5.7):
            model = build_morse_model(b)
            td = schrodinger_tridiag(model, model.N + 3)
            assert td.a[model.N - 1] == 0.0
            assert td.split_index == model.N - 1

    def test_band_symmetry(self):
        model = build_morse_model("9/4")
        td = schrodinger_tridiag(model, 51)
        for n in range(1, 51):
            # the coefficient of y_{n-1} in the action on y_n: -(n - N) sqrt(n (2b - 2N + n))
            lower = -(n - model.N) * math.sqrt(n * (2 * model.b - 2 * model.N + n))
            for upper_below in (td.a[n - 1], morse._offdiag(model, n - 1)):
                assert abs(lower - upper_below) <= 1e-13 * max(1.0, abs(upper_below))

    def test_continuum_offset_rows(self):
        # rows N.. of the bands against the continuum block's closed forms
        model = build_morse_model("9/4")
        b, N = model.b, model.N
        td = schrodinger_tridiag(model, 12)
        for n in range(6):
            upper, diag = -td.a[N + n], td.diag[N + n]
            assert abs((1 + n) * math.sqrt((N + n + 1) * (2 * b - N + n + 1)) - upper) <= 1e-13 * upper
            closed = -((N - b - 0.5) ** 2) + (1 + n) * (2 * n + 2 * b + 1) - n - N
            assert abs(closed - diag) <= 1e-13 * max(1.0, abs(diag))

    def test_needs_to_reach_the_split(self):
        with pytest.raises(ValidationError):
            schrodinger_tridiag(build_morse_model("19/5"), 2)


class TestBoundStates:
    def test_reference_spectrum(self):
        r = bound_states(build_morse_model("9/4"))
        assert np.allclose(r.eigenvalues, [-3.0625, -0.5625], atol=1e-12)

    def test_empty_when_shallow(self):
        r = bound_states(build_morse_model(0.4))
        assert r.eigenvalues.size == 0

    def test_deep_well(self):
        r = bound_states(build_morse_model(5.7))
        assert r.eigenvalues.size == 6
        assert abs(r.eigenvalues[0] + 5.2**2) <= 1e-10

    @pytest.mark.parametrize("b", [1.2, 2.25, 3.8, 5.7])
    def test_closed_form_agreement(self, b):
        model = build_morse_model(b)
        r = bound_states(model)
        for got, want in zip(r.eigenvalues, bound_state_energies(model)):
            assert abs(got - want) <= 1e-10

    def test_largest_model_passes(self):
        # N = 1000, the largest N the model accepts; raises on a miss of the closed form
        r = bound_states(build_morse_model("3999/4"))
        assert r.eigenvalues.size == 1000

    def test_block_boundary_found_by_scan(self):
        model = build_morse_model("19/5")
        bd = jacspec.split_blocks(morse_jacobi_operator(model), 10)
        assert bd.blocks[0] == (0, model.N)


class TestBasis:
    def test_ground_profile_is_pure_exponential(self):
        model = build_morse_model("9/4")
        p = model.b - model.N + 0.5
        for x in (-1.0, 0.0, 2.0):
            want = (2 * model.b) ** p / math.sqrt(math.gamma(model.alpha + 1)) * math.exp(
                -p * x - model.b * math.exp(-x)
            )
            assert abs(eval_basis(model, 0, x) - want) <= 1e-13 * abs(want)

    def test_tail_decay(self):
        model = build_morse_model("9/4")
        for n in range(4):
            assert abs(eval_basis(model, n, -30.0)) < 1e-12
            assert abs(eval_basis(model, n, 45.0)) < 1e-12
            # the right tail decays like exp(-(b-N+1/2) x): still small at 30
            assert abs(eval_basis(model, n, 30.0)) < 1e-6

    def test_log_form_deep_in_tail(self):
        model = build_morse_model("9/4")
        sign, logmag = eval_basis_log(model, 2, -40.0)
        assert logmag < -700  # underflows a double, but the log stays finite
        # z = 2b exp(360) ~ 1e157: L_2(z) ~ z^2 / 2 overflows unless rescaled from the first step
        sign, logmag = eval_basis_log(model, 2, -360.0)
        assert sign == 1.0 and -math.inf < logmag < -700
        assert eval_basis(model, 5, -360.0) == 0.0

    def test_orthonormality(self):
        model = build_morse_model("9/4")

        def pairing(i, j):
            f = lambda xs: np.array(
                [eval_basis(model, i, x) * eval_basis(model, j, x) for x in np.atleast_1d(xs)]
            )
            return jacspec.adaptive_integrate(f, -8.0, 45.0, rtol=1e-9, atol=1e-10)

        for i in range(4):
            for j in range(i, 4):
                want = 1.0 if i == j else 0.0
                assert abs(pairing(i, j) - want) <= 1e-8


class TestActionResidual:
    def test_reference_grid(self):
        model = build_morse_model("9/4")
        for n in range(6):
            assert action_residual(model, n, samples=(-2, -1, 0, 1, 2)) <= 1e-9

    def test_default_grid_through_split(self):
        model = build_morse_model("9/4")
        assert action_residual(model, model.N) <= 1e-9  # a_{N-1} = 0 row

    def test_far_left_sample_no_cancellation(self):
        model = build_morse_model("9/4")
        assert action_residual(model, 3, samples=(-5.0,)) <= 1e-9

    def test_residual_is_relative_to_its_terms(self):
        # the absolute residual grows with b^2 (7.9e-9 at b = 3999/4); over
        # the sum of the five terms it stays at the rounding level
        for b, n_max in (("9/4", 8), ("199/4", 10)):
            model = build_morse_model(b)
            assert max(action_residual(model, n) for n in range(n_max + 1)) <= 1e-14

    @pytest.mark.parametrize("x", [-400.0, -800.0])
    def test_sample_where_the_potential_overflows_is_named(self, x):
        # exp(-2x) overflows below about x = -354, exp(-x) below about -709
        with pytest.raises(ValidationError, match=f"^sample x = {x:g}: the potential overflows"):
            action_residual(build_morse_model(2.25), 3, samples=(0.0, x))

    def test_terms_beyond_the_float_range(self):
        # at b = 3999/4 and x = -3, y_99 underflows while L_100(z) overflows;
        # their product was NaN, which the max over samples dropped
        model = build_morse_model("3999/4")
        for n in (99, 100):
            assert action_residual(model, n) <= 1e-12


class TestDiscreteEigvectors:
    def test_first_component_one(self):
        model = build_morse_model("19/5")
        for lvl in range(model.N):
            assert discrete_eigvectors(model, lvl)[0] == 1.0

    def test_two_level_direction(self):
        model = build_morse_model("9/4")
        v = discrete_eigvectors(model, 0)
        assert abs(v[1] + 2 * math.sqrt(1.5) / 3) <= 1e-12

    def test_single_level_trivial(self):
        assert discrete_eigvectors(build_morse_model("1"), 0) == [1.0]

    @pytest.mark.parametrize("b", ["9/4", 3.8])
    def test_parallel_to_eigensolver(self, b):
        model = build_morse_model(b)
        r = bound_states(model)
        for lvl in range(model.N):
            v = np.array(discrete_eigvectors(model, lvl))  # raises if not parallel
            cos = abs(v @ r.eigenvectors[:, lvl]) / np.linalg.norm(v)
            assert cos >= 1 - 1e-9

    def test_range_checked(self):
        with pytest.raises(ValidationError):
            discrete_eigvectors(build_morse_model("9/4"), 2)

    def test_no_bound_states_is_named(self):
        # the range check read "mlevel must lie in 0..-1" at N = 0
        for b in ("1/3", 0.3333):
            with pytest.raises(ValidationError, match=r"no bound states \(N = 0\), so no level 0$"):
                expansion_identity(build_morse_model(b), 0)
            with pytest.raises(ValidationError, match="no bound states"):
                discrete_eigvectors(build_morse_model(b), 0)

    def test_large_float_b_ends_in_a_package_error(self):
        # N = 300: n! leaves the float range, and the level-0 vector's norm would
        # (components up to 4.6e160).  The float column reaches the eigensolver's
        # check, which only level 299 passes: the forward recurrence loses the
        # minimal solution at the others.
        model = build_morse_model(300.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = discrete_eigvectors(model, 299)
            assert v[0] == 1.0 and np.all(np.isfinite(v))
            for lvl in (0, 150):
                with pytest.raises(InternalConsistencyError, match="not parallel"):
                    discrete_eigvectors(model, lvl)

    def test_column_beyond_the_float_range_names_n_and_level(self):
        with pytest.raises(ValidationError, match=r"^discrete eigenvector of level 0 at N = 999 leaves the float range"):
            discrete_eigvectors(build_morse_model(999.25), 0)


class TestExpansionIdentity:
    def test_single_level_collapses(self):
        r = expansion_identity(build_morse_model("1"), 0)
        assert r.C == 1 and r.max_residual == 0.0

    def test_reference_constant(self):
        r = expansion_identity(build_morse_model("9/4"), 0)
        assert r.C == F(2, 3)
        assert r.max_residual == 0.0

    @pytest.mark.parametrize("b", ["1", "9/4", "13/5", "19/5"])
    def test_exact_zero_all_levels(self, b):
        model = build_morse_model(b)
        for lvl in range(model.N):
            r = expansion_identity(model, lvl)
            assert r.exact and r.max_residual == 0.0

    def test_leading_coefficients_agree(self):
        # independent confirmation of the constant from the top coefficient
        model = build_morse_model("19/5")
        from jmatrix.opfamilies import Family, dual_hahn_value, family_polynomial

        N, b = model.N, model.b_exact
        alpha = 2 * b - 2 * N
        for lvl in range(N):
            r_top = dual_hahn_value(N - 1, N - 1 - lvl, alpha, F(0), N - 1)
            lead_lhs = r_top * family_polynomial(Family.laguerre(alpha), N - 1).leading()
            rhs_poly = family_polynomial(Family.laguerre(2 * b - 2 * lvl - 1), lvl)
            lead_rhs = expansion_identity(model, lvl).C * rhs_poly.leading()
            assert lead_lhs == lead_rhs

    def test_float_fallback_small_residual(self):
        model = build_morse_model(2.25)
        r = expansion_identity(model, 0)
        assert not r.exact and r.max_residual <= 1e-10

    def test_column_is_the_series(self):
        for b in ("9/4", "19/5", "49/4"):
            model = build_morse_model(b)
            N, alpha = model.N, 2 * model.b_exact - 2 * model.N
            for lvl in range(N):
                want = [series_dual_hahn(n, N - 1 - lvl, alpha, 0, N - 1) for n in range(N)]
                assert morse._dual_hahn_column(model, lvl, alpha, F(1)) == want

    def test_rounding_bound(self):
        assert expansion_identity(build_morse_model("19/5"), 1).rounding_bound == 0.0
        assert expansion_identity(build_morse_model(16.25), 3).rounding_bound <= 1e-9
        assert expansion_identity(build_morse_model(32.25), 3).rounding_bound > 1e-9

    @pytest.mark.parametrize("b", [3.8, 8.25, 16.25, 24.25])
    def test_float_residual_within_its_rounding_bound(self, b):
        model = build_morse_model(b)
        for lvl in range(model.N):
            r = expansion_identity(model, lvl)
            assert r.max_residual <= r.rounding_bound

    def test_levels_in_two_threads_stay_exact(self):
        # Both levels read the Laguerre(1/2) table to degree 63; a switch
        # interval of 1e-6 s interleaves the two builds of it.
        model = build_morse_model("257/4")
        opfamilies._family_table.cache_clear()
        residuals = {}

        def run(level):
            residuals[level] = expansion_identity(model, level).max_residual

        threads = [threading.Thread(target=run, args=(level,)) for level in (3, 40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert residuals == {3: 0.0, 40: 0.0}


class TestContinuum:
    def test_p0_is_one(self):
        cp = continuous_polys(build_morse_model("9/4"), 5, 0.9)
        assert cp.recurrence[0] == 1.0 and cp.normalized[0] == 1.0

    @pytest.mark.parametrize("b,n_max", [("9/4", 10), (3.8, 8)])
    def test_two_routes_agree(self, b, n_max):
        cp = continuous_polys(build_morse_model(b), n_max, 1.3)
        assert cp.max_rel_diff <= 1e-10

    @pytest.mark.parametrize("b,n_max", [("9/4", 10), (3.8, 8), ("33/10", 12)])
    def test_normalized_route_is_the_series(self, b, n_max):
        # both routes of continuous_polys are recurrences; the series is not
        model = build_morse_model(b)
        gamma = 1.3
        cp = continuous_polys(model, n_max, gamma)
        b_ex, half = F(model.b), F(1, 2)  # the float b the model reads, exactly
        trio = (b_ex + half, model.N - b_ex + half, b_ex - model.N + half)
        for n, got in enumerate(cp.normalized):
            s = series_cdh(*trio, n, Mode.EXACT)(F(gamma**2))  # exact: the float series cancels
            want = float(s) / (math.factorial(n) * math.sqrt(
                opfamilies.pochhammer(model.N + 1.0, n) * opfamilies.pochhammer(2 * model.b - model.N + 1.0, n)
            ))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), n  # measured worst 6.7e-16

    @pytest.mark.parametrize("b", ["9/4", "19/5", "33/10", "7/10", 5.7, "1/5"])
    def test_recurrence_reads_rows_n_on_of_the_bands(self, b):
        # bit for bit: the continuum block is the tail of the one Jacobi matrix
        model = build_morse_model(b)
        N = model.N
        td = schrodinger_tridiag(model, N + 12)
        tail = JacobiOperator.from_sequences(td.a[N:], td.diag[N:])
        for gamma in (0.3, 0.9, 1.3, 2.7):
            assert continuous_polys(model, 10, gamma).recurrence == jacspec.eval_pn(tail, gamma**2, 10)

    def test_parameters_strictly_positive(self):
        for b in ("9/4", "19/5", 5.7, "1/5"):
            model = build_morse_model(b)
            trio = (model.b + 0.5, model.N - model.b + 0.5, model.b - model.N + 0.5)
            assert all(v > 0 for v in trio)

    def test_parseval_reference_cases(self):
        model = build_morse_model("9/4")
        assert abs(parseval_check(model, 0, 0) - 1.0) <= 1e-8
        assert abs(parseval_check(model, 0, 1)) <= 1e-8
        assert abs(parseval_check(model, 5, 5) - 1.0) <= 1e-7

    @pytest.mark.parametrize("b, n, m", [(F(4, 5), 0, 0), (F(13, 5), 0, 2), (F(17, 3), 10, 10)])
    def test_parseval_matches_the_per_call_integrand_bit_for_bit(self, b, n, m):
        # the oracle reads the kernel and builds the weight inside every integrand call
        model = build_morse_model(b)
        kernel = morse._continuum_kernel(model)

        def integrand(weight):
            def f(g):
                g = np.asarray(g, dtype=float)
                vals = jacspec._recurrence(kernel, g * g, max(n, m))
                return vals[n] * vals[m] * weight(model.b, model.N, g)

            return f

        got = parseval_check(model, n, m)
        want = jacspec.halfline_integrate(integrand(opfamilies.cdh_weight), lo=0.0, rtol=1e-10, atol=1e-12)
        assert hexes([got]) == hexes([want])
        # the four-log-gamma weight moves the value by 9.0e-14 at most here
        four_calls = jacspec.halfline_integrate(integrand(four_call_cdh_weight), lo=0.0, rtol=1e-10, atol=1e-12)
        assert abs(got - four_calls) <= 1e-12

    def test_parseval_range_guard(self):
        with pytest.raises(ValidationError):
            parseval_check(build_morse_model("9/4"), 11, 0)
