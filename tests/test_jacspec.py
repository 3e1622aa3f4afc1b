import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jmatrix import jacspec
from jmatrix.errors import ConvergenceError, ValidationError
from jmatrix.jacspec import (
    JacobiOperator,
    QuadratureRule,
    adaptive_integrate,
    berezanskii_test,
    eig_block,
    eval_pn,
    eval_pn_scaled,
    gauss_legendre_rule,
    golub_welsch,
    halfline_integrate,
    split_blocks,
    symmetric_tridiagonal_eig,
)
from jmatrix.opfamilies import Family, FamilyKind, family_jacobi_operator
from test_opfamilies import hexes


EPS = float(np.finfo(float).eps)


def const_op(a_seq, b_seq):
    return JacobiOperator.from_sequences(a_seq, b_seq)


def full_vector_ql(diag, off):
    """The oracle: implicit-shift QL with Givens rotations of whole eigenvectors, O(n^3).

    It shares no code with ``symmetric_tridiagonal_eig``, whose root-free QL
    rotates no vector and whose first components come from the recurrence.
    Returns ascending eigenvalues and the eigenvectors as columns.
    """
    n = len(diag)
    d = [float(v) for v in diag]
    e = [float(v) for v in off] + [0.0]
    Z = np.eye(n)
    eps = float(np.finfo(float).eps)
    for l in range(n):
        for _ in range(30 * n):
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
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
        else:
            raise AssertionError("oracle QL did not converge")
    order = np.argsort(d, kind="stable")
    return np.array(d)[order], Z[order].T


def block_bands(J, block):
    start, stop = block
    return ([float(J.b_at(i)) for i in range(start, stop)], [float(J.a_at(i)) for i in range(start, stop - 1)])


class TestSplitBlocks:
    def test_simple_zero(self):
        J = const_op([1.0, 0.0, 1.0, 1.0, 1.0], [0.0] * 6)
        bd = split_blocks(J, 5)
        assert bd.blocks == ((0, 2),)
        assert bd.tail_start == 2
        assert [stop - start for start, stop in bd.blocks] == [2]

    def test_morse_boundary(self):
        from jmatrix.morse import build_morse_model, morse_jacobi_operator

        J = morse_jacobi_operator(build_morse_model("9/4"))
        bd = split_blocks(J, 8)
        assert bd.boundaries == (-1, 1)
        assert bd.blocks == ((0, 2),)

    def test_even_band_boundary_dimension(self):
        # upper coefficient carries the integer factor (2n - m); for m = 2k
        # the first invariant block has dimension k + 1
        m = 6
        k = m // 2

        def a(n):
            factor = 2 * n - m
            if factor == 0:
                return 0.0
            return math.sqrt(abs(factor * (2 * n + m + 1) * (2 * n + 2 + m) * (2 * n + 1 - m))) / 8.0

        J = JacobiOperator(a=a, b=lambda n: float(n * n))
        bd = split_blocks(J, 12)
        assert bd.blocks[0] == (0, k + 1)

    def test_exact_zero_entries(self):
        J = JacobiOperator(a=lambda n: Fraction(0) if n == 2 else Fraction(1), b=lambda n: Fraction(0))
        bd = split_blocks(J, 6)
        assert bd.boundaries == (-1, 2)

    def test_block_union_covers_scan(self):
        rng = random.Random(11)
        a = [rng.choice([0.0, 1.3, 0.7]) for _ in range(30)]
        J = JacobiOperator(a=lambda n: a[n], b=lambda n: 0.0)
        bd = split_blocks(J, 30)
        covered = sum(stop - start for start, stop in bd.blocks)
        tail = 30 - (bd.tail_start if bd.tail_start is not None else 30)
        assert covered + (30 - covered) == 30
        if bd.tail_start is not None:
            assert covered == bd.tail_start


class TestEigBlock:
    def test_single_entry(self):
        J = const_op([], [4.25])
        r = eig_block(J, (0, 1))
        assert r.eigenvalues[0] == 4.25

    def test_two_by_two_oracle(self):
        # trace -3.625, det 1.72265625 by hand
        J = const_op([math.sqrt(1.5)], [-2.0625, -1.5625])
        r = eig_block(J, (0, 2))
        assert np.allclose(r.eigenvalues, [-3.0625, -0.5625], atol=1e-12)

    def test_random_blocks_match_dense_oracle(self):
        # the QL oracle against LAPACK, then the root-free QL and the
        # Christoffel first components against the oracle
        rng = random.Random(31)
        for _ in range(12):
            n = 8
            d = [rng.uniform(-3, 3) for _ in range(n)]
            e = [rng.uniform(0.2, 2.0) for _ in range(n - 1)]
            w, V = full_vector_ql(d, e)
            M = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            w_ref = np.linalg.eigh(M)[0]
            assert np.max(np.abs(w - w_ref)) <= 1e-11 * max(1.0, np.max(np.abs(w_ref)))
            assert np.max(np.abs(M @ V - V @ np.diag(w))) <= 1e-10
            w_new, first = symmetric_tridiagonal_eig(d, e)
            assert np.max(np.abs(w_new - w)) <= 8 * EPS * np.max(np.abs(w))
            assert np.max(np.abs(first - np.abs(V[0]))) <= 1e-14

    def test_sign_flip_similarity_invariance(self):
        rng = random.Random(13)
        d = [rng.uniform(-2, 2) for _ in range(7)]
        e = [rng.uniform(0.1, 1.5) for _ in range(6)]
        w1, _ = symmetric_tridiagonal_eig(d, e)
        w2, _ = symmetric_tridiagonal_eig(d, [-x for x in e])
        assert np.max(np.abs(np.array(w1) - np.array(w2))) <= 1e-11

    def test_sign_flipped_off_diagonal_gives_the_same_bits(self):
        # D J D with D = diag(+-1) is J with off-diagonal signs flipped: the
        # QL reads e^2, and the recurrence flips the sign of p_k exactly
        rng = random.Random(13)
        d, e = block_bands(family_jacobi_operator(Family.jacobi(Fraction(1, 2), Fraction(-1, 4)))[0], (0, 100))
        w, first = symmetric_tridiagonal_eig(d, e)
        for flipped in ([-x for x in e], [rng.choice((-1, 1)) * x for x in e]):
            w_f, first_f = symmetric_tridiagonal_eig(d, flipped)
            assert np.array_equal(w_f, w) and np.array_equal(first_f, first)

    def test_zero_off_diagonal_splits_at_the_first(self):
        # blocks [0, 5), [5, 9) and [9, 14): eigenvalues of all three, first
        # components from the leading block alone and 0.0 beyond it
        rng = random.Random(23)
        d = [rng.uniform(-3, 3) for _ in range(14)]
        e = [rng.uniform(0.2, 2.0) for _ in range(13)]
        e[4] = e[8] = 0.0
        w, first = symmetric_tridiagonal_eig(d, e)
        w_ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert np.max(np.abs(w - w_ref)) <= 8 * EPS * np.max(np.abs(w_ref))
        w_lead, first_lead = symmetric_tridiagonal_eig(d[:5], e[:4])
        in_lead = np.isin(w, w_lead)
        assert in_lead.sum() == 5
        assert np.array_equal(first[in_lead], first_lead)
        assert np.all(first[~in_lead] == 0.0)
        assert abs(np.sum(first ** 2) - 1.0) <= 1e-14

    def test_unstable_recurrence_falls_back_to_lapack(self):
        # random diagonals localize eigenvectors, and the forward recurrence
        # loses the ones that decay away from row 0; the checks catch it
        rng = random.Random(47)
        d = [rng.uniform(-5, 5) for _ in range(60)]
        e = [rng.uniform(0.1, 3.0) for _ in range(59)]
        log_first, _ = jacspec._log_first_components(d, e, np.linalg.eigvalsh(np.diag(d) + np.diag(e, -1)))
        assert not abs(np.sum(np.exp(2 * log_first)) - 1.0) <= 0.5
        w, first = symmetric_tridiagonal_eig(d, e)
        w_ref, V = np.linalg.eigh(np.diag(d) + np.diag(e, -1))
        assert np.max(np.abs(w - w_ref)) <= 60 * EPS * np.max(np.abs(w_ref))  # n eps max|x|, n = 60
        assert np.max(np.abs(first - np.abs(V[0]))) <= 1e-14

    def test_small_component_lost_under_the_sum_check_is_caught(self):
        # n = 31: the squared components sum to 1 within 8 n eps, yet the
        # recurrence left the component at node 1 (2.0e-6) wrong in its 8th
        # digit; the per-node estimate flags it and LAPACK takes over
        rng = random.Random(215)
        n = rng.randint(20, 200)
        d = [rng.uniform(-5, 5) for _ in range(n)]
        e = [rng.uniform(0.1, 3.0) for _ in range(n - 1)]
        T = np.diag(d) + np.diag(e, -1)
        w_ref, V = np.linalg.eigh(T)
        log_first, trusted = jacspec._log_first_components(d, e, np.sort(jacspec._root_free_ql(d, e, 30 * n)))
        assert n == 31 and abs(np.sum(np.exp(2 * log_first)) - 1.0) <= 8 * n * EPS
        assert abs(math.exp(log_first[1]) / abs(V[0, 1]) - 1.0) > 1e-8 and not trusted[1]
        w, first = symmetric_tridiagonal_eig(d, e)
        assert np.array_equal(first, np.abs(V[0]))

    @pytest.mark.parametrize("width", [0.5, 5.0])
    def test_random_first_components_against_lapack(self, width, monkeypatch):
        # every component either passes both checks or comes from LAPACK;
        # weak disorder (width 0.5) takes both paths, strong disorder only
        # LAPACK's.  Eigenvalues: the two solvers' rounding adds up to 37 eps
        # max|x| at worst here, each about half of it.
        eigh = np.linalg.eigh
        handed = []
        monkeypatch.setattr(np.linalg, "eigh", lambda T: handed.append(len(T)) or eigh(T))
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(20, 200)
            d = [rng.uniform(-width, width) for _ in range(n)]
            e = [rng.uniform(0.5, 1.5) for _ in range(n - 1)]
            w, first = symmetric_tridiagonal_eig(d, e)
            w_ref, V = eigh(np.diag(d) + np.diag(e, -1))
            assert np.max(np.abs(w - w_ref)) <= 64 * EPS * np.max(np.abs(w_ref))
            assert np.max(np.abs(first - np.abs(V[0]))) <= 1e-14
        assert 0 < len(handed) < 40 if width < 1 else len(handed) == 40

    def test_trusted_components_keep_their_relative_accuracy(self):
        # weak disorder, n = 20..30: every component passes the checks, and
        # each, down to 1.5e-8, is within 1e-13 of its size of the 30-digit
        # eigenvectors' (LAPACK's first row is off by up to 2e-14 absolute)
        rng = random.Random(5)
        for _ in range(6):
            n = rng.randint(20, 30)
            d = [rng.uniform(-0.5, 0.5) for _ in range(n)]
            e = [rng.uniform(0.5, 1.5) for _ in range(n - 1)]
            log_first, trusted = jacspec._log_first_components(d, e, np.sort(jacspec._root_free_ql(d, e, 30 * n)))
            with mpmath.workdps(30):
                T = mpmath.matrix(n, n)
                for i in range(n):
                    T[i, i] = d[i]
                    if i < n - 1:
                        T[i, i + 1] = T[i + 1, i] = e[i]
                E, Q = mpmath.eigsy(T)
                ref = np.array([abs(float(Q[0, i])) for i in sorted(range(n), key=lambda i: E[i])])
            assert trusted.all()
            assert np.max(np.abs(np.exp(log_first) / ref - 1.0)) <= 1e-13


class TestEigInputs:
    @pytest.mark.parametrize("off", [[], [1.0, 2.0, 3.0]])
    def test_off_diagonal_length_checked(self, off):
        with pytest.raises(ValidationError, match="length n - 1 = 2"):
            symmetric_tridiagonal_eig([1.0, 2.0, 3.0], off)

    @pytest.mark.parametrize(
        "diag, off",
        [([math.nan, 2.0], [1.0]), ([1.0, math.inf], [1.0]), ([1.0, 2.0], [-math.inf]), ([1.0, 2.0], [math.nan])],
    )
    def test_non_finite_rejected(self, diag, off):
        with pytest.raises(ValidationError, match="finite"):
            symmetric_tridiagonal_eig(diag, off)

    @pytest.mark.parametrize(
        "diag, off",
        [([1e300, 2e300, -1e300], [1e300, 1e-300]), ([0.0] * 5, [5e-324] * 4),
         ([1e-310, -1e-310, 3e-310], [2e-310, 1e-311]), ([1e200, -1e200, 1e-200, 3.0], [1e-200, 1e200, 1.0])],
    )
    def test_entries_across_the_double_range(self, diag, off):
        # squared entries neither overflow nor flush to zero, and the sweep
        # neither overflows nor divides by an off entry its scaling flushed
        w, first = symmetric_tridiagonal_eig(diag, off)
        w_ref, V = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
        assert np.max(np.abs(w - w_ref)) <= 8 * EPS * np.max(np.abs(w_ref))
        assert np.max(np.abs(first - np.abs(V[0]))) <= 1e-14

    def test_eigenvalues_beyond_the_double_range_rejected(self):
        with pytest.raises(ValidationError, match="beyond the double range"):
            symmetric_tridiagonal_eig([-1.7e308, 1.7e308], [1.7e308])

    def test_empty(self):
        w, first = symmetric_tridiagonal_eig([], [])
        assert w.shape == (0,) and first.shape == (0,)
        r = eig_block(const_op([], []), (0, 0))
        assert r.eigenvalues.shape == (0,) and r.eigenvectors.shape == (0, 0)

    def test_convergence_error_carries_state(self, monkeypatch):
        monkeypatch.setattr(jacspec, "_QL_SWEEPS_PER_ROW", 0)
        with pytest.raises(ConvergenceError, match="0 of 0 sweeps") as info:
            symmetric_tridiagonal_eig([1.0, 2.0, 3.0], [0.5, 0.5])
        err = info.value
        assert err.state == {"index": 0, "sweeps": 0, "budget": 0, "off_diagonal": 0.5}
        assert (err.index, err.sweeps, err.budget, err.off_diagonal) == (0, 0, 0, 0.5)


def assert_matches_oracle(J, block):
    """eig_block against the QL oracle: eigenvalues within 1e-12 max(1, ||T||),
    each eigenvector with |cos| >= 1 - 1e-12."""
    r = eig_block(J, block)
    d, e = block_bands(J, block)
    w, V = full_vector_ql(d, e)
    norm_t = max(abs(x) + abs(a) + abs(b) for x, a, b in zip(d, [0.0] + e, e + [0.0]))
    assert np.max(np.abs(r.eigenvalues - w)) <= 1e-12 * max(1.0, norm_t)
    cos = np.abs(np.sum(r.eigenvectors * V, axis=0)) / (
        np.linalg.norm(r.eigenvectors, axis=0) * np.linalg.norm(V, axis=0)
    )
    assert np.min(cos) >= 1.0 - 1e-12
    return r


class TestEigBlockAgainstQL:
    def test_random_blocks(self):
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(1, 60)
            d = [rng.uniform(-5, 5) for _ in range(n)]
            e = [rng.choice((-1, 1)) * rng.uniform(0.1, 3.0) for _ in range(n - 1)]
            r = assert_matches_oracle(const_op(e, d), (0, n))
            V = r.eigenvectors
            top = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
            assert np.all(top > 0)  # signs canonicalized

    @pytest.mark.parametrize("b", ["9/4", "19/5", "1997/4"])
    def test_morse_bound_blocks(self, b):
        from jmatrix.morse import build_morse_model, morse_jacobi_operator

        model = build_morse_model(b)
        assert_matches_oracle(morse_jacobi_operator(model), (0, model.N))

    def test_lame_blocks_of_the_verify_suite(self, monkeypatch):
        from jmatrix import lame

        blocks = []
        solve = jacspec.eig_block
        monkeypatch.setattr(jacspec, "eig_block", lambda J, block: blocks.append((J, block)) or solve(J, block))
        for es in ((3, -1, -2), (5, -2, -3), (1, -1, 0)):  # those of lame-even-spectra
            for k in range(7):
                lame.even_spectrum(lame.build_lame_model(*es, 2 * k))
        assert len(blocks) == 21
        for J, block in blocks:
            assert_matches_oracle(J, block)

    @pytest.mark.parametrize(
        "diag, off",
        [([math.nan, 2.0], [1.0]), ([1.0, math.inf], [1.0]), ([1.0, 2.0], [-math.inf]), ([1.0, 2.0], [math.nan])],
    )
    def test_non_finite_rejected(self, diag, off):
        with pytest.raises(ValidationError, match="finite"):
            eig_block(const_op(off, diag), (0, 2))


class TestSturmCount:
    def test_counts_match_eigvalsh(self):
        # random symmetric tridiagonals, some with a zero off-diagonal (a
        # reducible matrix), at random x and between consecutive eigenvalues
        rng = np.random.default_rng(12)
        for trial in range(60):
            n = int(rng.integers(1, 50))
            d = rng.uniform(-5, 5, n)
            e = rng.uniform(-3, 3, n - 1)
            if trial % 4 == 0 and n > 1:
                e[rng.integers(0, n - 1)] = 0.0
            w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            gaps = np.diff(w)
            xs = np.concatenate([rng.uniform(-12, 12, 40), (w[:-1] + gaps / 2), [w[0] - 1.0, w[-1] + 1.0]])
            want = np.searchsorted(w, xs)  # eigenvalues strictly below each x
            assert jacspec._sturm_count(d, e, xs).tolist() == want.tolist()

    def test_zero_pivot(self):
        # d_0 - x = 0 exactly: the pivot is replaced, not divided by
        assert jacspec._sturm_count([1.0, 1.0], [1.0], [1.0, 0.5, 2.5]).tolist() == [1, 1, 2]

    def test_one_by_one(self):
        assert jacspec._sturm_count([3.0], [], [2.0, 4.0]).tolist() == [0, 1]


class TestEvalPn:
    def test_p0_and_p1(self):
        J = const_op([2.0, 1.0], [0.5, 0.0, 0.0])
        vals = eval_pn(J, 1.7, 2)
        assert vals[0] == 1.0
        assert vals[1] == (1.7 - 0.5) / 2.0

    def test_vanishes_at_block_eigenvalues(self):
        J = const_op([math.sqrt(1.5)], [-2.0625, -1.5625])
        r = eig_block(J, (0, 2))
        Junb = JacobiOperator(a=lambda n: math.sqrt(1.5) if n == 0 else 1.0,
                              b=lambda n: [-2.0625, -1.5625][n] if n < 2 else 0.0)
        for lam in r.eigenvalues:
            vals = eval_pn(Junb, lam, 2)
            assert abs(vals[2]) <= 1e-9 * max(1.0, abs(lam))

    def test_break_reported(self):
        J = JacobiOperator(a=lambda n: 0.0 if n == 1 else 1.0, b=lambda n: 0.0)
        with pytest.raises(ValidationError, match="index 1"):
            eval_pn(J, 0.3, 4)

    def test_scaled_agrees_where_finite(self):
        J = JacobiOperator(a=lambda n: 0.5, b=lambda n: 0.0)
        plain = eval_pn(J, 1.9, 40)
        scaled = eval_pn_scaled(J, 1.9, 40)
        for p, (s, logmag) in zip(plain, scaled):
            if p != 0.0 and abs(p) < 1e300:
                assert abs(p - s * math.exp(logmag)) <= 1e-10 * abs(p)


class TestRecurrenceKernel:
    def test_scalar_types_pass_through(self):
        powers = lambda n: (1, 0, 0)  # x p_n = p_{n+1}: p_n = x^n
        exact = jacspec._recurrence(powers, Fraction(1, 2), 3)
        assert exact == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
        assert all(type(v) is Fraction for v in exact)
        assert jacspec._recurrence(powers, 0.5, 3) == [1.0, 0.5, 0.25, 0.125]
        xs = np.array([2.0, -3.0])
        arrays = jacspec._recurrence(powers, xs, 3)
        assert all(np.array_equal(v, xs ** k) for k, v in enumerate(arrays))

    def test_vanishing_u_is_reported(self):
        coeffs = lambda n: (0 if n == 2 else 1, 0, 1)
        for kernel in (jacspec._recurrence, jacspec._recurrence_log):
            with pytest.raises(ValidationError, match="index 2"):
                kernel(coeffs, 0.3, 5)

    def test_log_kernel_follows_overflow(self):
        coeffs = lambda n: (0.5, 0.0, 0.5)  # Chebyshev U: U_n(cosh t) = sinh((n+1)t)/sinh t
        t = 2.0
        logs = jacspec._recurrence_log(coeffs, math.cosh(t), 600)
        for n in (10, 300, 600):
            want = (n + 1) * t - math.log(2 * math.sinh(t))
            assert logs[n][0] == 1.0 and abs(logs[n][1] - want) <= 1e-12 * want


def test_integrators_reject_a_wrong_shape_after_one_call():
    # f must be vectorised: one that collapses its points to a scalar, or
    # returns too many values, is called once and not retried point by point
    rule = gauss_legendre_rule(8, 0.0, 1.0)
    entries = [rule.integrate, lambda f: adaptive_integrate(f, 0.0, 1.0), halfline_integrate]
    for entry in entries:
        for wrong in (lambda x: math.exp(-float(np.max(x))), lambda x: np.append(np.exp(-x), 0.0)):
            calls = []
            with pytest.raises(ValidationError, match="^integrand returned shape") as info:
                entry(lambda x: calls.append(np.shape(x)) or wrong(x))
            assert len(calls) == 1 and calls[0][0] > 1
            assert "\n" not in str(info.value)


class TestGolubWelsch:
    def test_legendre_two_point(self):
        J, mass = family_jacobi_operator(Family.jacobi(0, 0))
        rule = golub_welsch(J, 2, mass)
        assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)

    def test_chebyshev_nodes(self):
        J, mass = family_jacobi_operator(Family.chebyshev_t())
        rule = golub_welsch(J, 3, mass)
        want = sorted(math.cos(math.pi * (2 * k - 1) / 6) for k in (1, 2, 3))
        assert np.allclose(rule.nodes, want, atol=1e-14)

    def test_gauss_exactness_top_degree(self):
        J, mass = family_jacobi_operator(Family.laguerre(0))
        for n in (1, 3, 6):
            rule = golub_welsch(J, n, mass)
            got = rule.integrate(lambda x: x ** (2 * n - 1))
            want = math.factorial(2 * n - 1)
            assert abs(got - want) <= 1e-12 * want

    def test_positive_offdiagonal_required(self):
        J = JacobiOperator(a=lambda n: -1.0, b=lambda n: 0.0)
        with pytest.raises(ValidationError):
            golub_welsch(J, 3, 1.0)

    @pytest.mark.parametrize("n", [16, 100, 256])
    @pytest.mark.parametrize(
        "family",
        [Family.jacobi(Fraction(1, 2), Fraction(-1, 4)), Family.laguerre(Fraction(3, 4)),
         Family.hermite(), Family.chebyshev_t()],
        ids=["jacobi", "laguerre", "hermite", "chebyshev_t"],
    )
    def test_first_row_path_matches_full_vectors(self, family, n):
        # two backward-stable solvers, each up to 19 eps max|x| from the true
        # eigenvalues at n = 256 (see the next test), 20 eps apart at worst
        # (Hermite n = 256); first components within 1e-12 absolute
        J, mass = family_jacobi_operator(family)
        d, e = block_bands(J, (0, n))
        w, V = full_vector_ql(d, e)
        w_new, first = symmetric_tridiagonal_eig(d, e)
        assert np.max(np.abs(w_new - w)) <= 32 * EPS * np.max(np.abs(w))
        assert np.max(np.abs(first - np.abs(V[0]))) <= 1e-12
        if family.kind is FamilyKind.LAGUERRE and n == 256:
            return  # its smallest weights underflow to 0, so there is no rule
        rule = golub_welsch(J, n, mass)
        assert np.array_equal(rule.nodes, w_new)
        assert np.array_equal(rule.weights, mass * first ** 2)

    @pytest.mark.parametrize(
        "family",
        [Family.jacobi(Fraction(1, 2), Fraction(-1, 4)), Family.laguerre(Fraction(3, 4)),
         Family.hermite(), Family.chebyshev_t()],
        ids=["jacobi", "laguerre", "hermite", "chebyshev_t"],
    )
    def test_nodes_against_the_true_eigenvalues(self, family):
        # n = 256: the eigenvalues of the band as rounded to doubles, by two
        # Newton steps on its recurrence in 30 digits from every 8th node
        # and the last (worst 11.9 eps max|x|, Hermite).  Over all nodes the
        # worst is Hermite's, 18.6; full_vector_ql reads 15.8 there, LAPACK
        # eigvalsh 31.5: no solver here meets 8 eps at n = 256
        n = 256
        d, e = block_bands(family_jacobi_operator(family)[0], (0, n))
        w, _ = symmetric_tridiagonal_eig(d, e)
        with mpmath.workdps(30):
            D, E = [mpmath.mpf(v) for v in d], [mpmath.mpf(v) for v in e] + [mpmath.mpf(1)]
            for i in [*range(0, n, 8), n - 1]:
                x = mpmath.mpf(float(w[i]))
                for _ in range(2):
                    p_prev, p, dp_prev, dp = 0, mpmath.mpf(1), 0, 0
                    for k in range(n):
                        lower = E[k - 1] if k else 0
                        p_prev, p, dp_prev, dp = (
                            p, ((x - D[k]) * p - lower * p_prev) / E[k],
                            dp, (p + (x - D[k]) * dp - lower * dp_prev) / E[k],
                        )
                    x -= p / dp
                assert abs(w[i] - x) <= 24 * EPS * np.max(np.abs(w))

    @pytest.mark.parametrize("n", [16, 100, 232, 256])
    def test_chebyshev_weights_against_the_closed_form(self, n):
        # w_k = pi / n at every node x_k = cos((2k + 1) pi / 2n)
        J, mass = family_jacobi_operator(Family.chebyshev_t())
        rule = golub_welsch(J, n, mass)
        assert np.max(np.abs(rule.weights * n / math.pi - 1.0)) <= 2e-13
        want = np.sort(np.cos((2 * np.arange(n) + 1) * math.pi / (2 * n)))
        assert np.max(np.abs(rule.nodes - want)) <= 8 * EPS

    def test_laguerre_weights_against_mpmath(self):
        # Laguerre(0), n = 180: each node polished by Newton steps on the
        # recurrence in 60 digits, and its Christoffel weight 1 / sum p_k^2
        n = 180
        J, mass = family_jacobi_operator(Family.laguerre(0))
        rule = golub_welsch(J, n, mass)
        with mpmath.workdps(60):
            for i in (0, 1, 90):
                x = mpmath.mpf(float(rule.nodes[i]))
                for _ in range(4):
                    p_prev, p, dp_prev, dp, total = 0, mpmath.mpf(1), 0, 0, 0
                    for k in range(n):
                        total += p * p
                        # (k + 1) p_{k+1} = (x - 2k - 1) p_k - k p_{k-1}, orthonormal for alpha = 0
                        p_prev, p, dp_prev, dp = (
                            p, ((x - 2 * k - 1) * p - k * p_prev) / (k + 1),
                            dp, (p + (x - 2 * k - 1) * dp - k * dp_prev) / (k + 1),
                        )
                    x -= p / dp
                assert abs(rule.nodes[i] - float(x)) <= 8 * EPS * rule.nodes[-1]
                assert abs(rule.weights[i] * total - 1) <= 1e-12

    @pytest.mark.parametrize("family, n, smallest", [
        (Family.laguerre(0), 200, "-764.43"), (Family.hermite(), 400, "-767.46"),
        (Family.laguerre(0), 1000, "-3939.32"),
    ])
    def test_weight_underflow_names_n_and_the_smallest_log_weight(self, family, n, smallest):
        # at Laguerre(0) n = 1000, p_k grows about 4000-fold per step near the
        # top node: the sweep rescales before anything overflows
        J, mass = family_jacobi_operator(family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                golub_welsch(J, n, mass)
        assert str(info.value) == (
            f"Gauss rule weights underflow the double range at n = {n}: smallest log-weight {smallest}"
        )

    @pytest.mark.parametrize("family, n", [
        (Family.jacobi(0, 0), 1000), (Family.jacobi(Fraction(-4, 5), 3), 256), (Family.laguerre(Fraction(-1, 2)), 180),
        (Family.hermite(), 256), (Family.chebyshev_t(), 256),
    ])
    def test_rules_build_no_dense_matrix(self, family, n, monkeypatch):
        # the Christoffel first components pass their sum check: no LAPACK fallback
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        J, mass = family_jacobi_operator(family)
        assert golub_welsch(J, n, mass).nodes.shape == (n,)

    def test_legendre_1000_against_numpy(self):
        J, mass = family_jacobi_operator(Family.jacobi(0, 0))
        rule = golub_welsch(J, 1000, mass)
        x_ref, w_ref = np.polynomial.legendre.leggauss(1000)
        assert np.max(np.abs(rule.nodes - x_ref)) <= 1e-14
        assert np.max(np.abs(rule.weights - w_ref) / w_ref) <= 1e-8

    def test_rule_validation(self):
        with pytest.raises(ValidationError):
            QuadratureRule(nodes=np.array([0.0]), weights=np.array([-1.0]), total_mass=-1.0)
        with pytest.raises(ValidationError):
            QuadratureRule(nodes=np.array([0.0]), weights=np.array([1.0]), total_mass=2.0)


class TestIntegrate:
    def test_two_point_rule_exact_on_quadratic(self):
        rule = gauss_legendre_rule(2, -1.0, 1.0)
        assert abs(rule.integrate(lambda x: x**2) - 2.0 / 3.0) <= 1e-15

    def test_chebyshev_orthogonality(self):
        J, mass = family_jacobi_operator(Family.chebyshev_t())
        rule = golub_welsch(J, 12, mass)
        val = rule.integrate(lambda x: (2 * x**2 - 1) * (4 * x**3 - 3 * x))
        assert abs(val) <= 1e-12

    def test_adaptive_failure_carries_its_state(self):
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            adaptive_integrate(lambda x: np.sign(np.sin(1e4 * x)), 0.0, 1.0, rtol=1e-14, atol=1e-14)
        err = info.value
        assert err.panels == 4 * 2**14
        assert math.isfinite(err.estimate) and err.difference != 0

    def test_halfline_tail_beyond_tolerance_raises(self):
        # the search stops at the trial length 8, whose samples are last
        # above the drop at 6, so T = 6.5; the bump at 12 is never sampled,
        # and only the tail integral over [T, 2 * 8] = [6.5, 16] sees it
        def f(x):
            return np.exp(-x * x) + np.exp(-4 * (x - 12) ** 2)

        with pytest.raises(ConvergenceError, match="tail") as info:
            halfline_integrate(f)
        err = info.value
        tail = math.sqrt(math.pi) / 4 * (math.erf(8.0) + math.erf(11.0))
        assert err.T == 6.5
        assert abs(err.tail - tail) <= 1e-9
        assert abs(err.estimate - (math.sqrt(math.pi) / 2 + tail)) <= 1e-9

    def test_halfline_tail_reaches_twice_the_trial_length(self):
        # T = 6.5 as above, but the tail keeps the reach of the trial length
        # 8: a bump at 15.5, past 2T = 13, is still caught
        def f(x):
            return np.exp(-x * x) + np.exp(-4 * (x - 15.5) ** 2)

        with pytest.raises(ConvergenceError, match="tail") as info:
            halfline_integrate(f)
        assert info.value.T == 6.5
        assert abs(info.value.tail - math.sqrt(math.pi) / 4 * (math.erf(1.0) + math.erf(18.0))) <= 1e-9

    @staticmethod
    def halfline_intervals(monkeypatch, f) -> tuple[float, list]:
        """halfline_integrate(f) and the intervals it hands to adaptive_integrate."""
        intervals = []
        adaptive = jacspec.adaptive_integrate

        def spy(g, lo, hi, **kw):
            intervals.append((lo, hi))
            return adaptive(g, lo, hi, **kw)

        monkeypatch.setattr(jacspec, "adaptive_integrate", spy)
        return halfline_integrate(f), intervals

    def test_halfline_cuts_where_the_samples_fall(self, monkeypatch):
        # trial length 8, samples every 1/8: e^(-x^2) is last above 1e-16 of
        # its peak at 6, so T = 6 + 4/8, not the trial length 8; the tail
        # still runs to 2 * 8
        value, intervals = self.halfline_intervals(monkeypatch, lambda x: np.exp(-x * x))
        assert intervals == [(0.0, 6.5), (6.5, 16.0)]
        assert abs(value - math.sqrt(math.pi) / 2) <= 1e-12

    def test_halfline_interior_zero_does_not_cut_short(self, monkeypatch):
        # f vanishes on the sample x = 2 before it decays; T follows the
        # last sample above the drop, not the first one below it
        value, intervals = self.halfline_intervals(monkeypatch, lambda x: (x - 2) ** 2 * np.exp(-x * x))
        assert intervals == [(0.0, 6.625), (6.625, 16.0)]
        assert abs(value - (math.sqrt(math.pi) / 4 - 2 + 2 * math.sqrt(math.pi))) <= 1e-12

    def test_halfline_keeps_what_an_earlier_pass_saw(self, monkeypatch):
        # the spike at 63/16 lies on the grid of the trial length 4 only; on
        # that of 8 every sample is below the drop, yet T stays past the spike
        value, intervals = self.halfline_intervals(monkeypatch, lambda x: np.exp(-1e4 * (x - 63 / 16) ** 2))
        assert intervals == [(0.0, 63 / 16 + 0.5), (63 / 16 + 0.5, 16.0)]
        assert abs(value - math.sqrt(math.pi) / 100) <= 1e-12

    def test_halfline_without_truncation_point_raises(self):
        with pytest.raises(ConvergenceError, match="truncation point") as info:
            halfline_integrate(lambda x: np.ones_like(x))
        assert info.value.T == 4.0 * 2**11 and info.value.peak == 1.0

    def test_adaptive_matches_closed_form(self):
        got = adaptive_integrate(lambda x: np.exp(-x) * np.sin(x), 0.0, 20.0, rtol=1e-12)
        want = 0.5 * (1 - math.exp(-20.0) * (math.sin(20.0) + math.cos(20.0)))
        assert abs(got - want) <= 1e-11


def per_panel_composite_gauss(f, lo, hi, panels):
    """The oracle: one validated ``gauss_legendre_rule`` per panel, summed in panel order."""
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    total_abs = 0.0
    for i in range(panels):
        rule = gauss_legendre_rule(jacspec._PANEL_ORDER, edges[i], edges[i + 1])
        vals = jacspec._sample(f, rule.nodes)
        total += float(np.dot(rule.weights, vals))
        total_abs += float(np.dot(rule.weights, np.abs(vals)))
    return total, total_abs


class TestPanelGrid:
    INTERVALS = [(0.0, 1.0), (-3.7, 12.2), (8.0, 16.0), (0.0, 2.0**-20)]

    @pytest.mark.parametrize("lo, hi", INTERVALS)
    def test_rows_are_the_per_panel_rules(self, lo, hi):
        for panels in [4, 5, 7] + [2**k for k in range(3, 10)]:  # 4 .. 512
            nodes, weights = jacspec._panel_grid(lo, hi, panels)
            edges = np.linspace(lo, hi, panels + 1)
            for i in range(panels):
                rule = gauss_legendre_rule(jacspec._PANEL_ORDER, edges[i], edges[i + 1])
                assert hexes(nodes[i]) == hexes(rule.nodes)
                assert hexes(weights[i]) == hexes(rule.weights)

    def test_composite_sums_match_the_oracle(self):
        f = lambda x: np.cos(3 * x) * np.exp(-x)
        for panels in (4, 8, 64, 512):
            got = jacspec._composite_gauss(f, -1.5, 6.0, panels)
            assert hexes(got) == hexes(per_panel_composite_gauss(f, -1.5, 6.0, panels))

    def test_integrators_identical_through_both_paths(self, monkeypatch):
        f = lambda x: np.cos(3 * x) * np.exp(-x)
        g = lambda x: x**4 * np.exp(-x * x) * np.sin(x)
        calls = lambda: (adaptive_integrate(f, 0.0, 20.0, rtol=1e-12), halfline_integrate(g, rtol=1e-10, atol=1e-12))
        got = calls()
        monkeypatch.setattr(jacspec, "_composite_gauss", per_panel_composite_gauss)
        assert hexes(got) == hexes(calls())


class TestBoundednessDiagnostic:
    def test_bounded_sequences_report_a_sign(self):
        J = JacobiOperator(a=lambda n: 1.0, b=lambda n: math.sin(0.1 * n))
        rep = berezanskii_test(J, 200)
        assert rep.sign in (+1, -1)
        assert rep.strictly_bounded

    def test_one_sided_growth_selects_bounded_branch(self):
        # diagonal grows like +n^2: the minus branch is bounded above
        J = JacobiOperator(a=lambda n: 0.5 * n**2 + 1.0, b=lambda n: 1.5 * n**2)
        rep = berezanskii_test(J, 300)
        assert rep.sign == -1 and rep.strictly_bounded

    def test_both_growing_falls_back_to_slower_branch(self):
        J = JacobiOperator(a=lambda n: 0.5 * n**2 + 1.0, b=lambda n: 0.5 * n**2)
        rep = berezanskii_test(J, 300)
        assert rep.sign == -1 and not rep.strictly_bounded
        lead_plus, lead_minus = rep.leading
        assert lead_plus > lead_minus > 0

    def test_margin_trace_present(self):
        J = JacobiOperator(a=lambda n: 1.0, b=lambda n: 0.0)
        rep = berezanskii_test(J, 100)
        assert len(rep.margin_trace) > 10
        assert all(m >= 0.0 for _, m in rep.margin_trace)
