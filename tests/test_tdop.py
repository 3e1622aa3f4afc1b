import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from jmatrix import lame, morse
from jmatrix.errors import ValidationError
from jmatrix.polycore import (
    DegreeLoweringError,
    DegreeLoweringOperator,
    Mode,
    ModeError,
    Polynomial,
    coerce_scalar,
    compose,
    derivative_op,
    q_derivative_op,
    second_derivative_op,
    to_mode,
)
from jmatrix.tdop import (
    InnerProductError,
    MomentInnerProduct,
    MultiplePoleError,
    NotSymmetrizableError,
    TDOperator,
    TridiagonalizationError,
    VerifyToleranceError,
    eval_weight,
    orthogonalize,
    reconstruct_diagonalizer,
    symmetrize,
    tridiagonalize,
    validate_td,
    weight_log_derivative,
)
from jmatrix.verify import random_strict_operator
from test_opfamilies import hexes

F = Fraction
S = derivative_op
T = second_derivative_op


def P(*coeffs):
    return Polynomial(coeffs)


def cubic_op():
    # A = x^3, B = x^2, C = x
    return validate_td(P(0, 0, 0, 1), P(0, 0, 1), P(0, 1), S(), T())


CHEB_MOMENTS = [F(math.comb(k, k // 2), 4 ** (k // 2)) if k % 2 == 0 else F(0) for k in range(25)]
LEGENDRE_MOMENTS = [F(2, k + 1) if k % 2 == 0 else F(0) for k in range(25)]


class TestValidation:
    def test_valid_cubic(self):
        op = cubic_op()
        assert op.strict

    def test_strict_rejects_low_degrees(self):
        with pytest.raises(ValidationError):
            validate_td(P(0, 0, 1), P(0, 1), P(1), S(), T())

    def test_relaxed_admits_them(self):
        op = validate_td(P(0, 0, 1), P(0, 1), P(1), S(), T(), relaxed=True)
        assert not op.strict

    def test_degree_caps(self):
        with pytest.raises(ValidationError):
            validate_td(P(0, 0, 0, 0, 1), P(), P(), S(), T())

    def test_shift_requirements(self):
        with pytest.raises(ValidationError):
            validate_td(P(0, 0, 0, 1), P(), P(), T(), T())

    @pytest.mark.parametrize("q, mode", [(0.5, Mode.EXACT), (F(1, 2), Mode.FLOAT)])
    def test_lowering_mode_conflict_fails_when_built(self, q, mode):
        Sq = q_derivative_op(q)
        A, B, C = (Polynomial(c, mode) for c in ((0, 0, 0, 1), (0, 0, 1), (0, 1)))
        with pytest.raises(ModeError, match="operator 'D_q"):
            validate_td(A, B, C, Sq, compose(Sq, Sq))
        with pytest.raises(ModeError):
            TDOperator(A, B, C, S(), compose(Sq, Sq))


class TestApply:
    def test_monomial_action(self):
        assert cubic_op().apply(P(0, 0, 1)) == P(0, 0, 0, 5)

    def test_constant_maps_to_c(self):
        assert cubic_op().apply(P(1)) == P(0, 1)

    def test_leading_action_matches_apply(self):
        rng = random.Random(2)
        for i in range(20):
            op = random_strict_operator(rng, i, depth=10)
            for k in range(9):
                lead = op.apply(Polynomial.monomial(k)).coeff(k + 1)
                assert lead == op.leading_action(k)

    def test_vanishing_leading_lowers_degree(self):
        # alpha_3 = beta_2 = gamma_1 = 0: output degree stays at most k
        op = validate_td(P(0, 0, 1), P(0, 1), P(1), S(), T(), relaxed=True)
        for k in range(1, 8):
            assert op.apply(Polynomial.monomial(k)).degree <= k

    def test_full_monomial_action_coefficients(self):
        # four-term action of L on x^k, coefficient by coefficient, with
        # q-difference lowering operators
        q = F(2, 3)
        Sq = q_derivative_op(q)
        from jmatrix.polycore import compose

        Tq = compose(Sq, Sq)
        A, B, C = P(F(1, 2), -2, 1, 3), P(2, F(-1, 3), 1), P(F(5, 2), -1)
        op = validate_td(A, B, C, Sq, Tq)
        for k in range(12):
            out = op.apply(Polynomial.monomial(k))
            dk, dpk = Sq.coefficient(k), Tq.coefficient(k)
            assert out.coeff(k + 1) == A.coeff(3) * dpk + B.coeff(2) * dk + C.coeff(1)
            assert out.coeff(k) == A.coeff(2) * dpk + B.coeff(1) * dk + C.coeff(0)
            if k >= 1:
                assert out.coeff(k - 1) == A.coeff(1) * dpk + B.coeff(0) * dk
            if k >= 2:
                assert out.coeff(k - 2) == A.coeff(0) * dpk

    @pytest.mark.parametrize("q", [None, F(1, 2), F(2, 3), F(3, 2), F(2)])
    def test_exact_apply_is_the_product_formula(self, q):
        # integer rows against polynomial products, for degrees 0 .. 41 (41 is
        # the benchmark's largest) and coefficients with denominators up to 12
        rng = random.Random(91 if q is None else int(12 * q))
        for i in range(8):  # eight degree patterns, rational A, B and C
            op = with_lowering(random_strict_operator(rng, 4 * i, depth=2), q)
            assert product_apply(op, Polynomial.zero()) == op.apply(Polynomial.zero()) == Polynomial.zero()
            for degree in range(42):
                p = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree)] + [F(1, 7)])
                got = op.apply(p)
                assert got == product_apply(op, p) and math.gcd(*got._num, got._den) == 1

    def test_exact_apply_when_the_lowering_rows_grow_apart(self):
        # T's integer row is grown to degree 20 on its own, S's only as far as
        # the first exact apply needs; later applies must still read all of S(p)
        op = validate_td(P(F(1, 2), -2, 1, 3), P(2, F(-1, 3), 1), P(F(5, 2), -1), S(), T())
        op.T.apply(Polynomial.monomial(20))
        for degree in (2, 10, 20, 30):
            p = Polynomial([F(k + 1, 3) for k in range(degree + 1)])
            got = op.apply(p)  # before product_apply grows S's row
            assert got == product_apply(op, p)


def product_apply(op, p):
    """L p = A * T(p) + B * S(p) + C * p by polynomial products: the oracle
    for TDOperator.apply, which runs on integer rows in EXACT mode."""
    return op.A * op.T.apply(p) + op.B * op.S.apply(p) + op.C * p


def product_residual(tri, op, n):
    """L y_n - A_n y_{n+1} - B_n y_n - C_n y_{n-1} through ``product_apply``:
    the oracle for Tridiagonalization.relation_residual."""
    rhs = tri.y[n + 1] * tri.An[n] + tri.y[n] * tri.Bn[n]
    if n >= 1:
        rhs = rhs + tri.y[n - 1] * tri.Cn[n]
    return product_apply(op, tri.y[n]) - rhs


def monomial_action(op, j):
    """The coefficients of x^(j-2) .. x^(j+1) in L x^j, from the four-term
    formula on the values of coefficient: the oracle for TDOperator._bands,
    which reads the integer rows of S and T in EXACT mode."""
    dd, d = op.T.coefficient(j), op.S.coefficient(j)
    a, b, c = op.A.coeff, op.B.coeff, op.C.coeff
    return [a(0) * dd, a(1) * dd + b(0) * d, a(2) * dd + b(1) * d + c(0), a(3) * dd + b(2) * d + c(1)]


class TestIntegerBands:
    @pytest.mark.parametrize("q", [None, F(1, 2), F(2, 3), F(3, 2), F(2)])
    def test_rows_over_E_are_the_monomial_action(self, q):
        rng = random.Random(77 if q is None else int(12 * q))
        for i in range(8):  # eight degree patterns, rational A, B and C
            op = with_lowering(random_strict_operator(rng, 4 * i, depth=2), q)
            rows, E, error = op._bands(41)
            assert len(rows) == 41 and type(E) is int and E > 0 and error is None
            for j, row in enumerate(rows):
                assert len(row) == 4 and all(type(v) is int for v in row)
                assert [F(v, E) for v in row] == monomial_action(op, j)

    @pytest.mark.parametrize("q", [None, 2 / 3, 2.0])
    def test_float_rows_over_one_are_the_monomial_action(self, q):
        rng = random.Random(78)
        for i in range(8):
            op = with_lowering(random_strict_operator(rng, 4 * i, depth=2).to_float(), q)
            rows, E, error = op._bands(41)
            assert len(rows) == 41 and E == 1 and error is None
            assert rows == [monomial_action(op, j) for j in range(41)]
            assert all(type(v) is float for row in rows for v in row)

    def test_one_denominator_for_the_whole_table(self):
        Sq = q_derivative_op(F(2, 3))
        op = validate_td(P(F(1, 3), 0, 0, F(5, 4)), P(F(1, 2), F(3, 7)), P(F(1, 5)), Sq, compose(Sq, Sq))
        (_, et), (_, es) = op.T._integer_row(9), op.S._integer_row(9)
        rows, E, _ = op._bands(9)
        assert E == math.lcm(12 * et, 14 * es, 5)
        assert [F(v, E) for v in rows[8]] == monomial_action(op, 8)
        # rows of S and T memoized further do not lengthen a smaller table
        op._bands(30)
        rows, E, _ = op._bands(9)
        assert len(rows) == 9 and [F(v, E) for v in rows[8]] == monomial_action(op, 8)
        assert len(reconstruct_diagonalizer(op, 9).images) == 10

    def test_reads_the_coefficients_below_size_only(self):
        # d(7) = 0 breaks the contract; a table of 7 rows never reads it, a
        # longer one stops there and hands the error back
        exact = validate_td(P(1, 2, 0, 3), P(0, 1, 1), P(2, 1), lowering(1, "S", 7), T())
        for op in (exact, exact.to_float()):
            for size in (7, 12):
                rows, E, error = op._bands(size)
                want = [monomial_action(op, j) for j in range(7)]
                assert [[v if E == 1 else F(v, E) for v in row] for row in rows] == want
                assert (size, error) == (7, None) or str(error) == "S: d(7) = 0 at k >= shift"

    def test_memoized_degrees_are_not_read_again(self, monkeypatch):
        # the degrees the integer rows of S and T hold are known readable;
        # fresh lowering operators, as d/dx and d^2/dx^2 are shared and
        # other tests grow their rows
        op = random_strict_operator(random.Random(5), 0, depth=2)
        op = validate_td(op.A, op.B, op.C, lowering(1, "S", None), lowering(2, "T", None))
        first = op._bands(12)
        calls = []
        coefficient = DegreeLoweringOperator.coefficient
        monkeypatch.setattr(DegreeLoweringOperator, "coefficient", lambda self, k: calls.append(k) or coefficient(self, k))
        assert op._bands(12) == first and calls == []
        assert op._bands(14)[0][:12] == first[0] and sorted(set(calls)) == [12, 13]

    def test_the_first_degree_that_cannot_be_read_ends_the_rows(self):
        # T fails at degree 5 and S at degree 4: d'_4 is read before d_4, and
        # the rows stop at 4 on the error of S
        op = validate_td(P(1, 2, 0, 3), P(0, 1, 1), P(2, 1), lowering(1, "S", 4), lowering(2, "T", 5))
        for each in (op, op.to_float()):
            rows, _, error = each._bands(8)
            assert len(rows) == 4 and str(error) == "S: d(4) = 0 at k >= shift"
        op = validate_td(P(1, 2, 0, 3), P(0, 1, 1), P(2, 1), lowering(1, "S", 4), lowering(2, "T", 4))
        assert str(op._bands(8)[2]) == "T: d(4) = 0 at k >= shift"


def tridiagonalize_by_apply(op, n_max):
    """The canonical construction with L y_k formed by polynomial products
    through op.apply: the oracle for the band-action tridiagonalize.

    random_strict_operator keeps A_k != 0 for k >= 2, so the A_k = 0 branch
    is left out.
    """
    zero, one = coerce_scalar(0, op.mode), coerce_scalar(1, op.mode)
    ys = [Polynomial.one(op.mode)]
    An, Bn, Cn = [], [], []
    for k in range(n_max):
        Ly = op.apply(ys[k])
        a_k, b_k = Ly.coeff(k + 1), Ly.coeff(k)
        c_k = zero if k == 0 else Ly.coeff(k - 1) - b_k * ys[k].coeff(k - 1)
        coeffs = [zero] * (k + 2)
        coeffs[k + 1] = one
        for p in range(k - 2, -1, -1):
            coeffs[p] = (Ly.coeff(p) - b_k * ys[k].coeff(p) - c_k * ys[k - 1].coeff(p)) / a_k
        ys.append(Polynomial(coeffs, op.mode))
        An.append(a_k)
        Bn.append(b_k)
        Cn.append(c_k)
    return ys, An, Bn, Cn


def fraction_diagonalizer(op, n_max):
    """D x^n = L x^(n-1) - x D x^(n-1) on Fractions, from the monomial
    action: the oracle for the integer rows of reconstruct_diagonalizer."""
    images, prev = [Polynomial.zero()], [F(0)]
    for n in range(1, n_max + 1):
        cur = [F(0)] + [-c for c in prev]
        for p, v in enumerate(monomial_action(op, n - 1), n - 3):
            if p >= 0:
                cur[p] += v
        images.append(Polynomial(cur))
        prev = cur
    return images


def with_lowering(op, q):
    """``op`` with d/dx and d^2/dx^2 (q None) or D_q and D_q^2 as S and T."""
    if q is None:
        return validate_td(op.A, op.B, op.C, S(), T())
    Sq = q_derivative_op(q)
    return validate_td(op.A, op.B, op.C, Sq, compose(Sq, Sq))


def lowering(shift, label, zero_at):
    """d/dx (shift 1) or d^2/dx^2 (shift 2), except that d(zero_at) = 0."""
    d = (lambda k: k) if shift == 1 else (lambda k: k * (k - 1))
    return DegreeLoweringOperator(shift, lambda k: 0 if k == zero_at else d(k), label=label)


def reduced(values):
    return all(type(v) is F and v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1 for v in values)


def alternating_sum_diagonalizer(op, n):
    """D x^n by its definition, sum_{k<n} (-1)^k x^k L x^(n-1-k)."""
    acc = Polynomial.zero(op.mode)
    for k in range(n):
        term = Polynomial.monomial(k, mode=op.mode) * op.apply(Polynomial.monomial(n - 1 - k, mode=op.mode))
        acc = acc + term if k % 2 == 0 else acc - term
    return acc


class TestTridiagonalize:
    def test_matches_the_apply_construction(self):
        # 200 operators, every fourth with q-difference lowering operators
        rng = random.Random(11)
        for i in range(200):
            op = random_strict_operator(rng, i, depth=16)
            tri = tridiagonalize(op, 17)
            ys, An, Bn, Cn = tridiagonalize_by_apply(op, 17)
            assert (list(tri.y), list(tri.An), list(tri.Bn), list(tri.Cn)) == (ys, An, Bn, Cn)
            assert all(type(c) is F for p in tri.y for c in p.coeffs)

    def test_float_agrees_with_the_apply_construction(self):
        # the band scalars are rounded before they multiply y_k, so FLOAT
        # results may move in their last bits, no further
        rng = random.Random(12)
        for i in range(40):
            op = random_strict_operator(rng, 4 * (i // 3) + i % 3, depth=16).to_float()
            tri = tridiagonalize(op, 17)
            ys, An, Bn, Cn = tridiagonalize_by_apply(op, 17)
            got = [*tri.An, *tri.Bn, *tri.Cn] + [c for p in tri.y for c in p.coeffs]
            want = [*An, *Bn, *Cn] + [c for p in ys for c in p.coeffs]
            assert len(got) == len(want)
            assert all(abs(g - w) <= 1e-10 * max(1.0, abs(w)) for g, w in zip(got, want))

    def test_built_without_apply_and_verified_through_it(self, monkeypatch):
        # verify is the independent oracle: it re-applies L, the construction
        # does not; in EXACT mode it applies L on integer rows through
        # TDOperator._apply_row, once per relation
        calls = []
        apply_row = TDOperator._apply_row
        monkeypatch.setattr(TDOperator, "_apply_row", lambda op, row: calls.append(row) or apply_row(op, row))
        op = cubic_op()
        tri = tridiagonalize(op, 6)
        assert calls == []
        tri.verify(op)
        assert calls == [y._num for y in tri.y[:6]]

    @pytest.mark.parametrize("q", [None, F(1, 2), F(2, 3), F(3, 2), F(2)])
    def test_matches_the_apply_construction_at_benchmark_size(self, q):
        # n = 41, the largest size of the benchmark, on derivative and
        # q-difference operators: values, and every coefficient a reduced Fraction
        rng = random.Random(41 if q is None else int(6 * q))
        for i in (0, 13):
            op = random_strict_operator(rng, i, depth=41)
            if q is not None:
                op = with_lowering(op, q)
                assert all(op.leading_action(k) != 0 for k in range(2, 42))
            tri = tridiagonalize(op, 41)
            ys, An, Bn, Cn = tridiagonalize_by_apply(op, 41)
            assert (list(tri.y), list(tri.An), list(tri.Bn), list(tri.Cn)) == (ys, An, Bn, Cn)
            assert reduced([c for p in tri.y for c in p.coeffs] + [*tri.An, *tri.Bn, *tri.Cn])
            tri.verify(op)

    def test_first_step_canonical(self):
        tri = tridiagonalize(cubic_op(), 4)
        assert tri.y[0] == P(1) and tri.y[1] == P(0, 1)
        assert tri.An[0] == 1 and tri.Bn[0] == 0 and tri.Cn[0] == 0

    def test_zero_constant_term_gives_monomials(self):
        # A(0) = 0 forces y_n = x^n with the canonical choices
        op = validate_td(P(0, 1, 0, 2), P(0, 0, 1), P(3, 1), S(), T())
        tri = tridiagonalize(op, 10)
        tri.verify(op)
        assert all(tri.y[n] == Polynomial.monomial(n) for n in range(11))

    def test_transformed_cubic_pipeline_exact(self):
        model = lame.build_lame_model(3, -1, -2, 2)
        op = lame.transformed_operator(model)
        tri = tridiagonalize(op, 6)
        for n in range(6):
            assert tri.relation_residual(op, n).is_zero()

    def test_random_strict_operators_exact(self):
        rng = random.Random(8)
        for i in range(30):
            op = random_strict_operator(rng, i, depth=12)
            tri = tridiagonalize(op, 13)
            tri.verify(op)

    def test_basis_is_unit_lower_triangular(self):
        rng = random.Random(4)
        op = random_strict_operator(rng, 1, depth=12)
        tri = tridiagonalize(op, 12)
        for n, y in enumerate(tri.y):
            assert y.degree == n and y.is_monic()

    def test_inconsistent_vanishing_leading_raises(self):
        # leading action k(k-1) - 6 vanishes at k = 3, and A(0) != 0 has by
        # then fed a constant into y_3: the canonical construction cannot
        # satisfy the relation there and must say so instead of returning
        # a basis that violates it
        op = validate_td(P(1, 0, 0, 1), P(), P(0, -6), S(), T())
        with pytest.raises(TridiagonalizationError) as info:
            tridiagonalize(op, 6)
        assert str(info.value) == (
            "band relation unsatisfiable at index 3 with canonical choices. "
            "A_3 = 0 but the x^1 equation has nonzero right side 9"
        )
        assert info.value.index == 3

    @pytest.mark.parametrize("A, B, C, message", [
        ((F(1, 2), 0, 0, 1), (), (0, -6),
         "index 3 with canonical choices. A_3 = 0 but the x^1 equation has nonzero right side 9/2"),
        ((1, 1, 0, 1), (0, 1), (0, -12),
         "index 4 with canonical choices. A_4 = 0 but the x^2 equation has nonzero right side 144/5"),
    ])
    def test_vanishing_leading_message_names_a_rational_right_side(self, A, B, C, message):
        op = validate_td(P(*A), P(*B), P(*C), S(), T())
        with pytest.raises(TridiagonalizationError) as info:
            tridiagonalize(op, 6)
        assert str(info.value) == "band relation unsatisfiable at " + message

    def test_vanishing_coefficient_at_or_above_n_max_is_not_read(self):
        # the construction to n_max forms L x^j for j < n_max only
        plain = random_strict_operator(random.Random(15), 0, depth=7)
        op = validate_td(plain.A, plain.B, plain.C, lowering(1, "S", 7), T())
        tri, want = tridiagonalize(op, 7), tridiagonalize(plain, 7)
        assert (tri.y, tri.An, tri.Bn, tri.Cn) == (want.y, want.An, want.Bn, want.Cn)
        assert reconstruct_diagonalizer(op, 7).images == reconstruct_diagonalizer(plain, 7).images
        Sm = q_derivative_op(-1)  # d(2) = 0
        qop = validate_td(P(0, 0, 0, 1), P(0, 0, 1), P(0, 1), Sm, compose(Sm, Sm))
        tri = tridiagonalize(qop, 2)
        assert (tri.An, tri.y[2]) == ((1, 2), P(0, 0, 1))
        tri.verify(qop)  # L is applied to y_0 and y_1 only: verify reads d(0), d(1) too
        with pytest.raises(DegreeLoweringError) as info:
            tridiagonalize(qop, 3)
        assert str(info.value) == "D_q[q=-1]: d(2) = 0 at k >= shift"
        with pytest.raises(DegreeLoweringError, match=r"d\(7\) = 0"):
            tridiagonalize(op, 8)

    @pytest.mark.parametrize("zero_at, error", [
        (4, TridiagonalizationError), (5, TridiagonalizationError), (3, DegreeLoweringError),
    ])
    def test_inconsistent_step_below_a_vanishing_coefficient_fails_first(self, zero_at, error):
        # the A_3 = 0 case of test_inconsistent_vanishing_leading_raises, with d(zero_at) = 0 in
        # S: a step-by-step construction fails at step 3 before it reads
        # d(4) or d(5), and at the start of step 3 on d(3)
        op = validate_td(P(1, 0, 0, 1), P(), P(0, -6), lowering(1, "S", zero_at), T())
        with pytest.raises(error) as info:
            tridiagonalize(op, 6)
        if error is TridiagonalizationError:
            assert info.value.index == 3 and str(info.value).endswith("the x^1 equation has nonzero right side 9")
        else:
            assert str(info.value) == "S: d(3) = 0 at k >= shift"

    def test_first_degree_that_cannot_be_formed_names_the_error(self):
        # S fails at degree 4 and T at degree 6: L x^4 fails first, on S,
        # though the rows of T are read before those of S
        op = validate_td(P(1, 2, 0, 3), P(0, 1, 1), P(2, 1), lowering(1, "S", 4), lowering(2, "T", 6))
        for build in (tridiagonalize, reconstruct_diagonalizer):
            with pytest.raises(DegreeLoweringError) as info:
                build(op, 8)
            assert str(info.value) == "S: d(4) = 0 at k >= shift"

    def test_json_serialization_shape(self):
        tri = tridiagonalize(cubic_op(), 3)
        d = tri.to_json_dict()
        assert set(d) == {"A_n", "B_n", "C_n", "y"}
        assert len(d["A_n"]) == 3 and len(d["y"]) == 4
        assert d["y"][1] == ["0", "1"]


def _perturbed(tri, field, index, slot=0):
    """``tri`` with one stored value moved by 10^-30: An, Bn or Cn at
    ``index``, or coefficient ``slot`` of y at ``index``."""
    eps = F(1, 10**30)
    if field == "y":
        coeffs = list(tri.y[index].coeffs)
        coeffs[slot] += eps
        ys = tri.y[:index] + (Polynomial(coeffs),) + tri.y[index + 1:]
        return dataclasses.replace(tri, y=ys)
    values = list(getattr(tri, field))
    values[index] += eps
    return dataclasses.replace(tri, **{field: tuple(values)})


class TestVerifyIsIndependent:
    @pytest.mark.parametrize("i", [0, 3])
    @pytest.mark.parametrize("field, index", [
        ("An", 0), ("An", 7), ("An", 19), ("Bn", 0), ("Bn", 11), ("Bn", 19),
        ("Cn", 1), ("Cn", 8), ("Cn", 19),
    ])
    def test_perturbed_band_is_rejected_at_its_index(self, i, field, index):
        # operator 3 uses q-difference lowering operators
        op = random_strict_operator(random.Random(30), i, depth=20)
        tri = tridiagonalize(op, 20)
        tri.verify(op)
        with pytest.raises(TridiagonalizationError, match="exact residual nonzero on verify") as info:
            _perturbed(tri, field, index).verify(op)
        assert info.value.index == index

    @pytest.mark.parametrize("i", [0, 3])
    @pytest.mark.parametrize("index, slot", [(3, 0), (6, 2), (13, 13), (20, 5)])
    def test_perturbed_basis_is_rejected_at_its_first_relation(self, i, index, slot):
        # y_m enters the relations m - 1, m and m + 1; the first one, with
        # A_(m-1) y_m and A_(m-1) != 0 for m - 1 >= 2, fails
        op = random_strict_operator(random.Random(30), i, depth=20)
        tri = tridiagonalize(op, 20)
        with pytest.raises(TridiagonalizationError, match="exact residual nonzero on verify") as info:
            _perturbed(tri, "y", index, slot).verify(op)
        assert info.value.index == index - 1

    def test_does_not_use_the_monomial_action(self, monkeypatch):
        op = random_strict_operator(random.Random(31), 3, depth=20)
        tri = tridiagonalize(op, 20)

        def refuse(self, size):
            raise AssertionError("verify used the construction's monomial bands")

        monkeypatch.setattr(TDOperator, "_bands", refuse)
        tri.verify(op)

    def test_agrees_with_the_apply_residual(self):
        # on a basis that is not the canonical one (Gram-Schmidt against the
        # Chebyshev moments), perturbed anywhere, verify fails first where
        # the residual by polynomial products is first nonzero
        op = validate_td(P(1, 0, -1), P(0, -1), P(0, 1), S(), T(), relaxed=True)
        orth = orthogonalize(tridiagonalize(op, 8), MomentInnerProduct(CHEB_MOMENTS))
        orth.verify(op)
        rng = random.Random(5)
        for field in ("An", "Bn", "Cn", "y"):
            for index in range(8):
                bad = _perturbed(orth, field, index, rng.randrange(index + 1))
                first = next((n for n in range(8) if not product_residual(bad, op, n).is_zero()), None)
                if first is None:
                    bad.verify(op)
                    continue
                with pytest.raises(TridiagonalizationError) as info:
                    bad.verify(op)
                assert info.value.index == first

    @pytest.mark.parametrize("i", [0, 3])
    def test_nonzero_residuals_are_the_product_residuals(self, i):
        # a perturbed basis is the one place the integer-row residual is not
        # the zero polynomial; it must be the residual by polynomial products
        op = random_strict_operator(random.Random(30), i, depth=20)
        tri = tridiagonalize(op, 20)
        rng = random.Random(33 + i)
        for field in ("An", "Bn", "Cn", "y"):
            for index in (1, 7, 19):
                bad = _perturbed(tri, field, index, rng.randrange(index + 1))
                residuals = [bad.relation_residual(op, n) for n in range(20)]
                assert residuals == [product_residual(bad, op, n) for n in range(20)]
                assert any(not r.is_zero() for r in residuals)


class TestModeMismatch:
    # A = x^3, B = x^2, C = x keeps integer coefficients in float; A = 1/3 +
    # x^2/7 + x^3, B = 2x/5 + x^2, C = 1/2 + x does not
    OPERATORS = {
        "integer": (P(0, 0, 0, 1), P(0, 0, 1), P(0, 1)),
        "rational": (P(F(1, 3), 0, F(1, 7), 1), P(0, F(2, 5), 1), P(F(1, 2), 1)),
    }

    @pytest.mark.parametrize("kind", ["integer", "rational"])
    @pytest.mark.parametrize("float_basis", [False, True])
    def test_verify_and_relation_residual_raise(self, kind, float_basis):
        op = validate_td(*self.OPERATORS[kind], S(), T())
        tri = tridiagonalize(op, 6)
        tri.verify(op)
        tri, op = (tri.to_float(), op) if float_basis else (tri, op.to_float())
        message = "float basis with exact operator" if float_basis else "exact basis with float operator"
        with pytest.raises(ModeError, match=message):
            tri.verify(op)
        for n in range(6):
            with pytest.raises(ModeError, match=message):
                tri.relation_residual(op, n)


class TestFloatVerify:
    def rational_op(self):
        A, B, C = P(F(1, 3), F(2, 5), F(-3, 7), F(5, 4)), P(F(1, 2), 3, F(2, 3)), P(1, F(1, 5))
        return validate_td(A, B, C, S(), T()).to_float()

    def test_residual_is_relative_to_its_terms(self):
        # the coefficients of y_k grow with k: at n = 175 the absolute
        # residual is 1.4e-9, relative to its band terms at most 3.6e-16
        op = self.rational_op()
        tri = tridiagonalize(op, 200)
        tri.verify(op, 1e-9)

    @pytest.mark.parametrize("field", ["An", "Bn", "Cn"])
    @pytest.mark.parametrize("index", [1, 100, 199])
    def test_perturbed_bands_raise(self, field, index):
        op = self.rational_op()
        tri = tridiagonalize(op, 200)
        values = list(getattr(tri, field))
        values[index] *= 1 + 1e-6
        bad = dataclasses.replace(tri, **{field: tuple(values)})
        with pytest.raises(VerifyToleranceError, match=f"index {index} exceeds the verify tolerance") as info:
            bad.verify(op, 1e-9)
        assert isinstance(info.value, TridiagonalizationError) and info.value.index == index
        assert "unsatisfiable" not in str(info.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_basis_is_rejected(self, value):
        # a NaN or an infinite coefficient of y_6 (not its first) must fail
        # the first relation it enters, n = 5: a NaN residual and a size
        # that is not finite are never within the tolerance
        op = self.rational_op()
        tri = tridiagonalize(op, 12)
        coeffs = list(tri.y[6].coeffs)
        coeffs[2] = value
        bad = dataclasses.replace(tri, y=tri.y[:6] + (Polynomial(coeffs, Mode.FLOAT),) + tri.y[7:])
        with pytest.raises(VerifyToleranceError, match="index 5 exceeds the verify tolerance") as info:
            bad.verify(op, 1e-9)
        assert info.value.index == 5 and f"residual {value} not within 1e-09 times" in str(info.value)


class TestFloatRange:
    # 1e300 + x^3 overflows L y_5; 1 + 1e-300 x^3 divides y_6 by a tiny A_5
    @pytest.mark.parametrize("A, B, C, where", [
        ((1e300, 0, 0, 1), (0, 0, 1), (0, 1), "L y_5"),
        ((1, 0, 0, 1e-300), (), (), "y_6"),
    ])
    def test_leaving_the_float_range_names_the_step(self, A, B, C, where):
        op = validate_td(*(Polynomial(p, Mode.FLOAT) for p in (A, B, C)), S(), T())
        for n_max in (6, 7, 20):
            with pytest.raises(ValidationError, match=f"^step 5 leaves the float range: {where} has a coefficient"):
                tridiagonalize(op, n_max)
        tri = tridiagonalize(op, 5)
        assert all(math.isfinite(v) for v in [*tri.An, *tri.Bn, *tri.Cn] + [c for p in tri.y for c in p.coeffs])
        tri.verify(op, 1e-9)


class TestRelationResidualRows:
    # relation_residual forms K times the residual in one pass over the rows
    # of L y_n, y_(n+1), y_n and y_(n-1), padded to the longest; operators 5
    # (d/dx) and 11 (q = 3/2) have A_n != 0 and C_n != 0 for every n < 20

    @staticmethod
    def basis(i):
        op = random_strict_operator(random.Random(30), i, depth=20)
        tri = tridiagonalize(op, 20)
        assert all(tri.An) and all(tri.Cn[1:])
        return op, tri

    @pytest.mark.parametrize("i", [5, 11])
    @pytest.mark.parametrize("n", [0, 1, 7, 19])
    def test_raised_degree_of_the_row_above_counts(self, i, n):
        # y_(n+1) + x^(n+2)/7 is longer than L y_n: its top term is in the residual
        op, tri = self.basis(i)
        y = tri.y[: n + 1] + (tri.y[n + 1] + Polynomial.monomial(n + 2, F(1, 7)),) + tri.y[n + 2:]
        bad = dataclasses.replace(tri, y=y)
        res = bad.relation_residual(op, n)
        assert res == product_residual(bad, op, n)
        assert res.degree == n + 2 and res.leading() == -tri.An[n] / 7
        with pytest.raises(TridiagonalizationError, match="exact residual nonzero on verify") as info:
            bad.verify(op)
        assert info.value.index == n

    @pytest.mark.parametrize("i", [5, 11])
    @pytest.mark.parametrize("n", [1, 2, 10, 19])
    def test_perturbed_constant_of_the_row_below_counts(self, i, n):
        # y_(n-1) enters relation n as its C_n term; verify fails at the
        # first relation whose product residual is nonzero
        op, tri = self.basis(i)
        bad = _perturbed(tri, "y", n - 1, 0)
        res = bad.relation_residual(op, n)
        assert res == product_residual(bad, op, n) and res.coeff(0) == -tri.Cn[n] / 10**30
        first = next(m for m in range(20) if not product_residual(bad, op, m).is_zero())
        assert first <= n
        with pytest.raises(TridiagonalizationError, match="exact residual nonzero on verify") as info:
            bad.verify(op)
        assert info.value.index == first

    @pytest.mark.parametrize("i", [5, 11])
    @pytest.mark.parametrize("index, slot, relation", [(0, 0, 0), (20, 0, 19), (20, 19, 19)])
    def test_perturbed_end_of_the_basis_is_rejected_at_its_end_relation(self, i, index, slot, relation):
        # y_0 first enters relation 0; y_20 only relation 19, the last
        op, tri = self.basis(i)
        bad = _perturbed(tri, "y", index, slot)
        assert bad.relation_residual(op, relation) == product_residual(bad, op, relation)
        with pytest.raises(TridiagonalizationError, match="exact residual nonzero on verify") as info:
            bad.verify(op)
        assert info.value.index == relation


class TestSharedDerivatives:
    # d/dx and d^2/dx^2 are one shared instance each, whose memo and integer
    # rows outlive a call; results must be those of fresh operators

    def test_one_instance_each(self):
        assert derivative_op() is derivative_op() and second_derivative_op() is second_derivative_op()
        assert derivative_op().mode is None and second_derivative_op().mode is None

    @staticmethod
    def results(A, B, C, mode, pair, n):
        op = validate_td(*(Polynomial(p, mode) for p in (A, B, C)), *pair, relaxed=True)
        tri = tridiagonalize(op, n)
        tri.verify(op, 0.0 if mode is Mode.EXACT else 1e-9)
        D = reconstruct_diagonalizer(op, n)

        def hexed(values):
            return [v.hex() if type(v) is float else v for v in values]

        def rows(ps):
            return [(hexed(p._num), p._den) for p in ps]

        return (
            rows(tri.y), hexed(tri.An), hexed(tri.Bn), hexed(tri.Cn), rows(D.images),
            rows([tri.relation_residual(op, k) for k in range(n)]),
        )

    @pytest.mark.parametrize("order", [(Mode.EXACT, Mode.FLOAT), (Mode.FLOAT, Mode.EXACT)])
    def test_exact_and_float_on_the_shared_pair_match_fresh_operators(self, order, monkeypatch):
        # the shared memo starts empty here and grows by each size in turn
        for op in (derivative_op(), second_derivative_op()):
            monkeypatch.setattr(op, "_cache", {})
            monkeypatch.setattr(op, "_row", ((), 1))
        A, B, C = (F(1, 3), F(2, 5), F(-3, 7), F(5, 4)), (F(1, 2), 3, F(2, 3)), (1, F(1, 5))
        for mode, n in zip(order + order, (8, 20, 30, 12)):
            fresh = (DegreeLoweringOperator(1, lambda k: k), DegreeLoweringOperator(2, lambda k: k * (k - 1)))
            shared = (derivative_op(), second_derivative_op())
            coeffs = [[float(c) for c in p] if mode is Mode.FLOAT else p for p in (A, B, C)]
            assert self.results(*coeffs, mode, shared, n) == self.results(*coeffs, mode, fresh, n)


def multiplication_operator():
    return validate_td(P(), P(), P(0, 1), S(), T(), relaxed=True)


class TestOrthogonalize:
    def test_chebyshev_moments_give_monic_chebyshev(self):
        tri = tridiagonalize(multiplication_operator(), 8)
        orth = orthogonalize(tri, MomentInnerProduct(CHEB_MOMENTS))
        assert orth.y[2] == P(F(-1, 2), 0, 1)
        assert orth.y[3] == P(0, F(-3, 4), 0, 1)
        assert orth.Cn[1:4] == (F(1, 2), F(1, 4), F(1, 4))

    def test_legendre_moments(self):
        tri = tridiagonalize(multiplication_operator(), 8)
        orth = orthogonalize(tri, MomentInnerProduct(LEGENDRE_MOMENTS))
        assert orth.y[2] == P(F(-1, 3), 0, 1)

    def test_idempotent(self):
        tri = tridiagonalize(multiplication_operator(), 8)
        once = orthogonalize(tri, MomentInnerProduct(CHEB_MOMENTS))
        twice = orthogonalize(once, MomentInnerProduct(CHEB_MOMENTS))
        assert once.y == twice.y and once.An == twice.An and once.Cn == twice.Cn

    def test_orthogonality_of_output(self):
        tri = tridiagonalize(multiplication_operator(), 8)
        ip = MomentInnerProduct(CHEB_MOMENTS)
        orth = orthogonalize(tri, ip)
        for n in range(8):
            for m in range(n):
                assert ip.pair(orth.y[n], orth.y[m]) == 0

    def test_band_compatibility_for_symmetric_operator(self):
        # second-order operator with Chebyshev-orthogonal eigenfunctions,
        # plus a degree-1 multiplication term; symmetric in the Chebyshev pairing
        op = validate_td(P(1, 0, -1), P(0, -1), P(0, 1), S(), T(), relaxed=True)
        tri = tridiagonalize(op, 8)
        orth = orthogonalize(tri, MomentInnerProduct(CHEB_MOMENTS))
        orth.verify(op)  # exact three-band relation in the orthogonal basis
        from jmatrix.jacspec import golub_welsch
        from jmatrix.opfamilies import Family, family_jacobi_operator

        J, mass = family_jacobi_operator(Family.chebyshev_t())
        rule = golub_welsch(J, 24, mass)
        fop = op.to_float()
        rf = [p.to_float() for p in orth.y]
        worst = 0.0
        for n in range(6):
            image = fop.apply(rf[n])
            for m in range(8):
                if abs(n - m) > 1:
                    pairing = rule.integrate(lambda x: polyval(x, image.coeffs) * polyval(x, rf[m].coeffs))
                    worst = max(worst, abs(pairing))
        assert worst <= 1e-10

    def test_quadrature_rule_as_inner_product(self):
        from jmatrix.jacspec import golub_welsch
        from jmatrix.opfamilies import Family, family_jacobi_operator

        J, mass = family_jacobi_operator(Family.chebyshev_t())
        rule = golub_welsch(J, 24, mass)
        tri = tridiagonalize(multiplication_operator(), 8)
        orth = orthogonalize(tri, rule)
        assert orth.mode is Mode.FLOAT
        assert abs(orth.y[2].coeff(0) + 0.5) <= 1e-13

    def test_invalid_moments_detected(self):
        bad = MomentInnerProduct([F(1), F(0), F(-1), F(0), F(1), F(0), F(1)])
        tri = tridiagonalize(multiplication_operator(), 3)
        with pytest.raises(InnerProductError):
            orthogonalize(tri, bad)

    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
    def test_discarded_component_raises(self, mode):
        # not symmetric in the Chebyshev pairing: L r_3 has an r_0 part that
        # three bands would drop, and verify would then fail at index 3
        op = cubic_op() if mode is Mode.EXACT else cubic_op().to_float()
        with pytest.raises(InnerProductError, match="n = 3"):
            orthogonalize(tridiagonalize(op, 6), MomentInnerProduct(CHEB_MOMENTS))

    def test_short_moment_sequence_rejected(self):
        tri = tridiagonalize(multiplication_operator(), 8)
        with pytest.raises(InnerProductError):
            orthogonalize(tri, MomentInnerProduct(CHEB_MOMENTS[:9]))


class TestSymmetrize:
    def cheb_tri(self):
        tri = tridiagonalize(multiplication_operator(), 8)
        return orthogonalize(tri, MomentInnerProduct(CHEB_MOMENTS))

    def test_offdiagonal_values(self):
        sym = symmetrize(self.cheb_tri())
        assert abs(sym.a[0] - math.sqrt(0.5)) <= 1e-15
        assert all(abs(a - 0.5) <= 1e-15 for a in sym.a[1:])

    def test_morse_continuum_offdiagonals(self):
        # monic normalization of the continuum rows: A_n = 1, C_{n+1} = upper(n)^2;
        # symmetrization must recover the square-root band entries
        from jmatrix.tdop import Tridiagonalization

        model = morse.build_morse_model("9/4")
        n_max = 6
        td = morse.schrodinger_tridiag(model, model.N + n_max)
        uppers = [-td.a[model.N + n] for n in range(n_max)]
        diags = [td.diag[model.N + n] for n in range(n_max)]
        tri = Tridiagonalization(
            tuple(Polynomial.monomial(n, mode=Mode.FLOAT) for n in range(n_max + 1)),
            tuple(1.0 for _ in range(n_max)),
            tuple(diags),
            (0.0,) + tuple(u * u for u in uppers[:-1]),
        )
        sym = symmetrize(tri)
        for n in range(n_max - 1):
            assert abs(sym.a[n] - uppers[n]) <= 1e-13 * uppers[n]

    def test_sign_violation_reports_index(self):
        from jmatrix.tdop import Tridiagonalization

        bad = Tridiagonalization(
            (P(1), P(0, 1), P(0, 0, 1)), (F(1), F(1)), (F(0), F(0)), (F(0), F(-1))
        )
        with pytest.raises(NotSymmetrizableError) as err:
            symmetrize(bad)
        assert err.value.index == 0

    def test_conjugation_identity(self):
        orth = self.cheb_tri()
        sym = symmetrize(orth)
        L = len(orth.An)
        coefrec = np.zeros((L, L))  # row n: C_n | B_n | A_n
        for n in range(L):
            coefrec[n, n] = float(orth.Bn[n])
            if n + 1 < L:
                coefrec[n, n + 1] = float(orth.An[n])
            if n >= 1:
                coefrec[n, n - 1] = float(orth.Cn[n])
        D = np.diag(sym.basis_norms[:L])
        got = np.linalg.inv(D) @ coefrec @ D
        want = np.zeros((L, L))
        for n in range(L):
            want[n, n] = sym.b[n]
            if n + 1 < L:
                want[n, n + 1] = want[n + 1, n] = sym.a[n]
        assert np.max(np.abs(got - want)) <= 1e-13


class TestReconstruction:
    def test_base_cases(self):
        op = cubic_op()
        D = reconstruct_diagonalizer(op, 5)
        assert D.images[0].is_zero()
        assert D.images[1] == op.C

    def test_anticommutator_exact(self):
        rng = random.Random(6)
        x = P(0, 1)
        for i in range(10):
            op = random_strict_operator(rng, i, depth=21)
            D = reconstruct_diagonalizer(op, 21)
            for n in range(21):
                mono = Polynomial.monomial(n)
                assert (D.apply(x * mono) + x * D.apply(mono) - op.apply(mono)).is_zero()

    def test_matches_the_alternating_sum(self):
        rng = random.Random(13)
        for i in range(12):
            op = random_strict_operator(rng, i, depth=21)
            D = reconstruct_diagonalizer(op, 21)
            for n in range(22):
                assert D.images[n] == alternating_sum_diagonalizer(op, n)

    @pytest.mark.parametrize("q", [None, F(1, 2), F(2, 3), F(3, 2), F(2)])
    def test_matches_the_fraction_loop_at_benchmark_size(self, q):
        rng = random.Random(43 if q is None else int(6 * q) + 1)
        for i in (1, 14):
            op = with_lowering(random_strict_operator(rng, i, depth=2), q)
            D = reconstruct_diagonalizer(op, 41)
            assert list(D.images) == fraction_diagonalizer(op, 41)
            assert reduced([c for image in D.images for c in image.coeffs])

    def test_float_matches_the_alternating_sum(self):
        rng = random.Random(14)
        op = random_strict_operator(rng, 0, depth=21).to_float()
        D = reconstruct_diagonalizer(op, 21)
        for n in range(22):
            want = alternating_sum_diagonalizer(op, n)
            scale = max((abs(c) for c in want.coeffs), default=1.0)
            assert D.images[n].degree == want.degree
            assert all(abs(D.images[n].coeff(i) - c) <= 1e-14 * scale for i, c in enumerate(want.coeffs))

    def test_float_images_and_apply_are_pinned(self):
        # float.hex of every D x^n and of D p for float operators, two with
        # q-difference lowering; the digest was taken before the EXACT and
        # FLOAT loops became one, so a moved bit anywhere shows
        rng = random.Random(15)
        digest = hashlib.sha256()
        for i, q in enumerate((None, None, 2 / 3, 3 / 2)):
            op = random_strict_operator(rng, 4 * i + i % 3, depth=21).to_float()
            D = reconstruct_diagonalizer(op if q is None else with_lowering(op, q), 21)
            p = Polynomial([0.0 if k % 3 == 1 else rng.uniform(-1, 1) for k in range(22)], Mode.FLOAT)
            for poly in (*D.images, D.apply(p)):
                digest.update(" ".join(hexes(poly.coeffs)).encode() + b";")
        assert digest.hexdigest() == "280e3559388f559f07eafdf24bb7ebd3b16473c5af5cfce9921471b984d3a4fb"

    def test_apply_in_another_mode_raises(self):
        D = reconstruct_diagonalizer(cubic_op(), 5)
        with pytest.raises(ModeError):
            D.apply(Polynomial([1.0, 2.0], Mode.FLOAT))
        with pytest.raises(ModeError):
            reconstruct_diagonalizer(cubic_op().to_float(), 5).apply(P(1, 2))

    def test_matrix_shape(self):
        D = reconstruct_diagonalizer(cubic_op(), 4)
        M = D.matrix()
        assert len(M) == 5 and len(M[0]) == 5
        assert M[0][0] == 0  # first column is the zero image of the constant


class TestWeightODE:
    def cheb_operator(self):
        return validate_td(P(1, 0, -1), P(0, -1), P(), S(), T(), relaxed=True)

    def test_chebyshev_residues(self):
        ws = weight_log_derivative(self.cheb_operator())
        assert dict(ws.poles) == {F(1): F(-1, 2), F(-1): F(-1, 2)}
        assert ws.poly_part.is_zero()

    def test_lame_residues(self):
        model = lame.build_lame_model(3, -1, -2, 2)
        ws = weight_log_derivative(lame.transformed_operator(model))
        assert dict(ws.poles) == {F(1): F(-1, 2), F(-1): F(-1, 2), F(-3, 2): F(-1, 2)}

    def test_derivative_of_a_equals_b_gives_flat_weight(self):
        op = validate_td(P(1, 0, -1), P(0, -2), P(), S(), T(), relaxed=True)
        ws = weight_log_derivative(op)
        assert all(res == 0 for _, res in ws.poles) and ws.poly_part.is_zero()
        assert eval_weight(ws, 0.3) == 1.0

    def test_repeated_root_rejected(self):
        model = morse.build_morse_model("9/4")
        with pytest.raises(MultiplePoleError):
            weight_log_derivative(morse.conjugated_operator(model))

    def test_polynomial_part_split_off(self):
        # A = x, B = x^2: (B - A')/A = x - 1/x
        op = validate_td(P(0, 1), P(0, 0, 1), P(), S(), T(), relaxed=True)
        ws = weight_log_derivative(op, interval=(0.0, math.inf))
        assert ws.poly_part == P(0, 1)
        assert dict(ws.poles) == {F(0): F(-1)}
        # w(x) ~ exp(x^2 / 2) / x, normalized at x = 1
        got = eval_weight(ws, 2.0)
        want = (math.exp(2.0) / 2.0) / math.exp(0.5)
        assert abs(got - want) <= 1e-12 * want

    def test_residue_reconstruction(self):
        model = lame.build_lame_model(3, -1, -2, 2)
        op = lame.transformed_operator(model)
        ws = weight_log_derivative(op)
        numer = op.B - op.A.derivative()
        recon = Polynomial.zero()
        for rho, res in ws.poles:
            factor = Polynomial([op.A.leading()])
            for rho2, _ in ws.poles:
                if rho2 != rho:
                    factor = factor * P(-rho2, 1)
            recon = recon + factor * res
        assert (recon + ws.poly_part * op.A - numer).is_zero()

    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
    def test_constant_leading_coefficient_has_no_poles(self, mode):
        # A = 2, B = 3x^2 + x: (B - A')/A = (3x^2 + x)/2 is all polynomial part
        op = validate_td(Polynomial((2,), mode), Polynomial((0, 1, 3), mode),
                         Polynomial((1,), mode), S(), T())
        ws = weight_log_derivative(op)
        assert ws.poles == ()
        assert ws.poly_part == Polynomial((0, 1, 3), mode) * to_mode(Fraction(1, 2), mode)
        assert ws.interval == (-math.inf, math.inf)

    def test_requires_true_derivatives(self):
        op = validate_td(P(1, 0, -1), P(0, -1), P(), q_derivative_op(F(1, 2)),
                         second_derivative_op(), relaxed=True)
        with pytest.raises(ValidationError):
            weight_log_derivative(op)


class TestEvalWeight:
    def spec(self):
        return weight_log_derivative(
            validate_td(P(1, 0, -1), P(0, -1), P(), S(), T(), relaxed=True)
        )

    def test_normalization_point(self):
        assert eval_weight(self.spec(), 0.0) == 1.0

    def test_closed_form_ratio(self):
        got = eval_weight(self.spec(), 0.5)
        assert abs(got - (1 - 0.25) ** -0.5) <= 1e-14

    def test_pole_and_interval_guards(self):
        model = lame.build_lame_model(3, -1, -2, 2)
        ws = weight_log_derivative(lame.transformed_operator(model), interval=(-2.0, -1.0))
        with pytest.raises(ValidationError):
            eval_weight(ws, -1.5)  # pole at alpha
        with pytest.raises(ValidationError):
            eval_weight(ws, 5.0)  # outside interval

    def test_lame_weight_profile(self):
        model = lame.build_lame_model(3, -1, -2, 2)
        ws = weight_log_derivative(lame.transformed_operator(model), interval=(1.0, math.inf))
        ref = lambda y: ((y * y - 1) * (y - model.alpha)) ** -0.5
        base = eval_weight(ws, 2.0) / ref(2.0)
        for y in (1.5, 3.0, 4.5, 9.0):
            assert abs(eval_weight(ws, y) / ref(y) - base) <= 1e-10 * base
