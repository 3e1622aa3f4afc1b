import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jmatrix.errors import ValidationError
from jmatrix.polycore import (
    DegreeLoweringError,
    Mode,
    ModeError,
    Polynomial,
    compose,
    derivative_op,
    format_polynomial,
    parse_polynomial,
    q_derivative_op,
    read_scalar,
    read_token,
    residual_ratio,
    resolve_mode,
    second_derivative_op,
    to_mode,
)

F = Fraction


def rand_poly(rng, max_deg=12, bound=5):
    deg = rng.randint(0, max_deg)
    return Polynomial([F(rng.randint(-4 * bound, 4 * bound), 4) for _ in range(deg + 1)])


class TestEvaluation:
    def test_direct_substitution(self):
        p = Polynomial([-1, 0, 1])
        assert p(2) == 3

    def test_zero_polynomial(self):
        z = Polynomial([])
        assert z(7) == 0
        assert z.degree == -1

    def test_rational(self):
        p = Polynomial([1, F(1, 2)])
        assert p(F(1, 3)) == F(7, 6)

    def test_mode_mismatch(self):
        p = Polynomial([1, F(1, 2)])
        with pytest.raises(ModeError):
            p(0.5)
        with pytest.raises(ModeError):
            Polynomial([0.5, 1.0])(F(1, 2))


class TestArithmetic:
    def test_mul(self):
        assert Polynomial([-1, 1]) * Polynomial([1, 1]) == Polynomial([-1, 0, 1])

    def test_shift_affine(self):
        q = Polynomial([0, 1]).shift_affine(2, 1)
        assert q == Polynomial([1, 2])

    def test_add_cancels_to_zero(self):
        s = Polynomial([0, 0, 0, 1]) + Polynomial([0, 0, 0, -1])
        assert s.is_zero() and s.degree == -1

    def test_shift_affine_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([0, 1]).shift_affine(0, 1)

    def test_ring_laws_exact(self):
        rng = random.Random(101)
        for _ in range(60):
            p, q, r = (rand_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p * (q + r) == p * q + p * r

    def test_mixed_mode_rejected(self):
        with pytest.raises(ModeError):
            Polynomial([F(1, 2)]) + Polynomial([0.5])
        with pytest.raises(ModeError):
            Polynomial([F(1, 2), 0.5])

    def test_float_agrees_with_exact(self):
        rng = random.Random(77)
        for _ in range(40):
            p = rand_poly(rng, max_deg=10, bound=8)
            q = rand_poly(rng, max_deg=10, bound=8)
            exact = (p * q + p)(F(3, 7))
            approx = (p.to_float() * q.to_float() + p.to_float())(3 / 7)
            assert abs(float(exact) - approx) <= 1e-13 * max(1.0, abs(float(exact)))

    @staticmethod
    def results(p, q):
        """Every kind of arithmetic result of p and q."""
        return (
            p + q, q + p, p - q, q - p, -p, p + (-p), p * q, q * p, p * 3, 3 * p, p * 0,
            p.derivative(), derivative_op().apply(p), second_derivative_op()(p), *divmod(p, q),
            p.shift_affine(2, 1),
        )

    def test_exact_results_hold_fractions_only(self):
        p, q = Polynomial([1, 0, -2, 3]), Polynomial([2, 5])
        for r in self.results(p, q) + (p * F(-1, 2), q_derivative_op(F(1, 2)).apply(p)):
            assert r.mode is Mode.EXACT
            assert all(type(c) is F for c in r.coeffs)
            assert not r.coeffs or r.coeffs[-1] != 0

    def test_float_results_hold_floats_only(self):
        p, q = Polynomial([-0.0, 1.5, -0.0, 2.0]), Polynomial([-0.0, -1.0])
        for r in self.results(p, q) + (p * -0.5, q_derivative_op(0.5).apply(p)):
            assert r.mode is Mode.FLOAT
            assert all(type(c) is float for c in r.coeffs)
            assert not r.coeffs or r.coeffs[-1] != 0

    def test_float_signed_zeros(self):
        # every coefficient sum starts at 0.0, and a coefficient missing from
        # the shorter operand counts as 0.0: -0.0 becomes 0.0 there only
        def sign(p, k):
            return math.copysign(1.0, p.coeffs[k])

        p, one = Polynomial([1.0, -0.0, -0.0, 2.0]), Polynomial([1.0])
        assert sign(p + one, 1) == sign(one + p, 2) == 1.0
        assert sign(p - one, 1) == -1.0  # c - 0.0 is c
        assert sign(one - Polynomial([1.0, 0.0, 0.0, 2.0]), 1) == 1.0  # 0.0 - 0.0 is 0.0
        assert sign(-Polynomial([1.0, 0.0, 2.0]), 1) == -1.0
        assert sign(p * one, 1) == sign(one * p, 2) == 1.0  # 0.0 + (-0.0 * 1.0)
        assert sign(p * 1.0, 1) == sign(1.0 * p, 2) == -1.0  # a scalar product is one product
        assert sign(p.derivative(), 1) == -1.0  # 2 * -0.0
        assert sign(derivative_op().apply(Polynomial([1.0, 1.0, -0.0, 1.0])), 1) == 1.0

    def test_float_product_is_the_zero_started_sum(self):
        # out[k] = 0.0 + a[0] b[k] + a[1] b[k-1] + ..., bit for bit
        rng = random.Random(5)
        for _ in range(200):
            a, b = ([rng.choice([-0.0, 0.0, rng.uniform(-4, 4)]) for _ in range(rng.randint(0, 5))] + [1.5]
                    for _ in range(2))
            want = [0.0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    want[i + j] += x * y
            got = Polynomial(a) * Polynomial(b)
            assert [c.hex() for c in got.coeffs] == [c.hex() for c in want]

    def test_divmod(self):
        p = Polynomial([2, 0, -3, 1])
        d = Polynomial([-1, 1])
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.degree < d.degree


class TestLoweringOperators:
    def test_derivative(self):
        assert derivative_op()(Polynomial([0, 0, 0, 1])) == Polynomial([0, 0, 3])

    def test_second_derivative_kills_linear(self):
        assert second_derivative_op()(Polynomial([0, 1])).is_zero()

    def test_q_derivative(self):
        D = q_derivative_op(F(1, 2))
        assert D(Polynomial([0, 0, 1])) == Polynomial([0, F(3, 2)])

    def test_linearity(self):
        rng = random.Random(5)
        D = q_derivative_op(F(2, 3))
        for _ in range(25):
            p, q = rand_poly(rng, 8), rand_poly(rng, 8)
            a, b = F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 3)
            assert D(p * a + q * b) == D(p) * a + D(q) * b

    def test_shift_affine_round_trip(self):
        rng = random.Random(9)
        for _ in range(25):
            p = rand_poly(rng, 9)
            a, b = F(rng.randint(1, 7), 3), F(rng.randint(-6, 6), 2)
            assert p.shift_affine(a, b).shift_affine(1 / a, -b / a) == p

    def test_nonzero_contract_checked_lazily(self):
        D = q_derivative_op(F(-1))  # d_2 = 0 surfaces only at degree 2
        D(Polynomial([0, 1]))
        with pytest.raises(DegreeLoweringError, match=r"d\(2\) = 0"):
            D(Polynomial([0, 0, 1]))

    def test_below_shift_must_vanish(self):
        from jmatrix.polycore import DegreeLoweringOperator

        with pytest.raises(DegreeLoweringError):
            DegreeLoweringOperator(2, lambda k: 1)

    def test_compose_matches_second_derivative(self):
        S = derivative_op()
        T = compose(S, S)
        for k in range(2, 9):
            assert T.coefficient(k) == k * (k - 1)

    def test_mode_guard(self):
        D = q_derivative_op(0.5)
        with pytest.raises(ModeError):
            D(Polynomial([0, 0, F(1)]))

    @pytest.mark.parametrize("d", [lambda k: F(k, 2), lambda k: k / 2])
    def test_mode_neutral_coefficients_must_be_ints(self, d):
        from jmatrix.polycore import DegreeLoweringOperator

        D = DegreeLoweringOperator(1, d, label="half")
        with pytest.raises(ModeError, match=r"half: mode-neutral d\(1\)"):
            D.coefficient(1)
        with pytest.raises(ModeError):
            D(Polynomial([0, 1]))

    def test_coefficients_typed_once_for_the_mode(self):
        from jmatrix.polycore import DegreeLoweringOperator

        D = DegreeLoweringOperator(1, lambda k: k, mode=Mode.FLOAT)
        assert type(D.coefficient(3)) is float and D.coefficient(3) == 3.0
        assert type(q_derivative_op(2).coefficient(3)) is Fraction
        assert type(derivative_op().coefficient(3)) is int
        with pytest.raises(ModeError):
            DegreeLoweringOperator(1, lambda k: F(k), mode=Mode.FLOAT).coefficient(1)

    @pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(3, 2), 2, F(-1, 3), F(5, 7), F(-7, 2)])
    def test_exact_q_coefficients_are_the_textbook_fraction(self, q):
        D, q = q_derivative_op(q), F(q)
        for k in range(1, 80):
            got, want = D.coefficient(k), (1 - q**k) / (1 - q)
            assert got == want and type(got) is Fraction, k

    @pytest.mark.parametrize("q", [0.5, 2 / 3, 1.5, 2.0, -1 / 3, 5 / 7, -3.5])
    def test_float_q_coefficients_are_the_textbook_float(self, q):
        D = q_derivative_op(q)
        for k in range(1, 80):
            assert D.coefficient(k).hex() == ((1.0 - q**k) / (1.0 - q)).hex(), k

    def test_float_coefficient_overflow_rejected(self):
        D = q_derivative_op(1e200)  # q**2 is beyond the float range
        assert D.coefficient(1) == 1.0
        with pytest.raises(ValidationError, match=r"d\(2\) overflows"):
            D.coefficient(2)


class TestTextFormat:
    def test_examples(self):
        assert parse_polynomial("0,0,0,1") == Polynomial([0, 0, 0, 1])
        p = parse_polynomial("1/2,-3")
        assert p == Polynomial([F(1, 2), -3])

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng, 7)
            assert parse_polynomial(format_polynomial(p)) == p

    def test_float_tokens(self):
        p = parse_polynomial("0.5,-3.0")
        assert p.mode is Mode.FLOAT and p(1.0) == -2.5

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "infinity", "NaN", "1e400"])
    def test_non_finite_tokens_rejected(self, token):
        with pytest.raises(ValidationError, match=f"scalar '{token}' is not finite"):
            parse_polynomial(f"1,{token}")


class TestScalarPolicy:
    @pytest.mark.parametrize(
        "value, want",
        [
            (F(9, 4), (2.25, F(9, 4))),
            (7, (7.0, F(7))),
            ("9/4", (2.25, F(9, 4))),
            ("2.25", (2.25, F(9, 4))),
            ("0.1", (0.1, F(1, 10))),
            (2.25, (2.25, None)),
        ],
    )
    def test_read_scalar(self, value, want):
        assert read_scalar(value) == want

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), "nan", "inf", "-infinity", "1e400", F(10**400), "abc"]
    )
    def test_read_scalar_rejects_non_finite(self, value):
        with pytest.raises(ValidationError):
            read_scalar(value)

    @pytest.mark.parametrize(
        "text", ["1e-1001", "1E+1001", "1e-100000000", "2.5e-0_100000000", "1e" + "9" * 5000]
    )
    def test_read_scalar_bounds_the_exponent(self, text):
        # rejected before Fraction expands the exponent, which would stall
        with pytest.raises(ValidationError, match="exponent"):
            read_scalar(text)

    @pytest.mark.parametrize("text", ["1e-1000", "2.5e3", "-7E+2", "1e-0001000", "1e1_0"])
    def test_read_scalar_keeps_smaller_exponents(self, text):
        assert read_scalar(text) == (float(F(text)), F(text))

    @pytest.mark.parametrize(
        "token, want",
        [("1/2", F(1, 2)), (" -3/6 ", F(-1, 2)), ("7", 7), ("-0", 0), ("0.5", 0.5), ("1e3", 1000.0), ("2.", 2.0)],
    )
    def test_read_token_types_by_spelling(self, token, want):
        got = read_token(token)
        assert got == want and type(got) is type(want)

    def test_read_token_keeps_the_sign_of_zero(self):
        assert math.copysign(1.0, read_token("-0.0")) == -1.0

    @pytest.mark.parametrize("token", ["1e-100000", "1/0", "abc", "1e400", ""])
    def test_read_token_rejects_what_read_scalar_rejects(self, token):
        with pytest.raises(ValidationError, match=f"^scalar '{token}'"):
            read_token(token)

    def test_parse_polynomial_bounds_the_exponent(self):
        # float("1e-100000") is 0.0; the token is refused like any flag value
        with pytest.raises(ValidationError, match="exponent"):
            parse_polynomial("1,1e-100000")

    def test_resolve_mode(self):
        assert resolve_mode(None, True) is Mode.EXACT
        assert resolve_mode(None, False) is Mode.FLOAT
        assert resolve_mode(Mode.FLOAT, True) is Mode.FLOAT
        assert resolve_mode(Mode.EXACT, True) is Mode.EXACT
        with pytest.raises(ValidationError, match="exact mode needs a rational b"):
            resolve_mode(Mode.EXACT, False, "a rational b")

    def test_to_mode(self):
        assert type(to_mode(F(1, 4), Mode.EXACT)) is F and to_mode(F(1, 4), Mode.FLOAT) == 0.25
        assert type(to_mode(3, Mode.EXACT)) is F and type(to_mode(3, Mode.FLOAT)) is float


# -- the Fraction-tuple arithmetic, as the oracle of the integer rows ----------
#
# EXACT polynomials compute on integer rows over one denominator.  These
# helpers are the coefficient-by-coefficient Fraction arithmetic the rows
# replaced, on plain tuples of Fractions.


def o_strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def o_add(a, b):
    return o_strip([x + y for x, y in zip(a, b)] + list(a[len(b):] or b[len(a):]))


def o_sub(a, b):
    return o_strip([x - y for x, y in zip(a, b)] + list(a[len(b):]) + [-c for c in b[len(a):]])


def o_neg(a):
    return tuple(-c for c in a)


def o_mul(a, b):
    if not a or not b:
        return ()
    out = [a[0] * y for y in b]
    for i in range(1, len(a)):
        x = a[i]
        out[i:] = [s + x * y for s, y in zip(out[i:], b)] + [x * b[-1]]
    return o_strip(out)


def o_scale(a, s):
    return o_strip([c * s for c in a])


def o_derivative(a):
    return o_strip([k * c for k, c in enumerate(a[1:], 1)])


def o_lower(a, shift, d):
    """x^k -> d(k) x^(k - shift)."""
    return o_strip([c * d(k) if c != 0 else F(0) for k, c in enumerate(a[shift:], shift)])


def o_qd(q):
    return lambda k: (1 - q**k) / (1 - q)


def assert_is(p, want):
    """p holds the oracle's coefficients, as reduced Fractions, and its row,
    equality and hash agree with the list-built polynomial of them."""
    want = tuple(F(c) for c in want)
    assert p.mode is Mode.EXACT
    assert p.coeffs == want
    assert all(type(c) is F for c in p.coeffs)
    assert p.degree == len(want) - 1 and p.is_zero() == (not want)
    assert p._den > 0 and math.gcd(*p._num, p._den) == 1 and (not p._num or p._num[-1] != 0)
    built = Polynomial(list(want))
    assert p == built and hash(p) == hash(built)
    assert [p.coeff(k) for k in range(len(want) + 2)] == list(want) + [0, 0]

RATIONALS = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
    st.fractions(min_value=F(-1, 10**6), max_value=F(1, 10**6), max_denominator=10**9),
)
ROWS = st.lists(RATIONALS, max_size=9).map(tuple)
SCALARS = st.one_of(st.integers(-7, 7), RATIONALS)
QS = st.sampled_from([F(1, 2), F(2, 3), F(3, 2), F(2)])
EXAMPLES = settings(max_examples=300, derandomize=True, deadline=None, database=None)
FEWER = settings(EXAMPLES, max_examples=100)


class TestRowsAgainstTheFractionOracle:
    @EXAMPLES
    @given(ROWS, ROWS, SCALARS)
    def test_arithmetic(self, a, b, s):
        p, q = Polynomial(a), Polynomial(b)
        a, b = o_strip(a), o_strip(b)
        assert_is(p, a)
        assert_is(p + q, o_add(a, b))
        assert_is(q + p, o_add(b, a))
        assert_is(p - q, o_sub(a, b))
        assert_is(-p, o_neg(a))
        assert_is(p * q, o_mul(a, b))
        assert_is(q * p, o_mul(a, b))
        assert_is(p * s, o_scale(a, s))
        assert_is(s * p, o_scale(a, s))
        assert_is(p.derivative(), o_derivative(a))
        assert_is(p - p, ())
        assert_is(p + (-p), ())
        assert_is((p + q) - q, a)  # a sum whose tail cancels

    @FEWER
    @given(ROWS)
    def test_queries(self, a):
        p, a = Polynomial(a), o_strip(a)
        if a:
            assert p.leading() == a[-1] and type(p.leading()) is F
            assert p.is_monic() == (a[-1] == 1)
            assert (p * (1 / a[-1])).is_monic()
        assert [c.hex() for c in p.to_float().coeffs] == [float(c).hex() for c in a]

    @FEWER
    @given(st.lists(ROWS, min_size=1, max_size=5), QS)
    def test_lowering_operators(self, rows, q):
        # one operator of each kind sees every row in turn, so its integer
        # memo is extended (and, for q-derivatives, rescaled) along the way
        ops = [
            (derivative_op(), 1, lambda k: k),
            (second_derivative_op(), 2, lambda k: k * (k - 1)),
            (q_derivative_op(q), 1, o_qd(q)),
            (compose(q_derivative_op(q), q_derivative_op(q)), 2, lambda k: o_qd(q)(k) * o_qd(q)(k - 1)),
        ]
        for a in rows:
            for op, shift, d in ops:
                assert_is(op.apply(Polynomial(a)), o_lower(o_strip(a), shift, d))

    def test_row_built_equals_list_built(self):
        p = Polynomial._rows([2, -4, 0, 6, 0, 0], 12)
        assert p._num == (1, -2, 0, 3) and p._den == 6
        assert_is(p, (F(1, 6), F(-1, 3), 0, F(1, 2)))
        assert_is(Polynomial._rows([0, 0], 5), ())
        assert Polynomial._rows([], 7)._den == 1

    def test_huge_values_round_once_to_float(self):
        p = Polynomial([F(10**400 + 1, 3**700), F(-(7**500), 10**420), F(1, 3)])
        assert [c.hex() for c in p.to_float().coeffs] == [float(c).hex() for c in p.coeffs]


class TestDiagonalizerAt41:
    @pytest.mark.parametrize("q", [None, F(1, 2), F(2, 3), F(3, 2), F(2)])
    def test_anticommutator_is_the_operator(self, q):
        from jmatrix.tdop import reconstruct_diagonalizer, validate_td

        A, B, C = (F(1, 3), F(-2, 5), F(3, 7), F(5, 4)), (F(1, 2), F(3), F(-2, 3)), (F(1), F(1, 5))
        if q is None:
            S, T, d = derivative_op(), second_derivative_op(), (lambda k: k)
        else:
            S, d = q_derivative_op(q), o_qd(q)
            T = compose(S, S)
        op = validate_td(Polynomial(A), Polynomial(B), Polynomial(C), S, T)
        D = reconstruct_diagonalizer(op, 41)
        x = Polynomial.x()
        for j in range(41):
            mono = (F(0),) * j + (F(1),)
            L = o_add(o_add(o_mul(A, o_lower(mono, 2, lambda k: d(k) * d(k - 1))), o_mul(B, o_lower(mono, 1, d))),
                      o_mul(C, mono))
            assert_is(op.apply(Polynomial(mono)), L)
            assert (D.apply(x * Polynomial.monomial(j)) + x * D.apply(Polynomial.monomial(j))
                    - op.apply(Polynomial.monomial(j))).is_zero()
        # D on a dense polynomial is the sum of its coefficients times the images
        p = tuple(F((-1) ** k * (k + 1), k % 5 + 1) for k in range(41))
        want = ()
        for k, c in enumerate(p):
            want = o_add(want, o_scale(D.images[k].coeffs, c))
        assert_is(D.apply(Polynomial(p)), want)


class TestResidualRatio:
    def test_max_over_samples(self):
        assert residual_ratio([1e-16, -3e-16, 0.0], [1.0, 1.0, 5.0]) == 3e-16

    def test_exact_zero_reads_zero_whatever_the_scale(self):
        assert residual_ratio([0.0, 0.0], [math.inf, math.nan]) == 0.0

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale_is_nan(self, scale):
        assert math.isnan(residual_ratio([1e-16, 1.0], [1.0, scale]))

    def test_nan_residual_is_nan_wherever_it_falls(self):
        assert math.isnan(residual_ratio([1.0, math.nan, 2.0], [4.0, 1.0, 4.0]))

    def test_fractions_stay_exact(self):
        got = residual_ratio([F(1, 3), F(-1, 2)], [F(2), F(3)])
        assert got == F(1, 6) and type(got) is F
        zero = residual_ratio([F(0), F(0)], [F(1), F(2)])
        assert zero == 0 and type(zero) is F

    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="sample"):
            residual_ratio([], [])
