import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from jmatrix.gammafn import gammaln_real, log_abs_gamma, loggamma

mpmath.mp.dps = 40

GRID = [
    0.25 + 0.1j,
    0.5 + 3.0j,
    2.75 + 0.0j,
    1.0 + 10.0j,
    3.4j,
    0.75 + 0.5j,
    6.5 + 20.0j,
    1e-3 + 1e-3j,
    0.1 + 40.0j,
    12.0 + 0.25j,
]


def test_matches_reference_to_1e12():
    for z in GRID:
        ref = complex(mpmath.loggamma(z))
        got = loggamma(z)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def assert_scalar_matches_array(points):
    # numpy's scalar complex arithmetic may round apart from its array loop
    # (about one point in ten of the random grid), so a scalar and the same
    # point inside an array agree within a few ulp of the terms that
    # loggamma(z) = loggamma(z + 2) - log z - log(z + 1) sums, not exactly
    zs = np.array(points)
    terms = np.abs(loggamma(zs + 2.0)) + np.abs(np.log(zs)) + np.abs(np.log(zs + 1.0))
    scalars = np.array([loggamma(z) for z in points])
    assert np.all(np.abs(loggamma(zs) - scalars) <= 4 * np.finfo(float).eps * terms)


def test_vectorized():
    assert_scalar_matches_array(GRID)


def test_vectorized_on_a_random_grid():
    # a + ix, x uniform in [1e-3, 50]: the arguments of the Morse weight
    rng = np.random.RandomState(1)
    assert_scalar_matches_array([a + 1j * x for a in (2.75, 0.25, 0.0) for x in rng.uniform(1e-3, 50.0, 2000)])


def test_real_branch():
    for x in (0.1, 0.5, 1.0, 2.5, 7.0, 31.5):
        assert abs(gammaln_real(x) - math.lgamma(x)) <= 1e-13 * max(1.0, abs(math.lgamma(x)))


def test_pure_imaginary_real_part():
    # only the modulus enters the weight computations; pin it hard
    for g in (0.1, 1.0, 5.0):
        ref = float(mpmath.re(mpmath.loggamma(2j * g)))
        assert abs(loggamma(2j * g).real - ref) <= 1e-12 * max(1.0, abs(ref))


def test_rejects_poles_and_left_reals():
    with pytest.raises(ValueError):
        loggamma(0.0)
    with pytest.raises(ValueError):
        loggamma(-1.5)
    with pytest.raises(ValueError):
        gammaln_real(-2.0)



def worst_error(got, refs):
    return max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, refs))


def test_loggamma_against_mpmath_on_the_grid():
    # Re z in [0, 30], |Im z| in [1e-3, 100]
    zs = [complex(x, s * y) for x in np.linspace(0.0, 30.0, 31)
          for y in np.geomspace(1e-3, 100.0, 21) for s in (1, -1)]
    assert worst_error(loggamma(np.array(zs)), [complex(mpmath.loggamma(z)) for z in zs]) <= 1e-13


def test_gammaln_real_against_mpmath():
    xs = np.concatenate([np.geomspace(1e-3, 1.0, 40), np.linspace(1.0, 200.0, 200)])
    assert worst_error(gammaln_real(xs), [float(mpmath.loggamma(x)) for x in xs]) <= 1e-13


KERNEL_A = (1e-3, 0.5, 1.25, 5.75, 40.5, 1000.5)


@pytest.mark.parametrize("a", KERNEL_A)
def test_log_abs_gamma_against_mpmath(a):
    ys = np.geomspace(1e-8, 1e4, 121)
    refs = [float(mpmath.re(mpmath.loggamma(mpmath.mpc(a, y)))) for y in ys]
    assert worst_error(log_abs_gamma(a)(ys), refs) <= 1e-13


@pytest.mark.parametrize("a", KERNEL_A + (0.25, 2.75))
def test_log_abs_gamma_is_the_real_part_of_loggamma(a):
    # the same series in two arithmetics: they agree within a few ulp of the
    # real terms summed, (a + 3/2) |log|t|| + y arg t + a + 17/2 + |log|z|| + |log|z + 1||,
    # t = a + 17/2 + iy (measured worst 2.7 ulp)
    ys = np.concatenate([np.geomspace(1e-8, 1e4, 200), np.random.RandomState(2).uniform(1e-3, 50.0, 200)])
    t = a + 8.5 + 1j * ys
    terms = ((a + 1.5) * np.abs(np.log(np.abs(t))) + ys * np.angle(t) + a + 8.5
             + np.abs(np.log(np.abs(a + 1j * ys))) + np.abs(np.log(np.abs(a + 1.0 + 1j * ys))))
    gap = np.abs(log_abs_gamma(a)(ys) - loggamma(a + 1j * ys).real)
    assert np.all(gap <= 8 * np.finfo(float).eps * terms)


def test_log_abs_gamma_shapes_and_symmetry():
    ys = np.geomspace(1e-3, 50.0, 64)
    row = log_abs_gamma(2.75)(ys)
    got = log_abs_gamma(2.75)(float(ys[5]))
    assert type(got) is float and float.hex(got) == float.hex(float(row[5]))
    # a point's value does not depend on the points around it
    assert [float.hex(float(log_abs_gamma(2.75)(ys[i:i + 1])[0])) for i in range(64)] == [float.hex(v) for v in row]
    assert np.array_equal(log_abs_gamma(2.75)(ys.reshape(8, 8)), row.reshape(8, 8))
    # |Gamma(a - iy)| = |Gamma(a + iy)|, bit for bit
    assert np.array_equal(log_abs_gamma(2.75)(-ys), row)


def test_log_abs_gamma_far_out_finite_without_warnings():
    # log|Gamma(a + iy)| ~ -pi y / 2; y^2 would overflow from 1.3e154
    ys = np.array([1e154, 1e200, 1e300, 1e307, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in KERNEL_A:
            got = log_abs_gamma(a)(ys)
            assert np.all(np.abs(got / (-0.5 * math.pi * np.abs(ys)) - 1) <= 1e-13)


def test_log_abs_gamma_of_a_huge_a_without_warnings():
    # d_k^2 would overflow from a of about 1.3e154
    ys = np.array([1e-3, 1.0, 1e3, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1e154, 1e200, 1e300):
            refs = [float(mpmath.re(mpmath.loggamma(mpmath.mpc(a, y)))) for y in ys]
            assert worst_error(log_abs_gamma(a)(ys), refs) <= 1e-13


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf, -sys.float_info.max])
def test_log_abs_gamma_rejects_a_outside_the_right_half_line(a):
    with pytest.raises(ValueError):
        log_abs_gamma(a)
