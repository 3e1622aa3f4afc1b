import math

import mpmath
import numpy as np
import pytest

from jmatrix.gammafn import gammaln_real, loggamma

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
