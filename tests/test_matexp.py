import math

import numpy as np
import pytest
import scipy.linalg

from ganf.matexp import DEGREE, THETA, expm
from ganf.tensor import NumericError, ShapeError


def expm_series(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated Taylor series sum_{k<=terms} M^k / k!, a reference for small norms."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def test_expm_zero_is_identity():
    np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_diagonal():
    out = expm(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(out, np.diag([np.e, np.e ** 2]), rtol=1e-14)


def test_expm_symmetric_two_cycle_trace():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    # eigenvalues +-1, so tr e^M = e + 1/e = 2 cosh(1)
    assert abs(np.trace(expm(m)) - 2.0 * np.cosh(1.0)) < 1e-12


def test_expm_non_square_raises():
    with pytest.raises(ShapeError):
        expm(np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("scale", [0.5, 3.0, 40.0])
def test_expm_matches_scipy(seed, scale):
    rng = np.random.default_rng(seed)
    m = scale * rng.normal(size=(6, 6))
    np.testing.assert_allclose(expm(m), scipy.linalg.expm(m),
                               rtol=1e-9, atol=1e-9)


def test_expm_series_agrees_for_small_norm():
    rng = np.random.default_rng(1)
    m = rng.uniform(-1, 1, size=(5, 5))
    m *= 1.0 / np.linalg.norm(m, np.inf)
    assert np.max(np.abs(expm(m) - expm_series(m, terms=20))) < 1e-10


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_expm_non_finite_entry_raises_numeric_error(bad):
    m = np.zeros((3, 3))
    m[0, 2] = bad
    with pytest.raises(NumericError, match="non-finite"):
        expm(m)



def test_taylor_degree_is_the_smallest_meeting_the_truncation_bound():
    # sum_{k>m} theta^k / k! <= theta^(m+1) / (m+1)! * e^theta bounds the
    # truncation error of the scaled polynomial relative to the 1-norm
    def bound(m):
        return THETA ** (m + 1) / math.factorial(m + 1) * math.exp(THETA)
    assert bound(DEGREE) < 2.0 ** -53 <= bound(DEGREE - 1)


@pytest.mark.parametrize("n", [5, 64, 256])
@pytest.mark.parametrize("norm", [0.5, 1.9, 3.0])
def test_expm_matches_scipy_on_hadamard_square(n, norm):
    # the acyclicity constraint's argument A o A; norms below THETA take no
    # squaring, 3.0 takes one
    a = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, n))
    m = a * a
    m *= norm / np.linalg.norm(m, 1)
    np.testing.assert_allclose(expm(m), scipy.linalg.expm(m), rtol=1e-13, atol=0.0)
