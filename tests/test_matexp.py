import numpy as np
import pytest
import scipy.linalg

from ganf.matexp import expm, expm_series
from ganf.tensor import ShapeError


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

