import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
import pytest

from ganf.data import write_csv
from ganf.metrics import (RocResult, UndefinedAucError, density_histogram,
                          roc_auc, shd, smooth_labels)


def test_smooth_labels_peak():
    p = smooth_labels(np.array([10.0]), np.array([10.0]))
    assert p[0] == 1.0


def test_smooth_labels_one_sigma():
    p = smooth_labels(np.array([16.0]), np.array([10.0]), sigma=6.0)
    assert abs(p[0] - np.exp(-1.0)) < 1e-12


def test_smooth_labels_max_over_anomalies():
    p = smooth_labels(np.array([5.0]), np.array([0.0, 5.0, 11.0]), sigma=2.0)
    assert p[0] == 1.0


def test_smooth_labels_empty_track():
    p = smooth_labels(np.arange(4.0), np.array([]))
    np.testing.assert_array_equal(p, np.zeros(4))


@pytest.mark.parametrize("sigma, want", [(1e200, [1.0, 1.0, 1.0]),
                                         (1e-200, [0.0, 1.0, 0.0]),
                                         (1e-160, [0.0, 1.0, 0.0])])
def test_smooth_labels_where_sigma_squared_leaves_the_normal_range(sigma, want):
    """An overflowing sigma^2 reads as infinite, an underflowing one gives the hard labels."""
    p = smooth_labels(np.array([0.0, 5.0, 7.0]), np.array([5.0]), sigma=sigma)
    np.testing.assert_array_equal(p, want)


@given(st.floats(1e-150, 1e150), st.integers(0, 2**32 - 1))
def test_smooth_labels_keep_their_bytes_where_sigma_squared_is_normal(sigma, seed):
    rng = np.random.default_rng(seed)
    starts = rng.integers(-1000, 1000, size=20).astype(np.float64)
    track = rng.choice(starts, size=3)
    want = np.exp(-((starts[:, None] - track[None, :]) ** 2) / sigma ** 2).max(axis=1)
    assert smooth_labels(starts, track, sigma=sigma).tobytes() == want.tobytes()


def test_smooth_labels_requires_positive_sigma():
    with pytest.raises(ValueError):
        smooth_labels(np.arange(3.0), np.array([1.0]), sigma=0.0)


def test_roc_perfect_separation():
    res = roc_auc(np.array([4.0, 3.0, 2.0, 1.0]), np.array([1, 1, 0, 0]))
    assert res.auc == 1.0


def test_roc_hand_example_interleaved():
    res = roc_auc(np.array([4.0, 3.0, 2.0, 1.0]), np.array([1, 0, 1, 0]))
    assert abs(res.auc - 0.75) < 1e-12


def test_roc_random_scores_near_half():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=10_000)
    labels = rng.integers(0, 2, size=10_000)
    res = roc_auc(scores, labels)
    assert abs(res.auc - 0.5) < 0.02


def test_roc_monotone_curves_and_bounds():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=500)
    labels = (scores + rng.normal(size=500) > 0).astype(float)
    res = roc_auc(scores, labels)
    assert np.all(np.diff(res.tpr) >= 0)
    assert np.all(np.diff(res.fpr) >= 0)
    assert 0.0 <= res.auc <= 1.0


def test_roc_rank_invariance():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=300)
    labels = rng.integers(0, 2, size=300).astype(float)
    a1 = roc_auc(scores, labels).auc
    a2 = roc_auc(np.exp(scores) + 5.0, labels).auc
    assert abs(a1 - a2) < 1e-12


def test_roc_smoothed_binary_equals_hard():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=200)
    labels = rng.integers(0, 2, size=200)
    hard = roc_auc(scores, labels).auc
    soft = roc_auc(scores, labels.astype(np.float64)).auc
    assert hard == soft


def test_roc_tied_scores_share_threshold():
    res = roc_auc(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1, 0, 1, 0]))
    # the two tied top scores form one operating point at (0.5, 0.5)
    assert len(res.tpr) == 3
    assert abs(res.auc - 0.5) < 1e-12


def test_roc_degenerate_labels():
    with pytest.raises(UndefinedAucError):
        roc_auc(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(UndefinedAucError):
        roc_auc(np.array([1.0, 2.0]), np.array([0, 0]))


def test_roc_length_mismatch():
    with pytest.raises(ValueError):
        roc_auc(np.array([1.0]), np.array([1, 0]))


def test_roc_labels_outside_unit_interval():
    with pytest.raises(ValueError):
        roc_auc(np.array([1.0, 2.0]), np.array([0.5, 1.5]))


@pytest.mark.parametrize("scores,labels,match", [
    pytest.param([1.0, np.nan, 3.0, 0.5], [0, 1, 0, 1], "scores must be finite", id="nan-score"),
    pytest.param([1.0, np.inf, 3.0, 0.5], [0, 1, 0, 1], "scores must be finite", id="inf-score"),
    pytest.param([1.0, 2.0, 3.0, 0.5], [0, np.nan, 0, 1], r"labels must lie in \[0, 1\]",
                 id="nan-label")])
def test_roc_rejects_non_finite_scores_and_nan_labels(scores, labels, match):
    # NaN compares false both ways, so a range check written as a rejection lets it pass
    with pytest.raises(ValueError, match=match):
        roc_auc(np.array(scores), np.array(labels, dtype=float))


def test_shd_identical():
    edges = [(0, 1), (1, 2)]
    assert shd(edges, edges) == 0


def test_shd_extra_and_missing():
    assert shd([(0, 1), (1, 2)], [(0, 1)]) == 1
    assert shd([(0, 1)], [(0, 1), (1, 2)]) == 1


def test_shd_reversal_counts_once():
    assert shd([(1, 0)], [(0, 1)]) == 1
    assert shd([(1, 0), (2, 3)], [(0, 1), (2, 3)]) == 1


def test_histogram_all_equal():
    counts, edges = density_histogram(np.full(20, 3.0), bins=10)
    assert (counts > 0).sum() == 1
    assert counts.sum() == 20


def test_histogram_conservation():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=1234)
    counts, _ = density_histogram(scores, bins=17)
    assert counts.sum() == 1234


def test_histogram_uniform():
    rng = np.random.default_rng(5)
    counts, _ = density_histogram(rng.uniform(size=100_000), bins=10)
    assert np.all(np.abs(counts - 10_000) < 500)


def test_histogram_bins_validation():
    with pytest.raises(ValueError):
        density_histogram(np.zeros(3), bins=0)


def test_histogram_csv_round_trip(tmp_path):
    counts, edges = density_histogram(np.arange(10.0), bins=5)
    path = tmp_path / "hist.csv"
    write_csv(path, ["bin_lo", "bin_hi", "count"], zip(edges[:-1], edges[1:], counts))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 6
    got = sum(int(line.split(",")[2]) for line in lines[1:])
    assert got == 10
    # NumPy floats are written as their shortest round-trip repr
    assert [float(line.split(",")[0]) for line in lines[1:]] == edges[:-1].tolist()
    assert lines[1] == "0.0,1.8,2"

@given(st.lists(st.floats(-50, 50), min_size=4, max_size=60),
       st.floats(0.1, 20))
def test_smooth_labels_bounded(starts, sigma):
    track = np.array(starts[: len(starts) // 2])
    p = smooth_labels(np.array(starts), track, sigma=sigma)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    for t in track:
        assert p[list(starts).index(t)] == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 3.0), st.floats(-5, 5))
def test_roc_auc_monotone_transform_invariant(seed, scale, shift):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, size=30)
    assume(0 < labels.sum() < 30)
    base = roc_auc(scores, labels).auc
    warped = roc_auc(np.tanh(scores) * scale + shift, labels).auc
    assert abs(base - warped) < 1e-12
