import numpy as np
import pytest

from ganf.dag import acyclicity, is_acyclic
from ganf.data import (DataError, SynthSpec, fit_norm_stats, inject_anomalies,
                       inject_series_anomalies, load_csv, make_windows,
                       normalize, read_labels_csv, split_windows,
                       synth_generate, write_labels_csv, write_series_csv)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_shape(tmp_path):
    rows = ["timestamp,entity,attr_1"]
    for t in range(10):
        rows.append(f"{t},a,{t * 0.5}")
        rows.append(f"{t},b,{t * 2.0}")
    values, entities, ts = load_csv(_write(tmp_path, "\n".join(rows)))
    assert values.shape == (2, 10, 1)
    assert entities == ["a", "b"]
    np.testing.assert_array_equal(ts, np.arange(10.0))


def test_load_csv_forward_fill(tmp_path):
    rows = ["timestamp,entity,attr_1"]
    for t in range(6):
        if t != 3:
            rows.append(f"{t},a,{float(t)}")
    values, _, _ = load_csv(_write(tmp_path, "\n".join(rows)), gap_limit=2)
    assert values[0, 3, 0] == 2.0


def test_load_csv_long_gap_rejected(tmp_path):
    rows = ["timestamp,entity,attr_1", "0,a,1.0", "1,a,1.5", "9,a,2.0"]
    with pytest.raises(DataError, match="gap"):
        load_csv(_write(tmp_path, "\n".join(rows)), gap_limit=2)


def test_load_csv_non_monotone_names_entity(tmp_path):
    rows = ["timestamp,entity,attr_1", "1,bad,1.0", "0,bad,2.0"]
    with pytest.raises(DataError, match="bad"):
        load_csv(_write(tmp_path, "\n".join(rows)))


def test_load_csv_bad_header(tmp_path):
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "time,node,v\n0,a,1"))


def test_make_windows_counts():
    series = np.zeros((2, 10, 1))
    w, starts = make_windows(series, 5, 5)
    assert w.shape[0] == 2 and list(starts) == [0, 5]
    w, starts = make_windows(series, 5, 1)
    assert w.shape[0] == 6


def test_make_windows_too_short():
    with pytest.raises(DataError):
        make_windows(np.zeros((1, 3, 1)), 5, 1)


def test_windowing_lossless_at_stride_t():
    rng = np.random.default_rng(0)
    series = rng.normal(size=(2, 12, 1))
    w, _ = make_windows(series, 4, 4)
    rebuilt = np.concatenate([w[k] for k in range(w.shape[0])], axis=1)
    np.testing.assert_array_equal(rebuilt, series)


def test_split_chronological():
    w, starts = make_windows(np.zeros((1, 100, 1)), 10, 10)
    split = split_windows(w, starts)
    assert split.train.shape[0] == 6
    assert split.validation.shape[0] == 2
    assert split.test.shape[0] == 2
    assert split.test_starts.min() > split.train_starts.max()


def test_normalize_statistics():
    rng = np.random.default_rng(1)
    series = rng.normal(3.0, 2.5, size=(2, 200, 1))
    w, starts = make_windows(series, 10, 10)
    split = normalize(split_windows(w, starts))
    flat = split.train.transpose(1, 0, 2, 3).reshape(2, -1)
    assert np.max(np.abs(flat.mean(axis=1))) < 1e-10
    assert np.max(np.abs(flat.std(axis=1) - 1.0)) < 1e-10
    assert split.stats.source_split == "train"


def test_normalize_constant_attribute_flagged():
    w = np.ones((4, 1, 5, 1))
    stats = fit_norm_stats(w)
    assert stats.floored[0, 0]
    out = stats.apply(w)
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_normalize_identity_when_standard():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(50, 1, 4, 1))
    w = (w - w.mean()) / w.std()
    stats = fit_norm_stats(w)
    np.testing.assert_allclose(stats.apply(w), w, atol=1e-6)


def test_synth_iid_moments():
    spec = SynthSpec(n_series=3, edge_prob=0.0, rho=0.0, noise_std=2.0)
    series, a = synth_generate(spec, 10_000, seed=0)
    assert not np.any(a)
    assert np.max(np.abs(series.std(axis=1) - 2.0)) < 0.1


def test_synth_ground_truth_acyclic():
    for seed in range(5):
        _, a = synth_generate(SynthSpec(n_series=6, edge_prob=0.6), 50, seed=seed)
        assert abs(acyclicity((a != 0).astype(float))) < 1e-10


def test_synth_deterministic():
    spec = SynthSpec(n_series=4)
    s1, a1 = synth_generate(spec, 100, seed=7)
    s2, a2 = synth_generate(spec, 100, seed=7)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(a1, a2)


def test_synth_cyclic_explicit_adjacency_rejected():
    spec = SynthSpec(n_series=2, adjacency=[[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DataError, match="cyclic"):
        synth_generate(spec, 10, seed=0)


def test_synth_weight_recovery_by_regression():
    spec = SynthSpec(n_series=4, edge_prob=0.5, rho=0.5)
    series, a = synth_generate(spec, 10_000, seed=3)
    x = series[:, :, 0]
    for i in range(4):
        parents = np.nonzero(a[i])[0]
        cols = [x[j, 1:] for j in parents] + [x[i, :-1]]
        design = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(design, x[i, 1:], rcond=None)
        for k, j in enumerate(parents):
            assert abs(coef[k] - a[i, j]) < 0.05, (i, j)
        assert abs(coef[-1] - spec.rho) < 0.05


def test_inject_rate_zero():
    w = np.zeros((10, 2, 5, 1))
    out, labels = inject_anomalies(w, SynthSpec(n_series=2, anomaly_rate=0.0), seed=0)
    np.testing.assert_array_equal(out, w)
    assert not labels.any()


def test_inject_count():
    w = np.zeros((1000, 2, 5, 1))
    _, labels = inject_anomalies(w, SynthSpec(n_series=2, anomaly_rate=0.05), seed=0)
    assert labels.sum() == 50


def test_inject_single_node_locality():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(20, 3, 5, 1))
    spec = SynthSpec(n_series=3, anomaly_rate=0.5)
    out, labels = inject_anomalies(w, spec, seed=1)
    for k in np.nonzero(labels)[0]:
        touched = [i for i in range(3) if not np.array_equal(out[k, i], w[k, i])]
        assert len(touched) == 1
    for k in np.nonzero(labels == 0)[0]:
        np.testing.assert_array_equal(out[k], w[k])


def test_inject_deterministic():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(40, 2, 5, 1))
    spec = SynthSpec(n_series=2, anomaly_rate=0.2)
    o1, l1 = inject_anomalies(w, spec, seed=9)
    o2, l2 = inject_anomalies(w, spec, seed=9)
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(l1, l2)


def test_inject_level_shift():
    w = np.zeros((10, 1, 5, 1))
    spec = SynthSpec(n_series=1, anomaly_rate=0.3, anomaly_type="level-shift",
                     anomaly_magnitude=4.0, noise_std=1.0)
    out, labels = inject_anomalies(w, spec, seed=2)
    for k in np.nonzero(labels)[0]:
        np.testing.assert_array_equal(out[k, 0, :, 0], np.full(5, 4.0))


def test_inject_series_anomalies_only_late_region():
    rng = np.random.default_rng(6)
    series = rng.normal(size=(2, 1000, 1))
    spec = SynthSpec(n_series=2, anomaly_rate=0.3, anomaly_start_frac=0.8)
    out, labels = inject_series_anomalies(series, np.arange(0, 981, 20), spec, seed=0)
    assert labels.sum() > 0
    starts = np.arange(0, 981, 20)
    assert np.all(starts[labels == 1] >= 800)
    np.testing.assert_array_equal(out[:, :800], series[:, :800])


def test_series_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    series = rng.normal(size=(3, 20, 2))
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    values, entities, _ = load_csv(path)
    np.testing.assert_allclose(values, series, atol=1e-15)
    assert entities == ["node0", "node1", "node2"]


def test_labels_csv_round_trip(tmp_path):
    starts = np.array([0, 20, 40])
    labels = np.array([0, 1, 0])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, starts, labels)
    s, l = read_labels_csv(path)
    np.testing.assert_array_equal(s, starts)
    np.testing.assert_array_equal(l, labels)


def test_read_labels_csv_empty_raises_data_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("")
    with pytest.raises(DataError):
        read_labels_csv(path)


def test_spec_json_round_trip():
    spec = SynthSpec(n_series=7, rho=0.25, anomaly_type="level-shift")
    again = SynthSpec.from_json(spec.to_json())
    assert again == spec
