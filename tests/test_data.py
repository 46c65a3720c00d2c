import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from csv_reference import load_csv_rows
from synth_reference import ground_truth_dag_calls, synth_generate_per_node
from ganf.dag import acyclicity, is_acyclic
from ganf.data import (SYNTH_SETTINGS, DataError, SynthSpec, _ground_truth_dag,
                       check_settings, fit_norm_stats, inject_anomalies,
                       inject_series_anomalies, load_csv, make_windows, normalize,
                       read_labels_csv, read_window_csv, split_windows, synth_generate,
                       write_labels_csv, write_series_csv)


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


@pytest.mark.parametrize("gap_limit", [-1, 2.5])
def test_load_csv_rejects_a_bad_gap_limit_naming_it(tmp_path, gap_limit):
    # a gap of one step, which any gap_limit of at least 1 fills and 0 refuses
    rows = ["timestamp,entity,attr_1", "0,a,1.0", "2,a,2.0", "3,a,3.0"]
    with pytest.raises(DataError, match="gap_limit must be an integer >= 0"):
        load_csv(_write(tmp_path, "\n".join(rows)), gap_limit=gap_limit)


def test_load_csv_non_monotone_names_entity(tmp_path):
    rows = ["timestamp,entity,attr_1", "1,bad,1.0", "0,bad,2.0"]
    with pytest.raises(DataError, match="bad"):
        load_csv(_write(tmp_path, "\n".join(rows)))


def test_load_csv_bad_header(tmp_path):
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "time,node,v\n0,a,1"))


@pytest.mark.parametrize("row,what", [
    ("2,a,oops", "non-numeric value"), ("x,a,1.0", "non-numeric timestamp"),
    ("2,a", "2 columns"), ("2,a,1.0,7", "4 columns"), ("2", "1 columns")])
def test_load_csv_malformed_row_names_file_and_line(tmp_path, row, what):
    text = "\n".join(["timestamp,entity,attr_1", "0,a,1.0", "1,a,2.0", row, "3,a,4.0"])
    with pytest.raises(DataError, match=f"data.csv: line 4.*{what}"):
        load_csv(_write(tmp_path, text))


def test_load_csv_unreadable_text_is_data_error(tmp_path):
    with pytest.raises(DataError, match="unreadable"):
        load_csv(_write(tmp_path, "timestamp,entity,attr_1\n0,a,1\x00\n"))


def test_load_csv_off_grid_timestamp_rejected(tmp_path):
    # the grid is 0, 1, 2 (step: the smallest gap); 1.5 and 2.5 fall between
    rows = ["timestamp,entity,attr_1", "0,a,1.0", "1.5,a,2.0", "2.5,a,3.0"]
    path = _write(tmp_path, "\n".join(rows))
    with pytest.raises(DataError, match=r"data.csv: timestamp 1.5 is off the grid") as got:
        load_csv(path)
    with pytest.raises(DataError) as want:
        load_csv_rows(path)
    assert str(got.value) == str(want.value)


def test_load_csv_accepts_rounding_noise_on_the_grid(tmp_path):
    rows = ["timestamp,entity,attr_1"] + [f"{t * 0.1!r},a,{t}.0" for t in range(12)]
    values, _, ts = load_csv(_write(tmp_path, "\n".join(rows)))
    assert values[:, :, 0].tolist() == [[float(t) for t in range(12)]]
    assert len(ts) == 12


@pytest.mark.parametrize("stamps", [
    # Unix seconds at 100 ms: the smallest gap parses as 0.0999999046
    ["1700000000.0", "1700000000.1", "1700000000.2"],
    # the smallest gap's rounding, times 1e5 steps, is larger than 1e-6 steps
    [repr(k * 0.1) for k in range(100_000)],
    [f"{1_700_000_000 + k / 1000:.3f}" for k in range(0, 100_000, 3)],
], ids=["epoch-seconds-3", "tenths-1e5", "epoch-milliseconds-1e5"])
def test_load_csv_accepts_float_rounding_at_scale(tmp_path, stamps):
    rows = ["timestamp,entity,attr_1"] + [f"{t},a,{k}.0" for k, t in enumerate(stamps)]
    values, _, ts = load_csv(_write(tmp_path, "\n".join(rows)))
    assert values[0, :, 0].tolist() == [float(k) for k in range(len(stamps))]
    parsed = np.asarray(stamps, dtype=float)
    np.testing.assert_allclose(ts - ts[0], parsed - parsed[0], rtol=0,
                               atol=1e-3 * (parsed[1] - parsed[0]))


def test_load_csv_off_grid_epoch_seconds_rejected(tmp_path):
    rows = ["timestamp,entity,attr_1", "1700000000.0,a,1", "1700000000.1,a,2", "1700000000.25,a,3"]
    with pytest.raises(DataError, match=r"timestamp 1700000000.25 is off the grid"):
        load_csv(_write(tmp_path, "\n".join(rows)))


# long-format CSVs on which the vectorised reader must match the row-by-row one
_REFERENCE_CASES = {
    "forward-fill": ["timestamp,entity,attr_1", "0,a,1.0", "0,b,5.0", "2,a,3.0",
                     "3,b,6.0", "4,a,4.5", "4,b,7.0", "5,a,8.0", "5,b,-1.0"],
    "nan-reading": ["timestamp,entity,attr_1,attr_2", "0,a,1.0,2.0", "1,a,nan,3.0",
                    "2,a,4.0,NaN", "3,a,5.0,6.0", "0,b,0.5,0.25", "1,b,1.5,inf",
                    "2,b,nan,nan", "3,b,2.5,2.25"],
    "multi-attribute": ["timestamp,entity,attr_1,attr_2,attr_3"]
    + [f"{t * 0.5},{e},{t},{-t * 2.5},{t + 0.125 * k}"
       for t in range(8) for k, e in enumerate(("z", "m", "a")) if (t, e) != (3, "m")],
    "unsorted-entities": ["timestamp,entity,attr_1", "10,b,1", "10,a,2", "11,a,3",
                          "12,b,4", "12,a,5", "13,b,6", "13,a,7"],
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_load_csv_matches_row_by_row_reference(tmp_path, case):
    path = _write(tmp_path, "\n".join(_REFERENCE_CASES[case]))
    values, entities, ts = load_csv(path, gap_limit=2)
    want_values, want_entities, want_ts = load_csv_rows(path, gap_limit=2)
    assert np.array_equal(values, want_values)
    assert entities == want_entities
    assert np.array_equal(ts, want_ts)


@st.composite
def _numeric_csv(draw):
    """A numeric long-format CSV with readings missing, NaN or out of order."""
    n_attr = draw(st.integers(1, 2))
    value = st.sampled_from([0.5, -1.25, 3.0, float("nan")]) | st.floats(-5, 5)
    rows = []
    for ent in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
        steps = sorted(draw(st.sets(st.integers(0, 9), min_size=4)))
        if draw(st.booleans()):
            steps = draw(st.permutations(steps))
        for t in steps:
            cells = [draw(value) for _ in range(n_attr)]
            rows.append((t, ent, cells))
    if draw(st.booleans()):
        rows.sort(key=lambda r: r[0])     # time-major, as most exports are
    scale = draw(st.sampled_from([1.0, 0.5, 0.1]))
    origin = draw(st.sampled_from([0.0, 1_700_000_000.0]))   # Unix seconds round the step
    header = ",".join(["timestamp", "entity"] + [f"attr_{k + 1}" for k in range(n_attr)])
    body = [",".join([repr(origin + t * scale), ent] + [repr(v) for v in cells])
            for t, ent, cells in rows]
    return "\n".join([header] + body), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(_numeric_csv())
@example(("timestamp,entity,attr_1\n0,a,1.0\n2,a,2.0\n4,a,3.0\n7,a,4.0", 2))  # 7 is off-grid
def test_load_csv_agrees_with_reference_on_numeric_csvs(tmp_path_factory, case):
    text, gap_limit = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text)
    try:
        want = load_csv_rows(path, gap_limit=gap_limit)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_csv(path, gap_limit=gap_limit)
        assert str(got.value) == str(exc)
        return
    values, entities, ts = load_csv(path, gap_limit=gap_limit)
    assert np.array_equal(values, want[0])
    assert entities == want[1]
    assert np.array_equal(ts, want[2])


_csv_cell = st.one_of(st.text(max_size=6), st.floats().map(repr),
                      st.integers(-3, 10**12).map(str))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.lists(_csv_cell, min_size=1, max_size=5), max_size=8).map(
        lambda rows: "\n".join(["timestamp,entity,attr_1,attr_2"]
                               + [",".join(r) for r in rows]))))
def test_load_csv_raises_only_data_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        values, entities, ts = load_csv(path)
    except DataError:
        return
    assert values.shape == (len(entities), len(ts), 2)


def test_make_windows_counts():
    series = np.zeros((2, 10, 1))
    w, starts = make_windows(series, 5, 5)
    assert w.shape[0] == 2 and list(starts) == [0, 5]
    w, starts = make_windows(series, 5, 1)
    assert w.shape[0] == 6


@pytest.mark.parametrize("shape, window_len, stride", [
    ((5, 200, 1), 20, 1), ((3, 57, 2), 5, 3), ((2, 10, 1), 10, 7), ((4, 30, 3), 1, 1)])
def test_make_windows_matches_stacked_slices(shape, window_len, stride):
    series = np.random.default_rng(8).normal(size=shape)
    w, starts = make_windows(series, window_len, stride)
    ref = np.stack([series[:, s:s + window_len, :] for s in starts])
    # a read-only view of the series: no window is copied, and none can be written
    assert np.shares_memory(w, series) and not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0, 0, 0] = 1.0
    assert w.shape == ref.shape and w.tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("train_frac, val_frac", [
    (-0.2, 0.5), (0.6, -0.3), (0.0, 0.2), (0.7, 0.4), (np.nan, 0.2), (0.6, np.nan),
    (np.inf, 0.0), (0.5, np.inf), (0.5, -np.inf), (-np.inf, 0.5)])
def test_split_rejects_fractions_that_overlap_or_leave_no_training(train_frac, val_frac):
    w, starts = make_windows(np.zeros((1, 1000, 1)), 10, 10)
    with pytest.raises(DataError, match="train_frac > 0, val_frac >= 0"):
        split_windows(w, starts, train_frac, val_frac)


@pytest.mark.parametrize("train_frac, val_frac", [(1.0, 0.0), (0.5, 0.5), (0.3, 0.7),
                                                  (0.01, 0.0), (0.6, 0.2)])
def test_split_keeps_test_windows_after_train_windows(train_frac, val_frac):
    w, starts = make_windows(np.zeros((1, 1000, 1)), 10, 10)
    split = split_windows(w, starts, train_frac, val_frac)
    parts = (split.train_starts, split.validation_starts, split.test_starts)
    np.testing.assert_array_equal(np.concatenate(parts), starts)
    assert split.train_starts.size == int(100 * train_frac)


def test_normalize_statistics():
    rng = np.random.default_rng(1)
    series = rng.normal(3.0, 2.5, size=(2, 200, 1))
    w, starts = make_windows(series, 10, 10)
    split = normalize(split_windows(w, starts))
    # the windows are a view of the series; the normalized ones are C-order copies
    assert all(part.flags.c_contiguous and not np.shares_memory(part, series)
               for part in (split.train, split.validation, split.test))
    flat = split.train.transpose(1, 0, 2, 3).reshape(2, -1)
    assert np.max(np.abs(flat.mean(axis=1))) < 1e-10
    assert np.max(np.abs(flat.std(axis=1) - 1.0)) < 1e-10


def test_fit_norm_stats_no_windows_raises_data_error():
    with pytest.raises(DataError, match="no training windows"):
        fit_norm_stats(np.zeros((0, 2, 5, 1)))


def test_normalize_constant_attribute_flagged():
    w = np.ones((4, 1, 5, 1))
    stats = fit_norm_stats(w)
    assert stats.std[0, 0] == 1e-6
    out = stats.apply(w)
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_norm_stats_apply_commutes_with_windowing():
    """z-scoring a series, then windowing it, gives the bytes of the reverse order."""
    series = np.random.default_rng(3).normal(2.0, 3.0, size=(3, 40, 2))
    windows, starts = make_windows(series, 7, 3)
    stats = normalize(split_windows(windows, starts)).stats
    assert (make_windows(stats.apply(series), 7, 3)[0].tobytes()
            == stats.apply(windows).tobytes())


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


@st.composite
def _synth_cases(draw):
    """(spec, length, seed) across sizes, edge probabilities (both ends
    included), weight ranges and explicit adjacencies, self-loops among them."""
    n = draw(st.integers(1, 40))
    low = draw(st.floats(-2.0, 2.0))
    fields = dict(n_series=n, n_attrs=draw(st.integers(1, 3)),
                  edge_prob=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
                  weight_low=low, weight_high=low + draw(st.floats(0.0, 2.0)),
                  rho=draw(st.floats(-0.9, 0.9)), noise_std=draw(st.floats(0.0, 3.0)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = np.tril(rng.normal(size=(n, n)) * (rng.random((n, n)) < fields["edge_prob"]),
                    k=-draw(st.integers(0, 1)))
        perm = rng.permutation(n)
        fields["adjacency"] = a[np.ix_(perm, perm)].tolist()
    return SynthSpec(**fields), draw(st.integers(1, 50)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_synth_cases())
@example((SynthSpec(n_series=1), 1, 0))
@example((SynthSpec(n_series=40, n_attrs=3, edge_prob=1.0), 50, 1))
def test_synth_matches_per_node_reference(case):
    spec, length, seed = case
    series, a = synth_generate(spec, length, seed)
    ref_series, ref_a = synth_generate_per_node(spec, length, seed)
    assert series.tobytes() == ref_series.tobytes()
    assert a.tobytes() == ref_a.tobytes()
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    _ground_truth_dag(spec, rngs[0])
    ground_truth_dag_calls(spec, rngs[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("spec, length, seed, expected", [
    # the acceptance suite's graph (seed 100) at the fit-default benchmark's length
    (SynthSpec(n_series=5, edge_prob=0.3, rho=0.5), 3600, 100,
     "0d829b32cd51784486a65fd7abfebaa7dfeb86ca07da29a2f5621fda52638d66"),
    # the fit-wide benchmark's spec
    (SynthSpec(n_series=512, edge_prob=2.0 / 512, rho=0.5, weight_low=0.3, weight_high=0.6,
               window_len=4, stride=4, anomaly_rate=0.25, anomaly_magnitude=100.0), 320, 0,
     "8d2df3ca509ad42cbd0e9dbd222280be12f2eb472c475db85209ab288b4eb416"),
], ids=["acceptance-3600", "fit-wide"])
def test_synth_bytes_pinned(spec, length, seed, expected):
    """SHA-256 of (series, adjacency) as the per-node NumPy sampler gave them."""
    assert _sha256(*synth_generate(spec, length, seed)) == expected


def test_load_csv_holds_no_python_object_per_value(tmp_path):
    """A wide CSV (D = 16) is read into typed arrays of 8 bytes a value: the
    traced peak stays under six times the values returned, where a list of
    floats (about 32 bytes a value) reaches eight."""
    rng = np.random.default_rng(27)
    rows = ["timestamp,entity," + ",".join(f"attr_{i + 1}" for i in range(16))]
    rows += [f"{t},e{e}," + ",".join(f"{v:.6f}" for v in rng.normal(size=16))
             for t in range(2000) for e in range(4)]
    path = _write(tmp_path, "\n".join(rows))
    del rows
    values, peak = traced_peak(lambda: load_csv(path)[0])
    assert values.shape == (4, 2000, 16)
    assert peak < 6 * values.nbytes, peak / values.nbytes


def test_synth_extra_memory_bounded():
    length = 200_000
    spec = SynthSpec(n_series=5, edge_prob=0.5)
    (series, _), peak = traced_peak(lambda: synth_generate(spec, length, seed=0))
    # the noise and the output arrays, plus one block of Python floats
    assert peak < 2.5 * series.nbytes, peak / series.nbytes


@pytest.mark.parametrize("fields, length, match", [
    ({"n_series": 0}, 10, "n_series"),
    ({"n_series": 2.5}, 10, "n_series"),
    ({"n_attrs": 0}, 10, "n_attrs"),
    ({}, 0, "length"),
    ({"edge_prob": 1.5}, 10, "edge_prob"),
    ({"edge_prob": float("nan")}, 10, "edge_prob"),
    ({"weight_low": 2.0, "weight_high": 1.0}, 10, "weight_high"),
    ({"edge_prob": 0.0, "weight_low": 2.0, "weight_high": 1.0}, 10, "weight_high"),
    ({"weight_high": float("inf")}, 10, "weight_high"),
    ({"weight_low": -1e308, "weight_high": 1e308}, 10, "overflows"),
    ({"noise_std": -1.0}, 10, "noise_std"),
    ({"rho": float("nan")}, 10, "rho"),
    ({"rho": "0.5"}, 10, "rho"),
    ({"n_series": 2, "adjacency": [[0.0, float("nan")], [0.0, 0.0]]}, 10, "non-finite"),
    ({"n_series": 2, "adjacency": [[0.0, 1.0], [0.0]]}, 10, "matrix"),
])
def test_synth_bad_spec_raises_data_error(fields, length, match):
    with pytest.raises(DataError, match=match):
        synth_generate(SynthSpec(**fields), length, seed=0)


@pytest.mark.parametrize("key,value", [
    ("anomaly_magnitude", math.nan), ("anomaly_magnitude", math.inf),
    ("anomaly_start_frac", math.nan), ("anomaly_start_frac", 1.5), ("rho", math.inf),
    ("noise_std", -math.inf), ("weight_low", math.nan), ("edge_prob", "0.5"),
    ("anomaly_rate", True), ("n_series", True), ("n_attrs", 2.0), ("window_len", 2.5),
    ("stride", "20"), ("anomaly_type", None),
])
def test_synth_spec_rejects_a_bad_setting_naming_it(key, value):
    with pytest.raises(DataError, match=f"^{key} must be "):
        synth_generate(SynthSpec(**{key: value}), 10, seed=0)


def test_check_settings_rejects_an_int_too_large_for_a_float():
    with pytest.raises(DataError, match="^rho must be a finite number"):
        check_settings({"rho": -10 ** 400}, SYNTH_SETTINGS)


def test_synth_spec_rejects_an_unknown_key_naming_it():
    with pytest.raises(TypeError, match="'anomaly_size'"):
        SynthSpec(anomaly_size=3.0)


@pytest.mark.parametrize("window_len, stride", [(0, 1), (5, 0), (5, -1)])
def test_make_windows_nonpositive_setting_raises_data_error(window_len, stride):
    with pytest.raises(DataError, match=">= 1"):
        make_windows(np.zeros((1, 10, 1)), window_len, stride)


@pytest.mark.parametrize("fields, match", [
    ({"anomaly_rate": 1.5}, "anomaly_rate"), ({"anomaly_rate": -0.5}, "anomaly_rate"),
    ({"anomaly_rate": 0.0, "anomaly_type": "dip"}, "anomaly_type")])
def test_inject_series_anomalies_bad_spec_raises_data_error(fields, match):
    spec = SynthSpec(n_series=2, **fields)
    with pytest.raises(DataError, match=match):
        inject_series_anomalies(np.zeros((2, 100, 1)), np.arange(0, 81, 20), spec, seed=0)


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


@pytest.mark.parametrize("row,what", [
    ("20,yes", "line 3: non-numeric value"), ("x,1", "line 3: non-numeric value"),
    ("2.5,1", "line 3: non-numeric value"), ("20", "line 3 has 1 columns"),
    ("20,1,0", "line 3 has 3 columns"), ("20,2", r"line 3: value outside \[0, 1\]"),
    ("20,-1", r"line 3: value outside \[0, 1\]"), ("20,1.5", r"line 3: value outside \[0, 1\]")])
def test_read_labels_csv_malformed_row_names_file_and_line(tmp_path, row, what):
    path = _write(tmp_path, "\n".join(["window_start,label", "0,0", row]), "labels.csv")
    with pytest.raises(DataError, match=f"labels.csv: {what}"):
        read_labels_csv(path)


@pytest.mark.parametrize("header", ["window_start,label", "window_start,score,s0"])
def test_read_window_csv_repeated_start_names_both_lines(tmp_path, header):
    width = header.count(",")
    rows = [f"{start}," + ",".join(["0"] * width) for start in (0, 10, 20, 10)]
    path = _write(tmp_path, "\n".join([header, *rows]), "windows.csv")
    with pytest.raises(DataError, match="windows.csv: lines 3 and 5 both have window_start 10"):
        read_window_csv(path, header.split(",")[:2])


_window_cell = st.one_of(st.text(max_size=6), st.floats().map(repr),
                         st.integers(-10**20, 10**20).map(str))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.lists(_window_cell, min_size=1, max_size=3), max_size=6).map(
        lambda rows: "\n".join(["window_start,label"] + [",".join(r) for r in rows]))))
def test_read_labels_csv_raises_only_data_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "labels.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        starts, labels = read_labels_csv(path)
    except DataError:
        return
    assert starts.dtype == np.int64 and labels.shape == starts.shape


def test_read_window_csv_keeps_extra_columns(tmp_path):
    path = _write(tmp_path, "window_start,score,s0,s1\n0,1.5,1.0,0.5\n10,2.0,1.5,0.5\n")
    starts, values = read_window_csv(path, ["window_start", "score"])
    assert starts.tolist() == [0, 10]
    assert values.tolist() == [[1.5, 1.0, 0.5], [2.0, 1.5, 0.5]]
