import functools
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ganf.model
import ganf.parallel
from conftest import traced_peak
from ganf.data import make_windows
from ganf.model import DensityReport, GanfModel
from ganf.tensor import GradientTape, NumericError, ShapeError, sum_


def _model(**kw):
    defaults = dict(n_series=3, input_dim=2, hidden_dim=8, flow_blocks=3,
                    flow_hidden=8, flow_type="maf", mode="graph", seed=0)
    defaults.update(kw)
    return GanfModel(**defaults)


def _perturb(model, seed=1, scale=0.1):
    rng = np.random.default_rng(seed)
    for name, p in model.parameters().items():
        if name == "A":
            continue
        p.data += rng.normal(size=p.shape) * scale
    return model


def test_single_point_base_density():
    model = _model(n_series=1, input_dim=1, mode="no-graph")
    report = model.log_density(np.zeros((1, 1, 1)))
    assert abs(report.total - (-0.5 * np.log(2 * np.pi))) < 1e-12


def test_no_graph_equals_independent_singles():
    model = _perturb(_model(n_series=2, input_dim=1, mode="no-graph"))
    single = GanfModel(n_series=1, input_dim=1, hidden_dim=8, flow_blocks=3,
                       flow_hidden=8, mode="no-graph", seed=0)
    for (k1, p1), (k2, p2) in zip(sorted(single.parameters().items()),
                                  sorted(model.parameters().items())):
        p1.data = p2.data.copy()
    rng = np.random.default_rng(2)
    window = rng.normal(size=(2, 4, 1))
    joint = model.log_density(window).total
    parts = sum(single.log_density(window[i:i + 1]).total for i in range(2))
    assert abs(joint - parts) < 1e-10


def test_unbatched_reference():
    # the batched path must equal a literal step-by-step accumulation
    model = _perturb(_model(n_series=3, input_dim=2))
    rng = np.random.default_rng(3)
    window = rng.normal(size=(3, 4, 2))
    report = model.log_density(window)

    from ganf.encoder import encode_dependencies, encode_hidden
    from ganf.tensor import Tensor
    hidden = encode_hidden(model.cell, window[None])
    deps = encode_dependencies(model.enc, hidden, model.adjacency, 1, 3)
    manual = np.zeros((3, 4))
    for t in range(4):
        for i in range(3):
            x_row = window[i, t][None, :]
            d_row = deps[t].data[i][None, :]
            manual[i, t] = model.flow.log_prob(Tensor(x_row), Tensor(d_row)).data[0]
    np.testing.assert_allclose(report.per_step, manual, atol=1e-10)
    assert abs(report.total - manual.sum()) < 1e-10


def test_additivity():
    model = _perturb(_model())
    rng = np.random.default_rng(4)
    window = rng.normal(size=(3, 5, 2))
    report = model.log_density(window)
    assert abs(report.total - report.per_series.sum()) < 1e-10
    np.testing.assert_allclose(report.per_series, report.per_step.sum(axis=1),
                               atol=1e-12)


def test_anomaly_score_definition_and_monotonicity():
    model = _perturb(_model())
    rng = np.random.default_rng(5)
    windows = rng.normal(size=(6, 3, 5, 2))
    scores = np.array([model.anomaly_score(w) for w in windows])
    totals = np.array([model.log_density(w).total for w in windows])
    np.testing.assert_array_equal(scores, -totals)
    assert np.array_equal(np.argsort(scores), np.argsort(-totals))


def test_per_series_scores_sum_to_anomaly_score():
    model = _perturb(_model())
    rng = np.random.default_rng(6)
    window = rng.normal(size=(3, 5, 2))
    assert abs(model.per_series_scores(window).sum()
               - model.anomaly_score(window)) < 1e-10


def test_per_series_single_node_degenerate():
    model = _perturb(_model(n_series=1, input_dim=1, mode="no-graph"))
    window = np.random.default_rng(7).normal(size=(1, 4, 1))
    ps = model.per_series_scores(window)
    assert ps.shape == (1,)
    assert abs(ps[0] - model.anomaly_score(window)) < 1e-12


def test_graph_with_zero_adjacency_equals_no_graph():
    graph = _perturb(_model(mode="graph"))
    graph.adjacency.data[:] = 0.0
    nograph = _model(mode="no-graph")
    for (k1, p1), (k2, p2) in zip(sorted(nograph.parameters().items()),
                                  sorted((k, v) for k, v in graph.parameters().items()
                                         if k != "A")):
        p1.data = p2.data.copy()
    rng = np.random.default_rng(8)
    window = rng.normal(size=(3, 4, 2))
    assert graph.log_density(window).total == nograph.log_density(window).total


def test_no_graph_independence():
    model = _perturb(_model(mode="no-graph"))
    rng = np.random.default_rng(9)
    window = rng.normal(size=(3, 4, 2))
    base = model.log_density(window)
    other = window.copy()
    other[1] = rng.normal(size=(4, 2))       # replace a different series
    pert = model.log_density(other)
    assert abs(base.per_series[0] - pert.per_series[0]) < 1e-12
    assert abs(base.per_series[2] - pert.per_series[2]) < 1e-12


def test_batch_invariance():
    model = _perturb(_model())
    rng = np.random.default_rng(10)
    windows = rng.normal(size=(7, 3, 5, 2))
    alone = np.array([model.anomaly_score(w) for w in windows])
    batched, _ = model.score_windows(windows, batch_size=3)
    np.testing.assert_allclose(batched, alone, atol=1e-10)


def test_full_chain_folds_series():
    model = _perturb(_model(mode="full-chain"))
    rng = np.random.default_rng(11)
    window = rng.normal(size=(3, 4, 2))
    report = model.log_density(window)
    assert report.per_series.shape == (1,)
    assert report.per_step.shape == (1, 4)
    assert abs(report.total - report.per_step.sum()) < 1e-10


def test_shape_validation():
    model = _model()
    with pytest.raises(ShapeError):
        model.log_density(np.zeros((2, 4, 2)))      # wrong n
    with pytest.raises(ShapeError):
        model.log_density(np.zeros((3, 4, 1)))      # wrong D
    with pytest.raises(ShapeError):
        model.score_windows(np.zeros((3, 4, 2)))


def test_remask_diagonal():
    model = _model()
    model.adjacency.data += np.eye(3)
    model.remask_diagonal()
    np.testing.assert_array_equal(np.diag(model.adjacency.data), np.zeros(3))


def test_all_arrays_includes_adjacency_in_every_mode():
    for mode in ("graph", "no-graph", "full-chain"):
        model = _model(mode=mode)
        assert "A" in model.all_arrays()


def test_full_model_gradients_match_finite_differences():
    model = _perturb(_model(n_series=3, input_dim=2, hidden_dim=8,
                            flow_blocks=2, flow_hidden=8))
    rng = np.random.default_rng(12)
    batch = rng.normal(size=(2, 3, 4, 2))

    def loss_value():
        with GradientTape():
            return model.batch_nll(batch).item()

    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    with GradientTape() as tape:
        loss = model.batch_nll(batch)
    tape.backward(loss)

    step = 1e-5
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        idxs = np.random.default_rng(13).choice(flat.size,
                                                size=min(3, flat.size),
                                                replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_value()
            flat[idx] = orig - step
            down = loss_value()
            flat[idx] = orig
            fd = (up - down) / (2 * step)
            got = p.grad.reshape(-1)[idx]
            worst = max(worst, abs(got - fd) / max(abs(fd), 1e-6))
    assert worst < 1e-4


def test_scoring_thread_adds_nothing_to_another_threads_tape():
    model = _perturb(_model())
    rng = np.random.default_rng(20)
    batch = rng.normal(size=(2, 3, 4, 2))
    windows = rng.normal(size=(8, 3, 4, 2))
    scored = {}
    with GradientTape() as tape:
        loss = model.batch_nll(batch)
        recorded = len(tape)
        worker = threading.Thread(
            target=lambda: scored.update(scores=model.score_windows(windows)[0]))
        worker.start()
        worker.join()
        assert len(tape) == recorded
    assert scored["scores"].shape == (8,)
    tape.backward(loss)
    np.testing.assert_array_equal(scored["scores"], model.score_windows(windows)[0])


def test_score_windows_rejects_batch_size_below_one():
    model = _model()
    windows = np.zeros((5, 3, 4, 2))
    for size in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be an integer >= 1"):
            model.score_windows(windows, batch_size=size)


@functools.cache
def _scorer():
    return _perturb(_model(flow_blocks=2))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(0, 300), batch_size=st.none() | st.integers(1, 70),
       workers=st.integers(1, 4))
@example(count=300, batch_size=None, workers=2)
def test_pooled_scores_are_byte_equal_to_serial(count, batch_size, workers):
    model = _scorer()
    windows = np.random.default_rng(count).normal(size=(count, 3, 4, 2))
    serial = model.score_windows(windows, batch_size, workers=1)
    pooled = model.score_windows(windows, batch_size, workers=workers)
    assert pooled[0].tobytes() == serial[0].tobytes()
    assert pooled[1].tobytes() == serial[1].tobytes()


@pytest.mark.parametrize("shape, count", [
    (dict(n_series=5, input_dim=1, hidden_dim=32, flow_blocks=6, flow_hidden=32, t_len=20), 581),
    (dict(n_series=512, input_dim=1, hidden_dim=8, flow_blocks=2, flow_hidden=8, t_len=4), 61),
], ids=["default", "wide"])
def test_default_batching_is_byte_equal_to_64_window_batches(shape, count):
    """Batches sized by work score the same bytes as the fixed 64-window batches."""
    shape = dict(shape)
    t_len = shape.pop("t_len")
    model = _perturb(GanfModel(**shape, seed=3))
    windows = np.random.default_rng(24).normal(
        size=(count, shape["n_series"], t_len, shape["input_dim"]))
    by_work = model.score_windows(windows)
    by_count = model.score_windows(windows, batch_size=64, workers=1)
    assert by_work[0].tobytes() == by_count[0].tobytes()
    assert by_work[1].tobytes() == by_count[1].tobytes()


def test_scores_are_the_bytes_of_the_taped_pass():
    """A default 64-window scoring batch, which keeps one step of the LSTM's
    gates, scores the bytes of the taped pass, which keeps all T."""
    model = _perturb(GanfModel(n_series=5, input_dim=1, hidden_dim=32, seed=4))
    windows = np.random.default_rng(26).normal(size=(64, 5, 20, 1))
    totals, per_series = model.score_windows(windows, batch_size=64, workers=1)
    with GradientTape():
        taped = -model.per_step_log_prob(windows).data.sum(axis=2)
    assert per_series.tobytes() == taped.tobytes()
    assert totals.tobytes() == taped.sum(axis=1).tobytes()


_BATCH_ROWS = [   # (n_windows, t_len, n_series, width, want, mode)
    (61, 4, 512, 8, 11, "no-graph"),      # cap 12: six batches, the last of 6
    (16, 4, 512, 8, 8, "no-graph"),
    (581, 20, 5, 32, 59, "no-graph"),     # cap 64: ten batches, the last of 50
    (60, 20, 5, 32, 60, "no-graph"),
    (9981, 20, 5, 32, 64, "no-graph"),
    (64, 20, 64, 32, 5, "no-graph"),      # cap 5
    (3, 64, 512, 8, 1, "no-graph"),       # one window is over the cap: one window a batch
    (0, 20, 5, 32, 1, "no-graph"),
    # full-chain: one series n wide, so [mu, alpha] is 2n wide
    (100, 20, 128, 8, 34, "full-chain"),  # cap 40, not 64: three batches
    (64, 20, 128, 8, 32, "full-chain"),
    (581, 20, 5, 32, 59, "full-chain"),   # 2n = 10 is under the width 32
]


# the no-graph rows are named without their mode
@pytest.mark.parametrize("n_windows, t_len, n_series, width, want, mode", _BATCH_ROWS,
                         ids=["-".join(map(str, r[:5] if r[5] == "no-graph" else r))
                              for r in _BATCH_ROWS])
def test_score_batch_size_caps_cells_then_splits_evenly(n_windows, t_len, n_series,
                                                        width, want, mode):
    model = GanfModel(n_series=n_series, input_dim=1, hidden_dim=width, flow_blocks=1,
                      flow_hidden=width, mode=mode)
    assert model.score_batch_size(n_windows, t_len) == want


def test_scoring_batch_memory_stays_bounded_on_wide_graphs():
    """A 64-window pass at n = 64 holds a few windows' work at a time, not all 64."""
    model = GanfModel(n_series=64, input_dim=1, hidden_dim=32, flow_hidden=32, seed=0)
    windows = np.random.default_rng(25).normal(size=(64, 64, 20, 1))
    _, peak = traced_peak(lambda: model.score_windows(windows, workers=2))
    assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"


def test_scoring_memory_does_not_grow_with_the_window_count():
    """Stride-1 windows are scored from the strided view, one batch's copy at a
    time: from 2000 to 8000 windows the traced peak grows by less than 1 MB,
    where a copy of the 6000 extra windows alone is 4.8 MB."""
    model = _perturb(GanfModel(n_series=5, input_dim=1, seed=0))
    peaks = []
    for n_windows in (2000, 8000):
        series = np.random.default_rng(26).normal(size=(5, n_windows + 19, 1))
        peaks.append(traced_peak(
            lambda: model.score_windows(make_windows(series, 20, 1)[0], workers=1))[1])
    assert peaks[1] - peaks[0] < 1e6, f"peaks {peaks[0] / 1e6:.2f}, {peaks[1] / 1e6:.2f} MB"


def test_tape_free_pass_frees_the_lstm_output_before_the_flow():
    """A default 64-window batch (B*n = 320, T = 20, hidden 32) peaks below
    7.75 MiB: the LSTM's (T, B*n, hidden) output, 1.64 MB, is not held under
    the flow's peak."""
    model = _perturb(GanfModel(n_series=5, input_dim=1, seed=0))
    x = np.random.default_rng(28).normal(size=(64, 5, 20, 1))
    _, peak = traced_peak(lambda: model.per_step_log_prob(x))
    assert peak < 7.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_forward_reads_the_adjacency_buffer_itself(monkeypatch):
    """With diag(A) = 0, as every update leaves it, the aggregation reads A's
    own buffer, taped or not: no masked n x n copy is made."""
    model = _perturb(_model())
    x = np.random.default_rng(29).normal(size=(2, 3, 4, 2))
    seen = []
    aggregate = ganf.model.encode_dependencies

    def spy(params, hidden, a, batch, n):
        seen.append(a.data)
        return aggregate(params, hidden, a, batch, n)

    monkeypatch.setattr(ganf.model, "encode_dependencies", spy)
    with GradientTape():
        model.batch_nll(x)
    model.per_step_log_prob(x)
    assert len(seen) == 2
    assert all(np.shares_memory(a, model.adjacency.data) for a in seen)


def test_adjacency_diagonal_is_ignored_by_the_density_and_its_gradient():
    """A nonzero diag(A), as a hand-made checkpoint may hold, scores the same
    bytes as the zeroed diagonal, gets a zero gradient and is left as it was."""
    x = np.random.default_rng(30).normal(size=(4, 3, 5, 2))
    runs = []
    for diagonal in (0.0, 0.7):
        model = _perturb(_model())
        model.adjacency.data += np.random.default_rng(31).normal(size=(3, 3)) * 0.2
        np.fill_diagonal(model.adjacency.data, diagonal)
        with GradientTape() as tape:
            loss = model.batch_nll(x)
        tape.backward(loss)
        assert np.all(np.diag(model.adjacency.data) == diagonal)
        runs.append((model.per_step_log_prob(x).data, loss.item(), model.adjacency.grad))
    (zeroed, loss0, grad0), (nonzero, loss1, grad1) = runs
    assert zeroed.tobytes() == nonzero.tobytes() and loss0 == loss1
    assert np.all(np.diag(grad1) == 0.0)
    assert grad0.tobytes() == grad1.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_adjacency_diagonal_is_ignored_too(value):
    """A NaN or inf on diag(A) is read as zero like any other diagonal value
    (a masked product turned it into NaN, which the aggregation refused)."""
    model = _perturb(_model())
    x = np.random.default_rng(32).normal(size=(2, 3, 4, 2))
    want = model.score_windows(x)
    np.fill_diagonal(model.adjacency.data, value)
    got = model.score_windows(x)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_score_windows_leaves_thread_counts_as_it_found_them():
    """Neither a pool thread nor the one-thread BLAS pin outlives a pooled call."""
    windows = np.random.default_rng(21).normal(size=(40, 3, 4, 2))
    before = threading.active_count(), ganf.parallel.blas_threads()
    _scorer().score_windows(windows, batch_size=4, workers=3)
    assert (threading.active_count(), ganf.parallel.blas_threads()) == before


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e200])
@pytest.mark.parametrize("input_dim", [1, 2])
def test_non_finite_input_names_its_window(value, input_dim):
    """One check after the flow reports every bad value with the window that held it."""
    model = _perturb(_model(input_dim=input_dim, flow_blocks=2))
    windows = np.random.default_rng(23).normal(size=(200, 3, 4, input_dim))
    windows[137, 1, 2, 0] = value
    # an infinite or overflowing value stays in its own row; a NaN may spread
    # through the aggregation to a lower series of the same window
    where = "in window 137," if np.isnan(value) else "in window 137, series 1, step 2"
    with pytest.raises(NumericError, match=where):
        model.score_windows(windows, workers=1)
    with pytest.raises(NumericError, match=where.replace("137", "0")):
        model.log_density(windows[137])


@pytest.mark.parametrize("scorer", ["log_density", "anomaly_score", "per_series_scores"])
def test_one_window_non_finite_raises_without_warnings(scorer):
    """The one-window scores take the checked pass: an error naming window 0, no warning."""
    window = np.random.default_rng(26).normal(size=(3, 4, 2))
    window[1, 2, 0] = np.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="in window 0, series 1, step 2"):
            getattr(_perturb(_model()), scorer)(window)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, 1e200])
@pytest.mark.parametrize("bad, scorer, named", [
    ([2], "caller", 2), ([6], "pool", 6), ([2, 6], "caller", 2), ([6, 13], "pool", 6)])
def test_pooled_numeric_error_is_the_serial_one(monkeypatch, blas_at_three,
                                                value, bad, scorer, named):
    """Two pool threads score batches 0 and 1 at once; either batch may hold the bad window.

    In the ids, ``caller`` is the thread that takes batch 0, which holds it
    until another thread, ``pool``, has taken batch 1.
    """
    model = _scorer()
    windows = np.random.default_rng(22).normal(size=(16, 3, 4, 2))
    windows[bad, 1, 2, 0] = value
    with pytest.raises(NumericError) as serial:
        model.score_windows(windows, batch_size=4, workers=1)
    assert f"in window {named}," in str(serial.value)

    first_in, second_in = threading.Event(), threading.Event()
    failed_on, blas_seen, taken_by = set(), set(), {}
    get_blas = ganf.parallel._openblas()[0]
    score = model.per_step_log_prob

    def placed(x):
        k = next(k for k in range(4) if np.shares_memory(x, windows[4 * k:4 * k + 4]))
        taken_by[k] = threading.current_thread().name
        blas_seen.add(get_blas())
        here = {0: "caller", 1: "pool"}.get(k, "later")
        if k == 0:
            first_in.set()
            second_in.wait(10)   # hold batch 0 until another thread has taken batch 1
        elif k == 1:
            first_in.wait(10)
            second_in.set()
        try:
            out = score(x)
        except NumericError:
            failed_on.add(here)
            raise
        if not np.all(np.isfinite(out.data)):
            failed_on.add(here)
        return out

    monkeypatch.setattr(model, "per_step_log_prob", placed)
    with pytest.raises(NumericError) as pooled:
        model.score_windows(windows, batch_size=4, workers=2)
    assert str(pooled.value) == str(serial.value)
    assert scorer in failed_on
    assert blas_seen == {1}
    assert get_blas() == blas_at_three
    assert taken_by[0] != taken_by[1] and taken_by[0].startswith("ganf-score")
    assert not any(t.name.startswith("ganf-score") for t in threading.enumerate())
