import functools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ganf.parallel
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
    from ganf.tensor import Tensor, mul
    hidden = encode_hidden(model.cell, window[None])
    a_masked = mul(model.adjacency, Tensor(model._offdiag))
    deps = encode_dependencies(model.enc, hidden, a_masked, 1, 3)
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
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            model.score_windows(windows, batch_size=size)


@functools.cache
def _scorer():
    return _perturb(_model(flow_blocks=2))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(0, 300), batch_size=st.integers(1, 70), workers=st.integers(1, 4))
def test_pooled_scores_are_byte_equal_to_serial(count, batch_size, workers):
    model = _scorer()
    windows = np.random.default_rng(count).normal(size=(count, 3, 4, 2))
    serial = model.score_windows(windows, batch_size, workers=1)
    pooled = model.score_windows(windows, batch_size, workers=workers)
    assert pooled[0].tobytes() == serial[0].tobytes()
    assert pooled[1].tobytes() == serial[1].tobytes()


def test_score_windows_leaves_thread_counts_as_it_found_them():
    """Neither a pool thread nor the one-thread BLAS pin outlives a pooled call."""
    windows = np.random.default_rng(21).normal(size=(40, 3, 4, 2))
    before = threading.active_count(), ganf.parallel.blas_threads()
    _scorer().score_windows(windows, batch_size=4, workers=3)
    assert (threading.active_count(), ganf.parallel.blas_threads()) == before


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, 1e200])
@pytest.mark.parametrize("bad, scorer, named", [
    ([2], "caller", 2), ([6], "pool", 6), ([2, 6], "caller", 2), ([6, 13], "pool", 6)])
def test_pooled_numeric_error_is_the_serial_one(monkeypatch, blas_at_three,
                                                value, bad, scorer, named):
    """The caller scores batch 0 and the pool thread batch 1; either may hold the bad window."""
    model = _scorer()
    windows = np.random.default_rng(22).normal(size=(16, 3, 4, 2))
    windows[bad, 1, 2, 0] = value
    with pytest.raises(NumericError) as serial:
        model.score_windows(windows, batch_size=4, workers=1)
    assert f"in window {named}," in str(serial.value)

    caller = threading.get_ident()
    caller_in, pool_in = threading.Event(), threading.Event()
    failed_on, blas_seen = set(), set()
    get_blas = ganf.parallel._openblas()[0]
    score = model.per_step_log_prob

    class LateThread(threading.Thread):
        def run(self):
            caller_in.wait(10)   # the caller takes batch 0 first
            super().run()

    def placed(x):
        blas_seen.add(get_blas())
        here = "caller" if threading.get_ident() == caller else "pool"
        if here == "caller" and not caller_in.is_set():
            caller_in.set()
            pool_in.wait(10)     # ... and holds it until the pool has taken batch 1
        elif here == "pool":
            pool_in.set()
        try:
            out = score(x)
        except NumericError:
            failed_on.add(here)
            raise
        if not np.all(np.isfinite(out.data)):
            failed_on.add(here)
        return out

    monkeypatch.setattr(ganf.parallel, "Thread", LateThread)
    monkeypatch.setattr(model, "per_step_log_prob", placed)
    with pytest.raises(NumericError) as pooled:
        model.score_windows(windows, batch_size=4, workers=2)
    assert str(pooled.value) == str(serial.value)
    assert scorer in failed_on
    assert blas_seen == {1}
    assert get_blas() == blas_at_three
    assert not any(t.name == "ganf-score" for t in threading.enumerate())
