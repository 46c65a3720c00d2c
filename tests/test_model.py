import threading

import numpy as np
import pytest

from ganf.model import DensityReport, GanfModel
from ganf.tensor import GradientTape, ShapeError, sum_


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
            manual[i, t] = model.flow.log_prob_np(x_row, d_row)[0]
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
