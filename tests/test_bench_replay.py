"""``perfbench/layers.replay``, run only by ``--trace 1``, is the one caller of
``tensor.concat``, ``Tensor`` iteration and ``encode_dependencies``' list input:
a tiny replay here catches a change to ``src/`` that breaks it, and wrapping
``layers.TARGETS`` catches a traced name that ``src/`` deletes or renames. The
committed ``BENCH_*.json`` measurements are checked for the setting they were
taken in."""
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from ganf.data import write_series_csv  # noqa: E402
from ganf.model import GanfModel  # noqa: E402
import ganf.dag  # noqa: E402
from ganf.dag import LagrangianState  # noqa: E402
import ganf.training  # noqa: E402
from ganf.training import Adam, TrainConfig, TrainState, train_step  # noqa: E402


def test_layer_replay_metrics_are_finite(tmp_path):
    model = GanfModel(n_series=3, input_dim=2, hidden_dim=4, flow_blocks=2,
                      flow_hidden=4, seed=0)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():
        p.data += rng.normal(size=p.shape) * 0.1
    model.remask_diagonal()
    csv_path = tmp_path / "series.csv"
    write_series_csv(csv_path, rng.normal(size=(3, 30, 2)))
    metrics = layers.replay(model, rng.normal(size=(4, 3, 5, 2)),
                            rng.normal(size=(10, 3, 5, 2)), 1,
                            tmp_path / "checkpoint.ganf", csv_path)
    assert metrics
    assert {k: v for k, v in metrics.items() if not math.isfinite(v)} == {}


def test_instrument_wraps_every_target_and_unwraps_to_the_original():
    originals = [getattr(owner, attr) for owner, attr, _ in layers.TARGETS]
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _ in layers.TARGETS]
    finally:
        tracer.unwrap_all()
    assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert [getattr(owner, attr) for owner, attr, _ in layers.TARGETS] == originals


def test_committed_bench_files_record_their_setting():
    """Each measurements file names the CPU count, the BLAS thread count, the
    NumPy version and the parent commit it was measured against."""
    paths = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        env, git = record.get("environment", {}), record.get("git", {})
        assert isinstance(env.get("nproc"), int) and env["nproc"] >= 1, path.name
        assert isinstance(env.get("blas_threads"), int) and env["blas_threads"] >= 1, path.name
        assert isinstance(env.get("numpy"), str) and env["numpy"], path.name
        assert re.fullmatch(r"[0-9a-f]{7,40}", str(git.get("parent"))), path.name


def test_traced_constrained_step_records_h_and_its_exponential_where_in_situ_reads_them(
        monkeypatch):
    """``layers.in_situ`` times h(A) and e^{A o A} from the spans of a real
    run, so a training step must call ``acyclicity_tensor`` through ``ganf.dag``
    and build the exponential inside it."""
    model = GanfModel(n_series=3, input_dim=1, hidden_dim=4, flow_blocks=2,
                      flow_hidden=4, seed=5)
    batch = np.random.default_rng(5).normal(size=(4, 3, 5, 1))
    monkeypatch.setattr(ganf.dag, "_last_exp", None)   # no exponential kept from another test
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        train_step(model, batch, Adam(), 1e-3, TrainConfig(),
                   LagrangianState(lam=1.0, c=1.0))
    finally:
        tracer.unwrap_all()
    assert len(tracer.durations("dag.acyclicity")) == 1
    assert len(tracer.durations("matexp.expm", "dag.acyclicity")) == 1


def test_traced_inner_epoch_records_each_layer_where_in_situ_reads_it():
    """``layers.in_situ`` times the LSTM, the aggregation and the flow from
    their spans under ``model.batch_nll`` (a training forward) and under
    ``model.score_windows`` (a tape-free scoring pass), and validation from
    ``training.val``: one inner epoch of one batch, validated in one batch,
    records each of them once."""
    model = GanfModel(n_series=3, input_dim=1, hidden_dim=4, flow_blocks=2,
                      flow_hidden=4, seed=6)
    windows = np.random.default_rng(6).normal(size=(12, 3, 5, 1))
    config = TrainConfig(hidden_dim=4, flow_hidden=4, flow_blocks=2, batch_size=8,
                         inner_epochs=1)
    state = TrainState(model=model, lagrangian=LagrangianState(lam=1.0, c=1.0),
                       optimizer=Adam(), lr=1e-3)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        ganf.training.inner_optimize(state, windows[:8], windows[8:], config,
                                     np.random.default_rng(6))
    finally:
        tracer.unwrap_all()
    for phase in ("model.batch_nll", "model.score_windows"):
        assert len(tracer.durations(phase)) == 1, phase
        for layer in ("encoder.lstm", "encoder.agg", "flow"):
            assert len(tracer.durations(layer, phase)) == 1, (layer, phase)
    assert len(tracer.durations("training.val", "training.inner")) == 1
    assert len(tracer.durations("model.score_windows", "training.val")) == 1
