"""Per-layer measurements for a traced run.

Two sources, both from the benchmark's own files:

* :func:`instrument` wraps the module attributes that ``ganf.model``,
  ``ganf.training``, ``ganf.dag``, ``ganf.cli`` and the benchmark call, so a
  real ``train`` or ``score`` records one span per call (forward times,
  validation, ``expm``, checkpoint and data calls).
* :func:`replay` re-runs each layer on its own ``GradientTape`` at the
  workload's batch shape, which gives backward times and tape-op counts
  that a forward span cannot show.
"""
from __future__ import annotations

import copy
import statistics
import time

import numpy as np

import ganf.cli
import ganf.dag
import ganf.data
import ganf.flow
import ganf.matexp
import ganf.metrics
import ganf.model
import ganf.tensor
import ganf.training
from ganf.dag import LagrangianState, acyclicity_tensor, augmented_lagrangian
from ganf.encoder import encode_dependencies, encode_hidden, offdiag_mask
from ganf.tensor import GradientTape, Tensor, concat, mul, sum_
from ganf.training import Adam, checkpoint_load, checkpoint_save, clip_gradients

from spans import Tracer

# (owner, attribute, span name). Attributes are wrapped where the caller
# looks them up: ganf.model imports the encoder functions into its own
# namespace, ganf.cli imports train and the checkpoint functions.
TARGETS = (
    (ganf.model, "encode_hidden", "encoder.lstm"),
    (ganf.model, "encode_dependencies", "encoder.agg"),
    (ganf.flow.FlowStack, "log_prob", "flow"),
    (ganf.dag, "acyclicity_tensor", "dag.acyclicity"),
    (ganf.dag, "expm", "matexp.expm"),
    (ganf.matexp, "expm", "matexp.expm"),
    (ganf.tensor.GradientTape, "backward", "tensor.backward"),
    (ganf.model.GanfModel, "batch_nll", "model.batch_nll"),
    (ganf.model.GanfModel, "score_windows", "model.score_windows"),
    (ganf.training, "clip_gradients", "training.clip"),
    (ganf.training.Adam, "step", "training.adam"),
    (ganf.training, "_validation_log_density", "training.val"),
    (ganf.training, "inner_optimize", "training.inner"),
    (ganf.training, "train", "training.train"),
    (ganf.cli, "train", "training.train"),
    (ganf.cli, "checkpoint_save", "training.checkpoint_save"),
    (ganf.cli, "checkpoint_load", "training.checkpoint_load"),
    (ganf.cli, "_score_parallel", "cli.score_parallel"),
    (ganf.data, "synth_generate", "data.synth"),
    (ganf.data, "load_csv", "data.load_csv"),
    (ganf.data, "make_windows", "data.make_windows"),
)


def instrument(tracer: Tracer):
    for owner, attr, name in TARGETS:
        tracer.wrap(owner, attr, name)


def in_situ(tracer: Tracer, phase: str) -> dict[str, float]:
    """Per-layer forward times from the spans of one real run.

    ``phase`` is the span the layer calls must sit under: ``model.batch_nll``
    for a training forward, ``model.score_windows`` for tape-free scoring.
    """
    synth = tracer.durations("data.synth")
    return {
        "encoder.lstm.fwd_ms": tracer.median_ms("encoder.lstm", phase),
        "encoder.agg.fwd_ms": tracer.median_ms("encoder.agg", phase),
        "flow.fwd_ms": tracer.median_ms("flow", phase),
        "dag.acyclicity.fwd_ms": tracer.median_ms("dag.acyclicity"),
        "matexp.expm_ms": tracer.median_ms("matexp.expm", "dag.acyclicity"),
        "training.val_ms": tracer.median_ms("training.val"),
        "data.synth_s": statistics.median(synth),
        "data.make_windows_ms": tracer.median_ms("data.make_windows"),
    }


def _median_ms(fn, min_repeats: int = 3, min_seconds: float = 0.3,
               max_repeats: int = 20) -> float:
    """Median wall time of ``fn()`` in ms; ``fn`` returns the seconds to count."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_repeats or (time.perf_counter() - start < min_seconds
                                       and len(times) < max_repeats):
        times.append(fn())
    return 1e3 * statistics.median(times)


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _record(layer, loss_of) -> tuple[GradientTape, Tensor, int, float]:
    """Run ``layer()`` on a fresh tape; returns (tape, loss, layer ops, forward s)."""
    tape = GradientTape()
    with tape:
        start = time.perf_counter()
        out = layer()
        forward = time.perf_counter() - start
        ops = len(tape)
        loss = loss_of(out)
    return tape, loss, ops, forward


def _backward_seconds(tape: GradientTape, loss: Tensor, params) -> float:
    start = time.perf_counter()
    tape.backward(loss)
    elapsed = time.perf_counter() - start
    for p in params:
        p.zero_grad()
    return elapsed


def replay(model, x: np.ndarray, stream: np.ndarray, workers: int,
           checkpoint_path, csv_path) -> dict[str, float]:
    """Backward times, op counts and tape-free rates at the shape of ``x``.

    ``model`` is left unchanged: the training-iteration replay runs on a copy.
    """
    b, n = x.shape[:2]
    params = list(model.parameters().values())
    out: dict[str, float] = {}

    def sum_all(tensors):
        return sum_(concat(tensors, axis=0))

    # LSTM unroll
    lstm = lambda: encode_hidden(model.cell, x)
    _, _, out["encoder.lstm.ops"], _ = _record(lstm, sum_all)
    out["encoder.lstm.bwd_ms"] = _median_ms(
        lambda: _backward_seconds(*_record(lstm, sum_all)[:2], params))

    # graph aggregation, fed with the LSTM's hidden states as leaves
    hidden = [Tensor(h.data, requires_grad=True) for h in encode_hidden(model.cell, x)]
    offdiag = Tensor(offdiag_mask(n))
    agg = lambda: encode_dependencies(model.enc, hidden,
                                      mul(model.adjacency, offdiag), b, n)
    _, _, out["encoder.agg.ops"], _ = _record(agg, sum_all)
    out["encoder.agg.bwd_ms"] = _median_ms(
        lambda: _backward_seconds(*_record(agg, sum_all)[:2], params + hidden))

    # flow stack on the rows and conditions the model would feed it
    deps = encode_dependencies(model.enc, hidden, Tensor(model.adjacency.data * offdiag.data),
                               b, n)
    t_len, d_in = x.shape[2], x.shape[3]
    x_rows = Tensor(np.ascontiguousarray(x.transpose(2, 0, 1, 3).reshape(-1, d_in)))
    d_rows = Tensor(np.concatenate([d.data for d in deps]), requires_grad=True)
    flow = lambda: model.flow.log_prob(x_rows, d_rows)
    _, _, out["flow.ops"], _ = _record(flow, sum_)
    out["flow.bwd_ms"] = _median_ms(
        lambda: _backward_seconds(*_record(flow, sum_)[:2], params + [d_rows]))

    # acyclicity term h(A)
    acyc = lambda: acyclicity_tensor(model.adjacency)
    out["dag.acyclicity.bwd_ms"] = _median_ms(
        lambda: _backward_seconds(*_record(acyc, lambda h: h)[:2], params))

    # forward of the whole density with and without a tape
    out["model.nll_fwd_ms"] = _median_ms(lambda: _record(lambda: model.batch_nll(x),
                                                         lambda v: v)[3])
    out["model.score_fwd_ms"] = _median_ms(lambda: _timed(model.per_step_log_prob, x))

    # one full training iteration on a copy: forward, backward, clip, Adam, remask
    twin = copy.deepcopy(model)
    twin_params = twin.parameters()
    optimizer = Adam()
    state = LagrangianState(lam=1.0, c=1.0)
    iteration: dict[str, list[float]] = {"ops": [], "backward": [], "update": []}

    def train_step() -> float:
        start = time.perf_counter()
        tape = GradientTape()
        with tape:
            loss = augmented_lagrangian(twin.batch_nll(x), twin.adjacency, state)
        iteration["ops"].append(len(tape))
        iteration["backward"].append(_timed(tape.backward, loss))
        mid = time.perf_counter()
        clip_gradients(twin_params, 1.0)
        optimizer.step(twin_params, 1e-3)
        twin.remask_diagonal()
        end = time.perf_counter()
        for p in twin_params.values():
            p.zero_grad()
        iteration["update"].append(end - mid)
        return end - start

    out["training.iter_ms"] = _median_ms(train_step)
    out["tensor.ops_per_iter"] = float(statistics.median(iteration["ops"]))
    out["tensor.backward_ms"] = 1e3 * statistics.median(iteration["backward"])
    out["training.update_ms"] = 1e3 * statistics.median(iteration["update"])

    # scoring once each: the serial model path against the CLI's worker pool
    out["model.score_windows_per_s"] = len(stream) / _timed(model.score_windows, stream)
    out["cli.score_parallel_windows_per_s"] = len(stream) / _timed(
        ganf.cli._score_parallel, model, stream, workers)

    # checkpoint round trip and CSV ingestion
    out["training.checkpoint_save_ms"] = _median_ms(
        lambda: _timed(checkpoint_save, checkpoint_path, model, {}))
    out["training.checkpoint_load_ms"] = _median_ms(
        lambda: _timed(checkpoint_load, checkpoint_path))
    out["data.load_csv_s"] = _timed(ganf.data.load_csv, csv_path)
    return out


def counts(history: list[dict], adjacency: np.ndarray, truth: np.ndarray,
           eps: float = 0.2) -> dict[str, float]:
    """Epochs and outer iterations run, and the SHD of the eps-support to the truth."""
    learned = np.abs(adjacency) > eps
    np.fill_diagonal(learned, False)
    return {
        "training.epochs": float(sum(r["kind"] == "epoch" for r in history)),
        "training.outer_iters": float(sum(r["kind"] == "outer" for r in history)),
        "dag.shd": float(ganf.metrics.shd(np.argwhere(learned), np.argwhere(truth != 0))),
    }
