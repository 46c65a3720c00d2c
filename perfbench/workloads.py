"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
measured operation in :meth:`op`, checks that operation's outputs in
:meth:`check`, and turns a run's operations into end-to-end metrics.
Program calls go through module attributes (``ganf.training.train``, not a
name imported here) so that a traced run's wrappers see them.

Every workload fits a model and scores a stream of stride-1 windows whose
tail carries spikes from ``inject_series_anomalies``; they differ in which
part dominates and at what size.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

import ganf.cli
import ganf.data
import ganf.metrics
import ganf.training
from ganf.data import SynthSpec
from ganf.model import GanfModel
from ganf.training import TrainConfig

import checks

H_TOL = 1e-8


def _stream(series: np.ndarray, spec: SynthSpec, seed: int, stream_from: int):
    """Spike-injected copy of ``series`` and the stride-1 windows from ``stream_from``.

    Spikes land only in windows that start at or after ``stream_from``; a
    window's label is 1 when it covers a step the injection changed.
    """
    _, starts = ganf.data.make_windows(series, spec.window_len, spec.stride)
    dirty, _ = ganf.data.inject_series_anomalies(series, starts, spec, seed)
    tail_clean = series[:, stream_from:]
    tail_dirty = dirty[:, stream_from:]
    windows, stream_starts = ganf.data.make_windows(tail_dirty, spec.window_len, 1)
    labels = checks.window_labels(tail_clean, tail_dirty, stream_starts, spec.window_len)
    return dirty, windows, labels


def _check_scores(model, windows, labels, starts, totals, per_series, auc, rng):
    """Row, sum, AUC, re-score and log-det checks on one stride-1 scoring pass."""
    checks.check_score_rows(starts, totals, per_series, len(windows))
    checks.check_auc(auc, totals, labels)
    rows = rng.choice(len(windows), size=3, replace=False)
    checks.check_rescored(model, windows, totals, per_series, rows)
    n, t_len = windows.shape[1:3]
    cells = [(int(rng.integers(n)), int(rng.integers(t_len))) for _ in range(2)]
    checks.check_flow_logdet(model, windows[rows[0]], cells)


class FitWorkload:
    """Graph-mode ``train`` on the head of a SEM series, then scoring of its tail."""

    name = ""
    phase = "model.batch_nll"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    # set by subclasses
    spec: SynthSpec
    fit_len: int
    tail_len: int
    fit_stride: int
    train_frac: float
    val_frac: float
    config: TrainConfig
    score_seconds: float    # scoring passes repeat for at least this long
    graph_seed: int | None = None   # draw the graph from this seed, not --seed

    def setup(self):
        total = self.fit_len + self.tail_len
        spec = dataclasses.replace(self.spec, anomaly_start_frac=self.fit_len / total)
        if self.graph_seed is not None:
            truth = ganf.data.synth_generate(spec, 1, self.graph_seed)[1]
            spec = dataclasses.replace(spec, adjacency=truth.tolist())
        series, self.truth = ganf.data.synth_generate(spec, total, self.seed)
        windows, starts = ganf.data.make_windows(
            series[:, :self.fit_len], spec.window_len, self.fit_stride)
        self.split = ganf.data.normalize(ganf.data.split_windows(
            windows, starts, self.train_frac, self.val_frac))
        self.series, stream, self.labels = _stream(series, spec, self.seed + 1,
                                                   self.fit_len)
        self.stream = self.split.stats.apply(stream)

    def warm_up(self):
        """One epoch and one scoring pass, so the first measured op starts warm."""
        short = dataclasses.replace(self.config, inner_epochs=1, max_outer_iters=1)
        model = ganf.training.train(self.split.train, self.split.validation, short)[0]
        model.score_windows(self.stream)

    def op(self) -> dict:
        start = time.perf_counter()
        model, adjacency, history = ganf.training.train(
            self.split.train, self.split.validation, self.config)
        wall = time.perf_counter() - start
        epochs = sum(r["kind"] == "epoch" for r in history)
        gc.collect()   # training leaves cyclic garbage; keep its collection out of scoring
        score_s: list[float] = []
        while len(score_s) < 3 or sum(score_s) < self.score_seconds:
            t0 = time.perf_counter()
            totals, per_series = model.score_windows(self.stream)
            score_s.append(time.perf_counter() - t0)
        auc = ganf.metrics.roc_auc(totals, self.labels.astype(float)).auc
        return {"model": model, "adjacency": adjacency, "history": history,
                "fit_wall_s": wall, "fit_windows": epochs * self.split.train.shape[0],
                "score_s": statistics.median(score_s), "totals": totals,
                "per_series": per_series, "auc": auc}

    def check(self, out: dict):
        checks.check_history(out["history"], out["adjacency"])
        checks.check_zero_diagonal(out["adjacency"])
        _check_scores(out["model"], self.stream, self.labels, np.arange(len(self.stream)),
                      out["totals"], out["per_series"], out["auc"],
                      np.random.default_rng(self.seed))

    def metrics(self, outs: list[dict]) -> dict[str, float]:
        wall = sum(o["fit_wall_s"] for o in outs)
        return {
            "fit.windows_per_s": sum(o["fit_windows"] for o in outs) / wall,
            "fit.wall_s": statistics.median(o["fit_wall_s"] for o in outs),
            "score.windows_per_s": self.stream.shape[0] / statistics.median(
                o["score_s"] for o in outs),
            "score.auc": statistics.median(o["auc"] for o in outs),
        }

    # ---- traced run ----

    def layer_inputs(self, out: dict):
        """(model, batch, stream, history, adjacency) for the per-layer metrics."""
        return (out["model"], self.split.train[:self.config.batch_size], self.stream,
                out["history"], out["adjacency"])

    def csv_path(self) -> Path:
        path = self.workdir / "series.csv"
        ganf.data.write_series_csv(path, self.series)
        return path


class FitDefault(FitWorkload):
    """Default model, constrained to |h(A)| < 1e-8 as the acceptance suite does."""

    name = "fit-default"
    spec = SynthSpec(n_series=5, edge_prob=0.3, rho=0.5, anomaly_rate=0.2,
                     anomaly_magnitude=100.0)
    fit_len, tail_len, fit_stride = 3000, 600, 10
    train_frac, val_frac = 0.6, 0.2
    # Scoring the 581 tail windows takes about 0.3 s a pass; timing noise here
    # swings 3-s medians by +-15%, so passes run for 8 s.
    score_seconds = 8.0
    # max_outer_iters leaves room past the 17-22 outer iterations this
    # needs; train() stops at the first feasible one.
    config = TrainConfig(seed=0, inner_epochs=2, max_outer_iters=30,
                         lr_decay=1.0, gamma=0.25, h_tol=H_TOL)

    # The acceptance suite's graph (drawn with seed 100). The outer
    # iterations to feasibility depend mostly on the graph, so holding it
    # fixed lets the seed vary the noise without swinging fit.wall_s.
    graph_seed = 100

    def check(self, out: dict):
        super().check(out)
        checks.require(out["history"][-1]["converged"], "train did not reach feasibility")
        checks.check_feasible_dag(out["adjacency"], H_TOL)
        c = self.config
        untrained = GanfModel(n_series=self.spec.n_series, input_dim=self.spec.n_attrs,
                              hidden_dim=c.hidden_dim, flow_blocks=c.flow_blocks,
                              flow_hidden=c.flow_hidden, flow_type=c.flow_type,
                              mode=c.mode, seed=c.seed)
        val = self.split.validation
        before = -untrained.score_windows(val)[0].mean()
        after = -out["model"].score_windows(val)[0].mean()
        checks.require(after > before, f"validation log-density {after:.4f} does not "
                                       f"beat the untrained model's {before:.4f}")


class FitWide(FitWorkload):
    """Hundreds of series under a fixed epoch budget: acyclicity and aggregation dominate."""

    name = "fit-wide"
    spec = SynthSpec(n_series=512, edge_prob=2.0 / 512, rho=0.5, weight_low=0.3,
                     weight_high=0.6, window_len=4, stride=4, anomaly_rate=0.25,
                     anomaly_magnitude=100.0)
    fit_len, tail_len, fit_stride = 256, 64, 4
    train_frac, val_frac = 0.75, 0.25
    score_seconds = 3.0
    config = TrainConfig(seed=0, batch_size=16, hidden_dim=8, flow_hidden=8,
                         flow_blocks=2, inner_epochs=3, max_outer_iters=1,
                         h_tol=H_TOL)

    def check(self, out: dict):
        super().check(out)
        checks.check_nll_falls(out["history"])


class ScoreStream:
    """``ganf score`` at stride 1 over a long CSV, with a checkpoint trained in set-up."""

    name = "score-stream"
    phase = "model.score_windows"
    spec = SynthSpec(n_series=5, edge_prob=0.3, rho=0.5, anomaly_magnitude=100.0)
    length = 10_000
    # the CLI trains on windows at the spec's window_len and stride
    train_config = {"window_len": 20, "stride": 20, "inner_epochs": 4,
                    "max_outer_iters": 1, "lr_decay": 1.0, "gamma": 0.25, "seed": 0}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        self.fit_wall_s: list[float] = []
        self.fit_windows: list[int] = []

    def warm_up(self):
        """Nothing: set-up has just run ``ganf train`` in this process."""

    def _cli(self, *args: str):
        with contextlib.redirect_stdout(io.StringIO()):
            ganf.cli.main.main(list(args), standalone_mode=False)

    def setup(self):
        clean, self.truth = ganf.data.synth_generate(self.spec, self.length, self.seed)
        self.series, _, self.labels = _stream(clean, self.spec, self.seed + 1, 0)
        self.csv = self.workdir / "series.csv"
        ganf.data.write_series_csv(self.csv, self.series)
        self.labels_csv = self.workdir / "labels.csv"
        ganf.data.write_labels_csv(self.labels_csv, np.arange(len(self.labels)),
                                   self.labels)
        config = self.workdir / "train.json"
        config.write_text(json.dumps({"data_csv": str(self.csv), **self.train_config}))
        self.run_dir = self.workdir / "run"
        gc.collect()   # an earlier set-up's training leaves cyclic garbage
        start = time.perf_counter()
        self._cli("train", "--config", str(config), "--out", str(self.run_dir))
        self.fit_wall_s.append(time.perf_counter() - start)
        self.checkpoint = self.run_dir / "checkpoint.ganf"
        n_train = int(((self.length - self.spec.window_len) // self.spec.stride + 1) * 0.6)
        epochs = sum(r["kind"] == "epoch" for r in self.history())
        self.fit_windows.append(epochs * n_train)

    def history(self) -> list[dict]:
        with open(self.run_dir / "history.jsonl") as fh:
            return [json.loads(line) for line in fh]

    def op(self) -> dict:
        os.environ["GANF_THREADS"] = str(self.workers)
        out_dir = self.workdir / "score"
        start = time.perf_counter()
        self._cli("score", "--checkpoint", str(self.checkpoint), "--data", str(self.csv),
                  "--out", str(out_dir))
        wall = time.perf_counter() - start
        self._cli("eval", "--scores", str(out_dir / "scores.csv"),
                  "--labels", str(self.labels_csv), "--hard", "--out", str(out_dir))
        with open(out_dir / "metrics.json") as fh:
            auc = json.load(fh)["auc"]
        with open(out_dir / "scores.csv", newline="") as fh:
            rows = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
        return {"score_s": wall, "starts": rows[:, 0], "totals": rows[:, 1],
                "per_series": rows[:, 2:], "auc": auc}

    def _normalized_windows(self):
        extra = checks.checkpoint_extra(self.checkpoint)
        mean, std = np.asarray(extra["norm_mean"]), np.asarray(extra["norm_std"])
        series = (self.series - mean[:, None, :]) / std[:, None, :]
        return ganf.data.make_windows(series, extra["window_len"], 1)[0]

    def check(self, out: dict):
        model = ganf.training.checkpoint_load(self.checkpoint)
        _check_scores(model, self._normalized_windows(), self.labels, out["starts"],
                      out["totals"], out["per_series"], out["auc"],
                      np.random.default_rng(self.seed))

    def metrics(self, outs: list[dict]) -> dict[str, float]:
        fit_wall = statistics.median(self.fit_wall_s)
        return {
            "fit.windows_per_s": statistics.median(self.fit_windows) / fit_wall,
            "fit.wall_s": fit_wall,
            "score.windows_per_s": len(self.labels) / statistics.median(
                o["score_s"] for o in outs),
            "score.auc": statistics.median(o["auc"] for o in outs),
        }

    # ---- traced run ----

    def layer_inputs(self, out: dict):
        model = ganf.training.checkpoint_load(self.checkpoint)
        windows = self._normalized_windows()
        # the score command's batch, and enough windows for a steady rate
        return model, windows[:64], windows[:2000], self.history(), model.adjacency.data

    def csv_path(self) -> Path:
        return self.csv


WORKLOADS = {w.name: w for w in (FitDefault, FitWide, ScoreStream)}
