"""Command-line surface: synthesize data, train, score, evaluate, export
graphs, and benchmark scaling.

Every command echoes its fully resolved configuration into the output
directory so runs are reproducible from the echo plus the seed (``train``
echoes every setting, defaults included). Each setting read from a file is
checked by :func:`ganf.data.check_settings`. Exit codes: 0 success, 1
runtime/numeric failure or unusable checkpoint, 2 usage/config error. The env var
``GANF_THREADS`` sets the threads that score windows, in ``score`` and in
``train``'s validation passes (see :mod:`ganf.parallel`).
"""
from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import data as dat
from . import metrics as met
from .dag import threshold_dag
from .model import MODES, GanfModel
from .parallel import blas_threads, pool_size, worker_count
from .tensor import NumericError
from .training import (Adam, CheckpointError, TrainConfig, TrainingAbort,
                       checkpoint_load, checkpoint_save, train, train_step)


def _worker_count() -> int:
    try:
        return worker_count()
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _echo_config(out_dir: Path, config: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise click.UsageError(f"{what} file {path} is not valid JSON: {exc}")
    if not isinstance(value, dict):
        raise click.UsageError(f"{what} file {path} does not hold a JSON object")
    return value


def _finite(ctx, param, value):
    """Click callback: ``click.FloatRange`` lets nan and inf through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


_POSITIVE = click.FloatRange(min=0.0, min_open=True)
_INPUT = click.Path(exists=True, dir_okay=False)   # a missing path or a directory exits 2


def _fail(exc: Exception):
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@click.group()
def main():
    """Density estimation and anomaly detection for multiple time series."""


# ------------------------------------------------------------------- synth

@main.command("synth")
@click.option("--spec", "spec_path", required=True, type=_INPUT, help="SynthSpec JSON file.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--length", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_synth(spec_path, out_dir, length, seed):
    """Generate a synthetic dataset: series CSV, labels CSV, ground-truth graph."""
    spec_dict = _load_json(spec_path, "spec")
    try:
        spec = dat.SynthSpec(**spec_dict)
    except TypeError as exc:
        raise click.UsageError(f"bad spec field: {exc}")
    out = Path(out_dir)
    try:
        series, a_true = dat.synth_generate(spec, length, seed)
        _, starts = dat.make_windows(series, spec.window_len, spec.stride)
        series, labels = dat.inject_series_anomalies(series, starts, spec, seed + 1)
    except dat.DataError as exc:
        raise click.UsageError(str(exc))
    out.mkdir(parents=True, exist_ok=True)
    dat.write_series_csv(out / "series.csv", series)
    dat.write_labels_csv(out / "labels.csv", starts, labels)
    n = spec.n_series
    with open(out / "graph.json", "w") as fh:
        json.dump({
            "n": n,
            "edges": [{"parent": j, "child": i, "weight": a_true[i, j]}
                      for i in range(n) for j in range(n) if a_true[i, j] != 0.0],
            "adjacency": a_true.tolist(),
        }, fh, indent=2)
    manifest = {"command": "synth", "seed": seed, "length": length, "spec": spec_dict}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    _echo_config(out, manifest)
    click.echo(f"wrote series.csv, labels.csv, graph.json, manifest.json to {out}")


# ------------------------------------------------------------------- train

@main.command("train")
@click.option("--config", "config_path", required=True, type=_INPUT)
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--window-len", type=click.IntRange(min=1), default=None)
@click.option("--stride", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_train(config_path, mode, window_len, stride, seed, out_dir):
    """Train on a CSV dataset; writes checkpoint, history, resolved config."""
    _worker_count()   # validation scoring reads GANF_THREADS; reject a bad value up front
    cfg = _load_json(config_path, "config")
    flags = {"mode": mode, "window_len": window_len, "stride": stride, "seed": seed}
    cfg.update((key, val) for key, val in flags.items() if val is not None)
    data_csv = cfg.pop("data_csv", None)
    if not data_csv or not isinstance(data_csv, str):
        raise click.UsageError(f"config data_csv must be a CSV path, got {data_csv!r}")
    # train() never reads the window keys (the checkpoint header stores the
    # fractions as floats); the rest, unknown keys included, go to TrainConfig
    window_cfg = {"window_len": 20, "stride": cfg.get("window_len", 20),
                  "train_frac": 0.6, "val_frac": 0.2, "gap_limit": dat.GAP_LIMIT}
    window_cfg.update((key, cfg.pop(key)) for key in list(window_cfg) if key in cfg)
    try:
        dat.check_settings(window_cfg, dat.WINDOW_SETTINGS)
        train_cfg = TrainConfig(**cfg)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"bad config: {exc}")
    window_cfg.update((key, float(window_cfg[key])) for key in ("train_frac", "val_frac"))
    out = Path(out_dir)
    try:
        series, entities, _ = dat.load_csv(data_csv, gap_limit=window_cfg["gap_limit"])
        windows, starts = dat.make_windows(series, window_cfg["window_len"],
                                           window_cfg["stride"])
        split = dat.normalize(dat.split_windows(
            windows, starts, window_cfg["train_frac"], window_cfg["val_frac"]))
    except dat.DataError as exc:
        raise click.UsageError(f"config data_csv: {exc}")
    _echo_config(out, {"data_csv": data_csv, **window_cfg, **asdict(train_cfg),
                       "command": "train", "blas_threads": blas_threads()})
    # each record is on disk as soon as it is made, so a run can be watched and
    # an aborted one keeps the records up to its failing epoch
    with open(out / "history.jsonl", "w") as fh:
        try:
            model, adjacency, history = train(
                split.train, split.validation, train_cfg,
                on_record=lambda record: print(json.dumps(record), file=fh, flush=True))
        except (TrainingAbort, NumericError) as exc:
            _fail(exc)
    checkpoint_save(out / "checkpoint.ganf", model, extra={
        "entities": entities, **window_cfg,
        "norm_mean": split.stats.mean.tolist(), "norm_std": split.stats.std.tolist(),
    })
    final = history[-1]
    if final.get("warning"):
        click.echo(f"warning: {final['warning']}")
    click.echo(f"final |h(A)| = {abs(final['h']):.3e}; "
               f"checkpoint and history written to {out}")


# ------------------------------------------------------------------- score

def _score_parallel(model: GanfModel, windows: np.ndarray,
                    workers: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Score windows on up to ``workers`` threads with ``GanfModel.score_windows``.

    Returns (totals, per-series scores, the run's ``workers``, ``blas_threads``
    and ``batch_windows`` as ``ganf score`` records them).
    """
    totals, per_series = model.score_windows(windows, workers=workers)
    batch = model.score_batch_size(len(windows), windows.shape[2])
    threads = pool_size(-(-len(windows) // batch), workers)
    return totals, per_series, {"workers": threads, "blas_threads": blas_threads(threads),
                                "batch_windows": batch}


@main.command("score")
@click.option("--checkpoint", "ckpt_path", required=True, type=_INPUT)
@click.option("--data", "data_csv", required=True, type=_INPUT)
@click.option("--window-len", type=click.IntRange(min=1), default=None)
@click.option("--stride", type=click.IntRange(min=1), default=1)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_score(ckpt_path, data_csv, window_len, stride, out_dir):
    """Score every window of a dataset with a trained checkpoint."""
    try:
        model = checkpoint_load(ckpt_path)
    except CheckpointError as exc:
        _fail(exc)
    extra = model.checkpoint_extra
    if window_len is None:
        window_len = extra.get("window_len", 20)
    workers = _worker_count()
    try:
        series, entities, _ = dat.load_csv(
            data_csv, gap_limit=extra.get("gap_limit", dat.GAP_LIMIT))
        if len(entities) != model.n_series or series.shape[2] != model.input_dim:
            raise CheckpointError(
                f"checkpoint adjacency 'A' is {model.n_series}x{model.n_series} with "
                f"D={model.input_dim}, but data has n={len(entities)}, D={series.shape[2]}")
        for got, want in zip(entities, extra.get("entities", entities)):
            if got != want:
                raise CheckpointError(f"data has entity {got!r} where the checkpoint "
                                      f"was trained on {want!r}")
        if extra.get("norm_mean"):
            series = dat.NormStats(np.asarray(extra["norm_mean"]),
                                   np.asarray(extra["norm_std"])).apply(series)
        windows, starts = dat.make_windows(series, window_len, stride)
        start = time.perf_counter()
        totals, per_series, record = _score_parallel(model, windows, workers)
        seconds = time.perf_counter() - start
    except dat.DataError as exc:
        raise click.UsageError(str(exc))
    except (NumericError, CheckpointError) as exc:
        _fail(exc)
    out = Path(out_dir)
    _echo_config(out, {"command": "score", "checkpoint": str(ckpt_path),
                       "data_csv": str(data_csv), "window_len": window_len,
                       "stride": stride, **record})
    dat.write_csv(out / "scores.csv",
                  ["window_start", "score"] + [f"series_{i}" for i in range(per_series.shape[1])],
                  ([s, tot, *row.tolist()] for s, tot, row in zip(starts.tolist(),
                                                                  totals.tolist(), per_series)))
    with open(out / "summary.json", "w") as fh:
        json.dump({"n_windows": len(starts), "windows_per_s": len(starts) / seconds,
                   **record}, fh, indent=2)
    click.echo(f"wrote {len(starts)} rows to {out / 'scores.csv'}")


def read_scores_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(window starts, total scores, per-series scores) from ``ganf score``'s CSV."""
    starts, values = dat.read_window_csv(path, ["window_start", "score"])
    return starts, values[:, 0], values[:, 1:]


# -------------------------------------------------------------------- eval

@main.command("eval")
@click.option("--scores", "scores_path", required=True, type=_INPUT)
@click.option("--labels", "labels_path", required=True, type=_INPUT)
@click.option("--smooth/--hard", default=False,
              help="Smooth anomaly starts into probabilistic labels.")
@click.option("--sigma", type=_POSITIVE, callback=_finite, default=6.0, show_default=True)
@click.option("--bins", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_eval(scores_path, labels_path, smooth, sigma, bins, out_dir):
    """Compute ROC/AUC and a score histogram from scores + labels CSVs."""
    try:
        starts, scores, _ = read_scores_csv(scores_path)
        label_starts, labels = dat.read_labels_csv(labels_path)
    except dat.DataError as exc:
        raise click.UsageError(str(exc))
    if smooth:
        anomaly_starts = label_starts[labels > 0]
        probs = met.smooth_labels(starts, anomaly_starts, sigma=sigma)
    else:
        by_start = dict(zip(label_starts.tolist(), labels.tolist()))
        missing = [s for s in starts.tolist() if s not in by_start]
        if missing:
            raise click.UsageError(
                f"labels file covers {len(label_starts)} windows but scores have "
                f"{len(starts)}; first unmatched window_start: {missing[0]}")
        probs = np.asarray([by_start[s] for s in starts.tolist()])
    try:
        roc = met.roc_auc(scores, probs)
    except met.UndefinedAucError as exc:
        _fail(exc)
    counts, edges = met.density_histogram(scores, bins=bins)
    out = Path(out_dir)
    _echo_config(out, {"command": "eval", "scores": str(scores_path),
                       "labels": str(labels_path), "smooth": smooth,
                       "sigma": sigma, "bins": bins})
    dat.write_csv(out / "histogram.csv", ["bin_lo", "bin_hi", "count"],
                  zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    report = {
        "auc": roc.auc, "n_windows": len(scores),
        "positive_mass": float(np.sum(probs)),
        "curve": {"fpr": roc.fpr.tolist(), "tpr": roc.tpr.tolist()},
        "histogram": str(out / "histogram.csv"),
    }
    with open(out / "metrics.json", "w") as fh:
        json.dump(report, fh, indent=2)
    click.echo(f"AUC = {roc.auc:.4f}; metrics.json written to {out}")


# ----------------------------------------------------------- export-graph

@main.command("export-graph")
@click.argument("checkpoints", nargs=-1, required=True, type=_INPUT)
@click.option("--epsilon", type=_POSITIVE, callback=_finite, default=0.01, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_export_graph(checkpoints, epsilon, out_dir):
    """Threshold adjacency matrices into edge lists (JSON + DOT).

    With several checkpoints, additionally writes an edge-weight matrix CSV
    with one row per checkpoint, for drift inspection over shifted windows;
    the checkpoints must then share one series count.
    """
    try:
        matrices = [checkpoint_load(path).adjacency.data for path in checkpoints]
    except CheckpointError as exc:
        _fail(exc)
    if len({a.shape for a in matrices}) > 1:
        raise click.UsageError("checkpoints differ in series count: " + ", ".join(
            f"{path} has n = {a.shape[0]}" for path, a in zip(checkpoints, matrices)))
    out = Path(out_dir)
    _echo_config(out, {"command": "export-graph", "epsilon": epsilon,
                       "checkpoints": [str(p) for p in checkpoints]})
    all_edges: list[set] = []
    for k, (path, a) in enumerate(zip(checkpoints, matrices)):
        edges, acyclic = threshold_dag(a, epsilon)
        stem = f"graph_{k}" if len(checkpoints) > 1 else "graph"
        with open(out / f"{stem}.json", "w") as fh:
            json.dump({"checkpoint": str(path), "epsilon": epsilon, "acyclic": acyclic,
                       "edges": [{"parent": j, "child": i, "weight": w}
                                 for j, i, w in edges]}, fh, indent=2)
        with open(out / f"{stem}.dot", "w") as fh:
            fh.write("digraph dag {\n")
            for j, i, w in edges:
                fh.write(f'  n{j} -> n{i} [label="{w:.3f}"];\n')
            fh.write("}\n")
        all_edges.append({(j, i) for j, i, _ in edges})
    if len(checkpoints) > 1:
        union = sorted(set().union(*all_edges))
        dat.write_csv(out / "edge_weights.csv", ["checkpoint"] + [f"{j}->{i}" for j, i in union],
                      ([k] + [a[i, j] for j, i in union] for k, a in enumerate(matrices)))
    click.echo(f"exported {len(checkpoints)} graph(s) to {out}")


# -------------------------------------------------------------------- bench

@main.command("bench")
@click.option("--grid", default="8,20;8,40;16,20", show_default=True,
              help="Semicolon-separated n,T cells.")
@click.option("--batch", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--attrs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--hidden", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--iters", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_bench(grid, batch, attrs, hidden, iters, seed, out_dir):
    """Wall time per training iteration over an (n, T) grid at fixed B and D."""
    try:
        cells = [tuple(int(v) for v in cell.split(",")) for cell in grid.split(";") if cell]
        if any(len(c) != 2 or min(c) < 1 for c in cells):
            raise ValueError
    except ValueError:
        raise click.UsageError(f"--grid must look like 'n,T;n,T' with n, T >= 1, got {grid!r}")
    out = Path(out_dir)
    _echo_config(out, {"command": "bench", "grid": grid, "batch": batch,
                       "attrs": attrs, "hidden": hidden, "iters": iters, "seed": seed,
                       "blas_threads": blas_threads()})
    rows = [(n, t_len, bench_iteration(n, t_len, batch, attrs, hidden, iters, seed))
            for n, t_len in cells]
    dat.write_csv(out / "bench.csv", ["n", "T", "seconds_per_iter"], rows)
    for n, t_len, secs in rows:
        click.echo(f"n={n:4d} T={t_len:4d}  {secs * 1e3:8.2f} ms/iter")


def bench_iteration(n: int, t_len: int, batch: int, attrs: int, hidden: int,
                    iters: int, seed: int) -> float:
    """Median wall time of one ``train_step`` on the NLL alone: forward, backward, update."""
    rng = np.random.default_rng(seed)
    model = GanfModel(n_series=n, input_dim=attrs, hidden_dim=hidden,
                      flow_blocks=2, flow_hidden=hidden, mode="graph", seed=seed)
    x = rng.normal(size=(batch, n, t_len, attrs))
    opt, config = Adam(), TrainConfig()
    times = []
    for _ in range(iters + 1):
        start = time.perf_counter()
        train_step(model, x, opt, config.lr, config)
        times.append(time.perf_counter() - start)
    return float(np.median(times[1:]))  # drop warm-up


if __name__ == "__main__":
    main()
