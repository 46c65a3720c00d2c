"""CSV ingestion, windowing, normalization, and the synthetic SEM oracle.

Input CSV schema (long format): header ``timestamp,entity,attr_1,...,attr_D``,
timestamps sorted per entity on a uniform grid. Gaps of at most
``gap_limit`` steps are forward-filled; anything larger is a data error.
"""
from __future__ import annotations

import csv
import json
from contextlib import closing
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .dag import is_acyclic


class DataError(ValueError):
    """Malformed or inconsistent input data."""


# a timestamp may sit this many steps off the grid grid0 + k * step, on top of
# the rounding of its float value
_GRID_TOL = 1e-6


# ---------------------------------------------------------------- ingestion

def _csv_rows(path, header_ok, expected: str):
    """Yield the header of the CSV at ``path``, then (line number, row) for
    each non-empty row.

    A header that ``header_ok`` refuses, a row whose width differs from the
    header's and an unreadable file are each a :class:`DataError`.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or not header_ok(header):
                raise DataError(f"{path}: expected header '{expected}', got {header}")
            yield header
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}: line {reader.line_num} has {len(row)} "
                                    f"columns, the header has {len(header)}")
                yield reader.line_num, row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None


def _grid_step(all_ts: np.ndarray) -> tuple[float, float]:
    """(step, rounding) of sorted distinct timestamps.

    The step is the smallest gap. When every gap is a whole number of such
    steps it is refined to span / steps, so its rounding error does not grow
    with the step count. ``rounding`` bounds, in steps, how far float rounding
    can move an on-grid timestamp's offset from an integer.
    """
    gaps = np.diff(all_ts)
    step = gaps.min()
    # bound on the rounding error of a difference of two parsed timestamps
    noise = 4 * np.finfo(float).eps * max(abs(all_ts[0]), abs(all_ts[-1]))
    per_gap = np.rint(gaps / step)
    if (np.abs(gaps / step - per_gap) <= _GRID_TOL + (per_gap + 1) * noise / step).all():
        step = (all_ts[-1] - all_ts[0]) / per_gap.sum()
    return step, 2 * noise / step


def load_csv(path, gap_limit: int = 5) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Read a long-format CSV into a dense (n, L, D) array.

    Returns (values, entity_ids, timestamps). The grid starts at the
    earliest timestamp and its step is the smallest gap between distinct
    timestamps; a timestamp more than 1e-6 steps, plus its float rounding,
    off it is an error. A reading with a NaN in any attribute counts as
    missing. Every error is a :class:`DataError`; per entity (in name order)
    the first one found is a non-monotone timestamp, then a missing first
    step, then a long gap.
    """
    stamps: list[float] = []
    codes: list[int] = []       # entity of each row, in order of first appearance
    cells: list[float] = []     # attribute values, row after row
    index: dict[str, int] = {}
    with closing(_csv_rows(path, lambda h: len(h) >= 3 and h[:2] == ["timestamp", "entity"],
                           "timestamp,entity,attr_1,...")) as rows:
        width = len(next(rows))
        for line, row in rows:
            try:
                stamps.append(float(row[0]))
            except ValueError:
                raise DataError(f"{path}: line {line}: non-numeric "
                                f"timestamp {row[0]!r}") from None
            try:
                cells.extend(map(float, row[2:]))
            except ValueError:
                raise DataError(f"{path}: line {line}: non-numeric "
                                f"value in {row[2:]}") from None
            codes.append(index.setdefault(row[1], len(index)))

    if not stamps:
        raise DataError(f"{path}: no data rows")
    ts = np.asarray(stamps)
    if not np.isfinite(ts).all():
        raise DataError(f"{path}: non-finite timestamp")
    vals = np.asarray(cells).reshape(len(ts), width - 2)
    entities = sorted(index)
    rank = np.empty(len(entities), dtype=np.int64)
    rank[[index[e] for e in entities]] = np.arange(len(entities))
    ent = rank[codes]
    all_ts = np.unique(ts)
    if len(all_ts) < 2:
        raise DataError(f"{path}: need at least two time steps")
    step, rounding = _grid_step(all_ts)
    grid0 = all_ts[0]
    offset = (ts - grid0) / step
    pos = np.rint(offset)                   # float: checked before it sizes anything
    if not np.isfinite(pos).all():
        raise DataError(f"{path}: timestamps span too many steps of {step}")
    off_grid = np.abs(offset - pos) > _GRID_TOL + rounding
    if off_grid.any():
        raise DataError(f"{path}: timestamp {float(ts[off_grid].min())!r} is off the "
                        f"grid {float(grid0)!r} + k * {float(step)!r}")

    # rows grouped by entity, file order kept within each entity
    order = np.argsort(ent, kind="stable")
    ent, ts, vals, pos = ent[order], ts[order], vals[order], pos[order]
    last_pos = pos.max()
    same = ent[1:] == ent[:-1]
    non_monotone = np.zeros(len(entities), dtype=bool)
    non_monotone[ent[1:][same & (ts[1:] <= ts[:-1])]] = True
    # a later row on the same grid step overwrites an earlier one; a NaN
    # anywhere in the surviving row makes that step missing
    last_on_step = np.append(~same | (pos[1:] != pos[:-1]), True)
    keep = last_on_step & ~np.isnan(vals).any(axis=1)
    ent, pos, vals = ent[keep], pos[keep], vals[keep]

    # missing runs, from the readings kept: before the first, between two, after the last
    first, last = np.ones((2, len(ent)), dtype=bool)
    first[1:] = last[:-1] = ent[1:] != ent[:-1]
    no_first_step = np.ones(len(entities), dtype=bool)
    no_first_step[ent[first]] = pos[first] > 0
    limit = max(gap_limit, 0)
    long_gap = np.zeros(len(entities), dtype=bool)
    long_gap[ent[1:][~first[1:] & (np.diff(pos) - 1 > limit)]] = True
    long_gap[ent[last][last_pos - pos[last] > limit]] = True
    bad = np.flatnonzero(non_monotone | no_first_step | long_gap)
    if bad.size:
        e = bad[0]
        if non_monotone[e]:
            raise DataError(f"{path}: non-monotone timestamps for entity {entities[e]!r}")
        if no_first_step[e] and gap_limit >= 1:
            raise DataError(f"{path}: entity {entities[e]!r} has no reading at the first step")
        raise DataError(
            f"{path}: entity {entities[e]!r} has a gap longer than {gap_limit} steps")

    # forward fill: each step takes the latest kept reading at or before it
    length = int(last_pos) + 1
    latest = np.zeros((len(entities), length), dtype=np.int64)
    latest[ent, pos.astype(np.int64)] = np.arange(len(ent))
    np.maximum.accumulate(latest, axis=1, out=latest)
    timestamps = grid0 + step * np.arange(length)
    return vals[latest], entities, timestamps


# ---------------------------------------------------------------- windowing

def make_windows(series: np.ndarray, window_len: int,
                 stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows over an (n, L, D) series.

    Returns (windows (N, n, T, D), start indices (N,)).
    """
    series = np.asarray(series, dtype=np.float64)
    n, length, d = series.shape
    if length < window_len:
        raise DataError(f"series length {length} shorter than window {window_len}")
    starts = np.arange(0, length - window_len + 1, stride)
    windows = np.stack([series[:, s:s + window_len, :] for s in starts])
    return windows, starts


@dataclass
class NormStats:
    """Per-entity, per-attribute z-score statistics with split provenance."""
    mean: np.ndarray          # (n, D)
    std: np.ndarray           # (n, D)
    source_split: str
    floored: np.ndarray       # (n, D) bool; true where std was eps-floored

    def apply(self, windows: np.ndarray) -> np.ndarray:
        return (windows - self.mean[None, :, None, :]) / self.std[None, :, None, :]


@dataclass
class DatasetSplit:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    train_starts: np.ndarray
    validation_starts: np.ndarray
    test_starts: np.ndarray
    stats: Optional[NormStats] = None


def split_windows(windows: np.ndarray, starts: np.ndarray,
                  train_frac: float = 0.6, val_frac: float = 0.2) -> DatasetSplit:
    """Chronological split; test windows are strictly later than train windows."""
    n = windows.shape[0]
    i1 = int(n * train_frac)
    i2 = int(n * (train_frac + val_frac))
    return DatasetSplit(
        train=windows[:i1], validation=windows[i1:i2], test=windows[i2:],
        train_starts=starts[:i1], validation_starts=starts[i1:i2],
        test_starts=starts[i2:])


def fit_norm_stats(train_windows: np.ndarray, eps: float = 1e-6) -> NormStats:
    """Mean/std per entity-attribute, computed from train windows only."""
    if train_windows.shape[0] == 0:
        raise DataError("no training windows to fit normalisation statistics on")
    flat = train_windows.transpose(1, 0, 2, 3).reshape(
        train_windows.shape[1], -1, train_windows.shape[3])
    mean = flat.mean(axis=1)
    std = flat.std(axis=1)
    floored = std < eps
    std = np.where(floored, eps, std)
    return NormStats(mean=mean, std=std, source_split="train", floored=floored)


def normalize(split: DatasetSplit) -> DatasetSplit:
    """z-score all splits using train-only statistics."""
    stats = fit_norm_stats(split.train)
    return DatasetSplit(
        train=stats.apply(split.train),
        validation=stats.apply(split.validation) if split.validation.size else split.validation,
        test=stats.apply(split.test) if split.test.size else split.test,
        train_starts=split.train_starts,
        validation_starts=split.validation_starts,
        test_starts=split.test_starts,
        stats=stats)


# ---------------------------------------------------------------- synthetic

@dataclass
class SynthSpec:
    """Linear-Gaussian SEM with an AR(1) temporal term and a known DAG."""
    n_series: int = 5
    n_attrs: int = 1
    edge_prob: float = 0.5
    weight_low: float = 0.8
    weight_high: float = 1.2
    rho: float = 0.5
    noise_std: float = 1.0
    anomaly_rate: float = 0.05
    anomaly_magnitude: float = 10.0
    anomaly_type: str = "spike"         # or "level-shift"
    window_len: int = 20
    stride: int = 20
    anomaly_start_frac: float = 0.8     # inject only into late (test-region) windows
    adjacency: Optional[list[list[float]]] = None  # explicit ground truth, optional

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        return cls(**json.loads(text))


def _ground_truth_dag(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Weighted adjacency, acyclic by construction; A[i, j] != 0 <=> j -> i."""
    n = spec.n_series
    if spec.adjacency is not None:
        a = np.asarray(spec.adjacency, dtype=np.float64)
        if a.shape != (n, n):
            raise DataError(f"spec adjacency shape {a.shape} does not match n={n}")
        if not is_acyclic(n, [(j, i) for i in range(n) for j in range(n)
                              if i != j and a[i, j] != 0.0]):
            raise DataError("spec adjacency is cyclic")
        return a
    # strictly lower-triangular in a hidden random node order
    a = np.zeros((n, n))
    for i in range(1, n):
        for j in range(i):
            if rng.uniform() < spec.edge_prob:
                w = rng.uniform(spec.weight_low, spec.weight_high)
                a[i, j] = w if rng.uniform() < 0.5 else -w
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def synth_generate(spec: SynthSpec, length: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Generate an (n, L, D) series from the SEM; returns (series, true adjacency).

    x_t^i = rho * x_{t-1}^i + sum_j A[i, j] * x_t^j + noise, parents resolved
    in topological order at each step.
    """
    rng = np.random.default_rng(seed)
    a = _ground_truth_dag(spec, rng)
    n, d = spec.n_series, spec.n_attrs
    order = _topo_order(a)
    series = np.zeros((n, length, d))
    noise = rng.normal(0.0, spec.noise_std, size=(n, length, d))
    for t in range(length):
        for i in order:
            val = noise[i, t]
            if t > 0:
                val = val + spec.rho * series[i, t - 1]
            parents = np.nonzero(a[i])[0]
            for j in parents:
                val = val + a[i, j] * series[j, t]
            series[i, t] = val
    return series, a


def _topo_order(a: np.ndarray) -> list[int]:
    n = a.shape[0]
    edges = [(j, i) for i in range(n) for j in range(n) if i != j and a[i, j] != 0.0]
    indeg = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for j, i in edges:
        children[j].append(i)
        indeg[i] += 1
    queue = sorted(v for v in range(n) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.pop(0)
        order.append(v)
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != n:
        raise DataError("cyclic ground-truth adjacency")
    return order


def _perturb_window(window: np.ndarray, node: int, spec: SynthSpec,
                    rng: np.random.Generator):
    """In-place anomaly in one node of an (n, T, D) window."""
    bump = spec.anomaly_magnitude * spec.noise_std
    if spec.anomaly_type == "spike":
        step = int(rng.integers(window.shape[1]))
        window[node, step, :] += bump
    elif spec.anomaly_type == "level-shift":
        window[node, :, :] += bump
    else:
        raise DataError(f"unknown anomaly type {spec.anomaly_type!r}")


def inject_anomalies(windows: np.ndarray, spec: SynthSpec,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Perturb a ``spec.anomaly_rate`` fraction of windows in one random node each.

    Returns (perturbed copy, exact binary labels).
    """
    if not 0.0 <= spec.anomaly_rate < 1.0:
        raise DataError(f"anomaly rate {spec.anomaly_rate} outside [0, 1)")
    rng = np.random.default_rng(seed)
    out = np.array(windows, copy=True)
    n_windows = out.shape[0]
    labels = np.zeros(n_windows, dtype=np.int64)
    count = int(n_windows * spec.anomaly_rate)
    chosen = rng.choice(n_windows, size=count, replace=False)
    for w in chosen:
        node = int(rng.integers(out.shape[1]))
        _perturb_window(out[w], node, spec, rng)
        labels[w] = 1
    return out, labels


def inject_series_anomalies(series: np.ndarray, starts: np.ndarray,
                            spec: SynthSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Window-aligned injection directly into the raw series (used by synthesis).

    Only windows starting at or after ``anomaly_start_frac * L`` are eligible.
    Returns (perturbed series copy, per-window labels aligned with starts).
    """
    rng = np.random.default_rng(seed)
    out = np.array(series, copy=True)
    labels = np.zeros(len(starts), dtype=np.int64)
    cutoff = spec.anomaly_start_frac * series.shape[1]
    eligible = [k for k, s in enumerate(starts) if s >= cutoff]
    count = int(round(len(eligible) * spec.anomaly_rate))
    if count == 0:
        return out, labels
    chosen = rng.choice(len(eligible), size=count, replace=False)
    for idx in chosen:
        k = eligible[idx]
        s = int(starts[k])
        node = int(rng.integers(out.shape[0]))
        view = out[:, s:s + spec.window_len, :]
        _perturb_window(view, node, spec, rng)
        labels[k] = 1
    return out, labels


# ---------------------------------------------------------------- CSV export

def write_series_csv(path, series: np.ndarray, entity_ids: Optional[list[str]] = None):
    n, length, d = series.shape
    if entity_ids is None:
        entity_ids = [f"node{i}" for i in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "entity"] + [f"attr_{k + 1}" for k in range(d)])
        for i, ent in enumerate(entity_ids):
            for t in range(length):
                writer.writerow([t, ent] + [repr(float(v)) for v in series[i, t]])


def write_labels_csv(path, starts: np.ndarray, labels: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start", "label"])
        for s, lab in zip(starts, labels):
            writer.writerow([int(s), int(lab)])


def read_window_csv(path, header: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV whose header starts with ``header`` and whose rows hold an
    integer window start followed by numbers.

    Returns (window starts (N,), the other columns (N, width - 1)). Every
    problem is a :class:`DataError` naming the file and, for a row, its line.
    """
    starts: list[int] = []
    values: list[list[float]] = []
    with closing(_csv_rows(path, lambda h: h[:len(header)] == header, ",".join(header))) as rows:
        width = len(next(rows))
        for line, row in rows:
            try:
                starts.append(int(row[0]))
                values.append([float(v) for v in row[1:]])
            except ValueError:
                raise DataError(f"{path}: line {line}: non-numeric value in {row}") from None
    try:
        start_array = np.array(starts, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: a window start does not fit in 64 bits") from None
    return start_array, np.array(values, dtype=np.float64).reshape(len(starts), width - 1)


def read_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(window starts, labels) from a ``window_start,label`` CSV."""
    starts, values = read_window_csv(path, ["window_start", "label"])
    return starts, values[:, 0]
