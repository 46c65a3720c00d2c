"""CSV ingestion, windowing, normalization, and the synthetic SEM oracle.

Input CSV schema (long format): header ``timestamp,entity,attr_1,...,attr_D``,
timestamps sorted per entity on a uniform grid. Gaps of at most
``gap_limit`` steps are forward-filled; anything larger is a data error.
"""
from __future__ import annotations

import csv
import itertools
import math
import numbers
import sys
from array import array
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dag import topological_order


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def check_settings(settings: dict, rules: dict):
    """:class:`DataError` naming the first setting in ``settings`` that breaks its
    rule in ``rules`` (a rule with no value in ``settings`` is skipped). An int rule
    is the floor of an integer: a Python or NumPy int, not a bool. A str rule such as
    ``"(0, 1]"`` is the interval of a real: a finite int or float, not a bool or a
    string. A tuple rule lists the values of a choice."""
    for name, rule in rules.items():
        if name not in settings:
            continue
        value = settings[name]
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if isinstance(rule, tuple):
            ok, want = value in rule, f"one of {rule}"
        elif isinstance(rule, int):
            ok = number and isinstance(value, numbers.Integral) and value >= rule
            want = f"an integer >= {rule}"
        else:
            low, high = (float(end) for end in rule[1:-1].split(","))
            # nan, inf and an int too large for a float all fail the first test
            ok = (number and abs(value) <= sys.float_info.max
                  and (low < value if rule[0] == "(" else low <= value)
                  and (value < high if rule[-1] == ")" else value <= high))
            want = f"a finite number in {rule}"
        if not ok:
            raise DataError(f"{name} must be {want}, got {value!r}")


REAL = "(-inf, inf)"   # any finite number

# the settings that cut a series into windows and split them
WINDOW_SETTINGS = {"window_len": 1, "stride": 1, "train_frac": REAL, "val_frac": REAL,
                   "gap_limit": 0}


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
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
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


GAP_LIMIT = 5   # the default longest forward-filled gap, in steps


def load_csv(path, gap_limit: int = GAP_LIMIT) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Read a long-format CSV into a dense (n, L, D) array.

    Returns (values, entity_ids, timestamps). The grid starts at the
    earliest timestamp and its step is the smallest gap between distinct
    timestamps; a timestamp more than 1e-6 steps, plus its float rounding,
    off it is an error. A reading with a NaN in any attribute counts as
    missing. Every error is a :class:`DataError`, a ``gap_limit`` that is not
    an integer >= 0 included; per entity (in name order) the first one found
    is a non-monotone timestamp, then a missing first step, then a long gap.
    """
    check_settings({"gap_limit": gap_limit}, WINDOW_SETTINGS)
    codes: list[int] = []       # entity of each row, in order of first appearance
    table = array("d")          # each row's timestamp then its values, 8 bytes each
    block: list[float] = []     # the floats parsed since the last move into table
    index: dict[str, int] = {}
    with closing(_csv_rows(path, lambda h: len(h) >= 3 and h[:2] == ["timestamp", "entity"],
                           "timestamp,entity,attr_1,...")) as rows:
        width = len(next(rows))
        for line, row in rows:
            try:
                block.append(float(row[0]))
            except ValueError:
                raise DataError(f"{path}: line {line}: non-numeric "
                                f"timestamp {row[0]!r}") from None
            try:
                block.extend(map(float, row[2:]))
            except ValueError:
                raise DataError(f"{path}: line {line}: non-numeric "
                                f"value in {row[2:]}") from None
            codes.append(index.setdefault(row[1], len(index)))
            if len(block) >= 4096:
                table.fromlist(block)
                block.clear()
        table.fromlist(block)

    if not codes:
        raise DataError(f"{path}: no data rows")
    table = np.asarray(table).reshape(len(codes), width - 1)
    ts, vals = table[:, 0], table[:, 1:]
    if not np.isfinite(ts).all():
        raise DataError(f"{path}: non-finite timestamp")
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
    long_gap = np.zeros(len(entities), dtype=bool)
    long_gap[ent[1:][~first[1:] & (np.diff(pos) - 1 > gap_limit)]] = True
    long_gap[ent[last][last_pos - pos[last] > gap_limit]] = True
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

    Returns (windows (N, n, T, D), start indices (N,)), the windows a read-only
    strided view that aliases a float64 ``series``: copy it before writing. A
    window length or stride that is not an integer >= 1 is a :class:`DataError`.
    """
    check_settings({"window_len": window_len, "stride": stride}, WINDOW_SETTINGS)
    series = np.asarray(series, dtype=np.float64)
    n, length, d = series.shape
    if length < window_len:
        raise DataError(f"series length {length} shorter than window {window_len}")
    starts = np.arange(0, length - window_len + 1, stride)
    # (n, N, D, T) view -> (N, n, T, D)
    view = sliding_window_view(series, window_len, axis=1)[:, ::stride]
    return view.transpose(1, 0, 3, 2), starts


@dataclass
class NormStats:
    """Per-entity, per-attribute z-score statistics of the training windows."""
    mean: np.ndarray          # (n, D)
    std: np.ndarray           # (n, D)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """z-score an (n, L, D) series or an (N, n, T, D) stack of windows, in C order."""
        return np.subtract(x, self.mean[:, None], order="C") / self.std[:, None]


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
    # nan fails every comparison, and an infinite fraction fails one of them
    if not (train_frac > 0 and val_frac >= 0 and train_frac + val_frac <= 1):
        raise DataError(f"train_frac {train_frac} and val_frac {val_frac} leave no training "
                        "windows or let them overlap the test windows: need train_frac > 0, "
                        "val_frac >= 0 and train_frac + val_frac <= 1")
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
    return NormStats(mean=mean, std=np.where(std < eps, eps, std))


def normalize(split: DatasetSplit) -> DatasetSplit:
    """z-score all splits using train-only statistics."""
    stats = fit_norm_stats(split.train)
    return replace(split, train=stats.apply(split.train),
                   validation=stats.apply(split.validation),
                   test=stats.apply(split.test), stats=stats)


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


# SynthSpec's rules and synth_generate's length; adjacency is checked where it is read
SYNTH_SETTINGS = {
    "n_series": 1, "n_attrs": 1, "length": 1, "edge_prob": "[0, 1]", "weight_low": REAL,
    "weight_high": REAL, "rho": REAL, "noise_std": "[0, inf)", "anomaly_rate": "[0, 1)",
    "anomaly_magnitude": REAL, "anomaly_type": ("spike", "level-shift"), "window_len": 1,
    "stride": 1, "anomaly_start_frac": "[0, 1]",
}


def _check_spec(spec: SynthSpec, length: int = 1):
    """:class:`DataError` for a spec field, or a ``synth_generate`` length, out of range."""
    check_settings({**vars(spec), "length": length}, SYNTH_SETTINGS)
    if spec.weight_high < spec.weight_low:
        raise DataError(f"weight_high {spec.weight_high!r} is below weight_low {spec.weight_low!r}")
    if not math.isfinite(spec.weight_high - spec.weight_low):
        raise DataError("spec weight_high - weight_low overflows")


# doubles drawn from the generator per block while walking the node pairs
_DRAW_BLOCK = 1 << 12


def _ground_truth_dag(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Weighted adjacency, A[i, j] != 0 <=> j -> i; a generated one is acyclic.

    A generated graph is strictly lower-triangular in a hidden random node
    order. Each pair (i, j), j < i, in row order reads one uniform double
    and is an edge when it is below ``edge_prob``; an edge reads two more,
    the weight ``low + (high - low) * u`` and its sign. The doubles come
    from ``rng.random`` in blocks, and the generator is then left where a
    ``rng.uniform()`` call per draw would leave it, so the permutation and
    everything drawn after it are those of the per-draw form.
    """
    n = spec.n_series
    if spec.adjacency is not None:
        try:
            a = np.asarray(spec.adjacency, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError("spec adjacency is not an n x n matrix of numbers") from None
        if a.shape != (n, n):
            raise DataError(f"spec adjacency shape {a.shape} does not match n={n}")
        if not np.isfinite(a).all():
            raise DataError("spec adjacency has a non-finite entry")
        return a
    a = np.zeros((n, n))
    pairs = n * (n - 1) // 2
    if pairs:
        edge_prob, low = float(spec.edge_prob), float(spec.weight_low)
        span = float(spec.weight_high) - low
        start = rng.bit_generator.state
        block = min(3 * pairs, _DRAW_BLOCK)
        draw = itertools.chain.from_iterable(
            rng.random(block).tolist() for _ in itertools.count()).__next__
        rows, cols, weights = [], [], []
        for i in range(1, n):
            for j in range(i):
                if draw() < edge_prob:
                    w = low + span * draw()
                    rows.append(i)
                    cols.append(j)
                    weights.append(w if draw() < 0.5 else -w)
        a[rows, cols] = weights
        # one double per pair and two per edge were used: rewind to the start
        # and draw exactly that many
        rng.bit_generator.state = start
        used = pairs + 2 * len(weights)
        for size in [block] * (used // block) + [used % block]:
            rng.random(size)
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


# Python floats held per block of the SEM recursion; a block spans
# _SEM_BLOCK // n steps
_SEM_BLOCK = 1 << 12


def synth_generate(spec: SynthSpec, length: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Generate an (n, L, D) series from the SEM; returns (series, true adjacency).

    x_t^i = rho * x_{t-1}^i + sum_j A[i, j] * x_t^j + noise, parents resolved
    in topological order at each step. Each attribute runs on Python floats
    in time blocks, a node's value summed as noise, then the rho term (from
    the second step), then each parent's term in increasing j. That is the
    order of a per-node NumPy loop, and both are IEEE doubles, so the bytes
    are the same. A spec field or a length out of range, a cyclic or
    non-finite explicit adjacency: each is a :class:`DataError`, raised
    before anything is drawn.
    """
    _check_spec(spec, length)
    rng = np.random.default_rng(seed)
    a = _ground_truth_dag(spec, rng)
    n, d, rho = spec.n_series, spec.n_attrs, spec.rho
    # [(parent, weight), ...] of each node by increasing parent; a self-loop
    # is kept and reads 0.0, the value of a node not yet summed
    parents = [[] for _ in range(n)]
    rows, cols = np.nonzero(a)
    for i, j, w in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
        parents[i].append((j, w))
    order = topological_order(n, [(j, i) for i in range(n) for j, _ in parents[i] if i != j])
    if len(order) < n:
        raise DataError("spec adjacency is cyclic")
    noise = rng.normal(0.0, spec.noise_std, size=(n, length, d))
    nodes = [(i, parents[i]) for i in order]
    series = np.empty((n, length, d))
    block = max(1, _SEM_BLOCK // n)
    for k in range(d):
        prev = None
        for t0 in range(0, length, block):
            steps = []
            for eps in noise[:, t0:t0 + block, k].T.tolist():
                x = [0.0] * n
                for i, inputs in nodes:
                    val = eps[i]
                    if prev is not None:
                        val = val + rho * prev[i]
                    for j, w in inputs:
                        val = val + w * x[j]
                    x[i] = val
                steps.append(x)
                prev = x
            series[:, t0:t0 + len(steps), k] = np.array(steps).T
    return series, a


def _perturb_window(window: np.ndarray, node: int, spec: SynthSpec,
                    rng: np.random.Generator):
    """In-place anomaly in one node of an (n, T, D) window."""
    bump = spec.anomaly_magnitude * spec.noise_std
    if spec.anomaly_type == "spike":
        step = int(rng.integers(window.shape[1]))
        window[node, step, :] += bump
    else:
        window[node, :, :] += bump


def inject_anomalies(windows: np.ndarray, spec: SynthSpec,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Perturb a ``spec.anomaly_rate`` fraction of windows in one random node each.

    Returns (perturbed copy, exact binary labels).
    """
    _check_spec(spec)
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
    _check_spec(spec)
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

def write_csv(path, header: list[str], rows):
    """Write a CSV table: ganf writes every table through here. A float cell is
    written as ``repr(float(v))``, its shortest round-trip form, never as a NumPy
    repr such as ``np.float64(0.1)``; ints and strings pass through."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def write_series_csv(path, series: np.ndarray, entity_ids: Optional[list[str]] = None):
    entities = [f"node{i}" for i in range(len(series))] if entity_ids is None else entity_ids
    write_csv(path, ["timestamp", "entity"] + [f"attr_{k + 1}" for k in range(series.shape[2])],
              ([t, ent, *values] for ent, steps in zip(entities, series.astype(float).tolist())
               for t, values in enumerate(steps)))


def write_labels_csv(path, starts: np.ndarray, labels: np.ndarray):
    write_csv(path, ["window_start", "label"],
              zip(*np.asarray([starts, labels], dtype=np.int64).tolist()))


def read_window_csv(path, header: list[str],
                    within: tuple[float, float] = (-math.inf, math.inf),
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV whose header starts with ``header`` and whose rows hold an
    integer window start followed by numbers in the closed interval ``within``.

    Returns (window starts (N,), the other columns (N, width - 1)). Every
    problem, a nan or inf value, a value outside ``within`` and a window
    start given twice included, is a :class:`DataError` naming the file and,
    for a row, its line (both lines for a repeated start).
    """
    low, high = within
    starts: list[int] = []
    values: list[list[float]] = []
    line_of: dict[int, int] = {}
    with closing(_csv_rows(path, lambda h: h[:len(header)] == header, ",".join(header))) as rows:
        width = len(next(rows))
        for line, row in rows:
            try:
                starts.append(int(row[0]))
                values.append([float(v) for v in row[1:]])
            except ValueError:
                raise DataError(f"{path}: line {line}: non-numeric value in {row}") from None
            if not all(map(math.isfinite, values[-1])):
                raise DataError(f"{path}: line {line}: non-finite value in {row}")
            if not all(low <= v <= high for v in values[-1]):
                raise DataError(f"{path}: line {line}: value outside [{low:g}, {high:g}] "
                                f"in {row}")
            first = line_of.setdefault(starts[-1], line)
            if first != line:
                raise DataError(f"{path}: lines {first} and {line} both have "
                                f"window_start {starts[-1]}")
    try:
        start_array = np.array(starts, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: a window start does not fit in 64 bits") from None
    return start_array, np.array(values, dtype=np.float64).reshape(len(starts), width - 1)


def read_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(window starts, labels) from a ``window_start,label`` CSV; labels lie in [0, 1]."""
    starts, values = read_window_csv(path, ["window_start", "label"], within=(0.0, 1.0))
    return starts, values[:, 0]
