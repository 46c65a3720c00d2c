"""Row-by-row reference for ``ganf.data.load_csv``.

``load_csv`` parses into column arrays and checks gaps and fills them with
array operations. This is the same reader written one row and one grid
step at a time, so tests can compare the arrays and error messages of the
two on well-formed numeric CSVs.
"""
from __future__ import annotations

import csv
import sys

import numpy as np

from ganf.data import DataError


def load_csv_rows(path, gap_limit: int = 5) -> tuple[np.ndarray, list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0] != "timestamp" or header[1] != "entity":
            raise DataError(f"{path}: expected header 'timestamp,entity,attr_1,...', got {header}")
        n_attr = len(header) - 2
        per_entity: dict[str, list[tuple[float, list[float]]]] = {}
        for row in reader:
            if row:
                per_entity.setdefault(row[1], []).append(
                    (float(row[0]), [float(v) for v in row[2:]]))

    if not per_entity:
        raise DataError(f"{path}: no data rows")
    entities = sorted(per_entity)
    all_ts = sorted({ts for rows in per_entity.values() for ts, _ in rows})
    if len(all_ts) < 2:
        raise DataError(f"{path}: need at least two time steps")
    gaps = [b - a for a, b in zip(all_ts, all_ts[1:])]
    step = min(gaps)
    # a difference of two parsed timestamps is off by at most this much
    noise = 4 * sys.float_info.epsilon * max(abs(all_ts[0]), abs(all_ts[-1]))
    # every gap a whole number of smallest gaps: the step is the span over their count
    counts = [round(gap / step) for gap in gaps]
    if all(abs(gap / step - count) <= 1e-6 + (count + 1) * noise / step
           for gap, count in zip(gaps, counts)):
        step = (all_ts[-1] - all_ts[0]) / sum(counts)
    length = int(round((all_ts[-1] - all_ts[0]) / step)) + 1
    grid0 = all_ts[0]
    for ts in all_ts:
        offset = (ts - grid0) / step
        if abs(offset - round(offset)) > 1e-6 + 2 * noise / step:
            raise DataError(f"{path}: timestamp {ts!r} is off the grid {grid0!r} + k * {step!r}")

    values = np.full((len(entities), length, n_attr), np.nan)
    for e_idx, ent in enumerate(entities):
        prev = -np.inf
        for ts, vals in per_entity[ent]:
            if ts <= prev:
                raise DataError(f"{path}: non-monotone timestamps for entity {ent!r}")
            prev = ts
            values[e_idx, int(round((ts - grid0) / step))] = vals
        run = 0
        for pos in range(length):
            if np.isnan(values[e_idx, pos]).any():
                run += 1
                if run > gap_limit:
                    raise DataError(
                        f"{path}: entity {ent!r} has a gap longer than {gap_limit} steps")
                if pos == 0:
                    raise DataError(f"{path}: entity {ent!r} has no reading at the first step")
                values[e_idx, pos] = values[e_idx, pos - 1]
            else:
                run = 0
    timestamps = grid0 + step * np.arange(length)
    return values, entities, timestamps
