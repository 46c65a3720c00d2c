"""Correctness checks on the outputs of one benchmark operation.

Every check recomputes what it needs independently of the code under test
(scipy for the matrix exponential, a rank statistic for the AUC, finite
differences for the flow Jacobian) or tests a property the output must
have. A failed check raises :class:`CheckFailed` with a one-line reason.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np
import scipy.linalg

from ganf.encoder import encode_dependencies, encode_hidden, offdiag_mask
from ganf.tensor import Tensor


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------ constraint

def h_scipy(adjacency: np.ndarray) -> float:
    """h(A) = tr(e^{A o A}) - n with scipy's expm as the oracle."""
    a = np.asarray(adjacency, dtype=np.float64)
    return float(np.trace(scipy.linalg.expm(a * a)) - a.shape[0])


def acyclic_support_eps(n: int, h_tol: float) -> float:
    """Smallest threshold at which |h(A)| < h_tol rules out every cycle.

    A simple cycle of length k whose weights all exceed eps in magnitude
    adds k closed walks of weight at least eps^(2k) to tr((A o A)^k), so
    h(A) >= eps^(2k) / (k-1)!. Taking the largest such bound over k <= n
    makes a feasible adjacency acyclic on its eps-support.
    """
    return max((h_tol * math.factorial(k - 1)) ** (1.0 / (2 * k))
               for k in range(2, n + 1))


def is_nilpotent(support: np.ndarray) -> bool:
    """S^n == 0 for a 0/1 matrix S, i.e. its graph has no cycle."""
    s = (np.asarray(support) != 0).astype(np.int64)
    p = np.eye(s.shape[0], dtype=np.int64)
    for _ in range(s.shape[0]):
        p = np.minimum(p @ s, 1)   # keep entries 0/1 so nothing overflows
    return not p.any()


def check_feasible_dag(adjacency: np.ndarray, h_tol: float):
    """|h(A)| < h_tol by scipy, and the eps-support is acyclic by nilpotency."""
    h = h_scipy(adjacency)
    require(abs(h) < h_tol, f"|h(A)| = {abs(h):.3e} by scipy is not below {h_tol:g}")
    eps = acyclic_support_eps(adjacency.shape[0], h_tol)
    require(is_nilpotent(np.abs(adjacency) > eps),
            f"support |A| > {eps:.3f} has a cycle (S^n != 0)")


def check_zero_diagonal(adjacency: np.ndarray):
    require(np.all(np.diag(adjacency) == 0.0), "diag(A) is not exactly zero")


def check_history(history: list[dict], adjacency: np.ndarray):
    """Every history value is finite and the last record's h matches scipy."""
    for k, record in enumerate(history):
        for key, value in record.items():
            if isinstance(value, float):
                require(math.isfinite(value) or key == "best_val_log_density",
                        f"history record {k} has non-finite {key}={value}")
    h_ref = h_scipy(adjacency)
    h_last = history[-1]["h"]
    require(abs(h_last - h_ref) <= 1e-7 * max(1.0, abs(h_ref)),
            f"last history h={h_last!r} but scipy gives {h_ref!r}")


def check_nll_falls(history: list[dict]):
    """The mean training NLL of the last epoch is below that of the first."""
    epochs = [r for r in history if r["kind"] == "epoch"]
    require(len(epochs) >= 2, "need at least two epochs to see the NLL fall")
    require(epochs[-1]["train_nll"] < epochs[0]["train_nll"],
            f"training NLL did not fall: {epochs[0]['train_nll']!r} -> "
            f"{epochs[-1]['train_nll']!r}")


# ---------------------------------------------------------------- scores

def window_labels(clean: np.ndarray, dirty: np.ndarray, starts: np.ndarray,
                  window_len: int) -> np.ndarray:
    """1 for each window that covers a step where the injected series differs."""
    changed = np.any(clean != dirty, axis=(0, 2)).astype(np.int64)
    covered = np.concatenate([[0], np.cumsum(changed)])
    starts = np.asarray(starts)
    return (covered[starts + window_len] - covered[starts] > 0).astype(np.int64)


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: P(score of a positive > score of a negative), ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    require(pos.size > 0 and neg.size > 0, "labels need both classes")
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return float((below + 0.5 * ties).sum() / (pos.size * neg.size))


def check_auc(reported: float, scores: np.ndarray, labels: np.ndarray,
              floor: float = 0.75):
    """The program's AUC equals the rank AUC, and is well above chance."""
    ref = rank_auc(scores, labels)
    require(abs(reported - ref) <= 1e-9, f"AUC {reported!r} but rank AUC is {ref!r}")
    require(ref >= floor, f"AUC {ref:.4f} is not above {floor}")


def check_score_rows(starts: np.ndarray, totals: np.ndarray,
                     per_series: np.ndarray, n_expected: int):
    """One row per stride-1 window; each total is the sum of its columns."""
    require(len(starts) == n_expected,
            f"{len(starts)} score rows for {n_expected} stride-1 windows")
    require(np.array_equal(starts, np.arange(n_expected)),
            "window starts are not 0, 1, 2, ...")
    require(np.all(np.isfinite(totals)) and np.all(np.isfinite(per_series)),
            "non-finite scores")
    gap = np.abs(per_series.sum(axis=1) - totals)
    require(np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(totals))),
            f"a total differs from the sum of its per-series columns by {gap.max():.3e}")


def check_rescored(model, windows: np.ndarray, totals: np.ndarray,
                   per_series: np.ndarray, rows: np.ndarray):
    """Windows re-scored one at a time with log_density match the batch output."""
    for k in rows:
        report = model.log_density(windows[k])
        require(math.isclose(-report.total, totals[k], rel_tol=1e-9, abs_tol=1e-9),
                f"window {k}: log_density gives {-report.total!r}, batch gave {totals[k]!r}")
        require(np.allclose(-report.per_series, per_series[k], rtol=1e-9, atol=1e-9),
                f"window {k}: per-series scores differ from the batch output")


def check_flow_logdet(model, window: np.ndarray, cells: list[tuple[int, int]],
                      step: float = 1e-6):
    """log p(x_t^i | d) = log N(z) + log|det dz/dx| with dz/dx by central differences."""
    x = np.asarray(window, dtype=np.float64)[None]
    n, t_len, d_in = x.shape[1:]
    hidden = encode_hidden(model.cell, x)
    a = Tensor(model.adjacency.data * offdiag_mask(n))
    deps = encode_dependencies(model.enc, hidden, a, 1, n)
    per_step = model.log_density(window).per_step
    for i, t in cells:
        row = x[0, i, t][None]
        cond = deps[t].data[i][None]

        def z_of(v):
            return model.flow.forward(Tensor(v), Tensor(cond))[0].data[0]

        z = z_of(row)
        jac = np.empty((d_in, d_in))
        for j in range(d_in):
            hi, lo = row.copy(), row.copy()
            hi[0, j] += step
            lo[0, j] -= step
            jac[:, j] = (z_of(hi) - z_of(lo)) / (2 * step)
        log_base = -0.5 * d_in * math.log(2 * math.pi) - 0.5 * float(z @ z)
        ref = log_base + math.log(abs(np.linalg.det(jac)))
        require(abs(per_step[i, t] - ref) <= 1e-5 * max(1.0, abs(ref)),
                f"series {i}, step {t}: log-density {per_step[i, t]!r} but "
                f"log N(z) + log|det J| = {ref!r}")


# ------------------------------------------------------------- checkpoint

def checkpoint_extra(path) -> dict:
    """The ``extra`` dict of a checkpoint header (magic, <II version+length, JSON)."""
    with open(path, "rb") as fh:
        require(fh.read(8) == b"GANFCKPT", f"{path}: not a checkpoint")
        _, blob_len = struct.unpack("<II", fh.read(8))
        return json.loads(fh.read(blob_len))["extra"]
