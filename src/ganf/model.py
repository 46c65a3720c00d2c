"""The assembled density model: encoder + conditional flow + adjacency.

Modes (matching the ablation variants):
  graph      - adjacency learned jointly with all other parameters
  no-graph   - adjacency frozen at zero; constituent series treated as
               independent given their own histories
  full-chain - series concatenated along the attribute dimension and
               modeled as one wide series (no adjacency at all)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .encoder import (EncoderParams, LstmCell, encode_dependencies,
                      encode_hidden, offdiag_mask)
from .flow import FlowStack
from .parallel import run_tasks, worker_count
from .tensor import (NumericError, ShapeError, Tensor, mul, reshape, sum_,
                     transpose)

MODES = ("graph", "no-graph", "full-chain")
SCORE_BATCH = 64   # windows per scoring batch


def _finite(per_step: np.ndarray, first: int) -> np.ndarray:
    """``per_step``, a (B, n, T) block of log-densities whose window 0 is window ``first``.

    This is the one finiteness check of a forward pass: an infinite or
    overflowing input makes its own log-density non-finite, and a NaN carries
    through every layer. The first non-finite entry in (window, series, step)
    order raises NumericError naming all three. The window is exact. The
    series need not be the one whose input was bad: a NaN spreads through the
    aggregation A H_t to other series of its window, and the lowest is named.
    """
    if not np.all(np.isfinite(per_step)):
        bad = np.argwhere(~np.isfinite(per_step))[0]
        raise NumericError(f"non-finite log-density in window {first + bad[0]}, "
                           f"series {bad[1]}, step {bad[2]}")
    return per_step


@dataclass
class DensityReport:
    """Additive decomposition of one window's log-density."""
    total: float
    per_series: np.ndarray   # (n,)
    per_step: np.ndarray     # (n, T)


class GanfModel:
    """Graph-augmented conditional flow over (n, T, D) windows."""

    def __init__(self, n_series: int, input_dim: int, hidden_dim: int = 32,
                 flow_blocks: int = 6, flow_hidden: int = 32,
                 flow_type: str = "maf", mode: str = "graph", seed: int = 0):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.n_series = n_series
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.mode = mode
        self.flow_type = flow_type
        self.flow_blocks = flow_blocks
        self.flow_hidden = flow_hidden
        self.seed = seed

        rng = np.random.default_rng(seed)
        # full-chain folds the n series into one wide series
        self._n_eff = 1 if mode == "full-chain" else n_series
        self._d_eff = input_dim * n_series if mode == "full-chain" else input_dim

        self.cell = LstmCell(self._d_eff, hidden_dim, rng)
        self.enc = EncoderParams(hidden_dim, rng)
        self.flow = FlowStack(self._d_eff, hidden_dim, n_blocks=flow_blocks,
                              hidden=flow_hidden, kind=flow_type, rng=rng)
        a0 = np.zeros((self._n_eff, self._n_eff))
        if mode == "graph":
            a0 = rng.uniform(-0.1, 0.1, size=a0.shape)
            np.fill_diagonal(a0, 0.0)
        self.adjacency = Tensor(a0, requires_grad=(mode == "graph"))
        self._offdiag = offdiag_mask(self._n_eff)
        # header extras of the checkpoint this model was loaded from
        self.checkpoint_extra: dict = {}

    # ---- parameters ----

    def parameters(self) -> dict[str, Tensor]:
        """All trainable tensors, adjacency included in graph mode."""
        out: dict[str, Tensor] = {}
        out.update(self.cell.parameters("rnn"))
        out.update(self.enc.parameters("enc"))
        out.update(self.flow.parameters("flow"))
        if self.mode == "graph":
            out["A"] = self.adjacency
        return out

    def all_arrays(self) -> dict[str, np.ndarray]:
        """Every model array by name, for checkpointing (adjacency always included)."""
        arrays = {k: v.data for k, v in self.parameters().items()}
        arrays["A"] = self.adjacency.data
        return arrays

    def remask_diagonal(self):
        """Force diag(A) = 0; called after every optimizer update."""
        np.fill_diagonal(self.adjacency.data, 0.0)

    def config(self) -> dict:
        return {
            "n_series": self.n_series, "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim, "flow_blocks": self.flow_blocks,
            "flow_hidden": self.flow_hidden, "flow_type": self.flow_type,
            "mode": self.mode, "seed": self.seed,
        }

    # ---- forward ----

    def _fold(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1] != self.n_series or x.shape[3] != self.input_dim:
            raise ShapeError(
                f"expected windows shaped (B, {self.n_series}, T, {self.input_dim}), "
                f"got {x.shape}")
        if self.mode == "full-chain":
            b, n, t, d = x.shape
            x = np.ascontiguousarray(x.transpose(0, 2, 1, 3).reshape(b, 1, t, n * d))
        return x

    def per_step_log_prob(self, x: np.ndarray) -> Tensor:
        """Tape tensor of per-step conditional log-densities, shaped (B, n_eff, T)."""
        x = self._fold(x)
        b, n, t_len, d_in = x.shape
        hidden = encode_hidden(self.cell, x)
        a_masked = mul(self.adjacency, Tensor(self._offdiag))
        deps = encode_dependencies(self.enc, hidden, a_masked, b, n)
        x_rows = Tensor(np.ascontiguousarray(
            x.transpose(2, 0, 1, 3).reshape(t_len * b * n, d_in)))
        d_rows = reshape(deps, (t_len * b * n, self.hidden_dim))  # t-major, matching x_rows
        lp = self.flow.log_prob(x_rows, d_rows)          # (T*B*n,)
        lp = reshape(lp, (t_len, b, n))
        return transpose(lp, (1, 2, 0))                  # (B, n, T)

    def batch_nll(self, x: np.ndarray) -> Tensor:
        """Scalar mean negative log-density over a batch of windows."""
        per_step = self.per_step_log_prob(x)
        totals = sum_(per_step, axis=(1, 2))
        return mul(sum_(totals), Tensor(-1.0 / per_step.shape[0]))

    def log_density(self, window: np.ndarray) -> DensityReport:
        """Exact additive decomposition of one window's log-density."""
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 3:
            raise ShapeError(f"expected one (n, T, D) window, got shape {window.shape}")
        per_step = _finite(self.per_step_log_prob(window[None]).data, 0)[0]
        per_series = per_step.sum(axis=1)
        return DensityReport(total=float(per_series.sum()),
                             per_series=per_series, per_step=per_step)

    def anomaly_score(self, window: np.ndarray) -> float:
        """Negative total log-density; higher means more anomalous."""
        return -self.log_density(window).total

    def per_series_scores(self, window: np.ndarray) -> np.ndarray:
        """Negative per-series conditional log-densities."""
        return -self.log_density(window).per_series

    def score_windows(self, windows: np.ndarray, batch_size: int = SCORE_BATCH,
                      workers: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """(total scores, per-series scores) over a stack of (N, n, T, D) windows.

        Windows are scored in batches of ``batch_size``, and each batch
        writes its own rows, so the scores are byte-identical however the
        batches are spread over threads. Up to ``workers`` threads score
        (default :func:`ganf.parallel.worker_count`: ``GANF_THREADS``, or
        else every CPU in the process's affinity mask), each taking two
        batches or more; the calling thread is one of them, and with fewer
        batches the loop runs on it alone. While several threads score,
        OpenBLAS is held at one thread and restored when the last finishes.
        A non-finite log-density raises NumericError naming the lowest
        window that has one, as the serial loop does.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 4:
            raise ShapeError(f"expected (N, n, T, D) windows, got shape {windows.shape}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        if workers is None:
            workers = worker_count()
        elif workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        totals = np.empty(windows.shape[0])
        per_series = np.empty((windows.shape[0], self._n_eff))

        def score_batch(k: int):
            lo = k * batch_size
            per_step = _finite(self.per_step_log_prob(windows[lo:lo + batch_size]).data, lo)
            ps = per_step.sum(axis=2)
            per_series[lo:lo + batch_size] = -ps
            totals[lo:lo + batch_size] = -ps.sum(axis=1)

        run_tasks(score_batch, -(-windows.shape[0] // batch_size), workers)
        return totals, per_series
