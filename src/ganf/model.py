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

from .data import check_settings
from .encoder import EncoderParams, LstmCell, encode_dependencies, encode_hidden
from .flow import FLOW_KINDS, FlowStack
from .parallel import run_tasks, worker_count
from .tensor import (NumericError, ShapeError, Tensor, _emit, mul, reshape, sum_,
                     transpose)

MODES = ("graph", "no-graph", "full-chain")
# the rules of the model shape, which a checkpoint header stores and TrainConfig shares
MODEL_SETTINGS = {"n_series": 1, "input_dim": 1, "hidden_dim": 1, "flow_blocks": 0,
                  "flow_hidden": 1, "flow_type": FLOW_KINDS, "mode": MODES, "seed": 0}
SCORE_BATCH = 64   # most windows in one scoring batch
# most (window x series x step x width) cells in one scoring batch: the
# default model's 64-window batch (n=5, T=20, hidden and flow width 32)
SCORE_CELLS = SCORE_BATCH * 5 * 20 * 32


def _zero_diagonal(a: Tensor) -> Tensor:
    """``a`` read with a zero diagonal, as one tape op.

    The output is ``a``'s own buffer when its diagonal is already zero, as
    :meth:`GanfModel.remask_diagonal` keeps it after every update; otherwise
    (a hand-made checkpoint, a finite-difference probe) it is a copy with the
    diagonal zeroed, whatever it held, NaN and inf included. The VJP zeroes
    the gradient's diagonal.
    """
    data = a.data
    if np.any(np.diagonal(data) != 0.0):
        data = data.copy()
        np.fill_diagonal(data, 0.0)

    def vjp(g):
        g = g.copy()
        np.fill_diagonal(g, 0.0)
        return (g,)

    return _emit([a], data, vjp)


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
        self.n_series = n_series
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.mode = mode
        self.flow_type = flow_type
        self.flow_blocks = flow_blocks
        self.flow_hidden = flow_hidden
        self.seed = seed
        check_settings(self.config(), MODEL_SETTINGS)

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
        # the LSTM output has no name here, so without a tape it is freed before the flow
        deps = encode_dependencies(self.enc, encode_hidden(self.cell, x),
                                   _zero_diagonal(self.adjacency), b, n)
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

    def _checked_log_prob(self, x: np.ndarray, first: int) -> np.ndarray:
        """(B, n_eff, T) log-densities of windows ``x``, whose window 0 is window ``first``.

        Every score comes from this pass. NumPy's floating-point warnings are
        silenced inside it (errstate is per context, and a pool thread runs in
        its own), and its one finiteness check stands in for them: an infinite
        or overflowing input makes its own log-density non-finite, and a NaN
        carries through every layer. The first non-finite entry in (window,
        series, step) order raises NumericError naming all three. The window
        is exact. The series need not be the one whose input was bad: a NaN
        spreads through the aggregation A H_t to other series of its window,
        and the lowest is named.
        """
        with np.errstate(all="ignore"):
            per_step = self.per_step_log_prob(x).data
        if not np.all(np.isfinite(per_step)):
            bad = np.argwhere(~np.isfinite(per_step))[0]
            raise NumericError(f"non-finite log-density in window {first + bad[0]}, "
                               f"series {bad[1]}, step {bad[2]}")
        return per_step

    def log_density(self, window: np.ndarray) -> DensityReport:
        """Exact additive decomposition of one window's log-density."""
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 3:
            raise ShapeError(f"expected one (n, T, D) window, got shape {window.shape}")
        per_step = self._checked_log_prob(window[None], 0)[0]
        per_series = per_step.sum(axis=1)
        return DensityReport(total=float(per_series.sum()),
                             per_series=per_series, per_step=per_step)

    def anomaly_score(self, window: np.ndarray) -> float:
        """Negative total log-density; higher means more anomalous."""
        return -self.log_density(window).total

    def per_series_scores(self, window: np.ndarray) -> np.ndarray:
        """Negative per-series conditional log-densities."""
        return -self.log_density(window).per_series

    def score_batch_size(self, n_windows: int, t_len: int) -> int:
        """Windows per scoring batch for ``n_windows`` windows of ``t_len`` steps.

        A batch holds at most ``SCORE_BATCH`` windows and at most
        ``SCORE_CELLS`` (window x series x step x width) cells, width being
        the widest of the LSTM, the flow conditioner and its [mu, alpha]
        output, which is twice the input width (n D in full-chain mode); the
        windows are then split into that many batches of equal size. The
        size depends only on the model and the window shape, never on the
        thread count.
        """
        width = max(self.hidden_dim, self.flow_hidden, 2 * self._d_eff)
        cap = max(1, min(SCORE_BATCH, SCORE_CELLS // (self._n_eff * t_len * width)))
        batches = max(1, -(-n_windows // cap))
        return max(1, -(-n_windows // batches))

    def score_windows(self, windows: np.ndarray, batch_size: Optional[int] = None,
                      workers: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """(total scores, per-series scores) over a stack of (N, n, T, D) windows.

        Windows are scored in batches of ``batch_size`` (default
        :meth:`score_batch_size`, which bounds a batch's memory whatever n
        is), and each batch writes its own rows, so the scores are
        byte-identical however the batches are spread over threads. Up to
        ``workers`` threads score (default :func:`ganf.parallel.worker_count`:
        ``GANF_THREADS``, or else every CPU in the process's affinity mask),
        each taking two batches or more, while the calling thread waits;
        with fewer batches the loop runs on the calling thread. While several
        threads score, OpenBLAS is held at one thread and restored when the
        last finishes. A non-finite log-density raises NumericError naming
        the lowest window that has one, as the serial loop does, and NumPy
        prints no floating-point warning.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 4:
            raise ShapeError(f"expected (N, n, T, D) windows, got shape {windows.shape}")
        if batch_size is None:
            batch_size = self.score_batch_size(windows.shape[0], windows.shape[2])
        if workers is None:
            workers = worker_count()
        check_settings(dict(batch_size=batch_size, workers=workers), dict(batch_size=1, workers=1))
        totals = np.empty(windows.shape[0])
        per_series = np.empty((windows.shape[0], self._n_eff))

        def score_batch(k: int):
            lo = k * batch_size
            ps = self._checked_log_prob(windows[lo:lo + batch_size], lo).sum(axis=2)
            per_series[lo:lo + batch_size] = -ps
            totals[lo:lo + batch_size] = -ps.sum(axis=1)

        run_tasks(score_batch, -(-windows.shape[0] // batch_size), workers)
        return totals, per_series
