"""History and dependency encoding for multiple interacting series.

A single LSTM cell, shared across all nodes, summarizes each series'
history into hidden states. A graph convolution then aggregates parent
hidden states and own history into fixed-length dependency vectors:

    D_t = ReLU(A H_t W1 + H_{t-1} W2) W3

with H_0 = 0 for the t = 1 boundary. The adjacency diagonal must be zero:
self-history enters through the H_{t-1} W2 term, never through self-loops.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import ShapeError, Tensor, _emit, recording


class ContractError(ValueError):
    """A caller-side contract was violated (e.g. nonzero adjacency diagonal)."""


def offdiag_mask(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


class LstmCell:
    """Standard LSTM cell with one shared parameter set for all nodes.

    The 4 * hidden gate columns are ordered input, forget, cell, output.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        bound = 1.0 / math.sqrt(hidden_dim)
        u = lambda shape: rng.uniform(-bound, bound, size=shape)
        self.w_x = Tensor(u((input_dim, 4 * hidden_dim)), requires_grad=True)
        self.w_h = Tensor(u((hidden_dim, 4 * hidden_dim)), requires_grad=True)
        self.b = Tensor(u((4 * hidden_dim,)), requires_grad=True)

    def parameters(self, prefix: str = "rnn") -> dict[str, Tensor]:
        return {f"{prefix}.w_x": self.w_x, f"{prefix}.w_h": self.w_h,
                f"{prefix}.b": self.b}


class EncoderParams:
    """The three square transforms of the dependency aggregation."""

    def __init__(self, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        bound = 1.0 / math.sqrt(hidden_dim)
        u = lambda: rng.uniform(-bound, bound, size=(hidden_dim, hidden_dim))
        self.w1 = Tensor(u(), requires_grad=True)
        self.w2 = Tensor(u(), requires_grad=True)
        self.w3 = Tensor(u(), requires_grad=True)

    def parameters(self, prefix: str = "enc") -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.w2": self.w2,
                f"{prefix}.w3": self.w3}


# Inside the unroll the gates sit in their own contiguous (rows, hidden)
# blocks, ordered input, forget, output, cell so that the three sigmoid
# gates are adjacent. The order swaps two blocks, so it is its own inverse.
_ORDER = [0, 1, 3, 2]
_HALF = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]


def _split_gates(a: np.ndarray) -> np.ndarray:
    """(k, 4 * hidden) in parameter order -> (4, k, hidden) in unroll order."""
    return a.reshape(a.shape[0], 4, -1)[:, _ORDER, :].transpose(1, 0, 2)


def _join_gates(a: np.ndarray) -> np.ndarray:
    """(4, k, hidden) in unroll order -> (k, 4 * hidden) in parameter order."""
    return a[_ORDER].transpose(1, 0, 2).reshape(a.shape[1], -1)


def encode_hidden(cell: LstmCell, x: np.ndarray) -> Tensor:
    """Unroll the shared cell over a (B, n, T, D) batch as one tape op.

    Returns a (T, B*n, hidden) tensor whose step t is ``out[t]``; zero
    initial state. The input projection of all steps, bias included, is
    one GEMM per gate, and sigmoid is computed as 0.5 * (1 + tanh(x / 2)).
    The backward pass is backpropagation through time over the cached gates.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"expected a (B, n, T, D) array, got shape {x.shape}")
    b, n, t_len, d_in = x.shape
    if d_in != cell.input_dim:
        raise ShapeError(f"encoder expects {cell.input_dim} attributes, got {d_in}")
    rows, hd = b * n, cell.hidden_dim
    # inputs with a column of ones, so the bias rides in the projection GEMM
    xs = np.ones((t_len * rows, d_in + 1))
    xs[:, :d_in] = x.transpose(2, 0, 1, 3).reshape(-1, d_in)
    w_x = _split_gates(np.vstack([cell.w_x.data, cell.b.data]))
    w_h = _split_gates(cell.w_h.data)                    # gate k is h @ w_h[k] + ...
    # the sigmoid gates take tanh(x / 2); halving is exact, so it is folded in
    pre = np.matmul(xs, w_x * _HALF).reshape(4, t_len, rows, hd)
    w_h_half = w_h * _HALF
    # without a tape only the current step is kept
    kept = t_len if recording(cell.w_x, cell.w_h, cell.b) else 1
    gates = np.empty((kept, 4, rows, hd))
    cs = np.empty((kept, rows, hd))
    tcs = np.empty((kept, rows, hd))
    hs = np.empty((t_len, rows, hd))
    h = np.zeros((rows, hd))
    c = np.zeros((rows, hd))
    for t in range(t_len):
        k = t % kept
        y = gates[k]
        np.matmul(h, w_h_half, out=y)
        y += pre[:, t]
        np.tanh(y, out=y)
        y[:3] *= 0.5
        y[:3] += 0.5
        c = np.multiply(y[1], c, out=cs[k])
        c += y[0] * y[3]
        np.tanh(c, out=tcs[k])
        h = np.multiply(y[2], tcs[k], out=hs[t])

    def vjp(g):
        dy = np.empty((4, t_len, rows, hd))
        dh = np.zeros((rows, hd))
        dc = np.zeros((rows, hd))
        for t in range(t_len - 1, -1, -1):
            y, tc, d = gates[t], tcs[t], dy[:, t]
            dh += g[t]
            dc += dh * y[2] * (1.0 - tc * tc)
            np.multiply(dc, y[3], out=d[0])
            if t:
                np.multiply(dc, cs[t - 1], out=d[1])
            else:
                d[1] = 0.0
            np.multiply(dh, tc, out=d[2])
            np.multiply(dc, y[0], out=d[3])
            d[:3] *= y[:3] * (1.0 - y[:3])
            d[3] *= 1.0 - y[3] * y[3]
            dh = np.tensordot(d, w_h, axes=([0, 2], [0, 2]))
            dc *= y[1]
        g_wx = _join_gates(np.matmul(xs.T, dy.reshape(4, -1, hd)))
        g_wh = np.matmul(hs[:-1].reshape(-1, hd).T, dy[:, 1:].reshape(4, -1, hd))
        return g_wx[:d_in], _join_gates(g_wh), g_wx[d_in]

    return _emit([cell.w_x, cell.w_h, cell.b], hs, vjp)


def encode_dependencies(params: EncoderParams, hidden: Tensor | Sequence[Tensor],
                        a: Tensor, batch: int, n: int) -> Tensor:
    """Dependency vectors D_t = ReLU(A H_t W1 + H_{t-1} W2) W3 for all t as one tape op.

    ``hidden`` is the (T, B*n, hidden) output of :func:`encode_hidden` or a
    sequence of T (B*n, hidden) tensors. ``a`` is the (n, n) adjacency
    tensor; its diagonal must already be masked to zero. Returns a
    (T, B*n, hidden) tensor.
    """
    if a.shape != (n, n):
        raise ShapeError(f"adjacency shape {a.shape} does not match n={n}")
    if np.any(np.diag(a.data) != 0.0):
        raise ContractError("adjacency diagonal must be zero (masked) before aggregation")
    d = params.hidden_dim
    stacked = isinstance(hidden, Tensor)
    steps = [hidden] if stacked else list(hidden)
    step_shapes = {hidden.shape[1:]} if stacked else {s.shape for s in steps}
    if step_shapes != {(batch * n, d)}:
        raise ShapeError(f"hidden states shaped {sorted(step_shapes)} per step, "
                         f"expected {(batch * n, d)}")
    h = hidden.data if stacked else np.stack([s.data for s in steps])
    t_len = h.shape[0]
    ad, w1, w2, w3 = a.data, params.w1.data, params.w2.data, params.w3.data
    hn = h.reshape(t_len, batch, n, d)
    ah = np.matmul(ad, hn).reshape(-1, d)           # A H_t for every t in one matmul
    pre = (ah @ w1).reshape(h.shape)
    pre[1:] += h[:-1] @ w2                           # H_0 = 0: step 0 has no history term
    r = np.maximum(pre, 0.0).reshape(-1, d)

    def vjp(g):
        g = g.reshape(-1, d)
        g_pre = (g @ w3.T) * (r > 0)
        g_ah = (g_pre @ w1.T).reshape(hn.shape)
        g_pre = g_pre.reshape(h.shape)
        g_h = np.matmul(ad.T, g_ah).reshape(h.shape)
        g_h[:-1] += g_pre[1:] @ w2.T
        g_a = np.tensordot(g_ah, hn, axes=([0, 1, 3], [0, 1, 3]))
        g_w2 = h[:-1].reshape(-1, d).T @ g_pre[1:].reshape(-1, d)
        g_hidden = (g_h,) if stacked else tuple(g_h)
        return (*g_hidden, g_a, ah.T @ g_pre.reshape(-1, d), g_w2, r.T @ g)

    return _emit([*steps, a, params.w1, params.w2, params.w3],
                 (r @ w3).reshape(h.shape), vjp)
