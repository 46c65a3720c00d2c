"""Reference compositions of the fused layers out of tape primitives.

``ganf.encoder`` and ``ganf.flow`` record the LSTM unroll, the graph
aggregation and the flow stack as one tape op each, with hand-written
backward passes. The functions here build the same layers step by step
from the primitives in ``ganf.tensor``, whose gradients come from the tape,
so tests can compare values and gradients of the two.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ganf.flow import ALPHA_CLAMP, LOG_2PI, CouplingBlock, FlowStack, MafBlock
from ganf.tensor import (Tensor, add, concat, exp, flip, matmul, mul, relu,
                         reshape, sigmoid, sub, sum_, tanh)


# ------------------------------------------------------------------ encoder

def lstm_step(cell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One step of the shared cell: (h_t, c_t) from (x_t, h_{t-1}, c_{t-1})."""
    d = cell.hidden_dim
    gates = add(add(matmul(x, cell.w_x), matmul(h, cell.w_h)), cell.b)
    i = sigmoid(gates[:, 0 * d:1 * d])
    f = sigmoid(gates[:, 1 * d:2 * d])
    g = tanh(gates[:, 2 * d:3 * d])
    o = sigmoid(gates[:, 3 * d:4 * d])
    c_new = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c_new)), c_new


def lstm_unroll(cell, x: np.ndarray) -> list[Tensor]:
    """Hidden states over a (B, n, T, D) batch: a list over t of (B*n, hidden)."""
    b, n, t_len, d_in = x.shape
    rows = b * n
    h = Tensor(np.zeros((rows, cell.hidden_dim)))
    c = Tensor(np.zeros((rows, cell.hidden_dim)))
    hidden = []
    for t in range(t_len):
        h, c = lstm_step(cell, Tensor(x[:, :, t, :].reshape(rows, d_in)), h, c)
        hidden.append(h)
    return hidden


def aggregate(params, hidden: list[Tensor], a: Tensor, batch: int,
              n: int) -> list[Tensor]:
    """D_t = ReLU(A H_t W1 + H_{t-1} W2) W3, one step at a time."""
    d = params.hidden_dim
    h_prev: Optional[Tensor] = None
    out = []
    for h_flat in hidden:
        h_t = reshape(h_flat, (batch, n, d))
        pre = matmul(matmul(a, h_t), params.w1)
        if h_prev is not None:
            pre = add(pre, matmul(h_prev, params.w2))
        out.append(reshape(matmul(relu(pre), params.w3), (batch * n, d)))
        h_prev = h_t
    return out


# --------------------------------------------------------------------- flow

def _clamp_alpha(a: Tensor) -> Tensor:
    s = ALPHA_CLAMP
    return mul(Tensor(s), tanh(mul(a, Tensor(1.0 / s))))


def mu_alpha(block, x: Tensor, d: Tensor) -> tuple[Tensor, Tensor]:
    """The conditioner of a MAF or coupling block."""
    if isinstance(block, MafBlock):
        h = relu(add(add(matmul(x, mul(block.w_x, Tensor(block.mask_in))),
                         matmul(d, block.w_c)), block.b_h))
        mu = add(matmul(h, mul(block.w_mu, Tensor(block.mask_out))), block.b_mu)
        alpha = _clamp_alpha(add(matmul(h, mul(block.w_a, Tensor(block.mask_out))),
                                 block.b_a))
        return mu, alpha
    assert isinstance(block, CouplingBlock)
    frozen = mul(x, Tensor(block.mask))
    h = relu(add(matmul(concat([frozen, d], axis=1), block.w_h), block.b_h))
    active = Tensor(1.0 - block.mask)
    mu = mul(add(matmul(h, block.w_mu), block.b_mu), active)
    alpha = mul(_clamp_alpha(add(matmul(h, block.w_a), block.b_a)), active)
    return mu, alpha


def block_forward(block, x: Tensor, d: Tensor) -> tuple[Tensor, Tensor]:
    mu, alpha = mu_alpha(block, x, d)
    return mul(sub(x, mu), exp(alpha)), sum_(alpha, axis=-1)


def flow_forward(stack: FlowStack, x: Tensor, d: Tensor) -> tuple[Tensor, Tensor]:
    logdet = None
    for k, block in enumerate(stack.blocks):
        x, ld = block_forward(block, x, d)
        logdet = ld if logdet is None else add(logdet, ld)
        if k + 1 < len(stack.blocks) and stack.input_dim > 1:
            x = flip(x, axis=-1)
    return x, logdet


def flow_log_prob(stack: FlowStack, x: Tensor, d: Tensor) -> Tensor:
    z, logdet = flow_forward(stack, x, d)
    log_q = sub(Tensor(-0.5 * stack.input_dim * LOG_2PI),
                mul(Tensor(0.5), sum_(mul(z, z), axis=-1)))
    return add(log_q, logdet)
