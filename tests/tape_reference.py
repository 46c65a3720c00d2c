"""Reference compositions of the fused layers out of tape primitives.

``ganf.encoder`` and ``ganf.flow`` record the LSTM unroll, the graph
aggregation and the flow stack as one tape op each, with hand-written
backward passes. The functions here build the same layers step by step
from the tape primitives below, which only these references use, so
tests can compare values and gradients of the two.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ganf.flow import ALPHA_CLAMP, LOG_2PI, CouplingBlock, FlowStack, MafBlock
from ganf.tensor import (GradientTape, ShapeError, Tensor, _emit, _unbroadcast,
                         add, concat, mul, reshape, slice_, sum_)


def tape_grads(tensors, loss_of) -> list[np.ndarray]:
    """Gradients of ``loss_of()`` with respect to ``tensors``, zero where none flows."""
    for t in tensors:
        t.zero_grad()
    with GradientTape() as tape:
        loss = loss_of()
    tape.backward(loss)
    return [np.zeros(t.shape) if t.grad is None else t.grad.copy() for t in tensors]


# --------------------------------------------------------------- primitives

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b.shape)
        return ga, gb

    return _emit([a, b], np.matmul(ad, bd), vjp)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _emit([a], out, lambda g: (g * out,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _emit([a], out, lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: e^-|x| cannot overflow
    e = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _emit([a], out, lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _emit([a], np.where(mask, a.data, 0.0), lambda g: (g * mask,))


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
    # x - mu as x + (-1)·mu: negation is exact, so the bits are those of x - mu
    return mul(add(x, mul(mu, Tensor(-1.0))), exp(alpha)), sum_(alpha, axis=-1)


def flow_forward(stack: FlowStack, x: Tensor, d: Tensor) -> tuple[Tensor, Tensor]:
    logdet = None
    for k, block in enumerate(stack.blocks):
        x, ld = block_forward(block, x, d)
        logdet = ld if logdet is None else add(logdet, ld)
        if k + 1 < len(stack.blocks) and stack.input_dim > 1:
            x = slice_(x, (slice(None), slice(None, None, -1)))
    return x, logdet


def flow_log_prob(stack: FlowStack, x: Tensor, d: Tensor) -> Tensor:
    z, logdet = flow_forward(stack, x, d)
    log_q = add(Tensor(-0.5 * stack.input_dim * LOG_2PI),
                mul(Tensor(-0.5), sum_(mul(z, z), axis=-1)))
    return add(log_q, logdet)
