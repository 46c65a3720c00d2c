"""Conditional normalizing-flow blocks (masked autoregressive and affine
coupling) and their stacking with exact log-density.

Every block maps (x in R^D, condition in R^c) -> (z in R^D, logdet) with
z_i = (x_i - mu_i) * exp(alpha_i). Final mu/alpha layers are zero-initialized
so each block starts as the identity; alpha is soft-clamped to +-ALPHA_CLAMP.

A stack call builds the blocks' shared operand [d, 1] once and runs its
pass in NumPy (each block's ``_conditioner``). ``FlowStack.log_prob`` is the
one call recorded on a tape, as one op whose backward pass walks the blocks
in reverse with each block's hand-written ``_conditioner_vjp``;
``forward`` and ``inverse`` only evaluate.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .tensor import ShapeError, Tensor, _emit, recording

ALPHA_CLAMP = 5.0
FLOW_KINDS = ("maf", "coupling")
LOG_2PI = math.log(2.0 * math.pi)


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _clamp_alpha_np(a: np.ndarray) -> np.ndarray:
    # s * tanh(a / s): smooth, bounded log-scales
    return ALPHA_CLAMP * np.tanh(a / ALPHA_CLAMP)


def _clamp_grad(alpha: np.ndarray) -> np.ndarray:
    """Derivative of the clamp, from its output: 1 - (alpha / s)^2."""
    return 1.0 - (alpha / ALPHA_CLAMP) ** 2


def _made_masks(input_dim: int, hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Strictly autoregressive MADE masks for one hidden layer.

    Output i may depend on inputs 1..i-1 only; for input_dim == 1 the
    hidden layer sees only the condition.
    """
    deg_in = np.arange(1, input_dim + 1)
    if input_dim > 1:
        deg_hidden = (np.arange(hidden) % (input_dim - 1)) + 1
    else:
        deg_hidden = np.zeros(hidden, dtype=int)
    deg_out = np.arange(1, input_dim + 1)
    mask_in = (deg_hidden[None, :] >= deg_in[:, None]).astype(np.float64)
    mask_out = (deg_out[None, :] > deg_hidden[:, None]).astype(np.float64)
    return mask_in, mask_out


class _Block:
    """What MAF and coupling blocks share: parameters, the conditioner and its VJP.

    The conditioner is h = ReLU(dd @ [w_c; b_h] + x @ w_x), [mu, pre-alpha]
    = h @ w_out + b_out, masks folded into ``_split``. The stack's blocks share
    one operand dd = [d, 1], so none copies d. The x term is skipped where the
    masks hide x: a MAF block with D = 1, a coupling block with nothing frozen.
    """

    _PARAMS: tuple[str, ...] = ()
    input_dim: int

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": getattr(self, k) for k in self._PARAMS}

    def _split(self) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """(w_x or None if the masks hide x, [w_c; b_h], w_out, b_out), masked."""
        raise NotImplementedError

    def _param_grads(self, g_w_x, g_w_dd, g_w_out, g_b_out) -> tuple[np.ndarray, ...]:
        """Gradients of ``_split``'s outputs mapped onto ``_PARAMS``."""
        raise NotImplementedError

    def _conditioner(self, x: np.ndarray, dd: np.ndarray):
        """(mu, alpha, cache for ``_conditioner_vjp``)."""
        weights = w_x, w_dd, w_out, b_out = self._split()
        h = dd @ w_dd
        if w_x is not None:
            h += x @ w_x
        np.maximum(h, 0.0, out=h)
        out = h @ w_out + b_out
        dim = self.input_dim
        return out[:, :dim], _clamp_alpha_np(out[:, dim:]), (x, h, weights)

    def _conditioner_vjp(self, cache, dd: np.ndarray, alpha, g_mu, g_alpha,
                         g_d: np.ndarray):
        """(dL/dx or None, parameter grads) through the conditioner; adds dL/dd to g_d."""
        x, h, (w_x, w_dd, w_out, _) = cache
        g_out = np.hstack([g_mu, g_alpha * _clamp_grad(alpha)])
        g_h = g_out @ w_out.T
        g_h *= h > 0
        g_d += g_h @ w_dd[:-1].T
        g_x = None if w_x is None else g_h @ w_x.T
        g_w_x = np.zeros((self.input_dim, h.shape[1])) if w_x is None else x.T @ g_h
        return g_x, self._param_grads(g_w_x, dd.T @ g_h, h.T @ g_out, g_out.sum(axis=0))


class MafBlock(_Block):
    """One masked autoregressive transform conditioned on a context vector."""

    _PARAMS = ("w_x", "w_c", "b_h", "w_mu", "b_mu", "w_a", "b_a")

    def __init__(self, input_dim: int, cond_dim: int, hidden: int,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.cond_dim = cond_dim
        self.mask_in, self.mask_out = _made_masks(input_dim, hidden)
        fan = input_dim + cond_dim
        self.w_x = Tensor(_uniform_init(rng, fan, (input_dim, hidden)), requires_grad=True)
        self.w_c = Tensor(_uniform_init(rng, fan, (cond_dim, hidden)), requires_grad=True)
        self.b_h = Tensor(_uniform_init(rng, fan, (hidden,)), requires_grad=True)
        # zero-initialized heads: the block starts as the identity map
        self.w_mu = Tensor(np.zeros((hidden, input_dim)), requires_grad=True)
        self.b_mu = Tensor(np.zeros(input_dim), requires_grad=True)
        self.w_a = Tensor(np.zeros((hidden, input_dim)), requires_grad=True)
        self.b_a = Tensor(np.zeros(input_dim), requires_grad=True)

    def _split(self):
        w_out = np.hstack([self.w_mu.data, self.w_a.data]) * np.tile(self.mask_out, 2)
        return (self.w_x.data * self.mask_in if self.mask_in.any() else None,
                np.vstack([self.w_c.data, self.b_h.data]), w_out,
                np.concatenate([self.b_mu.data, self.b_a.data]))

    def _param_grads(self, g_w_x, g_w_dd, g_w_out, g_b_out):
        dim = self.input_dim
        return (g_w_x * self.mask_in, g_w_dd[:-1], g_w_dd[-1],
                g_w_out[:, :dim] * self.mask_out, g_b_out[:dim],
                g_w_out[:, dim:] * self.mask_out, g_b_out[dim:])

    def _inverse(self, z: np.ndarray, dd: np.ndarray) -> np.ndarray:
        x = np.zeros_like(z)
        for i in range(self.input_dim):
            mu, alpha, _ = self._conditioner(x, dd)
            x[:, i] = z[:, i] * np.exp(-alpha[:, i]) + mu[:, i]
        return x


class CouplingBlock(_Block):
    """Affine coupling transform: half the coordinates pass through unchanged."""

    _PARAMS = ("w_h", "b_h", "w_mu", "b_mu", "w_a", "b_a")

    def __init__(self, input_dim: int, cond_dim: int, hidden: int,
                 rng: np.random.Generator, parity: int = 0):
        self.input_dim = input_dim
        self.cond_dim = cond_dim
        # the conditioner sees the frozen coordinates and the condition, and
        # moves only the active coordinates
        self.mask = ((np.arange(input_dim) % 2) == (parity % 2)).astype(np.float64)
        fan = input_dim + cond_dim
        self.w_h = Tensor(_uniform_init(rng, fan, (fan, hidden)), requires_grad=True)
        self.b_h = Tensor(_uniform_init(rng, fan, (hidden,)), requires_grad=True)
        self.w_mu = Tensor(np.zeros((hidden, input_dim)), requires_grad=True)
        self.b_mu = Tensor(np.zeros(input_dim), requires_grad=True)
        self.w_a = Tensor(np.zeros((hidden, input_dim)), requires_grad=True)
        self.b_a = Tensor(np.zeros(input_dim), requires_grad=True)

    def _split(self):
        dim, active = self.input_dim, np.tile(1.0 - self.mask, 2)
        w_h = self.w_h.data
        return (w_h[:dim] * self.mask[:, None] if self.mask.any() else None,
                np.vstack([w_h[dim:], self.b_h.data]),
                np.hstack([self.w_mu.data, self.w_a.data]) * active,
                np.concatenate([self.b_mu.data, self.b_a.data]) * active)

    def _param_grads(self, g_w_x, g_w_dd, g_w_out, g_b_out):
        dim, active = self.input_dim, np.tile(1.0 - self.mask, 2)
        g_w_out, g_b_out = g_w_out * active, g_b_out * active
        return (np.vstack([g_w_x * self.mask[:, None], g_w_dd[:-1]]), g_w_dd[-1],
                g_w_out[:, :dim], g_b_out[:dim], g_w_out[:, dim:], g_b_out[dim:])

    def _inverse(self, z: np.ndarray, dd: np.ndarray) -> np.ndarray:
        # mu/alpha depend only on the frozen half, which z carries unchanged
        mu, alpha, _ = self._conditioner(z, dd)
        return z * np.exp(-alpha) + mu


def _with_ones(d: np.ndarray) -> np.ndarray:
    """The conditioners' shared operand dd = [d, 1]."""
    return np.hstack([d, np.ones((d.shape[0], 1))])


def _run(blocks: Sequence[_Block], flip: bool, x: np.ndarray, dd: np.ndarray,
         keep: bool):
    """(z, summed logdet, per-block caches) of ``blocks`` applied in order.

    The coordinates are reversed between blocks when ``flip``; caches are
    collected only when ``keep``.
    """
    logdet = np.zeros(x.shape[0])
    caches = []
    for k, block in enumerate(blocks):
        mu, alpha, cache = block._conditioner(x, dd)
        e = np.exp(alpha)
        z = (x - mu) * e
        logdet = logdet + alpha.sum(axis=-1)
        if keep:
            caches.append((cache, alpha, e, z))
        x = z[:, ::-1].copy() if flip and k + 1 < len(blocks) else z
    return x, logdet, caches


def _run_vjp(blocks: Sequence[_Block], flip: bool, caches, dd: np.ndarray,
             g_z: np.ndarray, g_logdet: np.ndarray):
    """Walk ``blocks`` in reverse: (dL/dx, dL/dd, parameter grads in order)."""
    g_d = np.zeros((dd.shape[0], dd.shape[1] - 1))
    grads: list[np.ndarray] = []
    for k in range(len(blocks) - 1, -1, -1):
        if flip and k + 1 < len(blocks):
            g_z = g_z[:, ::-1]
        cache, alpha, e, z = caches[k]
        g_x, g_params = blocks[k]._conditioner_vjp(cache, dd, alpha, -g_z * e,
                                                   g_z * z + g_logdet[:, None], g_d)
        g_z = g_z * e if g_x is None else g_z * e + g_x
        grads[:0] = g_params
    return g_z, g_d, grads


def _params(blocks: Sequence[_Block]) -> list[Tensor]:
    return [getattr(block, k) for block in blocks for k in block._PARAMS]


class FlowStack:
    """Stacked conditional flow blocks with dimension reversal in between.

    Base distribution is the standard normal on R^D.
    """

    def __init__(self, input_dim: int, cond_dim: int, n_blocks: int = 6,
                 hidden: int = 32, kind: str = "maf",
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.cond_dim = cond_dim
        make = {"maf": lambda k: MafBlock(input_dim, cond_dim, hidden, rng),
                "coupling": lambda k: CouplingBlock(input_dim, cond_dim, hidden, rng, k)}[kind]
        self.blocks = [make(k) for k in range(n_blocks)]

    def parameters(self, prefix: str = "flow") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k, b in enumerate(self.blocks):
            out.update(b.parameters(f"{prefix}.block{k}"))
        return out

    @property
    def _flip(self) -> bool:
        return self.input_dim > 1

    def _check(self, x_cols: int, d_cols: int):
        if x_cols != self.input_dim:
            raise ShapeError(f"flow expects {self.input_dim} input dims, got {x_cols}")
        if d_cols != self.cond_dim:
            raise ShapeError(f"flow expects {self.cond_dim} condition dims, got {d_cols}")

    def forward(self, x: Tensor, d: Tensor) -> tuple[Tensor, Tensor]:
        """(z, total logdet) for a batch of rows; never recorded on a tape."""
        self._check(x.shape[-1], d.shape[-1])
        z, logdet, _ = _run(self.blocks, self._flip, x.data, _with_ones(d.data), keep=False)
        return Tensor(z), Tensor(logdet)

    def inverse(self, z: np.ndarray, d: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        self._check(z.shape[-1], d.shape[-1])
        dd = _with_ones(d)
        for k in range(len(self.blocks) - 1, -1, -1):
            if k + 1 < len(self.blocks) and self._flip:
                z = z[:, ::-1].copy()
            z = self.blocks[k]._inverse(z, dd)
        return z

    def _log_q(self, z: np.ndarray) -> np.ndarray:
        return -0.5 * self.input_dim * LOG_2PI - 0.5 * (z * z).sum(axis=-1)

    def log_prob(self, x: Tensor, d: Tensor) -> Tensor:
        """log p(x | d) = log N(f(x; d); 0, I) + sum of block logdets, as one tape op.

        Outside a tape the same pass runs and keeps no caches."""
        self._check(x.shape[-1], d.shape[-1])
        blocks, flip, dd = self.blocks, self._flip, _with_ones(d.data)
        inputs = [x, d, *_params(blocks)]
        z, logdet, caches = _run(blocks, flip, x.data, dd, recording(*inputs))

        def vjp(g):
            g_x, g_d, grads = _run_vjp(blocks, flip, caches, dd, -g[:, None] * z, g)
            return (g_x, g_d, *grads)

        return _emit(inputs, self._log_q(z) + logdet, vjp)
