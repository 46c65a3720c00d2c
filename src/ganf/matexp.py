"""Matrix exponential via scaling and squaring with a degree-24 Taylor core.

M is scaled by 2^-s until its 1-norm is at most ``_THETA``; the Taylor
polynomial sum_{k<=24} M^k / k! of the scaled matrix is evaluated by
Paterson-Stockmeyer (the powers M^1..M^4, then Horner steps in M^5) and
squared s times. There is no linear solve. The truncation error of the
scaled polynomial is at most theta^25 / 25! * e^theta < 2^-53 relative to
the 1-norm (Bader, Blanes and Casas, Mathematics 7:1174, 2019). For an
entrywise nonnegative M, as in the acyclicity constraint's A o A, every
term and every squaring is nonnegative, so nothing cancels.

Only the forward value is needed: the one differentiable use, the
acyclicity constraint in :mod:`ganf.dag`, has a closed-form gradient
built from this same exponential.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import NumericError, ShapeError

_P = 5                      # Paterson-Stockmeyer block size: powers M^1 .. M^(P-1), then M^P
_Q = 5                      # number of blocks, so the degree is P*Q - 1
DEGREE = _P * _Q - 1
THETA = 2.0                 # largest 1-norm of the scaled matrix
# _COEF[j, i] = 1 / (j*P + i)!: block j of the Taylor polynomial
_COEF = np.array([[1.0 / math.factorial(j * _P + i) for i in range(_P)] for j in range(_Q)])


def _check_square(m: np.ndarray, op: str):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{op}: expected a square matrix, got shape {m.shape}")


def expm(m: np.ndarray) -> np.ndarray:
    """e^M by scaling and squaring with a degree-24 Taylor core; M must be finite."""
    _check_square(m, "expm")
    n = m.shape[0]
    norm = np.linalg.norm(m, 1)
    if not np.isfinite(norm):
        raise NumericError(f"expm: the matrix has a non-finite entry (1-norm {norm})")
    s = 0
    if norm > THETA:
        s = max(0, int(math.ceil(math.log2(norm / THETA))))
    powers = np.empty((_P - 1, n, n))       # X, X^2, ..., X^(P-1) of X = M / 2^s
    np.divide(m, 2.0 ** s, out=powers[0])
    for i in range(1, _P - 1):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    x_p = powers[-1] @ powers[0]
    # block j = sum_{i<P} X^i / (jP+i)!, so the polynomial is sum_j block_j (X^P)^j
    blocks = np.tensordot(_COEF[:, 1:], powers, axes=1)
    diag = np.arange(n)
    blocks[:, diag, diag] += _COEF[:, :1]
    r = blocks[-1]
    for j in range(_Q - 2, -1, -1):
        r = r @ x_p
        r += blocks[j]
    for _ in range(s):
        r = r @ r
    return r
