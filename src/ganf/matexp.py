"""Matrix exponential via scaling-and-squaring with a degree-13 Pade core.

Only the forward value is needed: the one differentiable use, the
acyclicity constraint in :mod:`ganf.dag`, has a closed-form gradient
built from this same exponential.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeError

# Pade-13 numerator coefficients (Higham's scaling-and-squaring method)
_B13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _check_square(m: np.ndarray, op: str):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{op}: expected a square matrix, got shape {m.shape}")


def expm(m: np.ndarray) -> np.ndarray:
    """e^M by scaling-and-squaring with a degree-13 Pade core."""
    _check_square(m, "expm")
    n = m.shape[0]
    norm = np.linalg.norm(m, 1)
    s = 0
    if norm > _THETA13:
        s = max(0, int(math.ceil(math.log2(norm / _THETA13))))
    a = m / (2.0 ** s)

    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _B13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def expm_series(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated Taylor series sum_{k<=terms} M^k / k!; test fallback."""
    _check_square(m, "expm_series")
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out

