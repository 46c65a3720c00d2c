"""Differentiable acyclicity constraint and augmented-Lagrangian bookkeeping.

The constraint h(A) = tr(e^{A o A}) - n is zero exactly when the support
of A is acyclic. Its gradient is closed-form, (e^{A o A})^T o 2A, and the
tape's backward pass reuses the forward exponential to compute it.

``acyclicity``, ``acyclicity_grad`` and ``acyclicity_tensor`` take E =
e^{A o A} from one helper that keeps the last A it saw and its E, so an
exponential asked for again on an unchanged A is not recomputed. Training
does this at every epoch boundary: the epoch record's h and the next
step's h(A) see the same A.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .matexp import _check_square, expm
from .tensor import Tensor, _emit, mul


# (copy of the last A, its read-only E); replaced whole, so a reader never
# sees a key with another A's E
_last_exp: Optional[tuple[np.ndarray, np.ndarray]] = None


def _exp_squared(a: np.ndarray) -> np.ndarray:
    """E = e^{A o A}, read-only; the last E is reused while A is unchanged.

    The key is a copy of A compared by value, because the optimiser updates
    the adjacency in place.
    """
    global _last_exp
    last = _last_exp
    if last is not None and np.array_equal(last[0], a):
        return last[1]
    e = expm(a * a)
    e.flags.writeable = False
    _last_exp = (a.copy(), e)
    return e


def acyclicity(a: np.ndarray) -> float:
    """h(A) = tr(e^{A o A}) - n; non-negative, zero iff acyclic support."""
    a = np.asarray(a, dtype=np.float64)
    _check_square(a, "acyclicity")
    # mathematically >= 0 since A o A is entrywise non-negative; clamp roundoff
    return max(float(np.trace(_exp_squared(a)) - a.shape[0]), 0.0)


def _grad_from_exp(e: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The gradient of h at A, E^T o 2A, from E = e^{A o A}."""
    return e.T * (2.0 * a)


def acyclicity_grad(a: np.ndarray) -> np.ndarray:
    """Closed-form gradient (e^{A o A})^T o 2A."""
    a = np.asarray(a, dtype=np.float64)
    _check_square(a, "acyclicity_grad")
    return _grad_from_exp(_exp_squared(a), a)


def acyclicity_tensor(a: Tensor) -> Tensor:
    """h(A) as one tape op whose VJP g * (E^T o 2A) reuses the forward E = e^{A o A}."""
    ad = a.data
    _check_square(ad, "acyclicity_tensor")
    e = _exp_squared(ad)
    return _emit([a], np.trace(e) - ad.shape[0], lambda g: (g * _grad_from_exp(e, ad),))


@dataclass(frozen=True)
class LagrangianState:
    """Dual variable, penalty weight, and outer-iteration bookkeeping."""
    lam: float
    c: float = 0.0
    k: int = 0
    h_prev: Optional[float] = None

    @classmethod
    def initial(cls, rng: np.random.Generator) -> "LagrangianState":
        # c starts at 0 per the outer-loop schedule; lam is drawn uniform
        return cls(lam=float(rng.uniform(0.0, 1.0)), c=0.0, k=0, h_prev=None)


def augmented_lagrangian(nll: Tensor, a: Tensor, state: LagrangianState) -> Tensor:
    """L_c = nll + lam * h(A) + (c/2) * h(A)^2."""
    h = acyclicity_tensor(a)
    out = nll
    if state.lam != 0.0:
        out = out + mul(Tensor(state.lam), h)
    if state.c != 0.0:
        out = out + mul(Tensor(0.5 * state.c), mul(h, h))
    return out


# ``train`` stops once the next c would pass this, as NOTEARS caps c at rho_max
# (Zheng et al., arXiv:1803.01422); the default-size runs measured peak at
# c = 1e14-1e17
PENALTY_CAP = 1e20


def dual_penalty_update(state: LagrangianState, h_now: float,
                        eta: float = 10.0, gamma: float = 0.5) -> LagrangianState:
    """One outer-iteration update: lam <- lam + c*h; c grows by eta on stall.

    c starts at 0 and, because eta-scaling of zero is a fixed point, is
    bootstrapped to 1 the first time progress stalls.
    """
    lam = state.lam + state.c * h_now
    c = state.c
    if state.k > 0 and state.h_prev is not None and abs(h_now) > gamma * abs(state.h_prev):
        c = eta * c if c > 0.0 else 1.0
    return replace(state, lam=lam, c=c, k=state.k + 1, h_prev=h_now)


def threshold_dag(a: np.ndarray, eps: float) -> tuple[list[tuple[int, int, float]], bool]:
    """Edges (parent j -> child i, weight) with |A_ij| > eps, plus an acyclicity verdict.

    Acyclicity is reported (via topological sort), not enforced.
    """
    a = np.asarray(a, dtype=np.float64)
    _check_square(a, "threshold_dag")
    if eps <= 0:
        raise ValueError("threshold eps must be positive")
    n = a.shape[0]
    edges = [(j, i, float(a[i, j]))
             for i in range(n) for j in range(n)
             if i != j and abs(a[i, j]) > eps]
    return edges, is_acyclic(n, [(j, i) for j, i, _ in edges])


def topological_order(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Kahn's algorithm on (parent, child) pairs; shorter than n exactly when cyclic."""
    indeg = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for j, i in edges:
        children[j].append(i)
        indeg[i] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:   # also visits the nodes appended below
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order


def is_acyclic(n: int, edges: list[tuple[int, int]]) -> bool:
    """Whether the (parent, child) edge list has no cycle."""
    return len(topological_order(n, edges)) == n
