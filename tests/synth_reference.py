"""Per-element reference for ``ganf.data.synth_generate``.

``synth_generate`` runs the SEM recursion on Python floats over parent
lists built once, and draws the ground-truth DAG from blocks of
``rng.random``. This is the same sampler written with one generator call
per draw and NumPy indexing per node and step, so tests can check that the
two give the same bytes and leave the generator in the same state.
"""
from __future__ import annotations

import numpy as np

from ganf.dag import topological_order
from ganf.data import DataError, SynthSpec


def ground_truth_dag_calls(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Weighted adjacency, A[i, j] != 0 <=> j -> i, one ``rng.uniform`` call per draw."""
    n = spec.n_series
    if spec.adjacency is not None:
        return np.asarray(spec.adjacency, dtype=np.float64)
    a = np.zeros((n, n))
    for i in range(1, n):
        for j in range(i):
            if rng.uniform() < spec.edge_prob:
                w = rng.uniform(spec.weight_low, spec.weight_high)
                a[i, j] = w if rng.uniform() < 0.5 else -w
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def synth_generate_per_node(spec: SynthSpec, length: int,
                            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(series, adjacency) with the recursion indexed per node and step."""
    rng = np.random.default_rng(seed)
    a = ground_truth_dag_calls(spec, rng)
    n, d = spec.n_series, spec.n_attrs
    order = topological_order(n, [(j, i) for i, j in np.argwhere(a).tolist() if i != j])
    if len(order) < n:
        raise DataError("spec adjacency is cyclic")
    series = np.zeros((n, length, d))
    noise = rng.normal(0.0, spec.noise_std, size=(n, length, d))
    for t in range(length):
        for i in order:
            val = noise[i, t]
            if t > 0:
                val = val + spec.rho * series[i, t - 1]
            parents = np.nonzero(a[i])[0]
            for j in parents:
                val = val + a[i, j] * series[j, t]
            series[i, t] = val
    return series, a
