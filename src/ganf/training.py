"""Joint training: Adam on the augmented Lagrangian inside, dual/penalty
updates outside, with validation-driven model selection and checkpointing.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass, asdict, field
from typing import Callable, Optional

import numpy as np

from . import dag
from .dag import LagrangianState, acyclicity, augmented_lagrangian, dual_penalty_update
from .data import WINDOW_SETTINGS, DataError, check_settings
from .model import MODEL_SETTINGS, GanfModel
from .tensor import GradientTape, NumericError, Tensor


class TrainingAbort(RuntimeError):
    """Training hit a non-recoverable numeric failure; ``history`` holds the records so far."""

    def __init__(self, message: str, history: list[dict]):
        super().__init__(message)
        self.history = history


class CheckpointError(ValueError):
    """Checkpoint file is corrupt or incompatible."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    lr_decay: float = 0.1
    grad_clip: float = 1.0
    clip_mode: str = "global"           # one of CLIP_MODES
    flow_blocks: int = 6
    hidden_dim: int = 32
    flow_hidden: int = 32
    flow_type: str = "maf"
    batch_size: int = 32
    inner_epochs: int = 10
    max_outer_iters: int = 20
    h_tol: float = 1e-8
    eta: float = 10.0
    gamma: float = 0.5
    plateau_patience: int = 3
    seed: int = 0
    mode: str = "graph"

    def __post_init__(self):
        check_settings(vars(self), TRAIN_SETTINGS)


CLIP_MODES = ("global", "elementwise")
TRAIN_SETTINGS = {
    **MODEL_SETTINGS, "lr": "(0, inf)", "lr_decay": "(0, inf)", "grad_clip": "(0, inf)",
    "h_tol": "(0, inf)", "clip_mode": CLIP_MODES, "batch_size": 1, "inner_epochs": 1,
    "max_outer_iters": 1, "plateau_patience": 1, "eta": "(1, inf)", "gamma": "(0, 1)",
}


class Adam:
    """Standard Adam with per-parameter moments."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, Tensor], lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            if p.grad is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * p.grad
            self.v[name] = b2 * self.v[name] + (1 - b2) * p.grad ** 2
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params: dict[str, Tensor], clip: float, mode: str = "global") -> float:
    """Clip gradients in place; returns the pre-clip global norm. ``mode`` is
    one of :data:`CLIP_MODES`."""
    check_settings({"clip_mode": mode}, {"clip_mode": CLIP_MODES})
    grads = [p.grad for p in params.values() if p.grad is not None]
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if mode == "global":
        if total > clip:
            scale = clip / total
            for g in grads:
                g *= scale
    else:
        for g in grads:
            np.clip(g, -clip, clip, out=g)
    return total


@dataclass
class TrainState:
    model: GanfModel
    lagrangian: LagrangianState
    optimizer: Adam
    lr: float
    best_val: float = -np.inf
    best_arrays: Optional[dict[str, np.ndarray]] = None
    best_val_seen: float = -np.inf
    stale_epochs: int = 0
    epoch: int = 0
    history: list[dict] = field(default_factory=list)
    on_record: Optional[Callable[[dict], None]] = None

    def log(self, record: dict):
        """Append ``record`` to the history and hand it to ``on_record``."""
        self.history.append(record)
        if self.on_record is not None:
            self.on_record(record)


def _validation_log_density(model: GanfModel, windows: np.ndarray) -> float:
    totals, _ = model.score_windows(windows)
    return float(-totals.mean())


def train_step(model: GanfModel, batch: np.ndarray, optimizer: Adam, lr: float,
               config: TrainConfig, lagrangian: Optional[LagrangianState] = None,
               ) -> tuple[float, float, float]:
    """One Adam step on the batch NLL, plus the augmented Lagrangian's h(A)
    terms when ``lagrangian`` is given; returns (loss, NLL, pre-clip gradient norm).

    Every parameter's ``grad`` is dropped once Adam has used it, so no
    gradient outlives its step. Raises :class:`NumericError` before any
    update if the loss is not finite.
    """
    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    tape = GradientTape()
    with tape:
        # h(A) first, so that e^{A o A}'s workspace is freed before the
        # forward pass allocates its activations (looked up on the module,
        # where perfbench/layers.py's tracer wraps it)
        h = None if lagrangian is None else dag.acyclicity_tensor(model.adjacency)
        nll = model.batch_nll(batch)
        loss = nll if h is None else augmented_lagrangian(nll, h, lagrangian)
    if not np.isfinite(loss.item()):
        raise NumericError("non-finite loss")
    tape.backward(loss)
    grad_norm = clip_gradients(params, config.grad_clip, config.clip_mode)
    optimizer.step(params, lr)
    for p in params.values():
        p.zero_grad()
    model.remask_diagonal()
    return loss.item(), nll.item(), grad_norm


def inner_optimize(state: TrainState, train_windows: np.ndarray,
                   val_windows: np.ndarray, config: TrainConfig,
                   rng: np.random.Generator) -> TrainState:
    """One inner subproblem: ``inner_epochs`` of Adam on the augmented Lagrangian."""
    model = state.model
    lagrangian = state.lagrangian if model.mode == "graph" else None
    n_windows = train_windows.shape[0]
    for _ in range(config.inner_epochs):
        start = time.perf_counter()
        order = rng.permutation(n_windows)
        totals = np.zeros(3)    # loss, NLL, gradient norm
        n_batches = 0
        for lo in range(0, n_windows, config.batch_size):
            totals += train_step(model, train_windows[order[lo:lo + config.batch_size]],
                                 state.optimizer, state.lr, config, lagrangian)
            n_batches += 1
        loss, nll, grad_norm = (totals / n_batches).tolist()
        val_ld = _validation_log_density(model, val_windows) \
            if val_windows.size else float("nan")
        h = acyclicity(model.adjacency.data)
        wall = time.perf_counter() - start
        record = {
            "kind": "epoch", "outer": state.lagrangian.k, "epoch": state.epoch,
            "train_loss": loss, "train_nll": nll, "val_log_density": val_ld,
            "lr": state.lr, "h": h, "lambda": state.lagrangian.lam,
            "c": state.lagrangian.c, "grad_norm": grad_norm,
            "wall_s": wall, "windows_per_s": n_windows / wall,
        }
        # model selection + plateau learning-rate decay on validation log-density.
        # In graph mode only constraint-feasible iterates are eligible: an early
        # high-likelihood snapshot with a cyclic A is not a usable model.
        feasible = model.mode != "graph" or abs(record["h"]) < config.h_tol
        if feasible and np.isfinite(val_ld) and val_ld > state.best_val:
            state.best_val = val_ld
            state.best_arrays = {k: v.copy() for k, v in model.all_arrays().items()}
        if np.isfinite(val_ld) and val_ld > state.best_val_seen:
            state.best_val_seen = val_ld
            state.stale_epochs = 0
        else:
            state.stale_epochs += 1
            if state.stale_epochs >= config.plateau_patience:
                state.lr *= config.lr_decay
                state.stale_epochs = 0
                record["lr_decayed_to"] = state.lr
        state.log(record)
        state.epoch += 1
    return state


def train(train_windows: np.ndarray, val_windows: np.ndarray, config: TrainConfig,
          on_record: Optional[Callable[[dict], None]] = None,
          ) -> tuple[GanfModel, np.ndarray, list[dict]]:
    """Full outer loop; returns (best model, adjacency, history).

    The adjacency is the model's own array, ``model.adjacency.data``, not a
    copy: writing to it changes the model.

    Stops when |h(A)| < h_tol or after ``max_outer_iters`` outer iterations
    (the latter flagged in the final record's warning). ``on_record``, if
    given, receives each history record as it is made. Raises
    :class:`DataError` when there are no training windows, and
    :class:`TrainingAbort`, carrying the history so far, when a loss, a
    log-density or h(A) stops being finite.
    """
    if train_windows.shape[0] == 0:
        raise DataError("no training windows: the series is too short for the "
                        "window length, stride and train fraction")
    rng = np.random.default_rng(config.seed)
    shape = {k: v for k, v in vars(config).items() if k in MODEL_SETTINGS}
    model = GanfModel(n_series=train_windows.shape[1], input_dim=train_windows.shape[3],
                      **shape)
    state = TrainState(model=model, lagrangian=LagrangianState.initial(rng),
                       optimizer=Adam(), lr=config.lr, on_record=on_record)
    if model.mode != "graph":
        state.lagrangian = LagrangianState(lam=0.0, c=0.0)

    converged = False
    while state.lagrangian.k < config.max_outer_iters:
        start = time.perf_counter()
        # each outer subproblem is a fresh minimization: restart the schedule
        state.lr = config.lr
        state.stale_epochs = 0
        try:
            inner_optimize(state, train_windows, val_windows, config, rng)
        except NumericError as exc:
            raise TrainingAbort(f"numeric failure at epoch {state.epoch}: {exc}",
                                state.history) from exc
        # A has not changed since the last epoch record computed h from it
        h_now = state.history[-1]["h"]
        state.lagrangian = dual_penalty_update(
            state.lagrangian, h_now, eta=config.eta, gamma=config.gamma)
        state.log({
            "kind": "outer", "outer": state.lagrangian.k, "h": h_now,
            "lambda": state.lagrangian.lam, "c": state.lagrangian.c,
            "wall_s": time.perf_counter() - start,
        })
        if abs(h_now) < config.h_tol:
            converged = True
            break

    if state.best_arrays is not None:
        _load_arrays(model, state.best_arrays)
    final_h = acyclicity(model.adjacency.data)
    feasible = converged or abs(final_h) < config.h_tol
    state.log({
        "kind": "final", "converged": feasible,
        "warning": None if feasible else f"outer budget exhausted with |h|={abs(final_h):.3e}",
        "h": final_h, "best_val_log_density": state.best_val,
    })
    return model, model.adjacency.data, state.history


def _load_arrays(model: GanfModel, arrays: dict[str, np.ndarray]):
    targets = model.parameters()
    targets["A"] = model.adjacency
    for name, value in arrays.items():
        if name not in targets:
            raise CheckpointError(f"unknown array {name!r} for this model")
        if targets[name].shape != value.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: model has {targets[name].shape}, "
                f"checkpoint has {value.shape}")
        targets[name].data = value.copy()


# ------------------------------------------------------------- checkpoints

_MAGIC = b"GANFCKPT"
_VERSION = 2                # version 1 is the same without the trailing digest
_PREFIX = len(_MAGIC) + 8   # magic, then <II version and header length
_DIGEST = hashlib.sha256().digest_size


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def checkpoint_save(path, model: GanfModel, extra: Optional[dict] = None):
    """Binary container: magic, ``<II`` version and header length, JSON header,
    little-endian f64 arrays, then the SHA-256 of every preceding byte."""
    arrays = model.all_arrays()
    names = sorted(arrays)
    header = {
        "config": model.config(),
        "config_hash": _config_hash(model.config()),
        "extra": extra or {},
        "arrays": [{"name": k, "shape": list(arrays[k].shape)} for k in names],
    }
    blob = json.dumps(header).encode()
    parts = [_MAGIC, struct.pack("<II", _VERSION, len(blob)), blob]
    parts += [np.ascontiguousarray(arrays[k], dtype="<f8").tobytes() for k in names]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def _parse_header(path, blob: bytes) -> tuple[dict, list[tuple[str, tuple[int, ...]]]]:
    """(header, [(array name, shape), ...]); CheckpointError if malformed."""
    try:
        header = json.loads(blob)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        raise CheckpointError(f"{path}: header is not JSON") from None
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("arrays"), list)
            and isinstance(header.get("extra", {}), dict)):
        raise CheckpointError(f"{path}: header lacks 'config' or 'arrays', or has a bad 'extra'")
    try:
        entries = [(e["name"], tuple(int(d) for d in e["shape"])) for e in header["arrays"]]
    except (KeyError, TypeError, ValueError):
        raise CheckpointError(f"{path}: malformed array list in header") from None
    for name, shape in entries:
        if not isinstance(name, str) or any(d < 0 for d in shape):
            raise CheckpointError(f"{path}: malformed array entry {name!r} {shape}")
    return header, entries


def checkpoint_load(path) -> GanfModel:
    """Rebuild the saved model; its ``checkpoint_extra`` holds the header extras.

    Reads versions 1 and 2. Every problem with the file is a CheckpointError,
    a header config or window setting that breaks its rule included.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:len(_MAGIC)]!r}")
    if len(data) < _PREFIX:
        raise CheckpointError(f"{path}: truncated header")
    version, blob_len = struct.unpack_from("<II", data, len(_MAGIC))
    if version == _VERSION:
        data, digest = data[:-_DIGEST], data[-_DIGEST:]
        if len(data) < _PREFIX or hashlib.sha256(data).digest() != digest:
            raise CheckpointError(f"{path}: SHA-256 mismatch: the file is corrupt or truncated")
    elif version != 1:
        raise CheckpointError(f"{path}: unsupported version {version}")
    end = _PREFIX + blob_len
    if len(data) < end:
        raise CheckpointError(f"{path}: truncated header")
    header, entries = _parse_header(path, data[_PREFIX:end])
    arrays = {}
    for name, shape in entries:
        size = 8 * math.prod(shape)
        if len(data) - end < size:
            raise CheckpointError(f"{path}: truncated array {name!r}")
        arrays[name] = np.frombuffer(data, dtype="<f8", count=size // 8,
                                     offset=end).reshape(shape).copy()
        end += size
    if end != len(data):
        raise CheckpointError(f"{path}: {len(data) - end} trailing bytes after the arrays")
    if header.get("config_hash") != _config_hash(header["config"]):
        raise CheckpointError(f"{path}: config_hash does not match the header's config")
    try:
        model = GanfModel(**header["config"])
        check_settings(header.get("extra", {}), WINDOW_SETTINGS)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: unusable config: {exc}") from None
    _load_arrays(model, arrays)
    model.checkpoint_extra = header.get("extra", {})
    return model

