"""Dense float64 tensors with tape-based reverse-mode differentiation.

The LSTM unroll, the graph aggregation, the flow stack and h(A) run in
NumPy and record themselves as one op each through :func:`_emit`, with
hand-written backward passes. The few primitives here join those ops into
a loss. Recording happens only while a :class:`GradientTape` is active, so
inference paths pay no bookkeeping cost.
"""
from __future__ import annotations

import ctypes
import sys
from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np

if sys.platform.startswith("linux"):
    # Replaying a tape frees a training step's activations layer by layer. Keep them in
    # the heap, which glibc would unmap or trim, so the next step does not fault them in.
    # One arena: scoring threads reuse that heap instead of each faulting in its own.
    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
        _mallopt(-1, 512 << 20)   # M_TRIM_THRESHOLD
        _mallopt(-8, 1)           # M_ARENA_MAX


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested primitive."""


class NumericError(ArithmeticError):
    """NaN/Inf detected where finite values are required."""


class TapeStateError(RuntimeError):
    """Tape used in an invalid state (replayed twice, empty, nested)."""


# per thread (and per asyncio task): a thread that scores while another
# records never appends onto the recording thread's tape
_ACTIVE_TAPE: ContextVar[Optional["GradientTape"]] = ContextVar("ganf_active_tape",
                                                                 default=None)


def recording(*inputs: "Tensor") -> bool:
    """Whether an op on ``inputs`` would be recorded on the active tape.

    Fused ops ask this before caching activations for their backward pass.
    """
    return _ACTIVE_TAPE.get() is not None and any(t.requires_grad for t in inputs)


class Tensor:
    """A row-major float64 array plus gradient metadata."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all arithmetic routes through the recorded primitives
    def __add__(self, other):
        return add(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __getitem__(self, key):
        return slice_(self, key)

    # a stacked (T, ...) tensor reads like a sequence of its T steps
    def __len__(self):
        if not self.ndim:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def __iter__(self):
        return (slice_(self, i) for i in range(len(self)))


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _OpRecord:
    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs, output, vjp):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class GradientTape:
    """Ordered record of primitive ops, replayed in reverse by :meth:`backward`.

    Use as a context manager around the forward pass. A tape may be
    replayed once. Nested tapes are not supported.
    """

    def __init__(self):
        self._records: list[_OpRecord] = []
        self._consumed = False
        self._produced: set[int] = set()
        self._token = None

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise TapeStateError("nested gradient tapes are not supported")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        self._token = None
        return False

    def __len__(self):
        return len(self._records)

    def _append(self, record: _OpRecord):
        self._records.append(record)
        self._produced.add(id(record.output))

    def backward(self, loss: Tensor):
        """Populate ``grad`` on every requires_grad leaf reachable from ``loss``."""
        if self._consumed:
            raise TapeStateError("tape already replayed")
        if not self._records:
            raise TapeStateError("tape is empty")
        if loss.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        self._consumed = True
        flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        while self._records:
            self._replay(self._records.pop(), flowing)
        self._produced.clear()

    def _replay(self, rec: _OpRecord, flowing: dict[int, np.ndarray]):
        """Run one record's VJP. The record was popped, and nothing here outlives
        the call, so the arrays it holds are freed (by reference counting)
        before the next record's VJP allocates."""
        g = flowing.pop(id(rec.output), None)
        if g is None:
            return
        for inp, gin in zip(rec.inputs, rec.vjp(g)):
            if gin is None or not inp.requires_grad:
                continue
            if id(inp) in self._produced:
                prev = flowing.get(id(inp))
                flowing[id(inp)] = gin if prev is None else prev + gin
            else:
                inp.grad = gin.copy() if inp.grad is None else inp.grad + gin


def _emit(inputs: Sequence[Tensor], out_data: np.ndarray,
          vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    if recording(*inputs):
        _ACTIVE_TAPE.get()._append(_OpRecord(tuple(inputs), out, vjp))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of broadcasting over leading axes)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    return _emit([a, b], a.data + b.data,
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data
    return _emit([a, b], ad * bd,
                 lambda g: (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)))


def sum_(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def vjp(g):
        if axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _emit([a], out, vjp)


def transpose(a: Tensor, axes) -> Tensor:
    out = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def vjp(g):
        return (np.transpose(g, inv),)

    return _emit([a], out, vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _emit([a], out, lambda g: (g.reshape(a.shape),))


# Nothing in the model calls concat, slice_ (Tensor's [], len and iter) or
# encode_dependencies' list-of-steps input. perfbench/layers.py and
# perfbench/checks.py do, so these stay until the benchmark drops them.
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(np.moveaxis(moved[offsets[i]:offsets[i + 1]], 0, axis)
                     for i in range(len(tensors)))

    return _emit(tensors, out, vjp)


def slice_(a: Tensor, key) -> Tensor:
    # basic (non-advanced) indexing only: slices and ints
    out = a.data[key]

    def vjp(g):
        full = np.zeros(a.shape)
        full[key] = g
        return (full,)

    return _emit([a], np.array(out, copy=True), vjp)
