"""Dense tensor engine with reverse-mode automatic differentiation.

Values are stored in float32; reductions (softmax, layer norm, losses) accumulate
in float64 before casting back, which keeps the numerical invariants tight without
inflating checkpoint size. The computation graph is dynamic: every operation
records its parents and a vector-Jacobian closure, and ``backward`` replays them
in reverse topological order.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

DTYPE = np.float32


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / scoring paths)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


class Tensor:
    """A dense array with optional gradient tracking.

    Invariants: ``data`` is float32 and row-major; ``grad``, when present, has
    the same shape as ``data``. Gradients accumulate additively across backward
    calls until ``zero_grad`` / ``grad = None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def backward(self) -> None:
        backward(self)

    def zero_grad(self) -> None:
        self.grad = None


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=DTYPE))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype == DTYPE else data.astype(DTYPE)
    out.grad = None
    track = _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = parents if track else ()
    out._vjp = vjp if track else None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcasting forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.astype(DTYPE)


# -- elementwise and linear algebra ----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; both operands must share rank and batch dimensions."""
    if a.ndim != b.ndim or a.ndim < 2:
        raise ValueError(f"matmul rank mismatch: {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul batch mismatch: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner-dim mismatch: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return ((g * (a.data > 0)).astype(DTYPE),)

    return _make(out, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        return ((g * out).astype(DTYPE),)

    return _make(out, (a,), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), vjp)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes)

    def vjp(g):
        return (g.transpose(np.argsort(axes)),)

    return _make(out, (a,), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum reduction; accumulates in float64."""
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(DTYPE)
    out = np.asarray(out)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(DTYPE),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        gg = g
        if not keepdims:
            for ax in sorted(ax % a.ndim for ax in axes):
                gg = np.expand_dims(gg, ax)
        return (np.broadcast_to(gg, a.shape).astype(DTYPE),)

    return _make(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, Tensor(np.asarray(1.0 / n, dtype=DTYPE)))


# -- fused neural-net primitives -------------------------------------------


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Raises NumericError on non-finite input: masked attention must encode
    forbidden positions as large negative finite biases, never NaN/inf.
    """
    logits = _as_tensor(logits)
    if not np.isfinite(logits.data).all():
        raise NumericError("softmax received non-finite logits")
    x = logits.data.astype(np.float64)
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    y64 = e / e.sum(axis=axis, keepdims=True)
    out = y64.astype(DTYPE)

    def vjp(g):
        g64 = g.astype(np.float64)
        dot = (g64 * y64).sum(axis=axis, keepdims=True)
        return ((y64 * (g64 - dot)).astype(DTYPE),)

    return _make(out, (logits,), vjp)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    logits = _as_tensor(logits)
    if not np.isfinite(logits.data).all():
        raise NumericError("log_softmax received non-finite logits")
    x = logits.data.astype(np.float64)
    x = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(x).sum(axis=axis, keepdims=True))
    y64 = x - lse
    out = y64.astype(DTYPE)

    def vjp(g):
        g64 = g.astype(np.float64)
        return ((g64 - np.exp(y64) * g64.sum(axis=axis, keepdims=True)).astype(DTYPE),)

    return _make(out, (logits,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    # np.mean/np.var spelled as the ufunc calls they make, in the same order,
    # without their per-call argument handling.
    d = x.shape[-1]
    x64 = x.data.astype(np.float64)
    centred = x64 - np.add.reduce(x64, axis=-1, keepdims=True) / d
    var = np.add.reduce(np.square(centred), axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = (xhat * gain.data + bias.data).astype(DTYPE)

    def vjp(g):
        g64 = g.astype(np.float64)
        gxhat = g64 * gain.data
        dx = inv * (gxhat
                    - np.add.reduce(gxhat, axis=-1, keepdims=True) / d
                    - xhat * (np.add.reduce(gxhat * xhat, axis=-1, keepdims=True) / d))
        lead = tuple(range(x.ndim - 1))
        dgain = (g64 * xhat).sum(axis=lead) if gain.requires_grad else None
        dbias = g64.sum(axis=lead) if bias.requires_grad else None
        return (dx.astype(DTYPE) if x.requires_grad else None,
                None if dgain is None else dgain.astype(DTYPE),
                None if dbias is None else dbias.astype(DTYPE))

    return _make(out, (x, gain, bias), vjp)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = weight[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ValueError(
            f"embedding id out of range: ids in [{ids.min()}, {ids.max()}], "
            f"table has {weight.shape[0]} rows")
    out = weight.data[ids]

    def vjp(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, weight.shape[1]))
        return (gw,)

    return _make(out, (weight,), vjp)


def cross_entropy(log_probs: Tensor, target_ids: np.ndarray, pad_id: int,
                  reduction: str = "mean", mask: np.ndarray | None = None) -> Tensor:
    """Negative log-likelihood of ``target_ids`` under per-position log_probs.

    ``log_probs`` has shape [..., vocab]; ``target_ids`` matches the leading
    shape. Positions equal to ``pad_id`` are excluded from the reduction; an
    explicit boolean ``mask`` of counted positions overrides that, so padded
    slots stay excluded whatever ids they hold.
    """
    targets = np.asarray(target_ids)
    if targets.shape != log_probs.shape[:-1]:
        raise ValueError(
            f"cross_entropy shape mismatch: targets {targets.shape} vs "
            f"log_probs {log_probs.shape}")
    vocab = log_probs.shape[-1]
    if targets.size and targets.max() >= vocab:
        raise ValueError(f"target id {targets.max()} >= vocab size {vocab}")
    if targets.size and targets.min() < 0:
        raise ValueError("negative target id")
    if mask is None:
        mask = targets != pad_id
    elif mask.shape != targets.shape:
        raise ValueError(f"mask shape {mask.shape} != targets {targets.shape}")
    n = int(mask.sum())
    if n == 0:
        raise ValueError("cross_entropy: every position is padding")
    flat_lp = log_probs.data.reshape(-1, vocab)
    flat_t = targets.reshape(-1)
    flat_m = mask.reshape(-1)
    picked = flat_lp[np.arange(flat_t.size), flat_t].astype(np.float64)
    total = -(picked * flat_m).sum()
    denom = n if reduction == "mean" else 1
    out = np.asarray(total / denom, dtype=DTYPE)

    def vjp(g):
        gl = np.zeros_like(flat_lp)
        gl[np.arange(flat_t.size), flat_t] = -(flat_m.astype(DTYPE) / denom)
        return ((float(g) * gl).reshape(log_probs.shape).astype(DTYPE),)

    return _make(out, (log_probs,), vjp)


# -- backward pass ----------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable tensor with requires_grad set.

    Accumulation is additive: running backward twice on the same graph without
    zeroing doubles the stored gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no parameters reached it?)")
    order = _topo_order(loss)
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg
