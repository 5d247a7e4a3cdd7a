"""Dense tensor engine with reverse-mode automatic differentiation.

Values are float32, and ``Tensor(...)`` is the one conversion to float32:
graph ops take Tensors, plus the array constants they document. Reductions
(softmax, layer norm, losses) accumulate in float64 before casting back, which
keeps the numerical invariants tight without inflating checkpoint size. The
graph is dynamic: every op records its parents and a vector-Jacobian closure,
and ``backward`` replays them in reverse topological order. Only leaves
(parameters and inputs, which record no op) receive ``.grad``; gradients of
intermediate nodes flow through the pass and are dropped with it.

Each op costs a fixed Python overhead, which dominates batch-size-one
decoding, so the transformer's frequent chains are single ops:
``linear_split_heads`` (a query, key or value projection and its head split),
``merge_heads_linear`` (the head merge and the output projection),
``attention_softmax`` (scale + bias + softmax), ``layer_norm(x, gain, bias,
residual)`` (residual add + layer norm), ``ffn`` (linear + ReLU + linear) and
``scaled_embedding`` (embedding * scale + positional encodings). Each runs
the numpy calls of the chain it replaces, in the same order, forward and
backward, and takes the chain's inputs in the chain's order, so values,
gradients and the order in which backward sums them are bit-identical to the
chain.

The forward arithmetic of each fused op is an array kernel of its own
(``linear_fwd``, ``linear_split_heads_fwd``, ``merge_heads_linear_fwd``,
``ffn_fwd``, ``attention_softmax_fwd``, ``layer_norm_fwd``,
``scaled_embedding_fwd``). The op calls it and records the graph; every
decoder pass that records no gradients (scoring, decoding, cached steps)
calls the kernels on plain arrays instead, so both paths run the same numpy
arithmetic on every real token row.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

DTYPE = np.float32
LAYER_NORM_EPS = 1e-5   # the Transformer's layer-norm epsilon


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
    calls until ``grad`` is set back to None (``Module.zero_grad`` does this
    for every parameter).
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


_FLOAT32 = np.dtype(DTYPE)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    # an identity test: `==` against the scalar type DTYPE would convert that
    # type to a dtype on every call
    out.data = data if data.dtype is _FLOAT32 else data.astype(DTYPE)
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
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; both operands must share rank and batch dimensions."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != len(sb) or len(sa) < 2:
        raise ValueError(f"matmul rank mismatch: {sa} @ {sb}")
    if sa[:-2] != sb[:-2]:
        raise ValueError(f"matmul batch mismatch: {sa} @ {sb}")
    if sa[-1] != sb[-2]:
        raise ValueError(f"matmul inner-dim mismatch: {sa} @ {sb}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), vjp)


def _affine(flat: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.matmul(flat, w)
    out += b
    return out


def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward kernel of `linear`."""
    if x.ndim == 2:
        return _affine(x, w, b)
    return _affine(x.reshape(-1, x.shape[-1]), w, b).reshape(*x.shape[:-1], w.shape[1])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of ``x``, for any rank: one 2-D matmul on
    the rows of ``x`` and one 2-D bias add. Keeping the add 2-D makes the
    bias gradient a sum over contiguous rows, whatever the layout of the
    upstream gradient."""
    sx, sw, sb = x.data.shape, w.data.shape, b.data.shape
    if sx[-1] != sw[0] or sb != sw[1:]:
        raise ValueError(f"linear shape mismatch: {sx} @ {sw} + {sb}")

    def vjp(g):
        g2 = g.reshape(-1, sw[1])
        gx = np.matmul(g2, w.data.T).reshape(sx) if x.requires_grad else None
        gw = np.matmul(x.data.reshape(-1, sx[-1]).T, g2) if w.requires_grad else None
        gb = _unbroadcast(g2, sb) if b.requires_grad else None
        return gx, gw, gb

    return _make(linear_fwd(x.data, w.data, b.data), (x, w, b), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return ((g * (a.data > 0)).astype(DTYPE),)

    return _make(out, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return ((g * out).astype(DTYPE),)

    return _make(out, (a,), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), vjp)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = a.data.transpose(axes)

    def vjp(g):
        return (g.transpose(np.argsort(axes)),)

    return _make(out, (a,), vjp)


def linear_split_heads_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                           n_head: int) -> np.ndarray:
    """The forward kernel of `linear_split_heads`: [B, T, d] in, [B, H, T,
    d/H] out."""
    bsz, t, d_in = x.shape
    out = _affine(x.reshape(-1, d_in), w, b)
    return out.reshape(bsz, t, n_head, w.shape[1] // n_head).transpose(0, 2, 1, 3)


def linear_split_heads(x: Tensor, w: Tensor, b: Tensor, n_head: int) -> Tensor:
    """`linear` then the split of its [B, T, d] output into [B, H, T, d/H]
    heads (reshape + transpose) as one op, for a query, key or value
    projection."""
    sx, sw, sb = x.data.shape, w.data.shape, b.data.shape
    if len(sx) != 3 or sx[-1] != sw[0] or sb != sw[1:]:
        raise ValueError(f"linear_split_heads shape mismatch: {sx} @ {sw} + {sb}")
    heads = linear_split_heads_fwd(x.data, w.data, b.data, n_head)

    def vjp(g):
        g2 = g.transpose(0, 2, 1, 3).reshape(-1, sw[1])
        gx = np.matmul(g2, w.data.T).reshape(sx) if x.requires_grad else None
        gw = np.matmul(x.data.reshape(-1, sx[-1]).T, g2) if w.requires_grad else None
        gb = _unbroadcast(g2, sb) if b.requires_grad else None
        return gx, gw, gb

    return _make(heads, (x, w, b), vjp)


def merge_heads_linear_fwd(a: np.ndarray, w: np.ndarray,
                           b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward kernel of `merge_heads_linear`: [B, H, T, dh] in, [B, T,
    d] out, returned with the merged [B*T, H*dh] rows its gradient reads."""
    bsz, h, t, dh = a.shape
    flat = a.transpose(0, 2, 1, 3).reshape(bsz * t, h * dh)
    return _affine(flat, w, b).reshape(bsz, t, w.shape[1]), flat


def merge_heads_linear(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The merge of [B, H, T, dh] heads into [B, T, H*dh] (transpose +
    reshape) then `linear`, as one op, for an output projection."""
    sa, sw, sb = a.data.shape, w.data.shape, b.data.shape
    if len(sa) != 4 or sa[1] * sa[3] != sw[0] or sb != sw[1:]:
        raise ValueError(f"merge_heads_linear shape mismatch: {sa} @ {sw} + {sb}")
    bsz, h, t, dh = sa
    out, flat = merge_heads_linear_fwd(a.data, w.data, b.data)

    def vjp(g):
        g2 = g.reshape(-1, sw[1])
        ga = (np.matmul(g2, w.data.T).reshape(bsz, t, h, dh).transpose(0, 2, 1, 3)
              if a.requires_grad else None)
        gw = np.matmul(flat.T, g2) if w.requires_grad else None
        gb = _unbroadcast(g2, sb) if b.requires_grad else None
        return ga, gw, gb

    return _make(out, (a, w, b), vjp)


def ffn_fwd(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
            b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward kernel of `ffn`, returned with the hidden ReLU outputs
    its gradient reads."""
    r = _affine(x.reshape(-1, x.shape[-1]), w1, b1)
    np.maximum(r, 0.0, out=r)
    return _affine(r, w2, b2).reshape(*x.shape[:-1], w2.shape[1]), r


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` as one op. The ReLU runs
    in place on the hidden pre-activations, and its gradient masks on the
    hidden outputs, which are positive exactly where their inputs are, so
    the op keeps one hidden array where the chain kept two."""
    sx, s1, s2 = x.data.shape, w1.data.shape, w2.data.shape
    sb1, sb2 = b1.data.shape, b2.data.shape
    if sx[-1] != s1[0] or sb1 != s1[1:] or s1[1] != s2[0] or sb2 != s2[1:]:
        raise ValueError(f"ffn shape mismatch: {sx} @ {s1} + {sb1} @ {s2} + {sb2}")
    out, r = ffn_fwd(x.data, w1.data, b1.data, w2.data, b2.data)

    def vjp(g):
        g2 = g.reshape(-1, s2[1])
        gr = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gr = np.matmul(g2, w2.data.T)
            gr *= r > 0
        gw2 = np.matmul(r.T, g2) if w2.requires_grad else None
        gb2 = _unbroadcast(g2, sb2) if b2.requires_grad else None
        gx = np.matmul(gr, w1.data.T).reshape(sx) if x.requires_grad else None
        gw1 = np.matmul(x.data.reshape(-1, sx[-1]).T, gr) if w1.requires_grad else None
        gb1 = _unbroadcast(gr, sb1) if b1.requires_grad else None
        return gx, gw1, gb1, gw2, gb2

    return _make(out, (x, w1, b1, w2, b2), vjp)


def tsum(a: Tensor, axis=None) -> Tensor:
    """Sum reduction; accumulates in float64."""
    out = np.asarray(a.data.sum(axis=axis, dtype=np.float64).astype(DTYPE))

    def vjp(g):
        g = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(DTYPE),)

    return _make(out, (a,), vjp)


def tmean(a: Tensor) -> Tensor:
    return mul(tsum(a), Tensor(np.asarray(1.0 / a.size, dtype=DTYPE)))


# -- fused neural-net primitives -------------------------------------------


def _softmax64(x: np.ndarray, axis: int, name: str) -> np.ndarray:
    """The float64 softmax kernel of `softmax` and `attention_softmax`.

    Raises NumericError on non-finite input: masked attention must encode
    forbidden positions as large negative finite biases, never NaN/inf.
    """
    if not np.isfinite(x).all():
        raise NumericError(f"{name} received non-finite logits")
    y64 = x.astype(np.float64)
    y64 -= np.maximum.reduce(y64, axis=axis, keepdims=True)
    np.exp(y64, out=y64)
    y64 /= np.add.reduce(y64, axis=axis, keepdims=True)
    return y64


def _softmax64_vjp(g: np.ndarray, y64: np.ndarray, axis: int) -> np.ndarray:
    g64 = g.astype(np.float64)
    g64 -= np.add.reduce(g64 * y64, axis=axis, keepdims=True)
    g64 *= y64
    return g64.astype(DTYPE)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``; raises NumericError on
    non-finite logits."""
    y64 = _softmax64(logits.data, axis, "softmax")

    def vjp(g):
        return (_softmax64_vjp(g, y64, axis),)

    return _make(y64.astype(DTYPE), (logits,), vjp)


def attention_softmax_fwd(logits: np.ndarray, scale: float,
                          bias: np.ndarray | None) -> np.ndarray:
    """The forward kernel of `attention_softmax`, in float64; raises
    NumericError on non-finite logits."""
    z = logits * DTYPE(scale)
    if bias is not None:
        z += np.asarray(bias, dtype=DTYPE)
    return _softmax64(z, -1, "attention_softmax")


def attention_softmax(logits: Tensor, scale: float,
                      bias: np.ndarray | None) -> Tensor:
    """softmax(logits * scale + bias) over the last axis as one op, with the
    float32 multiply and add of `mul` and `add`. `bias` is a constant that
    broadcasts to the logits, or None."""
    y64 = attention_softmax_fwd(logits.data, scale, bias)
    scale = DTYPE(scale)

    def vjp(g):
        return (_softmax64_vjp(g, y64, -1) * scale,)

    return _make(y64.astype(DTYPE), (logits,), vjp)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    if not np.isfinite(logits.data).all():
        raise NumericError("log_softmax received non-finite logits")
    y64 = logits.data.astype(np.float64)
    y64 -= np.maximum.reduce(y64, axis=axis, keepdims=True)
    lse = np.add.reduce(np.exp(y64), axis=axis, keepdims=True)
    y64 -= np.log(lse, out=lse)
    out = y64.astype(DTYPE)

    def vjp(g):
        g64 = g.astype(np.float64)
        p = np.exp(y64)
        p *= np.add.reduce(g64, axis=axis, keepdims=True)
        g64 -= p
        return (g64.astype(DTYPE),)

    return _make(out, (logits,), vjp)


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   residual: np.ndarray | None = None) -> tuple:
    """The forward kernel of `layer_norm`: the output, returned with the
    normalized float64 input and the inverse deviations its gradient reads."""
    s = x if residual is None else residual + x
    # np.mean/np.var spelled as the ufunc calls they make, in the same order,
    # without their per-call argument handling; full-size float64 temporaries
    # are updated in place once their old values are no longer read.
    d = s.shape[-1]
    xhat = s.astype(np.float64)
    xhat -= np.add.reduce(xhat, axis=-1, keepdims=True) / d
    var = np.add.reduce(np.square(xhat), axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    y64 = xhat * gain
    y64 += bias
    return y64.astype(DTYPE), xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               residual: Tensor | None = None) -> Tensor:
    """Normalize over the last axis, then scale and shift. With `residual`,
    normalize ``residual + x`` (the float32 sum `add` makes) in the same op."""
    if residual is None:
        parents = (x, gain, bias)
    else:
        if residual.data.shape != x.data.shape:
            raise ValueError(f"layer_norm residual shape {residual.data.shape} "
                             f"!= input shape {x.data.shape}")
        parents = (residual, x, gain, bias)
    out, xhat, inv = layer_norm_fwd(x.data, gain.data, bias.data,
                                    None if residual is None else residual.data)
    d = x.data.shape[-1]

    def vjp(g):
        g64 = g.astype(np.float64)
        dx = g64 * gain.data
        m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dx * xhat, axis=-1, keepdims=True) / d
        dx -= m1
        dx -= xhat * m2
        dx *= inv
        lead = tuple(range(g.ndim - 1))
        dgain = np.add.reduce(g64 * xhat, axis=lead) if gain.requires_grad else None
        dbias = np.add.reduce(g64, axis=lead) if bias.requires_grad else None
        # with a residual, both addends of the sum get its gradient, as from `add`
        dx = dx.astype(DTYPE)
        return tuple(dx if p.requires_grad else None for p in parents[:-2]) + (
            None if dgain is None else dgain.astype(DTYPE),
            None if dbias is None else dbias.astype(DTYPE))

    return _make(out, parents, vjp)


def _check_ids(weight: Tensor | np.ndarray, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ValueError(
            f"embedding id out of range: ids in [{ids.min()}, {ids.max()}], "
            f"table has {weight.shape[0]} rows")


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = weight[ids[...], :]."""
    ids = np.asarray(ids)
    _check_ids(weight, ids)
    out = weight.data[ids]

    def vjp(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, weight.shape[1]))
        return (gw,)

    return _make(out, (weight,), vjp)


def scaled_embedding_fwd(weight: np.ndarray, ids: np.ndarray, scale: float,
                         pos: np.ndarray) -> np.ndarray:
    """The forward kernel of `scaled_embedding`; raises ValueError on an id
    outside the table."""
    _check_ids(weight, ids)
    out = weight[ids]
    out *= DTYPE(scale)
    out += pos
    return out


def scaled_embedding(weight: Tensor, ids: np.ndarray, scale: float,
                     pos: np.ndarray) -> Tensor:
    """``embedding(weight, ids) * scale + pos`` as one op, with the float32
    multiply and add of `mul` and `add`; `pos` is a constant that
    broadcasts to the [..., d] rows."""
    ids = np.asarray(ids)
    out = scaled_embedding_fwd(weight.data, ids, scale, pos)
    scale = DTYPE(scale)

    def vjp(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids.reshape(-1), (g * scale).reshape(-1, weight.shape[1]))
        return (gw,)

    return _make(out, (weight,), vjp)


def cross_entropy(log_probs: Tensor, target_ids: np.ndarray,
                  mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``target_ids`` under per-position
    log_probs.

    ``log_probs`` has shape [..., vocab]; ``target_ids`` and the boolean
    ``mask`` of counted positions match the leading shape, so padded slots
    stay excluded whatever ids they hold.
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
    if mask.shape != targets.shape:
        raise ValueError(f"mask shape {mask.shape} != targets {targets.shape}")
    n = int(mask.sum())
    if n == 0:
        raise ValueError("cross_entropy: every position is padding")
    flat_lp = log_probs.data.reshape(-1, vocab)
    flat_t = targets.reshape(-1)
    flat_m = mask.reshape(-1)
    picked = flat_lp[np.arange(flat_t.size), flat_t].astype(np.float64)
    total = -(picked * flat_m).sum()
    out = np.asarray(total / n, dtype=DTYPE)

    def vjp(g):
        gl = np.zeros_like(flat_lp)
        gl[np.arange(flat_t.size), flat_t] = -(flat_m.astype(DTYPE) / n)
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
    """Populate ``grad`` on every reachable leaf with requires_grad set.

    A leaf is a tensor with no recorded op. Intermediate nodes keep
    ``grad is None``. Accumulation is additive: running backward twice on the
    same graph without zeroing doubles the stored gradients.
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
        if node._vjp is None:
            # only requires_grad nodes ever enter ``flowing``
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg
