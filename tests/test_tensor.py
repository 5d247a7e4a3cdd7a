"""Tensor engine tests: frozen oracle values, finite-difference gradient checks,
and graph-level properties. The finite-difference oracle re-evaluates each
operation with plain float64 numpy, independent of the engine's graph machinery.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natmt import tensor as T
from natmt.tensor import Tensor


# ---------------------------------------------------------------------------
# float64 reference forwards (the independent side of every gradient check)
# ---------------------------------------------------------------------------

def ref_softmax(x, axis=-1):
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


def ref_log_softmax(x, axis=-1):
    x = x - x.max(axis=axis, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=axis, keepdims=True))


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def fd_grad(f, args, idx, h=1e-4):
    """Central finite differences of scalar f over args[idx], all float64."""
    base = [a.astype(np.float64).copy() for a in args]
    x = base[idx]
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(*base)
        flat[i] = keep - h
        down = f(*base)
        flat[i] = keep
        gflat[i] = (up - down) / (2 * h)
    return g


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return np.abs(got - want).max() / (np.abs(want).max() + 1e-12)


def check_grad(op_builder, ref_scalar, arg_shapes, seed, tol=1e-4):
    """Compare engine backward against float64 central differences.

    op_builder(tensors) -> scalar Tensor; ref_scalar(arrays) -> float, the same
    function written directly in numpy float64.
    """
    rng = np.random.default_rng(seed)
    check_grad_at(op_builder, ref_scalar,
                  [rng.normal(0, 1, s).astype(np.float32) for s in arg_shapes], tol)


def check_grad_at(op_builder, ref_scalar, arrays, tol=1e-4):
    """`check_grad` at the given float32 arrays."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = op_builder(*tensors)
    T.backward(loss)
    for i, t in enumerate(tensors):
        want = fd_grad(ref_scalar, arrays, i)
        assert t.grad is not None
        err = rel_err(t.grad, want)
        assert err < tol, f"arg {i}: relative gradient error {err:.3g}"


GRAD_SEEDS = list(range(20))


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_add_broadcast(seed):
    rng = np.random.default_rng(seed + 1000)
    w = rng.normal(0, 1, (3, 4))
    check_grad(
        lambda a, b: T.tsum(T.mul(T.add(a, b), Tensor(w.astype(np.float32)))),
        lambda a, b: ((a + b) * w).sum(),
        [(3, 4), (4,)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_mul_broadcast(seed):
    rng = np.random.default_rng(seed + 2000)
    w = rng.normal(0, 1, (2, 3, 4))
    check_grad(
        lambda a, b: T.tsum(T.mul(T.mul(a, b), Tensor(w.astype(np.float32)))),
        lambda a, b: ((a * b) * w).sum(),
        [(2, 3, 4), (1, 3, 4)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_matmul(seed):
    rng = np.random.default_rng(seed + 3000)
    w = rng.normal(0, 1, (3, 5))
    check_grad(
        lambda a, b: T.tsum(T.mul(T.matmul(a, b), Tensor(w.astype(np.float32)))),
        lambda a, b: ((a @ b) * w).sum(),
        [(3, 4), (4, 5)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_matmul_batched(seed):
    rng = np.random.default_rng(seed + 4000)
    w = rng.normal(0, 1, (2, 3, 5))
    check_grad(
        lambda a, b: T.tsum(T.mul(T.matmul(a, b), Tensor(w.astype(np.float32)))),
        lambda a, b: ((a @ b) * w).sum(),
        [(2, 3, 4), (2, 4, 5)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_relu(seed):
    # shift inputs away from the kink so finite differences are valid
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (4, 5)).astype(np.float32)
    x[np.abs(x) < 0.05] = 0.2
    w = rng.normal(0, 1, (4, 5))
    t = Tensor(x, requires_grad=True)
    loss = T.tsum(T.mul(T.relu(t), Tensor(w.astype(np.float32))))
    T.backward(loss)
    want = fd_grad(lambda a: (np.maximum(a, 0) * w).sum(), [x], 0)
    assert rel_err(t.grad, want) < 1e-4


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_exp(seed):
    rng = np.random.default_rng(seed + 5000)
    w = rng.normal(0, 1, (3, 4))
    check_grad(
        lambda a: T.tsum(T.mul(T.exp(a), Tensor(w.astype(np.float32)))),
        lambda a: (np.exp(a) * w).sum(),
        [(3, 4)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_reshape_transpose(seed):
    rng = np.random.default_rng(seed + 6000)
    w = rng.normal(0, 1, (4, 2, 3))
    check_grad(
        lambda a: T.tsum(T.mul(T.transpose(T.reshape(a, (2, 3, 4)), (2, 0, 1)),
                               Tensor(w.astype(np.float32)))),
        lambda a: (a.reshape(2, 3, 4).transpose(2, 0, 1) * w).sum(),
        [(6, 4)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_softmax(seed):
    rng = np.random.default_rng(seed + 7000)
    w = rng.normal(0, 1, (3, 5))
    check_grad(
        lambda a: T.tsum(T.mul(T.softmax(a, axis=-1), Tensor(w.astype(np.float32)))),
        lambda a: (ref_softmax(a) * w).sum(),
        [(3, 5)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_log_softmax(seed):
    rng = np.random.default_rng(seed + 8000)
    w = rng.normal(0, 1, (3, 5))
    check_grad(
        lambda a: T.tsum(T.mul(T.log_softmax(a, axis=-1), Tensor(w.astype(np.float32)))),
        lambda a: (ref_log_softmax(a) * w).sum(),
        [(3, 5)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_layer_norm(seed):
    rng = np.random.default_rng(seed + 9000)
    w = rng.normal(0, 1, (4, 6))
    check_grad(
        lambda x, g, b: T.tsum(T.mul(T.layer_norm(x, g, b),
                                     Tensor(w.astype(np.float32)))),
        lambda x, g, b: (ref_layer_norm(x, g, b) * w).sum(),
        [(4, 6), (6,), (6,)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_linear(seed):
    # 2-, 3- and 4-D inputs; the output is transposed before the loss, so the
    # upstream gradient reaching linear is not contiguous
    rng = np.random.default_rng(seed + 9500)
    for x_shape, perm in [((5, 4), (1, 0)), ((2, 3, 4), (1, 0, 2)),
                          ((2, 3, 2, 4), (2, 0, 3, 1))]:
        out_shape = (*x_shape[:-1], 3)
        w = rng.normal(0, 1, tuple(out_shape[i] for i in perm))
        check_grad(
            lambda x, wt, b: T.tsum(T.mul(T.transpose(T.linear(x, wt, b), perm),
                                          Tensor(w.astype(np.float32)))),
            lambda x, wt, b: ((x @ wt + b).transpose(perm) * w).sum(),
            [x_shape, (x_shape[-1], 3), (3,)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_mean(seed):
    check_grad(
        lambda a: T.tmean(a),
        lambda a: a.mean(),
        [(3, 7)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_cross_entropy(seed):
    rng = np.random.default_rng(seed + 100)
    targets = rng.integers(1, 5, size=6)
    targets[rng.integers(0, 6)] = 0  # one padded position
    mask = (targets != 0).astype(np.float64)
    n = mask.sum()

    def ref(lp):
        picked = lp[np.arange(6), targets]
        return -(picked * mask).sum() / n

    check_grad(
        lambda lp: T.cross_entropy(lp, targets, mask=targets != 0),
        ref, [(6, 5)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_embedding(seed):
    rng = np.random.default_rng(seed + 200)
    ids = rng.integers(0, 7, size=(2, 4))
    w = rng.normal(0, 1, (2, 4, 3))

    def ref(table):
        return (table[ids] * w).sum()

    check_grad(
        lambda table: T.tsum(T.mul(T.embedding(table, ids),
                                   Tensor(w.astype(np.float32)))),
        ref, [(7, 3)], seed)


# fused ops: each against its float64 formula, not only against the primitive
# chain it replaces

@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_linear_split_heads(seed):
    rng = np.random.default_rng(seed + 9600)
    w = rng.normal(0, 1, (2, 2, 3, 2))             # [B, H, T, d/H]
    check_grad(
        lambda x, wt, b: T.tsum(T.mul(T.linear_split_heads(x, wt, b, 2),
                                      Tensor(w.astype(np.float32)))),
        lambda x, wt, b: ((x @ wt + b).reshape(2, 3, 2, 2).transpose(0, 2, 1, 3)
                          * w).sum(),
        [(2, 3, 5), (5, 4), (4,)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_merge_heads_linear(seed):
    rng = np.random.default_rng(seed + 9650)
    w = rng.normal(0, 1, (2, 3, 5))                # [B, T, d_out]
    check_grad(
        lambda a, wt, b: T.tsum(T.mul(T.merge_heads_linear(a, wt, b),
                                      Tensor(w.astype(np.float32)))),
        lambda a, wt, b: ((a.transpose(0, 2, 1, 3).reshape(2, 3, 4) @ wt + b)
                          * w).sum(),
        [(2, 2, 3, 2), (4, 5), (5,)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_ffn(seed):
    rng = np.random.default_rng(seed + 9700)
    w = rng.normal(0, 1, (2, 3, 5))
    shapes = [(2, 3, 4), (4, 6), (6,), (6, 5), (5,)]
    while True:   # hidden pre-activations away from the ReLU kink
        arrays = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
        if np.abs(arrays[0] @ arrays[1] + arrays[2]).min() > 0.05:
            break
    check_grad_at(
        lambda x, w1, b1, w2, b2: T.tsum(T.mul(T.ffn(x, w1, b1, w2, b2),
                                               Tensor(w.astype(np.float32)))),
        lambda x, w1, b1, w2, b2: ((np.maximum(x @ w1 + b1, 0) @ w2 + b2)
                                   * w).sum(),
        arrays)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_scaled_embedding(seed):
    rng = np.random.default_rng(seed + 9800)
    ids = rng.integers(0, 5, size=(2, 4))          # repeated ids add up
    pos = rng.normal(0, 1, (4, 3)).astype(np.float32)
    w = rng.normal(0, 1, (2, 4, 3))
    check_grad(
        lambda table: T.tsum(T.mul(T.scaled_embedding(table, ids, 1.5, pos),
                                   Tensor(w.astype(np.float32)))),
        lambda table: ((table[ids] * 1.5 + pos) * w).sum(),
        [(5, 3)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_attention_softmax(seed):
    rng = np.random.default_rng(seed + 9900)
    bias = np.where(rng.random((2, 1, 3, 5)) < 0.3, -1e9, 0.0).astype(np.float32)
    bias[..., 0] = 0.0                             # every row keeps a key
    w = rng.normal(0, 1, (2, 2, 3, 5))
    check_grad(
        lambda a: T.tsum(T.mul(T.attention_softmax(a, 0.5, bias),
                               Tensor(w.astype(np.float32)))),
        lambda a: (ref_softmax(a * 0.5 + bias) * w).sum(),
        [(2, 2, 3, 5)], seed)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_grad_layer_norm_residual(seed):
    rng = np.random.default_rng(seed + 9950)
    w = rng.normal(0, 1, (4, 6))
    check_grad(
        lambda x, r, g, b: T.tsum(T.mul(T.layer_norm(x, g, b, residual=r),
                                        Tensor(w.astype(np.float32)))),
        lambda x, r, g, b: (ref_layer_norm(r + x, g, b) * w).sum(),
        [(4, 6), (4, 6), (6,), (6,)], seed)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0])).numpy()
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-7)


def test_softmax_reference_values():
    out = T.softmax(Tensor([1.0, 2.0, 3.0])).numpy()
    np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)


def test_softmax_rejects_non_finite():
    with pytest.raises(T.NumericError):
        T.softmax(Tensor([0.0, np.inf]))
    with pytest.raises(T.NumericError):
        T.softmax(Tensor([np.nan, 0.0]))


@settings(max_examples=60)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-30, 30))
def test_softmax_shift_invariance_and_sum(logits, shift):
    base = T.softmax(Tensor(logits)).numpy()
    shifted = T.softmax(Tensor(np.asarray(logits, dtype=np.float32) + np.float32(shift))).numpy()
    assert abs(base.sum() - 1.0) < 1e-6
    assert np.all(base >= 0)
    np.testing.assert_allclose(base, shifted, atol=2e-6)


def test_layer_norm_identity_and_constant():
    g = Tensor([1.0, 1.0])
    b = Tensor([0.0, 0.0])
    np.testing.assert_allclose(
        T.layer_norm(Tensor([1.0, -1.0]), g, b).numpy(), [1.0, -1.0], atol=1e-2)
    np.testing.assert_allclose(
        T.layer_norm(Tensor([5.0, 5.0]), g, b).numpy(), [0.0, 0.0], atol=1e-6)


def test_layer_norm_reference_values():
    out = T.layer_norm(Tensor([0.0, 2.0, 4.0]),
                       Tensor([2.0, 2.0, 2.0]),
                       Tensor([1.0, 1.0, 1.0])).numpy()
    np.testing.assert_allclose(out, [-1.44948515, 1.0, 3.44948515], atol=1e-5)


@pytest.mark.parametrize("shape", [(5,), (3, 1), (2, 3, 1), (4, 7), (2, 3, 16),
                                   (1, 64)])
def test_layer_norm_bitwise_matches_mean_var_formula(shape):
    """Forward and backward equal the np.mean/np.var spelling bit for bit."""
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    x = (rng.normal(0, 0.05, shape) + 300).astype(np.float32)  # cancellation-prone
    gain = rng.normal(1, 0.5, shape[-1]).astype(np.float32)
    bias = rng.normal(0, 0.5, shape[-1]).astype(np.float32)
    g = rng.normal(0, 1, shape)
    eps = 1e-5
    x64 = x.astype(np.float64)
    inv = 1.0 / np.sqrt(x64.var(axis=-1, keepdims=True) + eps)
    xhat = (x64 - x64.mean(axis=-1, keepdims=True)) * inv
    want = (xhat * gain + bias).astype(np.float32)
    gxhat = g.astype(np.float32).astype(np.float64) * gain
    want_dx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                     - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))

    tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
    out = T.layer_norm(tx, tg, tb)
    assert np.array_equal(out.numpy(), want)
    T.backward(T.tsum(T.mul(out, Tensor(g.astype(np.float32)))))
    assert np.array_equal(tx.grad, want_dx.astype(np.float32))


def _softmax_out_of_place(x64, g64, axis):
    x = x64 - x64.max(axis=axis, keepdims=True)
    e = np.exp(x)
    y = e / e.sum(axis=axis, keepdims=True)
    return y, y * (g64 - (g64 * y).sum(axis=axis, keepdims=True))


def _log_softmax_out_of_place(x64, g64, axis):
    x = x64 - x64.max(axis=axis, keepdims=True)
    y = x - np.log(np.exp(x).sum(axis=axis, keepdims=True))
    return y, g64 - np.exp(y) * g64.sum(axis=axis, keepdims=True)


@pytest.mark.parametrize("op, formula", [(T.softmax, _softmax_out_of_place),
                                         (T.log_softmax, _log_softmax_out_of_place)],
                         ids=["softmax", "log_softmax"])
@pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 3, 16), (2, 2, 4, 9)])
@pytest.mark.parametrize("axis", [-1, 0])
def test_softmax_kernels_bitwise_match_out_of_place_formulas(op, formula, shape, axis):
    """Forward and input gradient equal the out-of-place float64 formulas
    bit for bit."""
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    x = rng.normal(0, 3, shape).astype(np.float32)
    g = rng.normal(0, 1, shape).astype(np.float32)
    want, want_dx = formula(x.astype(np.float64), g.astype(np.float64), axis)
    tx = Tensor(x, requires_grad=True)
    out = op(tx, axis=axis)
    assert np.array_equal(out.numpy(), want.astype(np.float32))
    T.backward(T.tsum(T.mul(out, Tensor(g))))
    assert np.array_equal(tx.grad, want_dx.astype(np.float32))


@pytest.mark.parametrize("axes", [(1, 2, 0), (2, 0, 1)])
def test_transpose_backward_inverts_non_involutive_permutation(axes):
    x = Tensor(np.zeros((2, 3, 4), dtype=np.float32), requires_grad=True)
    y = T.transpose(x, axes)
    w = np.random.default_rng(9).normal(0, 1, y.shape).astype(np.float32)
    T.backward(T.tsum(T.mul(y, Tensor(w))))
    # out[i, j, k] = x[idx] with idx[axes[m]] = (i, j, k)[m]
    want = np.empty_like(x.data)
    for out_idx in np.ndindex(y.shape):
        idx = [0, 0, 0]
        for m, ax in enumerate(axes):
            idx[ax] = out_idx[m]
        want[tuple(idx)] = w[out_idx]
    assert np.array_equal(x.grad, want)


@settings(max_examples=40)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=8))
@example(xs=[0.0, 0.0625])   # variance near the epsilon: the output variance is not 1
def test_layer_norm_stats(xs):
    x = np.asarray(xs, dtype=np.float32)
    out = T.layer_norm(Tensor(x), Tensor(np.ones(len(xs))), Tensor(np.zeros(len(xs)))).numpy()
    var = x.astype(np.float64).var()
    assert abs(out.astype(np.float64).mean()) < 1e-4
    assert abs(out.astype(np.float64).var() - var / (var + T.LAYER_NORM_EPS)) < 1e-4


# ---------------------------------------------------------------------------
# fused ops against the op chains they replace, bit for bit
# ---------------------------------------------------------------------------

def _value_and_grads(build, arrays, g, grad=None):
    """Forward value of build(*tensors) and the gradient of every input under
    the upstream gradient g; `grad` flags which inputs require one (all by
    default), and an input without one reports None."""
    grad = [True] * len(arrays) if grad is None else grad
    tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, grad, strict=True)]
    out = build(*tensors)
    if out.requires_grad:
        T.backward(T.tsum(T.mul(out, Tensor(g))))
    return [out.numpy()] + [t.grad for t in tensors]


def _assert_identical(got, want):
    for a, b in zip(got, want, strict=True):
        if a is None or b is None:
            assert a is None and b is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


small_dims = st.integers(1, 4)
grad_flags = st.lists(st.booleans(), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(small_dims, small_dims, small_dims, small_dims, st.integers(1, 6),
       grad_flags, st.integers(0, 2**16))
@example(1, 2, 1, 3, 4, [True, True, True], 0)    # one position, as in a cached step
@example(2, 2, 3, 2, 5, [False, True, True], 1)   # an input without gradient
def test_linear_split_heads_equals_linear_reshape_transpose(b, h, t, dh, d_in,
                                                            grad, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (b, t, d_in)).astype(np.float32)
    w = rng.normal(0, 1, (d_in, h * dh)).astype(np.float32)
    bias = rng.normal(0, 1, h * dh).astype(np.float32)
    g = rng.normal(0, 1, (b, h, t, dh)).astype(np.float32)

    def chain(a, wt, bs):
        return T.transpose(T.reshape(T.linear(a, wt, bs), (b, t, h, dh)), (0, 2, 1, 3))

    _assert_identical(
        _value_and_grads(lambda a, wt, bs: T.linear_split_heads(a, wt, bs, h),
                         [x, w, bias], g, grad),
        _value_and_grads(chain, [x, w, bias], g, grad))


@settings(max_examples=40, deadline=None)
@given(small_dims, small_dims, small_dims, small_dims, st.integers(1, 6),
       grad_flags, st.integers(0, 2**16))
@example(1, 2, 1, 3, 4, [True, True, True], 0)    # one position, as in a cached step
@example(2, 2, 3, 2, 5, [False, True, True], 1)   # an input without gradient
def test_merge_heads_linear_equals_transpose_reshape_linear(b, h, t, dh, d_out,
                                                            grad, seed):
    rng = np.random.default_rng(seed)
    heads = rng.normal(0, 1, (b, h, t, dh)).astype(np.float32)
    w = rng.normal(0, 1, (h * dh, d_out)).astype(np.float32)
    bias = rng.normal(0, 1, d_out).astype(np.float32)
    g = rng.normal(0, 1, (b, t, d_out)).astype(np.float32)

    def chain(a, wt, bs):
        return T.linear(T.reshape(T.transpose(a, (0, 2, 1, 3)), (b, t, h * dh)), wt, bs)

    _assert_identical(
        _value_and_grads(T.merge_heads_linear, [heads, w, bias], g, grad),
        _value_and_grads(chain, [heads, w, bias], g, grad))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_dims, min_size=1, max_size=3), st.integers(1, 6),
       st.integers(1, 8), st.integers(1, 6),
       st.lists(st.booleans(), min_size=5, max_size=5), st.booleans(),
       st.integers(0, 2**16))
@example([1, 1], 4, 8, 4, [True] * 5, True, 0)    # a cached step, a dead unit
@example([2, 3], 4, 8, 4, [False, True, True, True, True], False, 1)
def test_ffn_equals_linear_relu_linear(lead, d, d_hidden, d_out, grad, dead, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (*lead, d)).astype(np.float32)
    w1 = rng.normal(0, 1, (d, d_hidden)).astype(np.float32)
    b1 = rng.normal(0, 1, d_hidden).astype(np.float32)
    w2 = rng.normal(0, 1, (d_hidden, d_out)).astype(np.float32)
    b2 = rng.normal(0, 1, d_out).astype(np.float32)
    if dead:   # a hidden unit whose input is exactly 0 everywhere
        w1[:, 0] = 0.0
        b1[0] = 0.0
    g = rng.normal(0, 1, (*lead, d_out)).astype(np.float32)

    def chain(a, v1, c1, v2, c2):
        return T.linear(T.relu(T.linear(a, v1, c1)), v2, c2)

    _assert_identical(_value_and_grads(T.ffn, [x, w1, b1, w2, b2], g, grad),
                      _value_and_grads(chain, [x, w1, b1, w2, b2], g, grad))


@settings(max_examples=40, deadline=None)
@given(small_dims, small_dims, st.integers(1, 6), st.integers(1, 8),
       st.floats(0.5, 10.0), st.booleans(), st.integers(0, 2**16))
@example(1, 1, 4, 5, 8.0, True, 0)    # one position, as in a cached step
@example(2, 3, 3, 4, 2.0, False, 1)   # a table without gradient
def test_scaled_embedding_equals_embedding_mul_add(b, t, vocab, d, scale, grad, seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(0, 1, (vocab, d)).astype(np.float32)
    ids = rng.integers(0, vocab, (b, t))   # repeats accumulate in the gradient
    pos = rng.normal(0, 1, (t, d)).astype(np.float32)
    g = rng.normal(0, 1, (b, t, d)).astype(np.float32)

    def chain(wt):
        return T.add(T.mul(T.embedding(wt, ids), Tensor(np.float32(scale))),
                     Tensor(pos))

    _assert_identical(
        _value_and_grads(lambda wt: T.scaled_embedding(wt, ids, scale, pos),
                         [table], g, [grad]),
        _value_and_grads(chain, [table], g, [grad]))


def test_scaled_embedding_rejects_out_of_range_ids():
    table = Tensor(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="out of range"):
        T.scaled_embedding(table, np.array([[0, 3]]), 1.0, np.zeros((2, 2), np.float32))


@settings(max_examples=60, deadline=None)
@given(small_dims, small_dims, small_dims, st.integers(1, 6),
       st.sampled_from(["none", "full", "query-broadcast"]),
       st.floats(0.05, 2.0), st.integers(0, 2**16))
@example(2, 2, 1, 5, "query-broadcast", 0.5, 1)   # a cached step's cross-attention
@example(1, 2, 1, 3, "none", 0.5, 2)              # a cached step's self-attention
def test_attention_softmax_equals_mul_add_softmax(b, h, tq, tk, bias_kind,
                                                  scale, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 3, (b, h, tq, tk)).astype(np.float32)
    g = rng.normal(0, 1, (b, h, tq, tk)).astype(np.float32)
    bias = None
    if bias_kind != "none":
        rows = tq if bias_kind == "full" else 1
        bias = np.where(rng.random((b, 1, rows, tk)) < 0.3,
                        np.float32(-1e9), np.float32(0.0))

    def chain(a):
        z = T.mul(a, Tensor(np.float32(scale)))
        if bias is not None:
            z = T.add(z, Tensor(bias))
        return T.softmax(z, axis=-1)

    _assert_identical(
        _value_and_grads(lambda a: T.attention_softmax(a, scale, bias), [logits], g),
        _value_and_grads(chain, [logits], g))


@pytest.mark.parametrize("b, t", [(1, 1), (2, 3), (3, 5)])   # (1, 1): a cached step
def test_fused_ops_output_their_forward_kernels(b, t):
    rng = np.random.default_rng(b * 10 + t)
    h, dh, d_hidden, vocab = 2, 3, 8, 7
    d = h * dh

    def arr(*shape):
        return rng.normal(0, 1, shape).astype(np.float32)

    x, res, heads, logits = arr(b, t, d), arr(b, t, d), arr(b, h, t, dh), arr(b, h, t, t)
    w, bias, gain, shift = arr(d, d), arr(d), arr(d), arr(d)
    w1, b1, w2, b2 = arr(d, d_hidden), arr(d_hidden), arr(d_hidden, d), arr(d)
    mask = np.where(rng.random((b, 1, 1, t)) < 0.3, np.float32(-1e9), np.float32(0.0))
    mask[..., 0] = 0.0
    table, pos, ids = arr(vocab, d), arr(t, d), rng.integers(0, vocab, (b, t))

    def op(fn, *arrays, **kw):
        return fn(*(Tensor(a, requires_grad=True) for a in arrays), **kw).numpy()

    pairs = [
        (op(T.linear, x, w, bias), T.linear_fwd(x, w, bias)),
        (op(T.linear_split_heads, x, w, bias, n_head=h),
         T.linear_split_heads_fwd(x, w, bias, h)),
        (op(T.merge_heads_linear, heads, w, bias),
         T.merge_heads_linear_fwd(heads, w, bias)[0]),
        (op(T.ffn, x, w1, b1, w2, b2), T.ffn_fwd(x, w1, b1, w2, b2)[0]),
        (op(T.attention_softmax, logits, scale=0.4, bias=mask),
         T.attention_softmax_fwd(logits, 0.4, mask).astype(np.float32)),
        (op(T.attention_softmax, logits, scale=0.4, bias=None),
         T.attention_softmax_fwd(logits, 0.4, None).astype(np.float32)),
        (op(T.layer_norm, x, gain, shift), T.layer_norm_fwd(x, gain, shift)[0]),
        (op(T.layer_norm, x, gain, shift, residual=Tensor(res)),
         T.layer_norm_fwd(x, gain, shift, res)[0]),
        (op(T.scaled_embedding, table, ids=ids, scale=2.5, pos=pos),
         T.scaled_embedding_fwd(table, ids, 2.5, pos)),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attention_softmax_rejects_non_finite(bad):
    logits = np.zeros((1, 1, 2, 3), dtype=np.float32)
    logits[0, 0, 1, 2] = bad
    with pytest.raises(T.NumericError):
        T.attention_softmax(Tensor(logits), 0.5, None)
    with pytest.raises(T.NumericError):
        T.attention_softmax(Tensor(logits), 0.5, np.zeros((1, 1, 2, 3), np.float32))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_dims, min_size=0, max_size=2), st.integers(1, 9),
       st.integers(0, 2**16))
@example([1, 1], 4, 0)
def test_layer_norm_with_residual_equals_add_then_layer_norm(lead, d, seed):
    rng = np.random.default_rng(seed)
    shape = (*lead, d)
    x = rng.normal(0, 1, shape).astype(np.float32)
    res = rng.normal(0, 2, shape).astype(np.float32)
    gain = rng.normal(1, 0.5, d).astype(np.float32)
    bias = rng.normal(0, 0.5, d).astype(np.float32)
    g = rng.normal(0, 1, shape).astype(np.float32)
    _assert_identical(
        _value_and_grads(lambda a, r, gn, bs: T.layer_norm(a, gn, bs, r),
                         [x, res, gain, bias], g),
        _value_and_grads(lambda a, r, gn, bs: T.layer_norm(T.add(r, a), gn, bs),
                         [x, res, gain, bias], g))


def test_layer_norm_rejects_residual_of_another_shape():
    d = np.ones(3, dtype=np.float32)
    with pytest.raises(ValueError, match="residual shape"):
        T.layer_norm(Tensor(np.zeros((2, 3))), Tensor(d), Tensor(d),
                     Tensor(np.zeros((1, 3))))


def test_cross_entropy_one_hot_is_zero():
    lp = np.full((2, 3), -30.0, dtype=np.float32)
    lp[0, 1] = 0.0
    lp[1, 2] = 0.0
    loss = T.cross_entropy(Tensor(lp), np.array([1, 2]), mask=np.ones(2, bool))
    assert abs(loss.item()) < 1e-7


def test_cross_entropy_uniform_is_log_vocab():
    v = 7
    lp = np.full((3, v), -np.log(v), dtype=np.float32)
    loss = T.cross_entropy(Tensor(lp), np.array([1, 3, 6]), mask=np.ones(3, bool))
    assert abs(loss.item() - np.log(v)) < 1e-6


def test_cross_entropy_hand_value():
    lp = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]], dtype=np.float32))
    loss = T.cross_entropy(Tensor(lp), np.array([0, 1]), mask=np.ones(2, bool))
    assert abs(loss.item() - 0.2899092476264711) < 1e-6


def test_cross_entropy_target_out_of_range():
    lp = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        T.cross_entropy(Tensor(lp), np.array([0, 3]), mask=np.array([False, True]))


def test_cross_entropy_ignores_pad_targets():
    rng = np.random.default_rng(0)
    lp = rng.normal(0, 1, (4, 5)).astype(np.float32)
    targets = np.array([1, 0, 2, 0])
    a = T.cross_entropy(Tensor(lp), targets, mask=targets != 0).item()
    b = T.cross_entropy(Tensor(lp), targets, mask=targets != 0).item()
    assert a == b
    # changing the padded targets to other pad entries does not matter
    c = T.cross_entropy(Tensor(lp), targets, mask=targets != 0)
    assert abs(c.item() - a) == 0.0


# ---------------------------------------------------------------------------
# graph behaviour
# ---------------------------------------------------------------------------

def test_backward_sum_is_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_identity_chain():
    x = Tensor(np.ones(4), requires_grad=True)
    y = T.reshape(T.transpose(T.reshape(x, (2, 2)), (1, 0)), (4,))
    w = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    T.backward(T.tsum(T.mul(y, w)))
    np.testing.assert_allclose(x.grad, [1.0, 3.0, 2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(T.mul(x, x))


def test_backward_twice_doubles():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    T.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_shared_tensor_grad_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    loss = T.tsum(T.add(T.mul(x, x), x))  # x^2 + x -> grad 2x + 1
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_stores_grad_only_on_leaves():
    # x -> linear -> relu -> linear -> log_softmax -> cross-entropy
    rng = np.random.default_rng(11)
    arrays = [rng.normal(0, 1, s).astype(np.float32)
              for s in [(3, 4), (4, 5), (5,), (5, 6), (6,)]]
    arrays[0][np.abs(arrays[0]) < 0.05] = 0.2
    targets = np.array([1, 0, 5])
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    x, w1, b1, w2, b2 = tensors
    h = T.relu(T.linear(x, w1, b1))
    loss = T.cross_entropy(T.log_softmax(T.linear(h, w2, b2)), targets,
                           mask=np.ones(3, bool))
    T.backward(loss)
    order = T._topo_order(loss)
    inner = [n for n in order if n._vjp is not None]
    assert len(inner) == 5 and loss in inner
    assert all(n.grad is None for n in inner)

    def ref(x, w1, b1, w2, b2):
        z = np.maximum(x @ w1 + b1, 0) @ w2 + b2
        return -ref_log_softmax(z)[np.arange(3), targets].mean()

    for i, t in enumerate(tensors):
        assert rel_err(t.grad, fd_grad(ref, arrays, i)) < 1e-4, i


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    with pytest.raises(ValueError):
        T.backward(T.tsum(y))


def test_reductions_deterministic():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, (50, 40)).astype(np.float32)
    a = T.softmax(Tensor(x)).numpy()
    b = T.softmax(Tensor(x)).numpy()
    assert np.array_equal(a, b)
    assert T.tsum(Tensor(x)).item() == T.tsum(Tensor(x)).item()


def _zeros(*shape):
    return Tensor(np.zeros(shape))


def _log_probs():
    return Tensor(np.log(np.full((2, 3, 5), 0.2)))


@pytest.mark.parametrize("call, message", [
    (lambda: T.matmul(_zeros(2, 3), _zeros(3)), "matmul rank mismatch: (2, 3) @ (3,)"),
    (lambda: T.matmul(_zeros(2, 2, 3), _zeros(3, 3, 4)),
     "matmul batch mismatch: (2, 2, 3) @ (3, 3, 4)"),
    (lambda: T.matmul(_zeros(2, 3), _zeros(4, 5)),
     "matmul inner-dim mismatch: (2, 3) @ (4, 5)"),
    (lambda: T.linear(_zeros(2, 3), _zeros(4, 5), _zeros(5)),
     "linear shape mismatch: (2, 3) @ (4, 5) + (5,)"),
    (lambda: T.linear_split_heads(_zeros(2, 3), _zeros(3, 4), _zeros(4), 2),
     "linear_split_heads shape mismatch: (2, 3) @ (3, 4) + (4,)"),
    (lambda: T.merge_heads_linear(_zeros(1, 2, 3, 2), _zeros(5, 4), _zeros(4)),
     "merge_heads_linear shape mismatch: (1, 2, 3, 2) @ (5, 4) + (4,)"),
    (lambda: T.ffn(_zeros(2, 3), _zeros(3, 4), _zeros(4), _zeros(5, 3), _zeros(3)),
     "ffn shape mismatch: (2, 3) @ (3, 4) + (4,) @ (5, 3) + (3,)"),
    (lambda: T.cross_entropy(_log_probs(), np.zeros((2, 2), dtype=np.int64),
                             np.ones((2, 2), dtype=bool)),
     "cross_entropy shape mismatch: targets (2, 2) vs log_probs (2, 3, 5)"),
    (lambda: T.cross_entropy(_log_probs(), np.array([[0, -1, 0], [0, 0, 0]]),
                             np.ones((2, 3), dtype=bool)),
     "negative target id"),
    (lambda: T.cross_entropy(_log_probs(), np.zeros((2, 3), dtype=np.int64),
                             np.ones((2, 2), dtype=bool)),
     "mask shape (2, 2) != targets (2, 3)"),
    (lambda: T.cross_entropy(_log_probs(), np.zeros((2, 3), dtype=np.int64),
                             np.zeros((2, 3), dtype=bool)),
     "cross_entropy: every position is padding")],
    ids=["matmul_rank", "matmul_batch", "matmul_inner", "linear", "linear_split_heads",
         "merge_heads_linear", "ffn", "ce_target_shape", "ce_negative_id",
         "ce_mask_shape", "ce_all_padding"])
def test_shape_and_target_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
