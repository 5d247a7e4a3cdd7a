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
    arrays = [rng.normal(0, 1, s).astype(np.float32) for s in arg_shapes]
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
        lambda lp: T.cross_entropy(lp, targets, pad_id=0),
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


def test_cross_entropy_one_hot_is_zero():
    lp = np.full((2, 3), -30.0, dtype=np.float32)
    lp[0, 1] = 0.0
    lp[1, 2] = 0.0
    loss = T.cross_entropy(Tensor(lp), np.array([1, 2]), pad_id=0)
    assert abs(loss.item()) < 1e-7


def test_cross_entropy_uniform_is_log_vocab():
    v = 7
    lp = np.full((3, v), -np.log(v), dtype=np.float32)
    loss = T.cross_entropy(Tensor(lp), np.array([1, 3, 6]), pad_id=0)
    assert abs(loss.item() - np.log(v)) < 1e-6


def test_cross_entropy_hand_value():
    lp = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]], dtype=np.float32))
    loss = T.cross_entropy(Tensor(lp), np.array([0, 1]), pad_id=-1)
    assert abs(loss.item() - 0.2899092476264711) < 1e-6


def test_cross_entropy_target_out_of_range():
    lp = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        T.cross_entropy(Tensor(lp), np.array([0, 3]), pad_id=0)


def test_cross_entropy_ignores_pad_targets():
    rng = np.random.default_rng(0)
    lp = rng.normal(0, 1, (4, 5)).astype(np.float32)
    a = T.cross_entropy(Tensor(lp), np.array([1, 0, 2, 0]), pad_id=0).item()
    b = T.cross_entropy(Tensor(lp), np.array([1, 0, 2, 0]), pad_id=0).item()
    assert a == b
    # changing the padded targets to other pad entries does not matter
    c = T.cross_entropy(Tensor(lp), np.array([1, 0, 2, 0]), pad_id=0)
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
    loss = T.cross_entropy(T.log_softmax(T.linear(h, w2, b2)), targets, pad_id=-1)
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
