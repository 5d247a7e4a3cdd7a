"""Warmup schedule and Adam update tests against hand-computed values."""

import numpy as np
import pytest

from natmt.optim import AdamWarmup, warmup_rate
from natmt.tensor import Tensor


def test_rate_warmup_monotone_up():
    w = 746
    rates = [warmup_rate(t, 1.0, w) for t in range(1, w + 1)]
    assert rates[0] < rates[-1]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_rate_decays_after_warmup():
    w = 746
    rates = [warmup_rate(t, 1.0, w) for t in range(w, w + 500)]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_rate_peak_at_warmup():
    w = 100
    assert warmup_rate(w, 2.0, w) == pytest.approx(2.0 * w ** -0.5)


def test_adam_single_step_hand_value():
    # p0=0.5, g=1, defaults beta1=0.9, beta2=0.98, eps=1e-9, warmup=4000:
    # t=1: lr = 4000^-1.5 = 3.952847e-06, mhat = 1, vhat = 1,
    # p1 = 0.5 - lr/(1+1e-9) = 0.4999960471529287
    p = Tensor(np.array([0.5]), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float32)
    opt = AdamWarmup([("p", p)], scale=1.0, warmup=4000)
    lr = opt.step()
    assert lr == pytest.approx(3.952847075210474e-06)
    assert p.data[0] == pytest.approx(0.4999960471529287, abs=1e-7)
    assert opt.m["p"][0] == pytest.approx(0.1, abs=1e-7)
    assert opt.v["p"][0] == pytest.approx(0.02, abs=1e-8)


def test_adam_two_steps_match_reference_loop():
    rng = np.random.default_rng(0)
    p0 = rng.normal(0, 1, 5).astype(np.float32)
    grads = [rng.normal(0, 1, 5).astype(np.float32) for _ in range(2)]

    p = Tensor(p0.copy(), requires_grad=True)
    opt = AdamWarmup([("p", p)], scale=0.5, warmup=10)
    for g in grads:
        p.grad = g.copy()
        opt.step()

    # independent reference in float64
    ref = p0.astype(np.float64).copy()
    m = np.zeros(5)
    v = np.zeros(5)
    for t, g in enumerate(grads, start=1):
        lr = 0.5 * min(t ** -0.5, t * 10 ** -1.5)
        m = 0.9 * m + 0.1 * g
        v = 0.98 * v + 0.02 * g * g
        ref -= lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.98 ** t)) + 1e-9)
    np.testing.assert_allclose(p.data, ref, atol=1e-6)


def test_adam_shape_mismatch_errors():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.zeros(4, dtype=np.float32)
    opt = AdamWarmup([("p", p)], scale=1.0)
    with pytest.raises(ValueError):
        opt.step()


def reference_step(params, m, v, t, scale, warmup, b1=0.9, b2=0.98, eps=1e-9):
    """The per-parameter update loop the flat optimizer replaced."""
    lr = warmup_rate(t, scale, warmup)
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params:
        if p.grad is None:
            continue
        g = p.grad
        m[name] *= b1
        m[name] += (1 - b1) * g
        v[name] *= b2
        v[name] += (1 - b2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(np.float32)


def test_flat_adam_matches_per_parameter_loop_bitwise():
    shapes = [(3, 4), (5,), (), (2, 3, 2), (1, 7), (6,)]
    rng = np.random.default_rng(5)
    init = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
    flat = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
    ref = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
    m = {n: np.zeros_like(p.data) for n, p in ref}
    v = {n: np.zeros_like(p.data) for n, p in ref}
    opt = AdamWarmup(flat, scale=0.7, warmup=3)
    # step 3 leaves a middle parameter without a gradient, which splits the
    # runs; step 4 has no gradient at all
    absent = {3: {2}, 4: set(range(len(shapes)))}
    for t in range(1, 6):
        for i, ((_, p), (_, q)) in enumerate(zip(flat, ref)):
            g = None if i in absent.get(t, ()) else rng.normal(
                0, 1, shapes[i]).astype(np.float32)
            p.grad = q.grad = g
        opt.step()
        reference_step(ref, m, v, t, 0.7, 3)
        grads = [q.grad for _, q in ref if q.grad is not None]
        want = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads))
        assert opt.grad_norm == pytest.approx(want, rel=1e-5, abs=0.0)
        for (n, p), (_, q) in zip(flat, ref):
            assert np.array_equal(p.data, q.data), (t, n)
            assert np.array_equal(opt.m[n], m[n]) and np.array_equal(opt.v[n], v[n])
    assert opt.t == 5


def test_adam_shape_mismatch_names_parameter_and_changes_nothing():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    a.grad = np.ones(2, dtype=np.float32)
    b.grad = np.ones(4, dtype=np.float32)
    opt = AdamWarmup([("a", a), ("b", b)], scale=1.0)
    with pytest.raises(ValueError, match="for b"):
        opt.step()
    assert opt.t == 0 and np.array_equal(a.data, np.ones(2))
    assert not opt.m["a"].any()


def test_schedule_before_step_one_is_refused():
    with pytest.raises(ValueError) as exc:
        warmup_rate(0, 1.0, 4000)
    assert str(exc.value) == "schedule is defined for t >= 1"
