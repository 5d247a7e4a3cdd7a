"""Transformer building-block tests: positional encodings, masks, attention,
feed-forward, and the encoder stack. Hand oracles are evaluated in float64
numpy inside the tests.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natmt import layers as L
from natmt import tensor as T
from natmt.config import ModelConfig
from natmt.tensor import Tensor


def small_cfg(**kw):
    base = dict(d_model=8, d_hidden=16, n_layer=2, n_head=2,
                src_vocab=11, tgt_vocab=13, max_len=16)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# positional encodings
# ---------------------------------------------------------------------------

def test_positional_encoding_origin():
    assert L.positional_encoding(0, 0, 4) == 0.0      # sin(0)
    assert L.positional_encoding(0, 1, 4) == 1.0      # cos(0)


def test_positional_encoding_formula():
    # even channel 2 of d=4: sin(3 / 10000^(2/4))
    want = math.sin(3 / 10000 ** 0.5)
    assert abs(L.positional_encoding(3, 2, 4) - want) < 1e-9
    # odd channel 3 of d=4: cos(5 / 10000^(3/4))
    want = math.cos(5 / 10000 ** 0.75)
    assert abs(L.positional_encoding(5, 3, 4) - want) < 1e-9


def test_positional_encoding_channel_range():
    with pytest.raises(ValueError):
        L.positional_encoding(0, 4, 4)


def test_positional_table_matches_scalar_and_bounded():
    table = L.positional_table(12, 6)
    assert table.shape == (12, 6)
    assert np.abs(table).max() <= 1.0
    for j in (0, 3, 11):
        for k in range(6):
            assert abs(table[j, k] - L.positional_encoding(j, k, 6)) < 1e-6


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

@given(st.integers(1, 12))
def test_causal_mask_definition(t):
    m = L.causal_mask(t)
    for q in range(t):
        for k in range(t):
            assert m[q, k] == (k <= q)
    assert m.any(axis=1).all()


@given(st.integers(1, 12))
def test_self_exclusion_mask_definition(t):
    m = L.attention_bias(None, np.array([t]), t, t, exclude_self=True)[0, 0] == 0
    if t == 1:
        assert m[0, 0]  # length-1 fallback keeps self-attention
    else:
        for q in range(t):
            for k in range(t):
                assert m[q, k] == (k != q)
    assert m.any(axis=1).all()


def test_attention_bias_blocks_pads_and_checks_rows():
    bias = L.attention_bias(None, np.array([2, 3]), tq=3, tk=3)
    assert bias.shape == (2, 1, 3, 3)
    assert bias[0, 0, 0, 2] == L.MASK_BIAS
    assert bias[1, 0, 0, 2] == 0.0
    with pytest.raises(ValueError):
        L.attention_bias(np.zeros((2, 2), dtype=bool), np.array([2]), 2, 2)


# ---------------------------------------------------------------------------
# attention core
# ---------------------------------------------------------------------------

def test_single_permitted_key_returns_value_exactly():
    rng = np.random.default_rng(0)
    q = Tensor(rng.normal(0, 1, (1, 1, 3, 4)).astype(np.float32))
    k = Tensor(rng.normal(0, 1, (1, 1, 3, 4)).astype(np.float32))
    v = Tensor(rng.normal(0, 1, (1, 1, 3, 4)).astype(np.float32))
    structural = np.zeros((3, 3), dtype=bool)
    structural[:, 1] = True  # only key 1 permitted for every query
    bias = L.attention_bias(structural, np.array([3]), 3, 3)
    out, weights = L.attention_core(q, k, v, bias, scale=0.5)
    w = weights.numpy()[0, 0]
    assert np.array_equal(w[:, 1], np.ones(3, dtype=np.float32))
    assert np.array_equal(w[:, 0], np.zeros(3))
    np.testing.assert_array_equal(out.numpy()[0, 0], np.tile(v.numpy()[0, 0, 1], (3, 1)))


def test_uniform_logits_two_keys_average_values():
    q = Tensor(np.zeros((1, 1, 1, 4), dtype=np.float32))
    k = Tensor(np.zeros((1, 1, 2, 4), dtype=np.float32))
    v = Tensor(np.arange(8, dtype=np.float32).reshape(1, 1, 2, 4))
    out, _ = L.attention_core(q, k, v, None, scale=0.5)
    np.testing.assert_allclose(out.numpy()[0, 0, 0],
                               v.numpy()[0, 0].mean(axis=0), atol=1e-7)


def test_attention_hand_oracle_two_positions():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 1.0], [0.0, 2.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    scale = 1 / math.sqrt(2)
    logits = q @ k.T * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    want = w @ v
    out, _ = L.attention_core(
        Tensor(q[None, None]), Tensor(k[None, None]), Tensor(v[None, None]),
        None, scale)
    np.testing.assert_allclose(out.numpy()[0, 0], want, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_attention_rows_stochastic_over_permitted(seed):
    rng = np.random.default_rng(seed)
    tq, tk = 4, 5
    q = Tensor(rng.normal(0, 2, (2, 2, tq, 3)).astype(np.float32))
    k = Tensor(rng.normal(0, 2, (2, 2, tk, 3)).astype(np.float32))
    v = Tensor(rng.normal(0, 2, (2, 2, tk, 3)).astype(np.float32))
    lengths = np.array([3, 5])
    bias = L.attention_bias(None, lengths, tq, tk)
    _, weights = L.attention_core(q, k, v, bias, scale=0.6)
    w = weights.numpy().astype(np.float64)
    assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-6
    assert np.all(w[0, :, :, 3:] == 0.0)  # padded keys get exactly zero weight


def test_self_mask_blocks_own_key_value_path():
    # Holding the queries fixed, perturbing one position's key/value input must
    # not change that position's attention output under the exclusion mask.
    cfg = small_cfg(n_layer=1)
    rng = np.random.default_rng(3)
    mha = L.MultiHeadAttention(cfg, rng)
    x = rng.normal(0, 1, (1, 4, cfg.d_model)).astype(np.float32)
    bias = L.attention_bias(None, np.array([4]), 4, 4, exclude_self=True)
    base = mha(Tensor(x), Tensor(x), Tensor(x), bias).numpy()
    x_pert = x.copy()
    x_pert[0, 2] += 5.0
    pert = mha(Tensor(x), Tensor(x_pert), Tensor(x_pert), bias).numpy()
    np.testing.assert_array_equal(base[0, 2], pert[0, 2])
    assert not np.allclose(base[0, 1], pert[0, 1])  # other rows do see it


# ---------------------------------------------------------------------------
# multi-head attention module vs float64 reference
# ---------------------------------------------------------------------------

def ref_mha(xq, xkv, p, n_head, scale):
    def lin(x, w, b):
        return x @ w + b
    d = xq.shape[-1]
    dh = d // n_head
    q = lin(xq, p["wq.weight"], p["wq.bias"])
    k = lin(xkv, p["wk.weight"], p["wk.bias"])
    v = lin(xkv, p["wv.weight"], p["wv.bias"])

    def split(x):
        b, t, _ = x.shape
        return x.reshape(b, t, n_head, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    logits = qh @ kh.transpose(0, 1, 3, 2) * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    ctx = w @ vh
    b, h, t, _ = ctx.shape
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
    return lin(merged, p["wo.weight"], p["wo.bias"])


def test_mha_gradients_match_float64_reference():
    cfg = small_cfg(n_layer=1)
    rng = np.random.default_rng(11)
    mha = L.MultiHeadAttention(cfg, rng)
    x = rng.normal(0, 1, (2, 3, cfg.d_model)).astype(np.float32)
    w_out = rng.normal(0, 1, (2, 3, cfg.d_model))

    xt = Tensor(x, requires_grad=True)
    loss = T.tsum(T.mul(mha(xt, xt, xt, None), Tensor(w_out.astype(np.float32))))
    T.backward(loss)

    params = {name: p.data.astype(np.float64).copy()
              for name, p in mha.named_parameters()}

    def ref_loss(xval, pvals):
        return (ref_mha(xval, xval, pvals, cfg.n_head, cfg.attn_scale) * w_out).sum()

    # finite differences on the input
    h = 1e-4
    x64 = x.astype(np.float64)
    fd = np.zeros_like(x64)
    flat, fdflat = x64.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = ref_loss(x64, params)
        flat[i] = keep - h
        down = ref_loss(x64, params)
        flat[i] = keep
        fdflat[i] = (up - down) / (2 * h)
    err = np.abs(xt.grad - fd).max() / (np.abs(fd).max() + 1e-12)
    assert err < 1e-4

    # finite differences on one projection matrix
    name = "wq.weight"
    pw = params[name]
    fd = np.zeros_like(pw)
    flat, fdflat = pw.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = ref_loss(x64, params)
        flat[i] = keep - h
        down = ref_loss(x64, params)
        flat[i] = keep
        fdflat[i] = (up - down) / (2 * h)
    got = dict(mha.named_parameters())[name].grad
    err = np.abs(got - fd).max() / (np.abs(fd).max() + 1e-12)
    assert err < 1e-4


def test_literal_model_dim_scaling_flag():
    assert small_cfg().attn_scale == pytest.approx(1 / math.sqrt(4))


# ---------------------------------------------------------------------------
# linear layer
# ---------------------------------------------------------------------------

def test_linear_3d_bitwise_equals_explicit_composition():
    """A 3-D input goes through reshape, 2-D matmul, 2-D bias add, reshape:
    the output and all three gradients equal that composition bit for bit.
    The output is transposed downstream, as the attention heads' are, so its
    gradient arrives non-contiguous; a 3-D bias add would then sum the bias
    gradient in another order."""
    rng = np.random.default_rng(4)
    lin = L.Linear(6, 5, rng)
    x_np = rng.normal(0, 1, (3, 4, 6)).astype(np.float32)
    w_out = Tensor(rng.normal(0, 1, (4, 3, 5)).astype(np.float32))

    def grads(forward):
        lin.zero_grad()
        x = Tensor(x_np, requires_grad=True)
        out = forward(x)
        T.backward(T.tsum(T.mul(T.transpose(out, (1, 0, 2)), w_out)))
        return out.numpy(), x.grad, lin.weight.grad, lin.bias.grad

    got = grads(lin)
    want = grads(lambda x: T.reshape(
        T.add(T.matmul(T.reshape(x, (12, 6)), lin.weight), lin.bias), (3, 4, 5)))
    assert got[0].shape == (3, 4, 5)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# feed-forward block
# ---------------------------------------------------------------------------

def test_ffn_zero_weights_zero_output():
    cfg = small_cfg()
    ffn = L.FFNBlock(cfg, np.random.default_rng(0))
    for p in ffn.parameters():
        p.data[...] = 0.0
    out = ffn(Tensor(np.ones((1, 2, cfg.d_model), dtype=np.float32)))
    np.testing.assert_array_equal(out.numpy(), 0.0)


def test_ffn_position_independent():
    cfg = small_cfg()
    ffn = L.FFNBlock(cfg, np.random.default_rng(1))
    row = np.random.default_rng(2).normal(0, 1, cfg.d_model).astype(np.float32)
    x = np.stack([row, row])[None]
    out = ffn(Tensor(x)).numpy()
    np.testing.assert_array_equal(out[0, 0], out[0, 1])


def test_ffn_hand_example():
    cfg = ModelConfig(d_model=1, d_hidden=1, n_layer=1, n_head=1,
                      src_vocab=4, tgt_vocab=4, max_len=4)
    ffn = L.FFNBlock(cfg, np.random.default_rng(0))
    ffn.inner.weight.data[...] = 3.0
    ffn.inner.bias.data[...] = -1.0
    ffn.outer.weight.data[...] = 0.5
    ffn.outer.bias.data[...] = 1.0
    out = ffn(Tensor(np.array([[[2.0]]], dtype=np.float32))).numpy()
    assert out[0, 0, 0] == pytest.approx(0.5 * max(3 * 2 - 1, 0) + 1)  # 3.5
    out = ffn(Tensor(np.array([[[-1.0]]], dtype=np.float32))).numpy()
    assert out[0, 0, 0] == pytest.approx(1.0)  # ReLU clamps the inner unit


# ---------------------------------------------------------------------------
# encoder stack
# ---------------------------------------------------------------------------

def test_encoder_output_shape():
    cfg = small_cfg()
    enc = L.Encoder(cfg, np.random.default_rng(0))
    ids = np.array([[4, 5, 6, 0], [7, 8, 9, 10]])
    out = enc(ids, np.array([3, 4]))
    assert out.shape == (2, 4, cfg.d_model)


def test_encoder_batch_permutation_equivariant():
    cfg = small_cfg()
    enc = L.Encoder(cfg, np.random.default_rng(0))
    ids = np.array([[4, 5, 6, 0], [7, 8, 9, 10]])
    lens = np.array([3, 4])
    out = enc(ids, lens).numpy()
    swapped = enc(ids[::-1].copy(), lens[::-1].copy()).numpy()
    np.testing.assert_array_equal(out[0][:3], swapped[1][:3])
    np.testing.assert_array_equal(out[1], swapped[0])


def test_encoder_zero_layers_is_normalized_embedding():
    cfg = small_cfg(n_layer=0)
    enc = L.Encoder(cfg, np.random.default_rng(0))
    ids = np.array([[4, 5, 6]])
    out = enc(ids, np.array([3]))
    want = enc.norm_in(L.embed_positions(enc.embed, ids, enc.pos, enc.embed_scale))
    np.testing.assert_array_equal(out.numpy(), want.numpy())


def test_encoder_rejects_over_length():
    cfg = small_cfg(max_len=4)
    enc = L.Encoder(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        enc(np.zeros((1, 5), dtype=int), np.array([5]))


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        ModelConfig(d_model=7, n_head=2, src_vocab=4, tgt_vocab=4)


def _reference_self_exclusion_bias(dec_len, t):
    """The parallel decoder's former self-exclusion bias builder, verbatim."""
    b = dec_len.shape[0]
    key = np.arange(t)
    permitted = np.broadcast_to(key[None, None, :] < dec_len[:, None, None],
                                (b, t, t)).copy()
    permitted &= ~np.eye(t, dtype=bool)[None]
    permitted[dec_len == 1, 0, 0] = True
    bias = np.where(permitted, np.float32(0.0), L.MASK_BIAS)
    return bias[:, None, :, :].astype(np.float32)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=5), st.integers(0, 2))
@example([1, 4], 0)       # a length-1 row in a wider batch
@example([1], 0)
@example([1, 1, 3], 2)
def test_exclude_self_bias_matches_reference(lengths, extra_width):
    dec_len = np.array(lengths)
    t = max(lengths) + extra_width
    got = L.attention_bias(None, dec_len, t, t, exclude_self=True)
    want = _reference_self_exclusion_bias(dec_len, t)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
