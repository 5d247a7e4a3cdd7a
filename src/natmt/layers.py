"""Shared transformer pieces: positional encodings, attention masks, multi-head
attention, feed-forward blocks, and the encoder stack used unchanged by both the
autoregressive teacher and the parallel decoder.

Every model input, source or target, goes through `embed_positions` (scaled
token embeddings plus positional encodings), and every attention bias, with
padding, causal or self-exclusion masking, comes from `attention_bias`.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .tensor import DTYPE, Tensor

MASK_BIAS = np.float32(-1e9)  # large negative finite stand-in for -inf logits


# ---------------------------------------------------------------------------
# positional encodings
# ---------------------------------------------------------------------------

def positional_encoding(j: int, k: int, d: int) -> float:
    """Sinusoid for timestep j, channel k: sin(j/10000^(k/d)) on even channels,
    cos on odd channels."""
    if not 0 <= k < d:
        raise ValueError(f"channel {k} outside [0, {d})")
    angle = j / (10000.0 ** (k / d))
    return math.sin(angle) if k % 2 == 0 else math.cos(angle)


def positional_table(max_len: int, d: int) -> np.ndarray:
    """Precomputed [max_len, d] table of positional encodings (entries in [-1, 1])."""
    j = np.arange(max_len, dtype=np.float64)[:, None]
    k = np.arange(d, dtype=np.float64)[None, :]
    angle = j / np.power(10000.0, k / d)
    table = np.where(k % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(DTYPE)


# ---------------------------------------------------------------------------
# attention masks
# ---------------------------------------------------------------------------

def causal_mask(t: int) -> np.ndarray:
    """Boolean [t, t]: query may attend to keys at its own position or earlier."""
    return np.tril(np.ones((t, t), dtype=bool))


def attention_bias(structural: np.ndarray | None, key_lengths: np.ndarray,
                   tq: int, tk: int, exclude_self: bool = False) -> np.ndarray:
    """Additive attention bias [B, 1, tq, tk] combining a structural mask with
    per-sentence key padding. With `exclude_self`, no query attends to the
    key at its own position, except in a length-1 row, which would otherwise
    have no permitted key at all. Raises if any query row ends up with no
    permitted key.
    """
    key_lengths = np.asarray(key_lengths)
    b = key_lengths.shape[0]
    permitted = np.broadcast_to(
        np.arange(tk)[None, :] < key_lengths[:, None], (b, tk))[:, None, :]
    permitted = np.broadcast_to(permitted, (b, tq, tk))
    if structural is not None:
        if structural.shape != (tq, tk):
            raise ValueError(f"structural mask {structural.shape} != ({tq}, {tk})")
        permitted = permitted & structural[None, :, :]
    if exclude_self:
        permitted = permitted & ~np.eye(tq, tk, dtype=bool)[None]
        permitted[key_lengths == 1, 0, 0] = True
    if not permitted.any(axis=-1).all():
        raise ValueError("attention row with zero permitted keys")
    bias = np.where(permitted, np.float32(0.0), MASK_BIAS)
    return bias[:, None, :, :].astype(DTYPE)


# ---------------------------------------------------------------------------
# parameterized modules
# ---------------------------------------------------------------------------

class Module:
    """Minimal parameter container; submodules discovered by attribute walk."""

    def named_parameters(self, prefix: str = ""):
        for name, val in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(val, Tensor) and val.requires_grad:
                yield full, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{full}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (d_in, d_out), d_in), requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, (d_out,), d_in), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            return T.add(T.matmul(x, self.weight), self.bias)
        lead = x.shape[:-1]
        flat = T.reshape(x, (-1, x.shape[-1]))
        out = T.add(T.matmul(flat, self.weight), self.bias)
        return T.reshape(out, (*lead, self.weight.shape[1]))


class Embedding(Module):
    def __init__(self, vocab: int, d: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (vocab, d), d), requires_grad=True)

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.weight, ids)


def embed_positions(embed: Embedding, ids: np.ndarray, pos: np.ndarray,
                    scale: float, start: int = 0) -> Tensor:
    """Token embeddings times `scale` plus the positional encodings `pos` of
    positions start, start+1, ...; the one embedding path of every encoder
    and decoder input. `pos` has one row per position up to max_len."""
    b, t = ids.shape
    if start + t > len(pos):
        raise ValueError(f"length {start + t} exceeds max_len {len(pos)}")
    emb = T.mul(embed(ids), Tensor(np.float32(scale)))
    return T.add(emb, Tensor(np.broadcast_to(pos[start:start + t],
                                             (b, t, emb.shape[-1])).copy()))


class LayerNorm(Module):
    def __init__(self, d: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(d, dtype=DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=DTYPE), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.eps)


def attention_core(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None,
                   scale: float) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over per-head tensors [B, H, T, d_head].

    Returns (weighted values, attention weights); forbidden positions carry a
    -1e9 additive bias so their weight underflows to exactly zero.
    """
    logits = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), Tensor(np.float32(scale)))
    if bias is not None:
        logits = T.add(logits, Tensor(bias))
    weights = T.softmax(logits, axis=-1)
    return T.matmul(weights, v), weights


class KVCache:
    """Per-head keys and values [B, H, t, d_head] of one attention, kept
    between incremental decoding steps (no gradients flow through them).

    A growing cache (self-attention) gains each step's new positions; a fixed
    one holds keys and values projected once, from the encoder memory.
    """

    def __init__(self, k: Tensor | None = None, v: Tensor | None = None):
        self.grow = k is None
        self.k, self.v = k, v

    def append(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        if self.k is not None:
            k = Tensor(np.concatenate([self.k.data, k.data], axis=2))
            v = Tensor(np.concatenate([self.v.data, v.data], axis=2))
        self.k, self.v = k, v
        return k, v

    def select(self, rows: np.ndarray) -> None:
        """Keep the given batch rows, in the given order (repeats allowed)."""
        if self.k is not None:
            self.k, self.v = Tensor(self.k.data[rows]), Tensor(self.v.data[rows])


class MultiHeadAttention(Module):
    """Multi-head attention with separate query/key/value inputs, each
    projected, and logits scaled by 1/sqrt(d_head) per head."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.d_model
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)
        self.n_head = cfg.n_head
        self.d_head = cfg.d_head
        self.scale = cfg.attn_scale
        self.last_weights: np.ndarray | None = None

    def _split(self, x: Tensor) -> Tensor:
        b, t, d = x.shape
        return T.transpose(T.reshape(x, (b, t, self.n_head, self.d_head)), (0, 2, 1, 3))

    def _merge(self, x: Tensor) -> Tensor:
        b, h, t, dh = x.shape
        return T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, t, h * dh))

    def project_kv(self, k_in: Tensor, v_in: Tensor) -> tuple[Tensor, Tensor]:
        """Per-head keys and values [B, H, T, d_head] of the given inputs."""
        return self._split(self.wk(k_in)), self._split(self.wv(v_in))

    def __call__(self, q_in: Tensor, k_in: Tensor | None, v_in: Tensor | None,
                 bias: np.ndarray | None, cache: "KVCache | None" = None) -> Tensor:
        """Attend from `q_in` to `k_in`/`v_in`. A growing `cache` appends the
        new keys and values to those of earlier steps; a fixed one supplies
        them instead, and `k_in`/`v_in` are not read."""
        q = self._split(self.wq(q_in))
        if cache is not None and not cache.grow:
            k, v = cache.k, cache.v
        else:
            k, v = self.project_kv(k_in, v_in)
            if cache is not None:
                k, v = cache.append(k, v)
        ctx, weights = attention_core(q, k, v, bias, self.scale)
        self.last_weights = weights.numpy()
        return self.wo(self._merge(ctx))


class FFNBlock(Module):
    """Position-wise two-layer MLP with ReLU, inner width d_hidden."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.inner = Linear(cfg.d_model, cfg.d_hidden, rng)
        self.outer = Linear(cfg.d_hidden, cfg.d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.outer(T.relu(self.inner(x)))


class EncoderLayer(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(cfg, rng)
        self.norm_attn = LayerNorm(cfg.d_model)
        self.ffn = FFNBlock(cfg, rng)
        self.norm_ffn = LayerNorm(cfg.d_model)

    def __call__(self, x: Tensor, bias: np.ndarray) -> Tensor:
        x = self.norm_attn(T.add(x, self.self_attn(x, x, x, bias)))
        x = self.norm_ffn(T.add(x, self.ffn(x)))
        return x


class Encoder(Module):
    """Token embedding + positional encoding, input norm, then n_layer blocks of
    (self-attention, FFN), each sublayer wrapped in residual + layer norm."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.embed = Embedding(cfg.src_vocab, cfg.d_model, rng)
        self.norm_in = LayerNorm(cfg.d_model)
        self.layers = [EncoderLayer(cfg, rng) for _ in range(cfg.n_layer)]
        self.embed_scale = math.sqrt(cfg.d_model)
        self.pos = positional_table(cfg.max_len, cfg.d_model)

    def __call__(self, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        t = ids.shape[1]
        x = self.norm_in(embed_positions(self.embed, ids, self.pos, self.embed_scale))
        bias = attention_bias(None, lengths, t, t)
        for layer in self.layers:
            x = layer(x, bias)
        return x
