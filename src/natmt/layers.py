"""Shared transformer pieces: positional encodings, attention masks, multi-head
attention, feed-forward blocks, and the encoder stack used unchanged by both the
autoregressive teacher and the parallel decoder.

Every model input, source or target, goes through `embed_positions` (scaled
token embeddings plus positional encodings), and every attention bias, with
padding, causal or self-exclusion masking, comes from `attention_bias`.

Each module has one forward, written once for two kinds of input. On
Tensors it records the autograd graph; on plain arrays it runs the same
tensor kernels (`tensor.*_fwd`) and records nothing, for decoder passes
without gradients. Leaf modules (`Linear`, `LayerNorm`, `FFNBlock`, the
projections of `MultiHeadAttention`) dispatch on their input. An array
forward works on the real token rows [N, d] of a padded [B, t] block, which
`TokenRows` gathers; attention sees the padded grid, where padded keys get
zero weight, so every real row equals its value in the graph forward.
`TokenRows` alone decides when a block packs, and its `logits` is the
vocabulary exit of every no-grad decoder pass. A graph forward passes no
`TokenRows`.
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

def positional_table(max_len: int, d: int) -> np.ndarray:
    """[max_len, d] positional encodings: sin(j / 10000^(k/d)) for timestep j
    on even channels k, cos on odd channels (entries in [-1, 1])."""
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
    per-sentence key padding. A bias of key padding alone is built with one
    query row, tq = 1, which broadcasts over any queries. With `exclude_self`,
    no query attends to the key at its own position, except in a length-1
    row, which would otherwise have no permitted key at all. Raises if any
    query row ends up with no permitted key."""
    key_lengths = np.asarray(key_lengths)
    permitted = np.empty((key_lengths.shape[0], 1, tq, tk), dtype=bool)
    np.less(np.arange(tk), key_lengths[:, None, None, None], out=permitted)
    if structural is not None:
        if structural.shape != (tq, tk):
            raise ValueError(f"structural mask {structural.shape} != ({tq}, {tk})")
        permitted &= structural
    if exclude_self:
        permitted &= ~np.eye(tq, tk, dtype=bool)
        permitted[key_lengths == 1, 0, 0, 0] = True
    if not permitted.any(axis=-1).all():
        raise ValueError("attention row with zero permitted keys")
    return np.where(permitted, np.float32(0.0), MASK_BIAS)


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

    def __call__(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        if isinstance(x, Tensor):
            return T.linear(x, self.weight, self.bias)
        return T.linear_fwd(x, self.weight.data, self.bias.data)


class Embedding(Module):
    def __init__(self, vocab: int, d: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (vocab, d), d), requires_grad=True)


def embed_positions(embed: Embedding, ids: np.ndarray, pos: np.ndarray,
                    scale: float, start: int = 0,
                    rows: TokenRows | None = None) -> Tensor | np.ndarray:
    """Token embeddings times `scale` plus the positional encodings `pos`
    (one row per position up to max_len) of positions start, start+1, ...;
    the one embedding path of every encoder and decoder input, which raises
    past max_len. Without `rows` it records the op and returns a Tensor [B,
    t, d]; with `rows` it runs on arrays and returns the real rows [N, d]
    of the [B, t] block `ids`."""
    end = start + ids.shape[1]
    if end > len(pos):
        raise ValueError(f"length {end} exceeds max_len {len(pos)}")
    pos = pos[start:end]
    if rows is None:
        return T.scaled_embedding(embed.weight, ids, scale, pos)
    return rows.gather(T.scaled_embedding_fwd(embed.weight.data, ids, scale, pos))


class TokenRows:
    """The real positions of a padded [B, t] block of token rows, from each
    row's length; `gather` packs a [B, t, ...] array into its real rows [N,
    ...], and `split_heads` and `logits` (the vocabulary exit of a no-grad
    decoder pass) read [N, k] rows as a zero-filled [B, t, k] block.

    Packing changes the row count of every product, which must not change
    the rounding of any row. On OpenBLAS (measured on 0.3.31) it does in
    two cases, so a block that would meet one stays whole (its rows are
    then the block itself, reshaped, as without padding or lengths):
    - a one-row product is a gemv, which rounds unlike a row of a gemm, so
      a block with a single real row stays whole;
    - products under 1e6 multiply-adds take a small-matrix kernel that, at
      some widths (8, 24 or 40, say), rounds unlike the blocked kernel, so
      a block packs only for a model whose d_model and d_hidden are
      multiples of 16, and `logits` projects to the vocabulary over the
      whole block.
    """

    def __init__(self, lengths: np.ndarray | None, t: int, cfg: ModelConfig):
        self.t = t
        self.index = self.pad = None
        if lengths is not None:
            real = np.arange(t) < np.asarray(lengths)[:, None]
            n = np.count_nonzero(real)
            if n < real.size:
                self.pad = np.flatnonzero(~real)
                if n > 1 and cfg.d_model % 16 == 0 and cfg.d_hidden % 16 == 0:
                    self.index = np.flatnonzero(real)
                    self.size = real.size

    def gather(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0] * x.shape[1], -1)
        return flat if self.index is None else flat[self.index]

    def _block(self, rows: np.ndarray) -> np.ndarray:
        if self.index is None:
            return rows
        block = np.zeros((self.size, rows.shape[-1]), dtype=rows.dtype)
        block[self.index] = rows
        return block

    def split_heads(self, rows: np.ndarray, n_head: int) -> np.ndarray:
        """The rows [N, k] in the zero-filled block, as per-head [B, H, t,
        k/H] arrays (`tensor.split_heads`)."""
        return T.split_heads(self._block(rows), self.t, n_head)

    def logits(self, proj: Linear, rows: np.ndarray) -> Tensor:
        """The projection `proj` of the real rows [N, d], run over the whole
        [B, t] block with its padded slots set to zero, in a Tensor that
        records no graph."""
        block = proj(self._block(rows))
        if self.pad is not None:
            block[self.pad] = 0
        return Tensor(block.reshape(-1, self.t, block.shape[-1]))


class LayerNorm(Module):
    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d, dtype=DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=DTYPE), requires_grad=True)

    def __call__(self, x: Tensor | np.ndarray,
                 residual: Tensor | np.ndarray | None = None) -> Tensor | np.ndarray:
        """Normalized `x`, or normalized ``residual + x`` for a post-norm
        sublayer with output `x`; Tensors or arrays."""
        if isinstance(x, Tensor):
            return T.layer_norm(x, self.gain, self.bias, residual)
        return T.layer_norm_fwd(x, self.gain.data, self.bias.data, residual)[0]


def attention_core(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None,
                   scale: float) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over per-head tensors [B, H, T, d_head].

    Returns (weighted values, attention weights); forbidden positions carry a
    -1e9 additive bias so their weight underflows to exactly zero.
    """
    logits = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
    weights = T.attention_softmax(logits, scale, bias)
    return T.matmul(weights, v), weights


class KVCache:
    """Per-head keys and values [B, H, t, d_head] of one attention, kept
    between incremental decoding steps.

    A growing cache (self-attention) starts empty and gains each step's new
    positions; a fixed one holds keys and values projected once, from the
    encoder memory. A graph forward, one pass over whole sequences, keeps
    Tensors in a fresh cache of each kind.
    """

    def __init__(self, k: np.ndarray | None = None, v: np.ndarray | None = None):
        self.k, self.v = k, v

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.k is not None:
            k = np.concatenate([self.k, k], axis=2)
            v = np.concatenate([self.v, v], axis=2)
        self.k, self.v = k, v
        return k, v

    def select(self, rows: np.ndarray) -> None:
        """Keep the given batch rows, in the given order (repeats allowed)."""
        if self.k is not None:
            self.k, self.v = self.k[rows], self.v[rows]


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
        self.scale = cfg.attn_scale
        self.last_weights: np.ndarray | None = None

    def heads(self, proj: Linear, x, rows: TokenRows | None):
        """The per-head projection [B, H, t, d_head] by `proj`, one of wq, wk
        and wv, of `x`: a Tensor [B, t, d] records the op; the real rows [N,
        d] of the block `rows` run its kernels (zero at the padded
        positions)."""
        if isinstance(x, Tensor):
            return T.linear_split_heads(x, proj.weight, proj.bias, self.n_head)
        return rows.split_heads(T.linear_fwd(x, proj.weight.data, proj.bias.data),
                                self.n_head)

    def attend(self, x, k, v, bias: np.ndarray | None,
               rows: TokenRows | None = None):
        """Attend from the queries `x` to the per-head keys `k` and values
        `v` [B, H, tk, d_head]: Tensors, with `x` [B, tq, d], record the
        graph; arrays, with `x` the real rows [N, d] of the block `rows`,
        return the real rows of the output."""
        q = self.heads(self.wq, x, rows)
        if isinstance(q, Tensor):
            ctx, weights = attention_core(q, k, v, bias, self.scale)
            self.last_weights = weights.numpy()
            return T.merge_heads_linear(ctx, self.wo.weight, self.wo.bias)
        logits = np.matmul(q, k.transpose(0, 1, 3, 2))
        weights = T.attention_softmax_fwd(logits, self.scale, bias).astype(DTYPE)
        self.last_weights = weights
        ctx = np.matmul(weights, v).transpose(0, 2, 1, 3)
        return self.wo(rows.gather(ctx))

    def __call__(self, q_in, k_in, v_in, bias: np.ndarray | None,
                 rows: TokenRows | None = None):
        """Attend from `q_in` to `k_in`/`v_in`: Tensors [B, t, d], or the
        real rows [N, d] of the block `rows`."""
        return self.attend(q_in, self.heads(self.wk, k_in, rows),
                           self.heads(self.wv, v_in, rows), bias, rows)


class FFNBlock(Module):
    """Position-wise two-layer MLP with ReLU, inner width d_hidden."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.inner = Linear(cfg.d_model, cfg.d_hidden, rng)
        self.outer = Linear(cfg.d_hidden, cfg.d_model, rng)

    def __call__(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        if isinstance(x, Tensor):
            return T.ffn(x, self.inner.weight, self.inner.bias,
                         self.outer.weight, self.outer.bias)
        return T.ffn_fwd(x, self.inner.weight.data, self.inner.bias.data,
                         self.outer.weight.data, self.outer.bias.data)[0]


class EncoderLayer(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(cfg, rng)
        self.norm_attn = LayerNorm(cfg.d_model)
        self.ffn = FFNBlock(cfg, rng)
        self.norm_ffn = LayerNorm(cfg.d_model)

    def __call__(self, x: Tensor, bias: np.ndarray) -> Tensor:
        x = self.norm_attn(self.self_attn(x, x, x, bias), x)
        return self.norm_ffn(self.ffn(x), x)


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
        x = self.norm_in(embed_positions(self.embed, ids, self.pos, self.embed_scale))
        bias = attention_bias(None, lengths, 1, ids.shape[1])
        for layer in self.layers:
            x = layer(x, bias)
        return x
