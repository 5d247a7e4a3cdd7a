"""Autoregressive transformer used three ways: distillation teacher, parallel
scorer of candidate translations, and the latency baseline.

The decoder counts one "pass" per sequence per forward call, so a greedy
decode of T tokens costs T+1 passes (each token plus the end marker) and
scoring s candidates costs s passes however they are batched.

Every decoder pass runs against a `DecoderCache` (Vaswani et al. 2017),
which keeps every layer's self-attention keys and values, extended by each
pass, and the cross-attention keys and values projected from the memory
once. Training and scoring run teacher-forced against a fresh cache; greedy
and beam search keep one and decode only the newest token of every row per
step. `greedy_decode_batch` decodes many sources in one such loop, dropping
rows from the cache as they finish.

One layer loop serves every pass. With gradients on, the decoder records
the autograd graph. Without them (scoring, decoding) the same layers run
on arrays over the real token rows only; a cached step is the pass of one
token per row, with no padding, against the cached positions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .data import BOS, EOS, PAD, Batch, pad_block
from .layers import (Embedding, Encoder, FFNBlock, KVCache, LayerNorm, Linear,
                     Module, MultiHeadAttention, TokenRows, attention_bias,
                     causal_mask, embed_positions)
from .tensor import Tensor

if TYPE_CHECKING:
    from .nat import NatModel


class DecoderLayer(Module):
    """Causal self-attention, encoder-decoder attention, FFN; post-norm."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(cfg, rng)
        self.norm_self = LayerNorm(cfg.d_model)
        self.cross_attn = MultiHeadAttention(cfg, rng)
        self.norm_cross = LayerNorm(cfg.d_model)
        self.ffn = FFNBlock(cfg, rng)
        self.norm_ffn = LayerNorm(cfg.d_model)

    def __call__(self, x, rows: TokenRows | None, cache: tuple[KVCache, KVCache],
                 self_bias: np.ndarray | None, cross_bias: np.ndarray):
        """The layer over `x`, a Tensor [B, t, d] or the real rows [N, d] of
        the block `rows`, against its (self, cross) attention caches; the
        self-attention cache gains the keys and values of `x`."""
        self_kv, cross_kv = cache
        a = self.self_attn
        k, v = self_kv.append(a.heads(a.wk, x, rows), a.heads(a.wv, x, rows))
        x = self.norm_self(a.attend(x, k, v, self_bias, rows), x)
        c = self.cross_attn
        x = self.norm_cross(c.attend(x, cross_kv.k, cross_kv.v, cross_bias, rows), x)
        return self.norm_ffn(self.ffn(x), x)


class DecoderCache:
    """The decoding state of either decoder for a batch of rows: per layer a
    growing self-attention cache (the parallel decoder leaves it empty) and
    a fixed cross-attention cache projected from `memory` here (Tensors with
    gradients on, arrays without), the number of positions decoded so far
    and the cross-attention bias [B, 1, 1, T'], whose one query row
    broadcasts over any pass."""

    def __init__(self, model: TeacherModel | NatModel, memory: Tensor,
                 src_len: np.ndarray):
        self.length = 0
        self.cross_bias = attention_bias(None, src_len, 1, memory.shape[1])
        if not T.grad_enabled():
            memory = memory.data
        self.layers = [(KVCache(), KVCache(a.heads(a.wk, memory), a.heads(a.wv, memory)))
                       for a in (layer.cross_attn for layer in model.layers)]

    def select(self, rows) -> None:
        """Keep the given rows, in the given order (beam parents may repeat)."""
        rows = np.asarray(rows, dtype=np.int64)
        self.cross_bias = self.cross_bias[rows]
        for self_kv, cross_kv in self.layers:
            self_kv.select(rows)
            cross_kv.select(rows)


class TeacherModel(Module):
    kind = "teacher"

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.encoder = Encoder(cfg, rng)
        self.embed = Embedding(cfg.tgt_vocab, cfg.d_model, rng)
        self.norm_in = LayerNorm(cfg.d_model)
        self.layers = [DecoderLayer(cfg, rng) for _ in range(cfg.n_layer)]
        self.proj = Linear(cfg.d_model, cfg.tgt_vocab, rng)
        self.decoder_passes = 0

    def reset_passes(self) -> None:
        self.decoder_passes = 0

    def encode(self, src: np.ndarray, src_len: np.ndarray) -> Tensor:
        return self.encoder(src, src_len)

    def decode_logits(self, memory: Tensor | None, src_len: np.ndarray | None,
                      tgt_in: np.ndarray, tgt_in_len: np.ndarray | None,
                      cache: DecoderCache | None = None) -> Tensor:
        """Output logits [B, t, V] of one pass of `tgt_in` against `cache`,
        which the tokens enter at its length. Without one, the pass is
        teacher-forced over the padded inputs against a fresh cache of
        `memory`. With one, `tgt_in` is the [B, 1] block of each row's next
        token, and `memory`, `src_len` and `tgt_in_len` are not read. With
        gradients off the pass runs on arrays, and its logits, zero at the
        padded positions, come back in a Tensor that records no graph."""
        b, t = tgt_in.shape
        self.decoder_passes += b
        self_bias = None    # a cached step's keys all precede it in its row
        if cache is None:
            cache = DecoderCache(self, memory, src_len)
            self_bias = attention_bias(causal_mask(t), tgt_in_len, t, t)
        elif t != 1:
            raise ValueError(f"cached decoding takes one token per row, got {t}")
        elif T.grad_enabled():
            raise RuntimeError("cached decoding records no gradients; "
                               "run it under no_grad")
        rows = None if T.grad_enabled() else TokenRows(tgt_in_len, t, self.cfg)
        enc = self.encoder
        x = self.norm_in(embed_positions(self.embed, tgt_in, enc.pos, enc.embed_scale,
                                         cache.length, rows))
        cache.length += t
        for layer, layer_cache in zip(self.layers, cache.layers):
            x = layer(x, rows, layer_cache, self_bias, cache.cross_bias)
        return self.proj(x) if rows is None else rows.logits(self.proj, x)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def shift_targets(tgt: np.ndarray, tgt_len: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forcing tensors: inputs bos+y, targets y+eos, both [B, T+1]."""
    b, t = tgt.shape
    dec_in = np.full((b, t + 1), PAD, dtype=np.int64)
    dec_tgt = np.full((b, t + 1), PAD, dtype=np.int64)
    dec_in[:, 0] = BOS
    dec_in[:, 1:] = tgt
    dec_tgt[:, :t] = tgt
    dec_tgt[np.arange(b), tgt_len] = EOS
    # positions past each sentence stay PAD on both sides
    cols = np.arange(t + 1)[None, :]
    dec_in[cols > tgt_len[:, None]] = PAD
    return dec_in, dec_tgt


def ar_train_step(batch: Batch, model: TeacherModel, optim) -> float:
    """One teacher-forced cross-entropy step; returns the mean per-token loss
    (end marker included as a predicted position)."""
    if batch.size == 0:
        raise ValueError("empty batch")
    dec_in, dec_tgt = shift_targets(batch.tgt, batch.tgt_len)
    memory = model.encode(batch.src, batch.src_len)
    logits = model.decode_logits(memory, batch.src_len, dec_in, batch.tgt_len + 1)
    valid = np.arange(dec_tgt.shape[1])[None, :] <= batch.tgt_len[:, None]
    loss = T.cross_entropy(T.log_softmax(logits, axis=-1), dec_tgt, valid)
    model.zero_grad()
    T.backward(loss)
    optim.step()
    return float(loss.item())


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def default_max_len(src_len: int) -> int:
    return 2 * src_len + 5


def _clamp_max_len(model: TeacherModel, max_len: int) -> int:
    # decoder input carries a leading bos, so emitted length tops out one short
    return max(0, min(max_len, model.cfg.max_len - 1))


def _log_probs(logits: Tensor) -> np.ndarray:
    return T.log_softmax(logits, axis=-1).numpy().astype(np.float64)


def _step_logprobs(model: TeacherModel, prefixes: list[list[int]],
                   cache: DecoderCache) -> np.ndarray:
    """Next-token log-probs [n, V] for bos-prefixed contexts, one decoder pass
    counted per prefix; row i of `cache` holds prefix i up to its last token,
    so only the last tokens are decoded."""
    last = np.array([[p[-1]] for p in prefixes], dtype=np.int64)
    return _log_probs(model.decode_logits(None, None, last, None, cache))[:, 0]


def greedy_decode_batch(srcs: Sequence[Sequence[int]], model: TeacherModel,
                        max_lens: Sequence[int] | None = None) -> list[list[int]]:
    """`greedy_decode` of every source in one batched, cached loop.

    Row i stops at its end marker or after `max_lens[i]` tokens (default
    `default_max_len` of its source) and then leaves the batch, so each row
    costs the decoder passes its own `greedy_decode` would: T+1, or T at the
    cap. Outputs come back in the order of `srcs`.
    """
    if max_lens is None:
        max_lens = [default_max_len(len(s)) for s in srcs]
    caps = [_clamp_max_len(model, m) for m in max_lens]
    outs: list[list[int]] = [[] for _ in srcs]
    active = [i for i, cap in enumerate(caps) if cap > 0]
    if not active:
        return outs
    src, src_len = pad_block(srcs)
    with T.no_grad():
        memory = model.encode(src, src_len)
        cache = DecoderCache(model, memory, src_len)
        if len(active) < len(srcs):
            cache.select(active)
        last = np.full((len(active), 1), BOS, dtype=np.int64)
        while active:
            logp = _log_probs(model.decode_logits(None, None, last, None, cache))
            toks = np.argmax(logp[:, 0], axis=-1)    # ties go to the lowest id
            keep = []
            for row, (i, tok) in enumerate(zip(active, toks.tolist())):
                if tok != EOS:
                    outs[i].append(tok)
                    if len(outs[i]) < caps[i]:
                        keep.append(row)
            if len(keep) < len(active):
                active = [active[row] for row in keep]
                if active:
                    cache.select(keep)
            last = toks[keep][:, None]
    return outs


def greedy_decode(src_ids: Sequence[int], model: TeacherModel,
                  max_len: int | None = None) -> list[int]:
    """Left-to-right argmax decoding; ties go to the lowest token id."""
    if max_len is None:
        max_len = default_max_len(len(src_ids))
    return greedy_decode_batch([src_ids], model, [max_len])[0]


def beam_core(step_fn, b: int, max_len: int) -> list[int]:
    """Beam search over a step function mapping bos-prefixed token lists to
    next-token log-prob rows. Hypotheses are compared by raw summed log-prob
    (no length normalization); the end-marker's log-prob is part of the score.
    """
    if b < 1:
        raise ValueError("beam width must be >= 1")
    if max_len == 0:
        return []
    unfinished: list[tuple[float, list[int]]] = [(0.0, [])]
    finished: list[tuple[float, list[int]]] = []
    capped: list[tuple[float, list[int]]] = []
    while unfinished:
        best_open = max(s for s, _ in unfinished)
        if finished and max(s for s, _ in finished) >= best_open:
            break  # log-probs only decrease; no open hypothesis can win
        logp = step_fn([[BOS] + toks for _, toks in unfinished])
        expansions: list[tuple[float, int, int]] = []  # score, beam idx, token
        for i, (score, _) in enumerate(unfinished):
            row = logp[i]
            # top-b tokens per row suffice to fill b survivors; ties keep the
            # lowest token id, matching the greedy tie-break
            for tok in np.argsort(-row, kind="stable")[:b]:
                expansions.append((score + float(row[tok]), i, int(tok)))
        expansions.sort(key=lambda e: (-e[0], e[2], e[1]))
        nxt: list[tuple[float, list[int]]] = []
        for score, i, tok in expansions:
            if tok == EOS:
                finished.append((score, unfinished[i][1]))
            else:
                hyp = unfinished[i][1] + [tok]
                if len(hyp) >= max_len:
                    capped.append((score, hyp))
                else:
                    nxt.append((score, hyp))
            if len(nxt) == b:
                break
        unfinished = nxt
    pool = finished or capped
    return max(pool, key=lambda h: h[0])[1] if pool else []


def beam_decode(src_ids: Sequence[int], model: TeacherModel, b: int,
                max_len: int | None = None) -> list[int]:
    if max_len is None:
        max_len = default_max_len(len(src_ids))
    max_len = _clamp_max_len(model, max_len)
    src, src_len = pad_block([src_ids])
    with T.no_grad():
        memory = model.encode(src, src_len)
        cache = DecoderCache(model, memory, src_len)
        rows: dict[tuple[int, ...], int] = {}  # last step's prefixes -> cache row

        def step(prefixes):
            # each hypothesis extends one of the last step's prefixes by a token
            if rows:
                cache.select([rows[tuple(p[:-1])] for p in prefixes])
            rows.clear()
            rows.update((tuple(p), i) for i, p in enumerate(prefixes))
            return _step_logprobs(model, prefixes, cache)

        return beam_core(step, b, max_len)


# ---------------------------------------------------------------------------
# parallel scoring
# ---------------------------------------------------------------------------

def score_parallel(src_ids: Sequence[int], candidate: Sequence[int],
                   model: TeacherModel) -> float:
    """Log-probability of a candidate in one teacher-forced decoder pass:
    sum over its tokens plus the end marker."""
    return score_candidates(src_ids, [candidate], model)[0]


def score_candidates(src_ids: Sequence[int], candidates: Sequence[Sequence[int]],
                     model: TeacherModel) -> list[float]:
    """`score_parallel` of every candidate, all in one batched pass."""
    if any(PAD in c for c in candidates):
        raise ValueError("candidate contains pad tokens")
    if not candidates:
        return []
    logp = forced_log_probs(model, *pad_block([src_ids]), candidates,
                            np.zeros(len(candidates), dtype=np.int64))
    picked, lens = pad_block([list(c) + [EOS] for c in candidates],
                             width=logp.shape[1])
    gathered = np.take_along_axis(logp, picked[:, :, None], axis=2)[:, :, 0]
    valid = np.arange(logp.shape[1])[None, :] < lens[:, None]
    return [float((g * v).sum()) for g, v in zip(gathered, valid)]


def forced_log_probs(model: TeacherModel, src: np.ndarray, src_len: np.ndarray,
                     outputs: Sequence[Sequence[int]], rows: np.ndarray) -> np.ndarray:
    """Log-probs [R, t, V] (`_log_probs`) of the no-grad teacher-forced pass over
    bos + each of R outputs, output r read against row rows[r] of the source
    block `src`, `src_len`, which is encoded once."""
    with T.no_grad():
        memory = model.encode(src, src_len)
        dec_in, lens = pad_block([[BOS] + list(o) for o in outputs])
        logits = model.decode_logits(Tensor(memory.data[rows]), src_len[rows],
                                     dec_in, lens)
        return _log_probs(logits)


# ---------------------------------------------------------------------------
# encoder export
# ---------------------------------------------------------------------------

def export_encoder(model: TeacherModel) -> list[tuple[str, np.ndarray]]:
    """Encoder-side parameters (source embeddings included) under canonical
    names, as array copies detached from the model."""
    return [(name, p.data.copy()) for name, p in model.named_parameters()
            if name.startswith("encoder.")]
