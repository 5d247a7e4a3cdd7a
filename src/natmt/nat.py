"""Parallel decoder with fertility latent variables.

The decoder receives copies of source embeddings, each source token repeated
as often as its fertility, instead of previously emitted tokens, so all output
positions are computed in one pass. Each decoder layer runs self-attention
masked only at the query's own position, positional attention (positional
encodings as query and key, decoder states as value), encoder-decoder
attention on keys and values that a `teacher.DecoderCache` projects from the
encoder memory, as for the teacher, and an FFN. A one-layer softmax head over
the last encoder layer predicts per-source-token fertility classes 0..L-1.
The decoder's layers are written once: with gradients on they record the
autograd graph; without them (every decode, and fine-tuning's sampled
translations) they run on arrays over the real output slots only.

Decoding has one core. A strategy proposes fertility sequences from the
distribution of a source encoded once; the core fits each (an all-zero one
emits one token, and totals over max_len are cut from the last source
position backwards), translates all of them in one padded decoder pass and,
given an autoregressive teacher, keeps the first candidate it scores best.
The proposers are per-position argmax, rounded expected fertility, and noisy
parallel decoding (npd): the argmax sequence as candidate 0, the average as
candidate 1, then independent draws, so the winning teacher score can only
improve with more samples under a fixed seed. The core's translate step,
`translate_step`, also serves `translate_given_fertility`, training and
fine-tuning: it is the one place source tokens are copied by fertility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from . import teacher as AR
from .config import ModelConfig
from .data import PAD, pad_block
from .layers import (Encoder, FFNBlock, KVCache, LayerNorm, Linear, Module,
                     MultiHeadAttention, TokenRows, attention_bias,
                     embed_positions)
from .tensor import Tensor


def round_half_away(x) -> np.ndarray:
    """Round(0.5) = 1; the single rounding rule used everywhere."""
    x = np.asarray(x, dtype=np.float64)
    return np.floor(x + 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# decoder-input construction
# ---------------------------------------------------------------------------

def copy_fertility(source: Sequence, fertility: Sequence[int]) -> list:
    """Source token i repeated fertility[i] times, in order: one row of
    `translate_step`'s copied inputs, spelled out as the reference."""
    if len(source) != len(fertility):
        raise ValueError(
            f"fertility length {len(fertility)} != source length {len(source)}")
    if any(f < 0 for f in fertility):
        raise ValueError("negative fertility")
    if sum(fertility) == 0:
        raise ValueError("zero total fertility; apply the length floor first")
    out = []
    for tok, f in zip(source, fertility):
        out.extend([tok] * f)
    return out


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class NatDecoderLayer(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(cfg, rng)
        self.norm_self = LayerNorm(cfg.d_model)
        self.pos_attn = MultiHeadAttention(cfg, rng)
        self.norm_pos = LayerNorm(cfg.d_model)
        self.cross_attn = MultiHeadAttention(cfg, rng)
        self.norm_cross = LayerNorm(cfg.d_model)
        self.ffn = FFNBlock(cfg, rng)
        self.norm_ffn = LayerNorm(cfg.d_model)

    def __call__(self, x, rows: TokenRows | None, cross_kv: KVCache, pos_q,
                 self_bias: np.ndarray, pad_bias: np.ndarray, cross_bias: np.ndarray):
        """The layer over the output slots `x` and their positions `pos_q`,
        Tensors [B, t, d] or the real rows [N, d] of the block `rows`, against
        its cross-attention cache of the encoder memory, of the same kind."""
        x = self.norm_self(self.self_attn(x, x, x, self_bias, rows), x)
        x = self.norm_pos(self.pos_attn(pos_q, pos_q, x, pad_bias, rows), x)
        x = self.norm_cross(self.cross_attn.attend(x, cross_kv.k, cross_kv.v,
                                                   cross_bias, rows), x)
        return self.norm_ffn(self.ffn(x), x)


class NatModel(Module):
    kind = "nat"

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.encoder = Encoder(cfg, rng)
        self.fert_head = Linear(cfg.d_model, cfg.max_fertility, rng)
        self.layers = [NatDecoderLayer(cfg, rng) for _ in range(cfg.n_layer)]
        self.norm_in = LayerNorm(cfg.d_model)
        self.proj = Linear(cfg.d_model, cfg.tgt_vocab, rng)
        self.decoder_passes = 0

    def reset_passes(self) -> None:
        self.decoder_passes = 0

    def encode(self, src: np.ndarray, src_len: np.ndarray) -> Tensor:
        return self.encoder(src, src_len)

    def fertility_logits(self, memory: Tensor) -> Tensor:
        """[B, T', L] logits from the last encoder layer only."""
        return self.fert_head(memory)

    def decode_logits(self, memory: Tensor, src_len: np.ndarray,
                      dec_ids: np.ndarray, dec_len: np.ndarray) -> Tensor:
        """One parallel pass over all output slots; counts one decoder pass
        per sequence in the batch. With gradients off it runs on arrays, its
        padded slots come back zero, and the logits come back wrapped in a
        Tensor that records no graph."""
        b, t = dec_ids.shape
        self.decoder_passes += b
        self_bias = attention_bias(None, dec_len, t, t, exclude_self=True)
        pad_bias = attention_bias(None, dec_len, 1, t)
        cache = AR.DecoderCache(self, memory, src_len)
        enc = self.encoder
        rows = None if T.grad_enabled() else TokenRows(dec_len, t, self.cfg)
        # copied source tokens in the source embedding, fresh output positions
        x = self.norm_in(embed_positions(enc.embed, dec_ids, enc.pos, enc.embed_scale,
                                         rows=rows))
        pos_q = np.broadcast_to(enc.pos[:t], (b, t, self.cfg.d_model))
        pos_q = Tensor(pos_q.copy()) if rows is None else rows.gather(pos_q)
        for layer, (_, cross_kv) in zip(self.layers, cache.layers):
            x = layer(x, rows, cross_kv, pos_q, self_bias, pad_bias, cache.cross_bias)
        return self.proj(x) if rows is None else rows.logits(self.proj, x)


# ---------------------------------------------------------------------------
# fertility inference
# ---------------------------------------------------------------------------

def fertility_dist_batch(src_len: np.ndarray, model: NatModel,
                         memory: Tensor) -> np.ndarray:
    """[B, T', L] fertility probabilities from the sources' encoder memory;
    padded positions get class 0 with probability one."""
    with T.no_grad():
        probs = T.softmax(model.fertility_logits(memory), axis=-1).numpy()
    pad = np.arange(memory.shape[1])[None, :] >= src_len[:, None]
    probs[pad] = 0.0
    probs[pad, 0] = 1.0
    return probs


def predict_fertility(src_ids: Sequence[int], model: NatModel) -> np.ndarray:
    """[T', L] fertility distribution for one sentence."""
    return _encode_source(src_ids, model)[1]


def average_fertility(probs: np.ndarray) -> np.ndarray:
    """Rounded expected fertility per position of a [..., T', L] distribution."""
    return round_half_away((probs * np.arange(probs.shape[-1])).sum(axis=-1))


def floor_fertility(fert: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Degenerate all-zero predictions emit one token from the position most
    confident about fertility 1.

    Takes one sequence [T'] with its [T', L] distribution, or a block of
    rows [R, T'] with distributions that broadcast to [R, T', L]. Padding
    needs fertility 0 and class 0 with probability one, which is how
    `fertility_dist_batch` pins it, so the floor lands on a real position.
    """
    fert = np.array(fert, dtype=np.int64)
    probs = np.asarray(probs)
    if fert.shape[-1] != probs.shape[-2]:
        raise ValueError(f"fertility length {fert.shape[-1]} != source length "
                         f"{probs.shape[-2]}")
    rows = fert.reshape(-1, fert.shape[-1])
    p1 = np.broadcast_to(probs[..., 1], fert.shape).reshape(rows.shape)
    empty = np.flatnonzero(rows.sum(axis=1) == 0)
    rows[empty, p1[empty].argmax(axis=1)] = 1
    return fert


def fit_fertility(fert: np.ndarray, probs: np.ndarray, max_len: int) -> np.ndarray:
    """The fertility sequences a decode translates: `floor_fertility` (one
    sequence or a block of rows, the same arguments), then each cut from
    its last source position backwards until its total fits `max_len`
    output slots."""
    fert = floor_fertility(fert, probs)
    room = max_len - (np.cumsum(fert, axis=-1) - fert)   # slots left per position
    return np.minimum(fert, np.maximum(room, 0))


def max_output_len(model: NatModel,
                   teacher_model: AR.TeacherModel | None = None) -> int:
    """Output slots a decode may fill: the student's max_len, and one fewer
    than the teacher's when a teacher scores bos + output."""
    if teacher_model is None:
        return model.cfg.max_len
    return AR._clamp_max_len(teacher_model, model.cfg.max_len)


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    output: list[int]
    fertility: list[int] | None
    teacher_score: float | None = None


def _encode_source(src_ids: Sequence[int], model: NatModel
                   ) -> tuple[Tensor, np.ndarray]:
    """Encoder memory of one source and its [T', L] fertility distribution."""
    src, src_len = pad_block([src_ids])
    with T.no_grad():
        memory = model.encode(src, src_len)
    return memory, fertility_dist_batch(src_len, model, memory)[0]


def translate_step(model: NatModel, memory: Tensor, src: np.ndarray,
                   src_len: np.ndarray, ferts: np.ndarray,
                   rows: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Decoder logits and lengths [R] of the copies of fertility rows [R, T'],
    `copy_fertility` of every row at once (fertilities past a source's end
    are 0). Row r reads row r of the source block `src`, `src_len` encoded
    as `memory`, or row rows[r], a selection that records no graph."""
    if rows is not None:
        src, src_len, memory = src[rows], src_len[rows], Tensor(memory.data[rows])
    dec_len = ferts.sum(axis=1)
    if not dec_len.all():
        raise ValueError("zero total fertility; apply the length floor first")
    dec_ids = np.full((len(ferts), dec_len.max()), PAD, dtype=np.int64)
    dec_ids[np.arange(dec_ids.shape[1]) < dec_len[:, None]] = np.repeat(
        src.ravel(), ferts.ravel())
    return model.decode_logits(memory, src_len, dec_ids, dec_len), dec_len


def _translate(src_ids: Sequence[int], ferts: np.ndarray, model: NatModel,
               memory: Tensor) -> list[list[int]]:
    """Translate fertility sequences [n, T'] of one source in one padded
    pass; returns the per-position argmax tokens of each."""
    src, src_len = pad_block([src_ids])
    with T.no_grad():
        logits, dec_len = translate_step(model, memory, src, src_len, ferts,
                                         np.zeros(len(ferts), dtype=np.int64))
        logp = AR._log_probs(logits)
    logp[:, :, PAD] = -np.inf  # padding is not an emittable token
    return [[int(t) for t in logp[i, :m].argmax(axis=-1)]
            for i, m in enumerate(dec_len)]


def _decode(src_ids: Sequence[int], fert_list: Sequence[Sequence[int]],
            model: NatModel, memory: Tensor, probs: np.ndarray,
            teacher_model: AR.TeacherModel | None = None
            ) -> tuple[DecodeResult, list[float]]:
    """The decode core: fit every fertility candidate, translate them all in
    one padded pass and, with a teacher, keep the first highest-scoring one
    (without one there is a single candidate). Returns the result and the
    teacher scores of all candidates."""
    ferts = fit_fertility(np.array(fert_list), probs,
                          max_output_len(model, teacher_model))
    translated = _translate(src_ids, ferts, model, memory)
    scores, win = [], 0
    if teacher_model is not None:
        scores = AR.score_candidates(src_ids, translated, teacher_model)
        win = int(np.argmax(scores))  # ties keep the lowest candidate index
    result = DecodeResult(translated[win], [int(f) for f in ferts[win]],
                          scores[win] if scores else None)
    return result, scores


def translate_given_fertility(src_ids: Sequence[int], fertility: Sequence[int],
                              model: NatModel) -> list[int]:
    """Per-position argmax output for one fertility sequence; length is
    exactly the fertility total."""
    with T.no_grad():
        memory = model.encode(*pad_block([src_ids]))
    return _translate(src_ids, np.array([fertility]), model, memory)[0]


def decode_argmax(src_ids: Sequence[int], model: NatModel) -> DecodeResult:
    memory, probs = _encode_source(src_ids, model)
    return _decode(src_ids, [probs.argmax(axis=-1)], model, memory, probs)[0]


def decode_average(src_ids: Sequence[int], model: NatModel) -> DecodeResult:
    memory, probs = _encode_source(src_ids, model)
    return _decode(src_ids, [average_fertility(probs)], model, memory, probs)[0]


def npd_over_candidates(src_ids: Sequence[int], fert_list: Sequence[Sequence[int]],
                        model: NatModel, teacher_model: AR.TeacherModel,
                        encoded: tuple[Tensor, np.ndarray] | None = None
                        ) -> tuple[DecodeResult, list[float]]:
    """Translate and teacher-score every fertility candidate; the first
    highest-scoring candidate wins. `encoded` is the source's encoder memory
    and fertility distribution if the caller has them already."""
    if len(fert_list) == 0:
        raise ValueError("npd got an empty candidate list; it needs at least "
                         "one fertility sequence")
    memory, probs = _encode_source(src_ids, model) if encoded is None else encoded
    return _decode(src_ids, fert_list, model, memory, probs, teacher_model)


def sample_fertilities(probs: np.ndarray, n: int,
                       rng: np.random.Generator) -> list[np.ndarray]:
    """n independent per-position draws from the fertility distribution.

    Draws equal one `rng.choice(classes, p=row / row.sum())` per position,
    sample by sample, and leave `rng` in the same state: the uniforms come in
    the same order and are inverted through the same normalised CDF with
    `searchsorted(side="right")`, spelled as a count.
    """
    p = probs.astype(np.float64)
    p = p / p.sum(axis=1, keepdims=True)
    if np.isnan(p).any():
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random((n, p.shape[0]))
    return list((cdf <= u[..., None]).sum(axis=-1, dtype=np.int64))


def decode_npd(src_ids: Sequence[int], model: NatModel,
               teacher_model: AR.TeacherModel, samples: int,
               seed: int = 0) -> DecodeResult:
    """Noisy parallel decoding: candidate 0 is the argmax fertility sequence,
    candidate 1 the rounded average, later candidates independent draws; the
    teacher picks the winner. One sample reduces to the argmax decode."""
    if samples < 1:
        raise ValueError("need at least one fertility sample")
    memory, probs = _encode_source(src_ids, model)
    cands = [probs.argmax(axis=-1), average_fertility(probs)][:samples]
    if samples > 2:
        cands += sample_fertilities(probs, samples - 2, np.random.default_rng(seed))
    return npd_over_candidates(src_ids, cands, model, teacher_model,
                               (memory, probs))[0]

