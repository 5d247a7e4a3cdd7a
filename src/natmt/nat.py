"""Parallel decoder with fertility latent variables.

The decoder receives copies of source embeddings (uniform or fertility-driven)
instead of previously emitted tokens, so all output positions are computed in
one pass. Each decoder layer runs self-attention masked only at the query's
own position, positional attention (positional encodings as query and key,
decoder states as value), encoder-decoder attention, and an FFN. A one-layer
softmax head over the last encoder layer predicts per-source-token fertility
classes 0..L-1.

Decoding strategies: per-position fertility argmax, rounded expected
fertility, and noisy parallel decoding, which samples fertility sequences,
translates each independently, and keeps the candidate the autoregressive
scorer likes best. The argmax sequence is always candidate 0 and the average
sequence candidate 1, so the winning teacher score can only improve with more
samples under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from . import teacher as AR
from .config import ModelConfig
from .data import PAD, pad_block
from .layers import (MASK_BIAS, Encoder, FFNBlock, LayerNorm, Linear, Module,
                     MultiHeadAttention, attention_bias, positional_table)
from .tensor import DTYPE, Tensor


def round_half_away(x) -> np.ndarray:
    """Round(0.5) = 1; the single rounding rule used everywhere."""
    x = np.asarray(x, dtype=np.float64)
    return np.floor(x + 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# decoder-input construction
# ---------------------------------------------------------------------------

def copy_uniform(source: Sequence, t_out: int) -> list:
    """Slot t of the decoder input is source token Round(T' * t / T), clamped
    into range; equal lengths give the identity copy."""
    if t_out < 1:
        raise ValueError("uniform copy needs a positive target length")
    tp = len(source)
    idx = round_half_away(np.arange(1, t_out + 1) * (tp / t_out))
    idx = np.clip(idx, 1, tp)
    return [source[i - 1] for i in idx]


def copy_fertility(source: Sequence, fertility: Sequence[int]) -> list:
    """Source token i repeated fertility[i] times, in order."""
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

def _self_exclusion_bias(dec_len: np.ndarray, t: int) -> np.ndarray:
    """[B, 1, t, t] bias permitting every non-pad key except the query's own
    position. Length-1 rows keep their self key, as a batch can mix lengths
    and that row would otherwise have no permitted key at all."""
    b = dec_len.shape[0]
    key = np.arange(t)
    permitted = np.broadcast_to(key[None, None, :] < dec_len[:, None, None],
                                (b, t, t)).copy()
    permitted &= ~np.eye(t, dtype=bool)[None]
    permitted[dec_len == 1, 0, 0] = True
    bias = np.where(permitted, np.float32(0.0), MASK_BIAS)
    return bias[:, None, :, :].astype(DTYPE)


class NatDecoderLayer(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(cfg, rng)
        self.norm_self = LayerNorm(cfg.d_model)
        self.use_pos_attn = cfg.use_pos_attn
        if cfg.use_pos_attn:
            self.pos_attn = MultiHeadAttention(cfg, rng,
                                               project_qk=cfg.pos_attn_projections)
            self.norm_pos = LayerNorm(cfg.d_model)
        self.cross_attn = MultiHeadAttention(cfg, rng)
        self.norm_cross = LayerNorm(cfg.d_model)
        self.ffn = FFNBlock(cfg, rng)
        self.norm_ffn = LayerNorm(cfg.d_model)

    def __call__(self, x: Tensor, memory: Tensor, pos_q: Tensor,
                 self_bias: np.ndarray, pad_bias: np.ndarray,
                 cross_bias: np.ndarray) -> Tensor:
        x = self.norm_self(T.add(x, self.self_attn(x, x, x, self_bias)))
        if self.use_pos_attn:
            x = self.norm_pos(T.add(x, self.pos_attn(pos_q, pos_q, x, pad_bias)))
        x = self.norm_cross(T.add(x, self.cross_attn(x, memory, memory, cross_bias)))
        return self.norm_ffn(T.add(x, self.ffn(x)))


class NatModel(Module):
    kind = "nat"

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        if cfg.max_fertility < 2:
            raise ValueError("need at least fertility classes 0 and 1")
        self.cfg = cfg
        self.encoder = Encoder(cfg, rng)
        self.fert_head = Linear(cfg.d_model, cfg.max_fertility, rng)
        self.layers = [NatDecoderLayer(cfg, rng) for _ in range(cfg.n_layer)]
        self.norm_in = LayerNorm(cfg.d_model)
        self.proj = Linear(cfg.d_model, cfg.tgt_vocab, rng)
        self.embed_scale = math.sqrt(cfg.d_model) if cfg.scale_embeddings else 1.0
        self.pos = positional_table(cfg.max_len, cfg.d_model)
        self.decoder_passes = 0

    def reset_passes(self) -> None:
        self.decoder_passes = 0

    def encode(self, src: np.ndarray, src_len: np.ndarray) -> Tensor:
        return self.encoder(src, src_len)

    def fertility_logits(self, memory: Tensor) -> Tensor:
        """[B, T', L] logits from the last encoder layer only."""
        return self.fert_head(memory)

    def embed_copies(self, ids: np.ndarray) -> Tensor:
        """Copied source tokens looked up in the source embedding, with fresh
        output-side positional encodings."""
        b, t = ids.shape
        if t > self.cfg.max_len:
            raise ValueError(f"decoder length {t} exceeds max_len {self.cfg.max_len}")
        emb = T.mul(self.encoder.embed(ids), Tensor(np.float32(self.embed_scale)))
        emb = T.add(emb, Tensor(np.broadcast_to(self.pos[:t], (b, t, emb.shape[-1])).copy()))
        return self.norm_in(emb)

    def decode_logits(self, memory: Tensor, src_len: np.ndarray,
                      dec_ids: np.ndarray, dec_len: np.ndarray) -> Tensor:
        """One parallel pass over all output slots; counts one decoder pass
        per sequence in the batch."""
        b, t = dec_ids.shape
        self.decoder_passes += b
        self_bias = _self_exclusion_bias(dec_len, t)
        pad_bias = attention_bias(None, dec_len, t, t)
        cross_bias = attention_bias(None, src_len, t, memory.shape[1])
        x = self.embed_copies(dec_ids)
        pos_q = Tensor(np.broadcast_to(self.pos[:t], (b, t, self.cfg.d_model)).copy())
        for layer in self.layers:
            x = layer(x, memory, pos_q, self_bias, pad_bias, cross_bias)
        return self.proj(x)


# ---------------------------------------------------------------------------
# fertility inference
# ---------------------------------------------------------------------------

def fertility_dist_batch(src: np.ndarray, src_len: np.ndarray, model: NatModel,
                         memory: Tensor | None = None) -> np.ndarray:
    """[B, T', L] fertility probabilities; padded positions get class 0 with
    probability one."""
    with T.no_grad():
        if memory is None:
            memory = model.encode(src, src_len)
        probs = T.softmax(model.fertility_logits(memory), axis=-1).numpy()
    pad = np.arange(src.shape[1])[None, :] >= src_len[:, None]
    probs[pad] = 0.0
    probs[pad, 0] = 1.0
    return probs


def predict_fertility(src_ids: Sequence[int], model: NatModel) -> np.ndarray:
    """[T', L] fertility distribution for one sentence."""
    src = np.asarray(src_ids, dtype=np.int64)[None, :]
    return fertility_dist_batch(src, np.array([len(src_ids)]), model)[0]


def floor_fertility(fert: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Degenerate all-zero predictions emit one token from the position most
    confident about fertility 1."""
    fert = np.asarray(fert, dtype=np.int64).copy()
    if fert.sum() == 0:
        fert[int(np.argmax(probs[:, 1]))] = 1
    return fert


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    output: list[int]
    fertility: list[int] | None
    strategy: str
    token_logprob: float
    fert_logprob: float = 0.0
    teacher_score: float | None = None


def _translate_batch(src_ids: Sequence[int], fert_list: Sequence[np.ndarray],
                     model: NatModel, memory: Tensor
                     ) -> list[tuple[list[int], float]]:
    """Translate several fertility candidates for one source in one padded
    decoder call; returns (tokens, summed token log-prob) per candidate."""
    inputs = [copy_fertility(list(src_ids), list(f)) for f in fert_list]
    dec_ids, dec_len = pad_block(inputs)
    n = len(inputs)
    src_len = np.repeat(np.array([len(src_ids)]), n)
    with T.no_grad():
        mem = Tensor(np.repeat(memory.data, n, axis=0)) if n > 1 else memory
        logits = model.decode_logits(mem, src_len, dec_ids, dec_len)
        logp = T.log_softmax(logits, axis=-1).numpy().astype(np.float64)
    logp[:, :, PAD] = -np.inf  # padding is not an emittable token
    out = []
    for i in range(n):
        rows = logp[i, : dec_len[i]]
        toks = rows.argmax(axis=-1)
        out.append(([int(t) for t in toks],
                    float(rows[np.arange(len(toks)), toks].sum())))
    return out


def translate_given_fertility(src_ids: Sequence[int], fertility: Sequence[int],
                              model: NatModel, memory: Tensor | None = None
                              ) -> list[int]:
    """Per-position argmax output for one fertility sequence; length is
    exactly the fertility total."""
    if memory is None:
        src = np.asarray(src_ids, dtype=np.int64)[None, :]
        memory = model.encode(src, np.array([len(src_ids)]))
    [(toks, _)] = _translate_batch(src_ids, [np.asarray(fertility)], model, memory)
    return toks


def _fert_logprob(probs: np.ndarray, fert: np.ndarray) -> float:
    rows = np.clip(probs[np.arange(len(fert)), fert], 1e-30, None)
    return float(np.log(rows).sum())


def _encode_one(src_ids: Sequence[int], model: NatModel):
    src = np.asarray(src_ids, dtype=np.int64)[None, :]
    with T.no_grad():
        memory = model.encode(src, np.array([len(src_ids)]))
    return memory


def decode_argmax(src_ids: Sequence[int], model: NatModel) -> DecodeResult:
    memory = _encode_one(src_ids, model)
    probs = fertility_dist_batch(np.asarray(src_ids)[None, :],
                                 np.array([len(src_ids)]), model, memory)[0]
    fert = floor_fertility(probs.argmax(axis=-1), probs)
    [(toks, lp)] = _translate_batch(src_ids, [fert], model, memory)
    return DecodeResult(toks, [int(f) for f in fert], "argmax", lp,
                        _fert_logprob(probs, fert))


def decode_average(src_ids: Sequence[int], model: NatModel) -> DecodeResult:
    memory = _encode_one(src_ids, model)
    probs = fertility_dist_batch(np.asarray(src_ids)[None, :],
                                 np.array([len(src_ids)]), model, memory)[0]
    expected = (probs * np.arange(probs.shape[1])[None, :]).sum(axis=-1)
    fert = floor_fertility(round_half_away(expected), probs)
    [(toks, lp)] = _translate_batch(src_ids, [fert], model, memory)
    return DecodeResult(toks, [int(f) for f in fert], "average", lp,
                        _fert_logprob(probs, fert))


def npd_over_candidates(src_ids: Sequence[int], fert_list: Sequence[Sequence[int]],
                        model: NatModel, teacher_model: AR.TeacherModel,
                        strategy: str = "npd"
                        ) -> tuple[DecodeResult, list[float]]:
    """Translate and teacher-score every fertility candidate; the first
    highest-scoring candidate wins. Degenerate all-zero candidates are floored
    like any other decode."""
    memory = _encode_one(src_ids, model)
    probs = fertility_dist_batch(np.asarray(src_ids)[None, :],
                                 np.array([len(src_ids)]), model, memory)[0]
    floored = [floor_fertility(np.asarray(f, dtype=np.int64), probs)
               for f in fert_list]
    translated = _translate_batch(src_ids, floored, model, memory)
    scores = AR.score_candidates(src_ids, [t for t, _ in translated], teacher_model)
    win = int(np.argmax(scores))  # ties keep the lowest candidate index
    toks, lp = translated[win]
    result = DecodeResult(toks, [int(f) for f in floored[win]], strategy, lp,
                          _fert_logprob(probs, floored[win]), scores[win])
    return result, [float(s) for s in scores]


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
    probs = predict_fertility(src_ids, model)
    cands: list[np.ndarray] = [probs.argmax(axis=-1)]
    if samples >= 2:
        expected = (probs * np.arange(probs.shape[1])[None, :]).sum(axis=-1)
        cands.append(round_half_away(expected))
    if samples > 2:
        rng = np.random.default_rng(seed)
        cands.extend(sample_fertilities(probs, samples - 2, rng))
    result, _ = npd_over_candidates(src_ids, cands, model, teacher_model)
    return result


def decode_uniform(src_ids: Sequence[int], model: NatModel,
                   target_len: int | None = None,
                   ratio: float | None = None) -> DecodeResult:
    """Uniform-copy fallback decode: the output length comes from the caller
    (ground-truth mode) or from the corpus mean length ratio."""
    if target_len is None:
        if ratio is None:
            raise ValueError("need target_len or ratio")
        target_len = max(1, int(round_half_away(len(src_ids) * ratio)))
    ids = copy_uniform(list(src_ids), target_len)
    memory = _encode_one(src_ids, model)
    dec_ids, dec_len = pad_block([ids])
    with T.no_grad():
        logits = model.decode_logits(memory, np.array([len(src_ids)]),
                                     dec_ids, dec_len)
        logp = T.log_softmax(logits, axis=-1).numpy().astype(np.float64)[0]
    logp[:, PAD] = -np.inf  # padding is not an emittable token
    toks = logp.argmax(axis=-1)
    lp = float(logp[np.arange(len(toks)), toks].sum())
    return DecodeResult([int(t) for t in toks], None, "uniform", lp)
