"""Parallel decoder with fertility latent variables.

The decoder receives copies of source embeddings (uniform or fertility-driven)
instead of previously emitted tokens, so all output positions are computed in
one pass. Each decoder layer runs self-attention masked only at the query's
own position, positional attention (positional encodings as query and key,
decoder states as value), encoder-decoder attention, and an FFN. A one-layer
softmax head over the last encoder layer predicts per-source-token fertility
classes 0..L-1.

Decoding has one core. A strategy proposes fertility sequences from the
distribution of a source encoded once; the core fits each (an all-zero one
emits one token, and totals over max_len are cut from the last source
position backwards), translates all of them in one padded decoder pass and,
given an autoregressive teacher, keeps the first candidate it scores best.
The proposers are per-position argmax, rounded expected fertility, and noisy
parallel decoding (npd): the argmax sequence as candidate 0, the average as
candidate 1, then independent draws, so the winning teacher score can only
improve with more samples under a fixed seed. The uniform-copy fallback and
`translate_given_fertility` share the core's translate step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from . import teacher as AR
from .config import ModelConfig
from .data import PAD, pad_block
from .layers import (Encoder, FFNBlock, LayerNorm, Linear, Module,
                     MultiHeadAttention, attention_bias, embed_positions)
from .tensor import Tensor


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

    def __call__(self, x: Tensor, memory: Tensor, pos_q: Tensor,
                 self_bias: np.ndarray, pad_bias: np.ndarray,
                 cross_bias: np.ndarray) -> Tensor:
        x = self.norm_self(T.add(x, self.self_attn(x, x, x, self_bias)))
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
        per sequence in the batch."""
        b, t = dec_ids.shape
        self.decoder_passes += b
        self_bias = attention_bias(None, dec_len, t, t, exclude_self=True)
        pad_bias = attention_bias(None, dec_len, t, t)
        cross_bias = attention_bias(None, src_len, t, memory.shape[1])
        enc = self.encoder
        # copied source tokens in the source embedding, fresh output positions
        x = self.norm_in(embed_positions(enc.embed, dec_ids, enc.pos, enc.embed_scale))
        pos_q = Tensor(np.broadcast_to(enc.pos[:t], (b, t, self.cfg.d_model)).copy())
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
    return _encode_source(src_ids, model)[1]


def average_fertility(probs: np.ndarray) -> np.ndarray:
    """Rounded expected fertility per position of a [T', L] distribution."""
    return round_half_away((probs * np.arange(probs.shape[1])[None, :]).sum(axis=-1))


def floor_fertility(fert: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Degenerate all-zero predictions emit one token from the position most
    confident about fertility 1."""
    fert = np.asarray(fert, dtype=np.int64).copy()
    if fert.sum() == 0:
        fert[int(np.argmax(probs[:, 1]))] = 1
    return fert


def fit_fertility(fert: np.ndarray, probs: np.ndarray, max_len: int) -> np.ndarray:
    """The fertility sequence a decode translates: `floor_fertility`, then
    cut from the last source position backwards until the total fits
    `max_len` output slots."""
    fert = floor_fertility(fert, probs)
    room = max_len - (np.cumsum(fert) - fert)   # slots left for each position
    return np.minimum(fert, np.maximum(room, 0))


def max_output_len(model: NatModel,
                   teacher_model: AR.TeacherModel | None = None) -> int:
    """Output slots a decode may fill: the student's max_len, and one fewer
    than the teacher's when a teacher scores bos + output."""
    if teacher_model is None:
        return model.cfg.max_len
    return min(model.cfg.max_len, teacher_model.cfg.max_len - 1)


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


def _encode_memory(src_ids: Sequence[int], model: NatModel) -> Tensor:
    """Encoder memory of one source."""
    with T.no_grad():
        return model.encode(np.asarray(src_ids, dtype=np.int64)[None, :],
                            np.array([len(src_ids)]))


def _encode_source(src_ids: Sequence[int], model: NatModel
                   ) -> tuple[Tensor, np.ndarray]:
    """Encoder memory of one source and its [T', L] fertility distribution."""
    memory = _encode_memory(src_ids, model)
    src = np.asarray(src_ids, dtype=np.int64)[None, :]
    return memory, fertility_dist_batch(src, np.array([len(src_ids)]), model,
                                        memory)[0]


def _translate(src_ids: Sequence[int], inputs: Sequence[list], model: NatModel,
               memory: Tensor) -> list[tuple[list[int], float]]:
    """Translate several decoder inputs of one source in one padded pass;
    returns (per-position argmax tokens, their summed log-prob) per input."""
    dec_ids, dec_len = pad_block(inputs)
    n = len(inputs)
    with T.no_grad():
        mem = Tensor(np.repeat(memory.data, n, axis=0)) if n > 1 else memory
        logits = model.decode_logits(mem, np.full(n, len(src_ids)), dec_ids, dec_len)
        logp = T.log_softmax(logits, axis=-1).numpy().astype(np.float64)
    logp[:, :, PAD] = -np.inf  # padding is not an emittable token
    out = []
    for rows in (logp[i, :m] for i, m in enumerate(dec_len)):
        toks = rows.argmax(axis=-1)
        out.append(([int(t) for t in toks],
                    float(rows[np.arange(len(toks)), toks].sum())))
    return out


def _fert_logprob(probs: np.ndarray, fert: np.ndarray) -> float:
    rows = np.clip(probs[np.arange(len(fert)), fert], 1e-30, None)
    return float(np.log(rows).sum())


def _decode(src_ids: Sequence[int], fert_list: Sequence[Sequence[int]],
            model: NatModel, memory: Tensor, probs: np.ndarray, strategy: str,
            teacher_model: AR.TeacherModel | None = None
            ) -> tuple[DecodeResult, list[float]]:
    """The decode core: fit every fertility candidate, translate them all in
    one padded pass and, with a teacher, keep the first highest-scoring one
    (without one there is a single candidate). Returns the result and the
    teacher scores of all candidates."""
    max_len = max_output_len(model, teacher_model)
    ferts = [fit_fertility(f, probs, max_len) for f in fert_list]
    translated = _translate(src_ids, [copy_fertility(list(src_ids), list(f))
                                      for f in ferts], model, memory)
    scores, win = [], 0
    if teacher_model is not None:
        scores = AR.score_candidates(src_ids, [t for t, _ in translated], teacher_model)
        win = int(np.argmax(scores))  # ties keep the lowest candidate index
    toks, lp = translated[win]
    result = DecodeResult(toks, [int(f) for f in ferts[win]], strategy, lp,
                          _fert_logprob(probs, ferts[win]),
                          scores[win] if scores else None)
    return result, scores


def translate_given_fertility(src_ids: Sequence[int], fertility: Sequence[int],
                              model: NatModel) -> list[int]:
    """Per-position argmax output for one fertility sequence; length is
    exactly the fertility total."""
    inputs = [copy_fertility(list(src_ids), list(fertility))]
    [(toks, _)] = _translate(src_ids, inputs, model, _encode_memory(src_ids, model))
    return toks


def decode_argmax(src_ids: Sequence[int], model: NatModel) -> DecodeResult:
    memory, probs = _encode_source(src_ids, model)
    return _decode(src_ids, [probs.argmax(axis=-1)], model, memory, probs, "argmax")[0]


def decode_average(src_ids: Sequence[int], model: NatModel) -> DecodeResult:
    memory, probs = _encode_source(src_ids, model)
    return _decode(src_ids, [average_fertility(probs)], model, memory, probs,
                   "average")[0]


def npd_over_candidates(src_ids: Sequence[int], fert_list: Sequence[Sequence[int]],
                        model: NatModel, teacher_model: AR.TeacherModel,
                        encoded: tuple[Tensor, np.ndarray] | None = None
                        ) -> tuple[DecodeResult, list[float]]:
    """Translate and teacher-score every fertility candidate; the first
    highest-scoring candidate wins. `encoded` is the source's encoder memory
    and fertility distribution if the caller has them already."""
    memory, probs = _encode_source(src_ids, model) if encoded is None else encoded
    return _decode(src_ids, fert_list, model, memory, probs, "npd", teacher_model)


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


def decode_uniform(src_ids: Sequence[int], model: NatModel,
                   target_len: int | None = None,
                   ratio: float | None = None) -> DecodeResult:
    """Uniform-copy fallback decode: the output length comes from the caller
    (ground-truth mode) or from the corpus mean length ratio."""
    if target_len is None:
        if ratio is None:
            raise ValueError("need target_len or ratio")
        target_len = max(1, int(round_half_away(len(src_ids) * ratio)))
    inputs = [copy_uniform(list(src_ids), target_len)]
    [(toks, lp)] = _translate(src_ids, inputs, model, _encode_memory(src_ids, model))
    return DecodeResult(toks, None, "uniform", lp)
