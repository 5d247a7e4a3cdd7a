"""End-to-end training: distillation corpus construction, supervised
translation+fertility training, encoder seeding from the teacher, and the
fine-tuning objective.

Sign conventions, fixed here once: ``rkl_values`` are the teacher-weighted
student expectations to be MAXIMIZED (a one-hot student turns one into the
teacher's score of the argmax output). Every reported loss negates such
values, so all numbers in logs and returned breakdowns decrease as the
student improves. The fine-tuning total is
lambda * (L_RL + L_BP) + (1 - lambda) * L_KD.

A fine-tuning step is batched over the whole batch and makes two encoder
calls: the student is encoded once, with gradients, for all three terms,
and the teacher once. Every student decode runs `nat.translate_step`,
decoding's translate step: KD and BP share one decode of the
aligner-fertility copies (supervised training's), RL's sampled and baseline
fertilities share one no-grad decode, and one forced teacher pass
(`teacher.forced_log_probs`, which candidate scoring also runs) scores
every BP, reward and baseline output. ``rkl_value`` and
``fertility_log_prob`` are the same code at batch size one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nat as NAT
from . import teacher as AR
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig, TrainConfig
from .data import EOS, PAD, Batch, DataError, Vocab, make_batches, pad_block
from .layers import MASK_BIAS
from .optim import AdamWarmup
from .tensor import Tensor


# ---------------------------------------------------------------------------
# training log
# ---------------------------------------------------------------------------

class TrainingLog:
    """Append-only line-delimited JSON records; also kept in memory for
    plotting learning curves."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        self.records: list[dict] = []
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(self, **fields) -> None:
        self.records.append(fields)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(fields) + "\n")


# ---------------------------------------------------------------------------
# distillation corpus
# ---------------------------------------------------------------------------

@dataclass
class DistilledCorpus:
    pairs: list[tuple[list[int], list[int]]]


DISTILL_CHUNK = 32   # sources per batched greedy decode


def build_distill_corpus(pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                         teacher_model: AR.TeacherModel,
                         beam_width: int | None = None) -> DistilledCorpus:
    """Re-target the corpus with the frozen teacher's own decodes.

    With no `beam_width`, greedy decoding sorts the sources by length and
    decodes them in chunks of `DISTILL_CHUNK` with `greedy_decode_batch`;
    with one, beam decoding of that width goes one sentence at a time.
    Either way each target equals the sentence's own
    `greedy_decode`/`beam_decode`, as it came out (empty included), and
    pairs keep the corpus order. Every source is checked before anything is
    decoded.
    """
    srcs = [list(src) for src, _ in pairs]
    limit = teacher_model.cfg.max_len
    for i, src in enumerate(srcs):
        if not src:
            raise DataError(f"empty source sentence at corpus index {i}")
        if len(src) > limit:
            raise DataError(f"source sentence of length {len(src)} exceeds "
                            f"max_len {limit} at corpus index {i}")
    if beam_width is None:
        hyps: list[list[int]] = [[] for _ in srcs]
        order = sorted(range(len(srcs)), key=lambda i: len(srcs[i]))
        for start in range(0, len(order), DISTILL_CHUNK):
            chunk = order[start:start + DISTILL_CHUNK]
            decoded = AR.greedy_decode_batch([srcs[i] for i in chunk], teacher_model)
            for i, hyp in zip(chunk, decoded):
                hyps[i] = hyp
    else:
        hyps = [AR.beam_decode(src, teacher_model, b=beam_width) for src in srcs]
    return DistilledCorpus(list(zip(srcs, hyps)))


# ---------------------------------------------------------------------------
# supervised training step
# ---------------------------------------------------------------------------

@dataclass
class MlStepResult:
    translation_loss: float
    fertility_loss: float

    @property
    def total(self) -> float:
        # the proposal is deterministic, so its entropy adds exactly nothing
        return self.translation_loss + self.fertility_loss


def _nat_losses(batch: Batch, model: NAT.NatModel) -> tuple[Tensor, Tensor]:
    """Mean-per-position translation and fertility cross-entropies for one
    batch carrying aligner fertilities."""
    return _nat_forward(batch, model, model.encode(batch.src, batch.src_len))[:2]


def _nat_forward(batch: Batch, model: NAT.NatModel, memory: Tensor
                 ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """`_nat_losses` from the batch's encoder memory, plus the fertility
    log-probs and the decoder logits at the aligner's copied inputs that
    the losses come from."""
    if batch.fertility is None:
        raise ValueError("batch carries no fertility supervision")
    sums = batch.fertility.sum(axis=1)
    if not np.array_equal(sums, batch.tgt_len):
        bad = int(np.flatnonzero(sums != batch.tgt_len)[0])
        raise ValueError(
            f"fertility sum {int(sums[bad])} != target length "
            f"{int(batch.tgt_len[bad])} at batch row {bad}")

    fert_lp = T.log_softmax(model.fertility_logits(memory), axis=-1)
    src_valid = np.arange(batch.src.shape[1])[None, :] < batch.src_len[:, None]
    fert_loss = T.cross_entropy(fert_lp, batch.fertility, src_valid)

    logits, _ = NAT.translate_step(model, memory, batch.src, batch.src_len,
                                   batch.fertility)
    # the fertility sums equal tgt_len, so the decoder is as wide as the target
    tgt_valid = np.arange(batch.tgt.shape[1])[None, :] < batch.tgt_len[:, None]
    trans_loss = T.cross_entropy(T.log_softmax(logits, axis=-1), batch.tgt, tgt_valid)
    return trans_loss, fert_loss, fert_lp, logits


def nat_ml_step(batch: Batch, model: NAT.NatModel, optim: AdamWarmup) -> MlStepResult:
    """One step on the two-term supervised objective: token cross-entropy at
    the aligner's copied inputs plus fertility cross-entropy."""
    trans_loss, fert_loss = _nat_losses(batch, model)
    model.zero_grad()
    T.backward(T.add(trans_loss, fert_loss))
    optim.step()
    return MlStepResult(float(trans_loss.item()), float(fert_loss.item()))


# ---------------------------------------------------------------------------
# encoder seeding
# ---------------------------------------------------------------------------

def init_encoder_from_teacher(student: NAT.NatModel,
                              exported: Sequence[tuple[str, np.ndarray]]) -> None:
    """Copy exported encoder parameters into the student by name; fertility
    head and decoder stay untouched."""
    _copy_parameters({n: p for n, p in student.named_parameters()
                      if n.startswith("encoder.")},
                     dict(exported), "encoder import from the teacher")


def _copy_parameters(params: dict[str, Tensor], arrays: dict[str, np.ndarray],
                     source: str) -> None:
    """Copy `arrays` into the same-named `params`. A missing, unexpected or
    mis-shaped name raises a `DataError` naming each of them and `source`,
    before anything is copied."""
    problems = [f"missing parameter {n}" for n in sorted(params.keys() - arrays.keys())]
    problems += [f"unexpected parameter {n}"
                 for n in sorted(arrays.keys() - params.keys())]
    problems += [f"shape mismatch {n}: {arrays[n].shape} given, {params[n].shape} "
                 f"expected" for n in sorted(params.keys() & arrays.keys())
                 if arrays[n].shape != params[n].shape]
    if problems:
        raise DataError(f"{'; '.join(problems)}: {source}")
    for name, arr in arrays.items():
        params[name].data[...] = arr


# ---------------------------------------------------------------------------
# fine-tuning terms
# ---------------------------------------------------------------------------

def rkl_values(src: np.ndarray, src_len: np.ndarray,
               groups: Sequence[tuple[Tensor, np.ndarray, np.ndarray]],
               teacher_model: AR.TeacherModel) -> list[Tensor]:
    """Teacher-weighted student expectations for groups of student decodes
    of one source batch.

    A group is (student logits [R, t, V], output lengths [R], source row of
    each of the R rows). Each row's output is the per-position argmax of its
    student distribution, with the padding id masked out as in every decode
    path. The frozen teacher is force-decoded on that output, and the value
    is sum_t sum_y log p_teacher(y | output_<t, x) * p_student(y at t), plus
    the teacher's end-marker log-prob, so a one-hot student recovers exactly
    the teacher's score of the output. Padded positions weigh zero. One
    forced teacher pass (`teacher.forced_log_probs`) covers every row of
    every group. Returns one [R] tensor per group, a graph node when its
    logits are one.
    """
    probs, outputs = [], []
    for logits, out_len, _ in groups:
        pad_bias = np.zeros(logits.shape[-1], dtype=np.float32)
        pad_bias[PAD] = MASK_BIAS
        p = T.softmax(T.add(logits, Tensor(pad_bias)), axis=-1)
        top = p.data.argmax(axis=-1)
        outputs += [top[r, :n].tolist() for r, n in enumerate(out_len)]
        probs.append(p)
    t_logp = AR.forced_log_probs(teacher_model, src, src_len, outputs,
                                 np.concatenate([rows for _, _, rows in groups]))

    values, start = [], 0
    for p, (_, out_len, _) in zip(probs, groups):
        n_rows, width = p.shape[:2]
        lp = t_logp[start : start + n_rows]
        start += n_rows
        valid = np.arange(width)[None, :, None] < out_len[:, None, None]
        weight = np.where(valid, lp[:, :width], np.float32(0.0))
        eos = lp[np.arange(n_rows), out_len, EOS]
        values.append(T.add(T.tsum(T.mul(p, Tensor(weight)), axis=(1, 2)),
                            Tensor(eos)))
    return values


def rkl_value(src_ids: Sequence[int], fertility: Sequence[int],
              student: NAT.NatModel, teacher_model: AR.TeacherModel,
              with_grad: bool = True):
    """`rkl_values` for one sentence whose student translates the copies of
    one fertility sequence. Returned as a scalar graph node unless
    ``with_grad`` is off."""
    src, src_len = pad_block([src_ids])
    with contextlib.nullcontext() if with_grad else T.no_grad():
        logits, dec_len = NAT.translate_step(student, student.encode(src, src_len),
                                             src, src_len, np.array([fertility]))
    [value] = rkl_values(src, src_len, [(logits, dec_len, np.zeros(1, dtype=np.int64))],
                         teacher_model)
    return T.tsum(value)


def _weighted_fertility_log_prob(fert_lp: Tensor, fertility: np.ndarray,
                                 src_len: np.ndarray, weight: np.ndarray) -> Tensor:
    """sum_i weight[i] * sum_{j < src_len[i]} fert_lp[i, j, fertility[i, j]]."""
    pick = np.zeros(fert_lp.shape, dtype=np.float32)
    rows, cols = np.nonzero(np.arange(fert_lp.shape[1])[None, :] < src_len[:, None])
    pick[rows, cols, fertility[rows, cols]] = weight[rows]
    return T.tsum(T.mul(fert_lp, Tensor(pick)))


def fertility_log_prob(src_ids: Sequence[int], fertility: Sequence[int],
                       model: NAT.NatModel) -> Tensor:
    """Differentiable sum of per-position fertility log-probs."""
    src, src_len = pad_block([src_ids])
    memory = model.encode(src, src_len)
    fert_lp = T.log_softmax(model.fertility_logits(memory), axis=-1)
    return _weighted_fertility_log_prob(
        fert_lp, np.asarray(fertility, dtype=np.int64)[None, :], src_len,
        np.ones(1, dtype=np.float32))


@dataclass
class FinetuneResult:
    l_rl: float
    l_bp: float
    l_kd: float
    total: float


def finetune_step(batch: Batch, model: NAT.NatModel,
                  teacher_model: AR.TeacherModel, lam: float,
                  optim: AdamWarmup, rng: np.random.Generator,
                  terms: Sequence[str] = ("rl", "bp", "kd")) -> FinetuneResult:
    """One fine-tuning step over the whole batch.

    kd: the supervised two-term loss on the (distilled) batch targets.
    bp: negated `rkl_values` at the aligner fertilities, gradients flowing
        through the student token distributions.
    rl: single-sample score-function estimate. A fertility sequence is drawn
        per sentence; the advantage against the rounded-average baseline
        multiplies the gradient of its log-probability. Reported value is the
        negated sampled reward.

    The terms share the student's memory and decodes as the module says: bp
    relaxes kd's logits, and rl's one no-grad `nat.translate_step` covers
    2B rows, the samples and then the rounded-average baselines, each fitted
    like a decode's candidates (`nat.fit_fertility`). Fertility samples are
    drawn in one call over every real source position, in batch order, as
    sentence-by-sentence draws would come.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"interpolation weight {lam} outside [0, 1]")
    unknown = set(terms) - {"rl", "bp", "kd"}
    if unknown:
        raise ValueError(f"unknown fine-tuning terms {sorted(unknown)}")
    if batch.fertility is None:
        raise ValueError("fine-tuning needs aligner fertilities on the batch")

    contributions: list[Tensor] = []
    l_rl = l_bp = l_kd = 0.0
    b = batch.size
    scale = Tensor(np.float32(lam / b))

    use_rl = "rl" in terms and lam > 0.0
    use_bp = "bp" in terms and lam > 0.0
    use_kd = "kd" in terms and lam < 1.0

    memory = model.encode(batch.src, batch.src_len)
    trans_loss, fert_loss, fert_lp, logits = _nat_forward(batch, model, memory)
    if use_kd:
        kd = T.add(trans_loss, fert_loss)
        l_kd = float(kd.item())
        contributions.append(T.mul(kd, Tensor(np.float32(1.0 - lam))))

    groups = []
    if use_bp:
        groups.append((logits, batch.tgt_len, np.arange(b)))
    if use_rl:
        probs = NAT.fertility_dist_batch(batch.src_len, model, memory)
        real = np.arange(batch.src.shape[1])[None, :] < batch.src_len[:, None]
        # one draw per real position, sentence by sentence, as the uniforms
        # of per-sentence draws would come
        sampled = np.zeros(batch.src.shape, dtype=np.int64)
        sampled[real] = NAT.sample_fertilities(probs[real], 1, rng)[0]
        # score function keeps the raw draw; only the translation input is
        # fitted, so the estimator stays unbiased
        rows = np.tile(np.arange(b), 2)
        ferts = NAT.fit_fertility(
            np.concatenate([sampled, NAT.average_fertility(probs)]), probs[rows],
            NAT.max_output_len(model, teacher_model))
        with T.no_grad():
            rl_logits, dec_len = NAT.translate_step(model, memory, batch.src,
                                                    batch.src_len, ferts, rows)
        groups.append((rl_logits, dec_len, rows))
    values = rkl_values(batch.src, batch.src_len, groups, teacher_model) if groups else []

    if use_bp:
        l_bp = -float(values[0].data.astype(np.float64).sum()) / b
        contributions.append(T.mul(T.neg(T.tsum(values[0])), scale))
    if use_rl:
        scores = values[-1].data.astype(np.float64)
        reward, advantage = scores[:b], scores[:b] - scores[b:]
        l_rl = -float(reward.sum()) / b
        if advantage.any():
            surrogate = _weighted_fertility_log_prob(
                fert_lp, sampled, batch.src_len, (-advantage).astype(np.float32))
            contributions.append(T.mul(surrogate, scale))

    model.zero_grad()
    if contributions:
        T.backward(functools.reduce(T.add, contributions))
    optim.step()
    return FinetuneResult(l_rl, l_bp, l_kd,
                          lam * (l_rl + l_bp) + (1.0 - lam) * l_kd)


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def _batch_stream(pairs, tcfg: TrainConfig, fertilities=None):
    if not pairs:
        raise DataError("no sentence pairs to train on")
    rng = np.random.default_rng(tcfg.seed)
    while True:
        for b in make_batches(pairs, tcfg.batch_size, rng=rng,
                              fertilities=fertilities):
            yield b


def _train_loop(phase: str, model, step_fn, pairs, tcfg: TrainConfig,
                log: TrainingLog | None, fertilities=None) -> None:
    """Run ``tcfg.steps`` steps of ``step_fn(batch, optim)`` over shuffled
    batches with one `AdamWarmup` over the model's parameters. ``step_fn``
    returns the step's loss fields, ``loss`` first. Every ``log_every``
    steps, and at the last, the fields are recorded with the rate, the
    optimizer's gradient norm and the target tokens per second since the
    previous record."""
    opt = AdamWarmup(list(model.named_parameters()),
                     scale=tcfg.scale_for(model.cfg), warmup=tcfg.warmup)
    start = last = time.perf_counter()
    tokens = 0
    for step, batch in enumerate(_batch_stream(pairs, tcfg, fertilities), start=1):
        fields = step_fn(batch, opt)
        tokens += int(batch.tgt_len.sum())
        if log and (step % tcfg.log_every == 0 or step == tcfg.steps):
            now = time.perf_counter()
            log.record(step=step, phase=phase, **fields, lr=opt.lr,
                       grad_norm=opt.grad_norm,
                       tokens_per_s=tokens / (now - last), wall=now - start)
            tokens, last = 0, now
        if step >= tcfg.steps:
            break


def train_teacher(pairs, cfg: ModelConfig, tcfg: TrainConfig,
                  log: TrainingLog | None = None) -> AR.TeacherModel:
    model = AR.TeacherModel(cfg, np.random.default_rng(tcfg.seed))
    _train_loop("teacher", model,
                lambda batch, opt: {"loss": AR.ar_train_step(batch, model, opt)},
                pairs, tcfg, log)
    return model


def train_nat(pairs, fertilities, cfg: ModelConfig, tcfg: TrainConfig,
              log: TrainingLog | None = None,
              init_from: Sequence[tuple[str, np.ndarray]] | None = None
              ) -> NAT.NatModel:
    """Train a parallel model on `pairs` with one fertility row per pair:
    one entry per source token, summing to the target length (the aligner's
    guarantee, and what `cli` checks of a fertility file)."""
    model = NAT.NatModel(cfg, np.random.default_rng(tcfg.seed))
    if init_from is not None:
        init_encoder_from_teacher(model, init_from)

    def step(batch, opt):
        res = nat_ml_step(batch, model, opt)
        return {"loss": res.total, "translation_loss": res.translation_loss,
                "fertility_loss": res.fertility_loss}

    _train_loop("nat", model, step, pairs, tcfg, log, fertilities)
    return model


def finetune(model: NAT.NatModel, teacher_model: AR.TeacherModel,
             pairs, fertilities, tcfg: TrainConfig,
             log: TrainingLog | None = None) -> NAT.NatModel:
    rng = np.random.default_rng(tcfg.seed + 1)

    def step(batch, opt):
        res = finetune_step(batch, model, teacher_model, tcfg.lam, opt, rng,
                            terms=tcfg.finetune_terms)
        return {"loss": res.total, "l_rl": res.l_rl, "l_bp": res.l_bp,
                "l_kd": res.l_kd}

    _train_loop("finetune", model, step, pairs, tcfg, log, fertilities)
    return model


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

def save_model(path, model, src_vocab: Vocab, tgt_vocab: Vocab) -> None:
    params = [(n, p.data) for n, p in model.named_parameters()]
    save_checkpoint(path, model.kind, model.cfg.to_dict(), params,
                    src_vocab, tgt_vocab)


def load_model(path, kind: str | None = None):
    """Returns (model, src_vocab, tgt_vocab). A checkpoint whose kind is
    unknown or not `kind` (if given), whose config or parameters do not fit
    a model, or whose token lists are not exactly the config vocabularies
    raises a `DataError` naming the file: an id past the embedding table
    would index out of it, and a decoded id past the list has no token."""
    ckpt = load_checkpoint(path)
    models = {"teacher": AR.TeacherModel, "nat": NAT.NatModel}
    if ckpt.kind not in models:
        raise DataError(f"unknown checkpoint kind {ckpt.kind!r}: {path}")
    if kind not in (None, ckpt.kind):
        raise DataError(f"checkpoint {path} holds a {ckpt.kind} model, "
                        f"expected {kind}")
    try:
        cfg = ModelConfig.from_dict(ckpt.config)
    except DataError as e:
        raise DataError(f"{e}: {path}") from None
    sizes = len(ckpt.src_vocab), len(ckpt.tgt_vocab)
    if sizes != (cfg.src_vocab, cfg.tgt_vocab):
        raise DataError(f"checkpoint vocabularies of {sizes[0]} and {sizes[1]} "
                        f"tokens do not match config src_vocab {cfg.src_vocab} "
                        f"and tgt_vocab {cfg.tgt_vocab}: {path}")
    model = models[ckpt.kind](cfg, np.random.default_rng(0))
    _copy_parameters(dict(model.named_parameters()), ckpt.params, str(path))
    return model, ckpt.src_vocab, ckpt.tgt_vocab
