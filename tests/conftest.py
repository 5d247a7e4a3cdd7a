"""Shared fixtures: trained models are expensive, so the copy-task and
multimodal bundles are built once per session and reused."""

import time

import numpy as np
import pytest

import natmt.aligner as AL
import natmt.nat as N
import natmt.pipeline as P
import natmt.synth as SY
import natmt.teacher as AR
from natmt.config import ModelConfig, TrainConfig
from natmt.data import Vocab, encode_corpus, make_batches
from natmt.optim import AdamWarmup


def token_accuracy(hyps, refs):
    """Position-wise match rate against references; length mismatches count
    as errors on the missing positions."""
    matches = total = 0
    for h, r in zip(hyps, refs):
        total += len(r)
        matches += sum(1 for a, b in zip(h, r) if a == b)
    return matches / total


def clone_model(model):
    fresh = type(model)(model.cfg, np.random.default_rng(0))
    table = dict(fresh.named_parameters())
    for name, p in model.named_parameters():
        table[name].data[...] = p.data
    return fresh


def _stream(pairs, batch_size, rng, fertilities=None):
    while True:
        for b in make_batches(pairs, batch_size, rng=rng,
                              fertilities=fertilities):
            yield b


def train_teacher_to(pairs, cfg, *, seed, batch_size=32, scale=None,
                     warmup=200, max_steps=4000, eval_every=200,
                     stop=None) -> AR.TeacherModel:
    """Fixed-budget training with an optional early-stop probe."""
    model = AR.TeacherModel(cfg, np.random.default_rng(seed))
    opt = AdamWarmup(list(model.named_parameters()),
                     scale=scale or cfg.d_model ** -0.5, warmup=warmup)
    stream = _stream(pairs, batch_size, np.random.default_rng(seed + 99))
    for step in range(1, max_steps + 1):
        AR.ar_train_step(next(stream), model, opt)
        if stop is not None and step % eval_every == 0 and stop(model):
            break
    return model


def train_nat_to(pairs, fertilities, cfg, *, seed, init_from=None,
                 batch_size=32, scale=None, warmup=200, max_steps=4000,
                 eval_every=200, stop=None) -> N.NatModel:
    model = N.NatModel(cfg, np.random.default_rng(seed))
    if init_from is not None:
        P.init_encoder_from_teacher(model, init_from)
    opt = AdamWarmup(list(model.named_parameters()),
                     scale=scale or cfg.d_model ** -0.5, warmup=warmup)
    stream = _stream(pairs, batch_size, np.random.default_rng(seed + 99),
                     fertilities=fertilities)
    for step in range(1, max_steps + 1):
        P.nat_ml_step(next(stream), model, opt)
        if stop is not None and step % eval_every == 0 and stop(model):
            break
    return model


# ---------------------------------------------------------------------------
# copy task bundle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def copy_bundle():
    train = SY.gen_copy_corpus(2000, seed=11, vocab=30, min_len=3, max_len=8)
    dev = SY.gen_copy_corpus(200, seed=12, vocab=30, min_len=3, max_len=8)
    sv = Vocab.build(s for s, _ in train)
    tv = Vocab.build(t for _, t in train)
    cfg = ModelConfig(d_model=64, d_hidden=256, n_layer=2, n_head=2,
                      src_vocab=len(sv), tgt_vocab=len(tv), max_len=64)
    enc_train = encode_corpus(train, sv, tv)
    enc_dev = encode_corpus(dev, sv, tv)
    probe = enc_dev[:50]

    def teacher_ready(model):
        hyps = [AR.greedy_decode(s, model) for s, _ in probe]
        return token_accuracy(hyps, [t for _, t in probe]) >= 0.998

    t0 = time.monotonic()
    teacher = train_teacher_to(enc_train, cfg, seed=31, batch_size=64,
                               warmup=300, max_steps=3000, stop=teacher_ready)
    teacher_time = time.monotonic() - t0

    ones = [[1] * len(s) for s, _ in enc_train]

    def nat_ready(model):
        hyps = [N.decode_argmax(s, model).output for s, _ in probe]
        return token_accuracy(hyps, [t for _, t in probe]) >= 0.998

    t0 = time.monotonic()
    nat = train_nat_to(enc_train, ones, cfg, seed=32, batch_size=64,
                       warmup=300, max_steps=3000, stop=nat_ready,
                       init_from=AR.export_encoder(teacher))
    nat_time = time.monotonic() - t0

    return {"cfg": cfg, "sv": sv, "tv": tv, "train": enc_train,
            "dev": enc_dev, "teacher": teacher, "nat": nat,
            "teacher_time": teacher_time, "nat_time": nat_time}


# ---------------------------------------------------------------------------
# multimodal bundle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def multimodal_bundle():
    t_start = time.monotonic()
    train, oracle = SY.gen_synth_multimodal(600, seed=21)
    dev, _ = SY.gen_synth_multimodal(150, seed=22)
    sv = Vocab.build(s for s, _ in train)
    tv = Vocab.build(t for _, t in train)
    cfg = ModelConfig(d_model=64, d_hidden=256, n_layer=2, n_head=2,
                      src_vocab=len(sv), tgt_vocab=len(tv), max_len=32,
                      max_fertility=8)
    enc_train = encode_corpus(train, sv, tv)
    enc_dev = encode_corpus(dev, sv, tv)

    teacher = train_teacher_to(enc_train, cfg, seed=41, batch_size=32,
                               warmup=200, max_steps=1200)
    exported = AR.export_encoder(teacher)

    raw_aligner = AL.em_train(train)
    raw_ferts = AL.corpus_fertilities(train, raw_aligner, cfg.max_fertility)
    nat_raw = train_nat_to(enc_train, raw_ferts, cfg, seed=42,
                           init_from=exported, batch_size=32, warmup=200,
                           max_steps=900)

    distilled = P.build_distill_corpus(enc_train, teacher)
    dist_tok = [(src_tok, tv.decode(tgt_ids))
                for (src_tok, _), (_, tgt_ids) in zip(train, distilled.pairs)]
    dist_aligner = AL.em_train(dist_tok)
    dist_ferts = AL.corpus_fertilities(dist_tok, dist_aligner, cfg.max_fertility)
    enc_dist = [(s, tv.encode(t)) for (s, _), (_, t) in
                zip(enc_train, dist_tok)]
    nat_dist = train_nat_to(enc_dist, dist_ferts, cfg, seed=43,
                            init_from=exported, batch_size=32, warmup=200,
                            max_steps=900)

    def decode_all(model):
        outs = [N.decode_argmax(s, model).output for s, _ in enc_dev]
        return [tv.decode(o) for o in outs]

    return {"cfg": cfg, "sv": sv, "tv": tv, "oracle": oracle,
            "train_tok": train, "dev_tok": dev,
            "enc_train": enc_train, "enc_dev": enc_dev,
            "enc_dist": enc_dist, "dist_ferts": dist_ferts,
            "teacher": teacher, "nat_raw": nat_raw, "nat_dist": nat_dist,
            "decode_all": decode_all,
            "build_seconds": time.monotonic() - t_start}
