"""Output fingerprint of the whole pipeline at tiny size.

For each of three model shapes, trains a teacher, distills the corpus with it,
aligns the distilled corpus, trains a parallel model on it, fine-tunes that
model with every loss term, then decodes a few sources with every strategy.
Prints one SHA-256 per stage:

  SHAPE.teacher    teacher parameters
  SHAPE.distill    distilled targets
  SHAPE.align      lexical and positional tables, log-likelihood history,
                   Viterbi alignments and fertilities
  SHAPE.nat        parallel-model parameters
  SHAPE.finetune   parameters after fine-tuning
  SHAPE.STRATEGY   outputs and fertilities of `greedy`, `beam:2`, `argmax`,
                   `average` and `npd:5`
  SHAPE.score      teacher scores (`score_candidates`) of a ragged list of
                   candidates, the empty one included, for a few sources

Two runs of the same code on the same machine print the same hashes; a
change that keeps every output bit-identical keeps every hash. The hashes
depend on the BLAS build, so compare them on one machine only.

Usage: PYTHONPATH=src python3 scripts/fingerprint.py
"""

import hashlib
import sys
import warnings

import numpy as np

import natmt.aligner as AL
import natmt.pipeline as P
import natmt.synth as SY
import natmt.teacher as AR
from natmt.bench import decoder
from natmt.config import ModelConfig, TrainConfig
from natmt.data import Vocab, encode_corpus

# `layers.TokenRows` packs the real rows of a no-grad pass only at widths that
# are multiples of 16; 2x24 keeps every padded block whole
SHAPES = {"1x16": dict(d_model=16, d_hidden=32, n_layer=1, n_head=1),
          "2x32": dict(d_model=32, d_hidden=64, n_layer=2, n_head=2),
          "2x24": dict(d_model=24, d_hidden=40, n_layer=2, n_head=2)}
STRATEGIES = ("greedy", "beam:2", "argmax", "average", "npd:5")


def _feed(h, x) -> None:
    """Add `x` to the hash `h` in one canonical, type-tagged byte form."""
    if isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        h.update(b"d%d" % len(x))
        for k, v in x.items():               # insertion order is part of it
            _feed(h, k)
            _feed(h, v)
    elif isinstance(x, (list, tuple)):
        h.update(b"l%d" % len(x))
        for v in x:
            _feed(h, v)
    elif isinstance(x, (bool, np.bool_, int, np.integer)):
        h.update(b"i%d" % int(x))
    elif isinstance(x, float):
        h.update(b"f" + float(x).hex().encode())
    elif x is None:
        h.update(b"n")
    else:
        h.update(b"s" + str(x).encode())


def digest(*items) -> str:
    h = hashlib.sha256()
    for x in items:
        _feed(h, x)
    return h.hexdigest()


def _params(model) -> list:
    return [(name, p.data) for name, p in model.named_parameters()]


def fingerprint(shape: dict) -> dict:
    """Stage name -> SHA-256 of that stage's outputs for one model shape."""
    pairs, _ = SY.gen_planted_dictionary(64, seed=11, vocab=12, min_len=2, max_len=5)
    # target word tI repeated 1 + I % 3 times, so fertilities vary by word
    train = [(src, [w for t in tgt for w in [t] * (1 + int(t[1:]) % 3)])
             for src, tgt in pairs]
    sv = Vocab.build(s for s, _ in train)
    tv = Vocab.build(t for _, t in train)
    cfg = ModelConfig(**shape, src_vocab=len(sv), tgt_vocab=len(tv), max_len=20,
                      max_fertility=8)
    enc = encode_corpus(train, sv, tv)
    out = {}

    teacher = P.train_teacher(enc, cfg, TrainConfig(steps=150, batch_size=16,
                                                    warmup=40, seed=1))
    out["teacher"] = digest(_params(teacher))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # empty decodes are replaced
        distilled = P.build_distill_corpus(enc, teacher)
    out["distill"] = digest(distilled.pairs, distilled.replaced_empty)

    dist_tok = [(src, tv.decode(hyp)) for (src, _), (_, hyp)
                in zip(train, distilled.pairs)]
    aligner = AL.em_train(dist_tok)
    alignments = AL.corpus_alignments(dist_tok, aligner)
    ferts = AL.corpus_fertilities(dist_tok, aligner, cfg.max_fertility)
    out["align"] = digest(aligner.lex, aligner.pos, aligner.ll_history,
                          alignments, ferts)

    nat = P.train_nat(distilled.pairs, ferts, cfg,
                      TrainConfig(steps=60, batch_size=16, warmup=40, seed=2),
                      init_from=AR.export_encoder(teacher))
    out["nat"] = digest(_params(nat))

    P.finetune(nat, teacher, distilled.pairs, ferts,
               TrainConfig(steps=3, batch_size=4, warmup=5, seed=3, lam=0.25))
    out["finetune"] = digest(_params(nat))

    sources = [src for src, _ in enc[:6]]
    for spec in STRATEGIES:
        decode = decoder(spec, teacher, nat, seed=0)
        results = [decode(src) for src in sources]
        out[spec] = digest([(r.output, r.fertility) for r in results])

    candidates = [tgt for _, tgt in enc[:8]] + [[]]
    out["score"] = digest([AR.score_candidates(src, candidates, teacher)
                           for src in sources])
    return out


def main() -> int:
    for name, shape in SHAPES.items():
        for stage, h in fingerprint(shape).items():
            print(f"{name}.{stage} {h}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
