"""Full pipeline on the synthetic multimodal corpus.

Each source phrase admits several valid translations, so a parallel decoder
trained on raw targets blends them position by position.  The script trains
the teacher, aligns fertilities, trains the parallel decoder on raw and on
teacher-distilled targets, optionally fine-tunes a partially converged
student against the teacher, and writes:

  summary.txt           headline numbers (contamination, BLEU, fine-tune)
  train_log.jsonl       line-delimited training records for every phase
  learning_curve.tsv    plot-ready loss curves
  npd_curve.tsv         BLEU / teacher score against the sample budget
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import natmt.aligner as AL
import natmt.nat as N
import natmt.pipeline as P
import natmt.synth as SY
import natmt.teacher as AR
from natmt.bench import (npd_quality_curve, write_learning_curve_tsv,
                         write_npd_curve_tsv)
from natmt.bleu import bleu
from natmt.config import ModelConfig, TrainConfig
from natmt.data import Vocab, encode_corpus


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("runs/multimodal"))
    ap.add_argument("--size", type=int, default=600)
    ap.add_argument("--dev-size", type=int, default=150)
    ap.add_argument("--teacher-steps", type=int, default=1200)
    ap.add_argument("--nat-steps", type=int, default=900)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--skip-finetune", action="store_true")
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    lines = []

    def say(msg):
        print(msg, flush=True)
        lines.append(msg)

    t_start = time.monotonic()
    train, oracle = SY.gen_synth_multimodal(args.size, seed=args.seed)
    dev, _ = SY.gen_synth_multimodal(args.dev_size, seed=args.seed + 1)
    sv = Vocab.build(s for s, _ in train)
    tv = Vocab.build(t for _, t in train)
    cfg = ModelConfig(d_model=64, d_hidden=256, n_layer=2, n_head=2,
                      src_vocab=len(sv), tgt_vocab=len(tv), max_len=32,
                      max_fertility=8)
    enc_train = encode_corpus(train, sv, tv)
    enc_dev = encode_corpus(dev, sv, tv)
    dev_srcs = [s for s, _ in dev]
    dev_refs = [t for _, t in dev]
    log = P.TrainingLog(args.out_dir / "train_log.jsonl")
    say(f"corpus: {len(train)} train / {len(dev)} dev pairs, "
        f"{len(sv)} source / {len(tv)} target types")

    teacher = P.train_teacher(
        enc_train, cfg,
        TrainConfig(steps=args.teacher_steps, batch_size=32, warmup=200,
                    seed=41, log_every=50), log)
    exported = AR.export_encoder(teacher)
    t_hyps = [tv.decode(AR.greedy_decode(s, teacher)) for s, _ in enc_dev]
    say(f"teacher greedy: BLEU {bleu(t_hyps, dev_refs):.2f}, "
        f"contamination {oracle.contamination_rate(dev_srcs, t_hyps):.3f}")

    def fit_nat(pairs_enc, pairs_tok, seed):
        aligner = AL.em_train(pairs_tok)
        ferts = AL.corpus_fertilities(pairs_tok, aligner, cfg.max_fertility)
        return P.train_nat(
            pairs_enc, ferts, cfg,
            TrainConfig(steps=args.nat_steps, batch_size=32, warmup=200,
                        seed=seed, log_every=50), log,
            init_from=exported), ferts

    def report(tag, model):
        hyps = [tv.decode(N.decode_argmax(s, model).output)
                for s, _ in enc_dev]
        say(f"{tag}: BLEU {bleu(hyps, dev_refs):.2f}, contamination "
            f"{oracle.contamination_rate(dev_srcs, hyps):.3f}")

    nat_raw, _ = fit_nat(enc_train, train, seed=42)
    report("parallel decoder on raw targets", nat_raw)

    distilled = P.build_distill_corpus(enc_train, teacher)
    dist_tok = [(s_tok, tv.decode(t_ids)) for (s_tok, _), (_, t_ids)
                in zip(train, distilled.pairs)]
    enc_dist = [(s, tv.encode(t)) for (s, _), (_, t)
                in zip(enc_train, dist_tok)]
    say(f"distilled corpus: {len(dist_tok)} pairs, "
        f"{distilled.replaced_empty} empty decode(s) replaced")
    nat_dist, dist_ferts = fit_nat(enc_dist, dist_tok, seed=43)
    report("parallel decoder on distilled targets", nat_dist)

    counts = (1, 2, 5, 10, 20)
    rows = npd_quality_curve([s for s, _ in enc_dev],
                             [t for _, t in enc_dev], nat_dist, teacher,
                             counts, seed=0)
    for s, b, m in rows:
        say(f"noisy decoding s={s:>2}: BLEU {b:.2f}, "
            f"mean teacher score {m:.4f}")
    write_npd_curve_tsv(rows, args.out_dir / "npd_curve.tsv")

    if not args.skip_finetune:
        # fine-tune from a mid-training checkpoint; the fully converged
        # student leaves no gradient signal on this saturated synthetic task
        warm = P.train_nat(
            enc_dist, dist_ferts, cfg,
            TrainConfig(steps=400, batch_size=32, warmup=200, seed=43,
                        log_every=100), init_from=exported)

        def score_state(model):
            outs = [N.decode_argmax(s, model).output for s, _ in enc_dev]
            sc = statistics.fmean(AR.score_parallel(s, o, teacher)
                                  for (s, _), o in zip(enc_dev, outs))
            return bleu([tv.decode(o) for o in outs], dev_refs), sc

        b0, s0 = score_state(warm)
        P.finetune(warm, teacher, enc_dist, dist_ferts,
                   TrainConfig(steps=200, batch_size=16, lr_scale=0.01,
                               warmup=50, seed=7, lam=0.25, log_every=50),
                   log)
        b1, s1 = score_state(warm)
        say(f"fine-tune of a 400-step student: BLEU {b0:.2f} -> {b1:.2f}, "
            f"mean teacher score {s0:.4f} -> {s1:.4f}")

    write_learning_curve_tsv(log.records, args.out_dir / "learning_curve.tsv")
    say(f"total wall: {time.monotonic() - t_start:.0f}s")
    (args.out_dir / "summary.txt").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    print(f"wrote {args.out_dir}/summary.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
