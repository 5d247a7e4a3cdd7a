"""Batch-size-one latency comparison between decoding strategies.

By default builds freshly initialised models of matched size and pins every
output length to the source length (end marker suppressed and decodes
capped at the source length for the teacher, unit fertility for the
parallel decoder), since wall-clock depends on shapes rather than weights;
pass --teacher/--nat to time trained checkpoints instead.  Writes a
plot-ready per-sentence TSV and prints mean/median latency, speedups, and
the latency-versus-length slope of each strategy.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import natmt.nat as N
import natmt.pipeline as P
import natmt.teacher as AR
from natmt.bench import bench_latency, latency_slope, write_latency_tsv
from natmt.config import ModelConfig
from natmt.data import EOS, RESERVED


def structural_models(args):
    cfg = ModelConfig(d_model=args.d_model, d_hidden=4 * args.d_model,
                      n_layer=args.n_layer, n_head=2, src_vocab=40,
                      tgt_vocab=40, max_len=2 * max(args.lengths) + 8,
                      max_fertility=4)
    teacher = AR.TeacherModel(cfg, np.random.default_rng(0))
    nat = N.NatModel(cfg, np.random.default_rng(1))
    teacher.proj.bias.data[EOS] = -1e9
    nat.fert_head.weight.data[...] = 0.0
    nat.fert_head.bias.data[...] = np.log([1e-12, 1.0, 1e-12, 1e-12])
    return teacher, nat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/latency.tsv"))
    ap.add_argument("--teacher", type=Path, help="teacher checkpoint")
    ap.add_argument("--nat", type=Path, help="parallel-decoder checkpoint")
    ap.add_argument("--lengths", type=int, nargs="+",
                    default=[4, 8, 12, 16, 20, 24, 28])
    ap.add_argument("--per-length", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--strategies", nargs="+",
                    default=["greedy", "beam:4", "argmax", "average",
                             "npd:10"])
    ap.add_argument("--d-model", type=int, default=64)
    ap.add_argument("--n-layer", type=int, default=2)
    args = ap.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)

    if args.teacher or args.nat:
        teacher = P.load_model(args.teacher)[0] if args.teacher else None
        nat = P.load_model(args.nat)[0] if args.nat else None
        vocab = teacher.cfg.src_vocab if teacher else nat.cfg.src_vocab
    else:
        teacher, nat = structural_models(args)
        vocab = teacher.cfg.src_vocab

    rng = np.random.default_rng(7)
    testset = [tuple(int(x) for x in
                     rng.integers(len(RESERVED), vocab, size=n))
               for n in args.lengths for _ in range(args.per_length)]

    report = bench_latency(testset, teacher_model=teacher, nat_model=nat,
                           strategies=args.strategies,
                           repeats=args.repeats, seed=0,
                           source_length=not (args.teacher or args.nat))
    base = report.baseline
    for spec in args.strategies:
        line = (f"{spec:>8}: mean {report.mean[spec] * 1e3:8.2f} ms  "
                f"median {report.median[spec] * 1e3:8.2f} ms  "
                f"speedup vs {base} {report.speedup(spec):6.2f}x")
        try:
            slope = latency_slope(report.sentences[spec], x="out_len")
            line += f"  slope {slope * 1e3:.4f} ms/token"
        except ValueError:
            pass  # degenerate decodes can collapse to one output length
        print(line)
    write_latency_tsv(report, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
