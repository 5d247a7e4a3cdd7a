"""Command-line surface tying the pieces together.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import aligner as AL
from . import bench as B
from . import pipeline as P
from . import synth as SY
from . import teacher as AR
from .bleu import bleu
from .config import SIZE_LIMITS, ModelConfig, TrainConfig
from .data import (DataError, Vocab, at_least, check_corpus, check_lines, coerce,
                   encode_corpus, integer, load_corpus, read_config,
                   read_fertilities, read_parallel, read_sentences, real,
                   save_corpus)
from .tensor import NumericError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_MODEL_FIELDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# configuration keys with a dedicated flag (`batch_size` is `--batch-size`)
_CONFIG_FLAGS = tuple((key, real if key == "lam" else integer) for key in (
    "steps", "batch_size", "seed", "warmup", "lam", "d_model", "n_layer",
    "max_fertility", "log_every"))


def gather_config(args) -> dict:
    """File values first, then --set pairs, then dedicated flags."""
    types = {**_MODEL_FIELDS, **_TRAIN_FIELDS}
    cfg = read_config(args.config, types) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key] = coerce(key.strip(), value.strip(), types)
    for key, _ in _CONFIG_FLAGS:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def split_config(cfg: dict, **fixed) -> tuple[ModelConfig, TrainConfig]:
    """The model and training configs of `cfg` with the keys the command
    fixes (from its corpus or a checkpoint); a given key may only repeat
    its fixed value."""
    for key, value in fixed.items():
        if cfg.get(key, value) != value:
            raise DataError(f"configuration key {key!r} is fixed at {value} by "
                            f"the corpus or a checkpoint, got {cfg[key]}")
    cfg = dict(cfg, **fixed)
    return (ModelConfig(**{k: v for k, v in cfg.items() if k in _MODEL_FIELDS}),
            TrainConfig(**{k: v for k, v in cfg.items() if k in _TRAIN_FIELDS}))


def _add_config_flags(sp):
    sp.add_argument("--config", help="key=value file, one setting per line")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override one configuration key")
    for key, typ in _CONFIG_FLAGS:
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=typ)
    sp.add_argument("--log", help="JSONL training log path")


def _check_same_vocabs(teacher_path, teacher_vocabs, nat_path, nat_vocabs) -> None:
    """Refuse a teacher and a parallel model whose (source, target)
    vocabularies differ: each would read the other's token ids as its own."""
    if any(a.tokens != b.tokens for a, b in zip(teacher_vocabs, nat_vocabs)):
        raise DataError(f"checkpoints {teacher_path} and {nat_path} have "
                        "different vocabularies")


def _save_trained(args, model, sv, tv, log, done: str) -> None:
    """Save a trained model to --out and report `done` with the last loss."""
    P.save_model(args.out, model, sv, tv)
    last = log.records[-1]["loss"] if log.records else float("nan")
    print(f"{done}, final loss {last:.4f}, saved to {args.out}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train_teacher(args) -> None:
    pairs_tok = load_corpus(args.corpus)
    sv = Vocab.build((s for s, _ in pairs_tok), args.min_freq)
    tv = Vocab.build((t for _, t in pairs_tok), args.min_freq)
    mcfg, tcfg = split_config(gather_config(args),
                              src_vocab=len(sv), tgt_vocab=len(tv))
    check_corpus(args.corpus, pairs_tok, mcfg.max_len)
    log = P.TrainingLog(args.log)
    model = P.train_teacher(encode_corpus(pairs_tok, sv, tv), mcfg, tcfg, log)
    _save_trained(args, model, sv, tv, log,
                  f"trained teacher for {tcfg.steps} steps")


def cmd_distill(args) -> None:
    model, sv, tv = P.load_model(args.teacher, "teacher")
    if args.mode == "beam":
        at_least("--beam", args.beam, 1)
        if args.beam > B.STRATEGY_CEILING:
            raise DataError(f"--beam must be at most {B.STRATEGY_CEILING}, "
                            f"got {args.beam}")
    pairs_tok = load_corpus(args.corpus)
    if not pairs_tok:
        raise DataError(f"corpus {args.corpus} has no source lines")
    check_lines(f"{args.corpus}.src", [s for s, _ in pairs_tok], model.cfg.max_len)
    enc = encode_corpus(pairs_tok, sv, tv)
    out = P.build_distill_corpus(enc, model, mode=args.mode, beam_width=args.beam)
    # a target of no word (an empty decode, only <unk>) fails check_corpus
    decoded = [(src_tok, tgt_tok) for (src_tok, _), (_, tgt_ids)
               in zip(pairs_tok, out.pairs) if (tgt_tok := tv.decode(tgt_ids))]
    if not decoded:
        raise DataError(f"teacher {args.teacher} decodes every source of "
                        f"{args.corpus} to an empty target")
    save_corpus(args.out_prefix, decoded)
    print(f"distilled {len(decoded)} pairs with {args.mode} decoding "
          f"({len(pairs_tok) - len(decoded)} empty targets dropped) to {args.out_prefix}")


def cmd_align(args) -> None:
    at_least("--max-fertility", args.max_fertility, 2, " (fertility classes 0 and 1)")
    at_least("--iters-m1", args.iters_m1, 0)
    at_least("--iters-m2", args.iters_m2, 0)
    if not args.iters_m1 and not args.iters_m2:
        raise DataError("--iters-m1 and --iters-m2 are both 0; at least one "
                        "EM iteration must run")
    pairs_tok = load_corpus(args.corpus)
    check_corpus(args.corpus, pairs_tok)
    if args.fertilities_out:   # some fertility row must cover each target line
        cap = args.max_fertility - 1
        for ln, (src, tgt) in enumerate(pairs_tok, 1):
            if len(tgt) > cap * len(src):
                raise DataError(f"{args.corpus}.tgt:{ln}: {len(tgt)} target tokens "
                                f"do not fit {len(src)} source tokens of fertility "
                                f"at most {cap} (--max-fertility {args.max_fertility})")
    model = AL.em_train(pairs_tok, args.iters_m1, args.iters_m2)
    if args.alignments_out or args.fertilities_out:
        alignments = AL.corpus_alignments(pairs_tok, model)
    if args.alignments_out:
        lines = AL.dump_alignments(alignments)
        Path(args.alignments_out).write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
    if args.fertilities_out:
        ferts = AL.alignment_fertilities(alignments, [len(s) for s, _ in pairs_tok],
                                         args.max_fertility)
        text = "\n".join(" ".join(str(f) for f in row) for row in ferts)
        Path(args.fertilities_out).write_text(text + "\n", encoding="utf-8")
    last_phase = "m2" if args.iters_m2 else "m1"
    print(f"aligned {len(pairs_tok)} pairs; final log-likelihood "
          f"{model.ll_history[last_phase][-1]:.4f}")


def cmd_train_nat(args) -> None:
    pairs_tok = load_corpus(args.corpus)
    exported = None
    if args.init_encoder:
        teacher_model, sv, tv = P.load_model(args.init_encoder, "teacher")
        exported = AR.export_encoder(teacher_model)
        # shared-trunk shape must match the teacher; max_fertility stays free
        tc = teacher_model.cfg
        fixed = {k: getattr(tc, k) for k in
                 ("d_model", "d_hidden", "n_layer", "n_head", "src_vocab",
                  "tgt_vocab", "max_len")}
    else:
        sv = Vocab.build((s for s, _ in pairs_tok), args.min_freq)
        tv = Vocab.build((t for _, t in pairs_tok), args.min_freq)
        fixed = {"src_vocab": len(sv), "tgt_vocab": len(tv)}
    mcfg, tcfg = split_config(gather_config(args), **fixed)
    check_corpus(args.corpus, pairs_tok, mcfg.max_len, parallel=True)
    ferts = read_fertilities(args.fertilities, pairs_tok, mcfg.max_fertility)
    log = P.TrainingLog(args.log)
    model = P.train_nat(encode_corpus(pairs_tok, sv, tv), ferts, mcfg, tcfg, log,
                        init_from=exported)
    _save_trained(args, model, sv, tv, log,
                  f"trained parallel model for {tcfg.steps} steps")


def cmd_finetune(args) -> None:
    model, sv, tv = P.load_model(args.nat, "nat")
    teacher_model, tsv, ttv = P.load_model(args.teacher, "teacher")
    _check_same_vocabs(args.teacher, (tsv, ttv), args.nat, (sv, tv))
    pairs_tok = load_corpus(args.corpus)
    check_corpus(args.corpus, pairs_tok,
                 min(model.cfg.max_len, teacher_model.cfg.max_len), parallel=True)
    ferts = read_fertilities(args.fertilities, pairs_tok, model.cfg.max_fertility)
    _, tcfg = split_config(gather_config(args), **model.cfg.to_dict())
    log = P.TrainingLog(args.log)
    P.finetune(model, teacher_model, encode_corpus(pairs_tok, sv, tv), ferts,
               tcfg, log)
    _save_trained(args, model, sv, tv, log,
                  f"fine-tuned for {tcfg.steps} steps (lambda {tcfg.lam})")


def cmd_translate(args) -> None:
    at_least("--seed", args.seed, 0)
    model, sv, tv = P.load_model(args.model)
    sents = read_sentences(args.input)
    models = {model.kind: model}
    if args.strategy == "npd" and model.kind == "nat":
        if not args.teacher:
            raise UsageError("npd strategy requires --teacher")
        teacher_model, tsv, ttv = P.load_model(args.teacher, "teacher")
        _check_same_vocabs(args.teacher, (tsv, ttv), args.model, (sv, tv))
        models["teacher"] = teacher_model
    spec = {"beam": f"beam:{args.beam}",
            "npd": f"npd:{args.samples}"}.get(args.strategy, args.strategy)
    decode = B.decoder(spec, models.get("teacher"), models.get("nat"), args.seed)
    check_lines(args.input, sents, min(m.cfg.max_len for m in models.values()))
    outputs = [tv.decode(decode(sv.encode(sent)).output) for sent in sents]
    text = "\n".join(" ".join(toks) for toks in outputs)
    if args.output:
        Path(args.output).write_text(text + "\n" if text else "",
                                     encoding="utf-8")
    else:
        print(text)


def cmd_score(args) -> None:
    model, sv, tv = P.load_model(args.teacher, "teacher")
    srcs, cands = read_parallel(args.source, args.candidates)
    check_lines(args.source, srcs, model.cfg.max_len)
    # an empty candidate scores the end marker alone
    check_lines(args.candidates, cands, model.cfg.max_len, target=True,
                noun="candidate", empty=None)
    for src, cand in zip(srcs, cands):
        score = AR.score_parallel(sv.encode(src), tv.encode(cand), model)
        print(f"{score:.4f}")


def cmd_bleu(args) -> None:
    hyps, refs = read_parallel(args.hypotheses, args.references)
    if not refs:
        raise DataError(f"{args.references}: empty reference file")
    for ln, ref in enumerate(refs, 1):
        if not ref:
            raise DataError(f"{args.references}:{ln}: empty reference line")
    print(f"BLEU = {bleu(hyps, refs):.2f}")


def cmd_bench(args) -> None:
    at_least("--repeats", args.repeats, 1)
    at_least("--seed", args.seed, 0)
    teacher = P.load_model(args.teacher, "teacher") if args.teacher else None
    nat = P.load_model(args.nat, "nat") if args.nat else None
    if teacher is None and nat is None:
        raise UsageError("bench needs --teacher and/or --nat")
    if teacher and nat:
        _check_same_vocabs(args.teacher, teacher[1:3], args.nat, nat[1:3])
    sv = (nat or teacher)[1]
    sents = read_sentences(args.testset)
    if not sents:
        raise DataError(f"{args.testset}: empty testset")
    check_lines(args.testset, sents,
                min(m[0].cfg.max_len for m in (teacher, nat) if m))
    testset = [sv.encode(s) for s in sents]
    strategies = [s for s in args.strategies.split(",") if s]
    if not strategies:
        raise UsageError("bench: --strategies names no strategy")
    report = B.bench_latency(testset, teacher and teacher[0], nat and nat[0],
                             strategies, repeats=args.repeats, seed=args.seed)
    if args.out:
        B.write_latency_tsv(report, args.out)
    for spec in strategies:
        print(f"{spec}: mean {report.mean[spec] * 1e3:.2f} ms, median "
              f"{report.median[spec] * 1e3:.2f} ms, speedup "
              f"{report.speedup(spec):.2f}x vs {report.baseline}")


def cmd_gen_synth(args) -> None:
    at_least("--size", args.size, 1)
    at_least("--seed", args.seed, 0)
    if args.kind == "multimodal":
        at_least("--modes", args.modes, 2)
        at_least("--phrases-per-sent", args.phrases_per_sent, 1)
        if args.phrases < args.phrases_per_sent:
            raise DataError(f"--phrases must be at least --phrases-per-sent "
                            f"({args.phrases_per_sent}), got {args.phrases}")
        words = (f"--phrases times --modes times {SY.MODE_LEN} target words",
                 args.phrases * args.modes * SY.MODE_LEN)
        length = (f"--phrases-per-sent times {SY.MODE_LEN} target tokens",
                  args.phrases_per_sent * SY.MODE_LEN)
    else:
        at_least("--vocab", args.vocab, 1)
        if not 1 <= args.min_len <= args.max_len:
            raise DataError(f"--min-len must be at least 1 and at most --max-len, "
                            f"got --min-len {args.min_len} and --max-len {args.max_len}")
        words, length = ("--vocab", args.vocab), ("--max-len", args.max_len)
    for (flag, value), most in ((words, SY.VOCAB_CEILING),
                                (length, SIZE_LIMITS["max_len"][1])):
        if value > most:    # no model could train on a longer line or more words
            raise DataError(f"{flag} must be at most {most}, got {value}")
    if args.kind == "copy":
        pairs = SY.gen_copy_corpus(args.size, args.seed, vocab=args.vocab,
                                   min_len=args.min_len, max_len=args.max_len)
    elif args.kind == "dictionary":
        pairs, links = SY.gen_planted_dictionary(
            args.size, args.seed, vocab=args.vocab,
            min_len=args.min_len, max_len=args.max_len)
        if args.links_out:
            Path(args.links_out).write_text(
                "\n".join(AL.dump_alignments(links)) + "\n", encoding="utf-8")
    else:
        pairs, _ = SY.gen_synth_multimodal(
            args.size, args.seed, n_modes=args.modes,
            n_phrases=args.phrases, phrases_per_sent=args.phrases_per_sent)
    save_corpus(args.out_prefix, pairs)
    print(f"wrote {len(pairs)} {args.kind} pairs to {args.out_prefix}.src/.tgt")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="natmt")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("train-teacher", parents=[], add_help=True)
    sp.add_argument("--corpus", required=True, help="corpus prefix (.src/.tgt)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--min-freq", dest="min_freq", type=integer, default=1)
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_train_teacher)

    sp = sub.add_parser("distill")
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out-prefix", dest="out_prefix", required=True)
    sp.add_argument("--mode", choices=("greedy", "beam"), default="greedy")
    sp.add_argument("--beam", type=integer, default=4)
    sp.set_defaults(func=cmd_distill)

    sp = sub.add_parser("align")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--alignments-out", dest="alignments_out")
    sp.add_argument("--fertilities-out", dest="fertilities_out")
    sp.add_argument("--iters-m1", dest="iters_m1", type=integer, default=5)
    sp.add_argument("--iters-m2", dest="iters_m2", type=integer, default=5)
    sp.add_argument("--max-fertility", dest="max_fertility", type=integer,
                    default=50)
    sp.set_defaults(func=cmd_align)

    sp = sub.add_parser("train-nat")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--fertilities", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--init-encoder", dest="init_encoder",
                    help="teacher checkpoint whose encoder seeds the student")
    sp.add_argument("--min-freq", dest="min_freq", type=integer, default=1)
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_train_nat)

    sp = sub.add_parser("finetune")
    sp.add_argument("--nat", required=True)
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--fertilities", required=True)
    sp.add_argument("--out", required=True)
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("translate")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True, help="source sentences, one per line")
    sp.add_argument("--output", help="write here instead of stdout")
    sp.add_argument("--strategy", default="argmax",
                    choices=("argmax", "average", "npd", "greedy", "beam"))
    # the strategy spec built from these two validates them
    sp.add_argument("--samples", default="10")
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument("--beam", default="4")
    sp.add_argument("--teacher", help="teacher checkpoint for npd rescoring")
    sp.set_defaults(func=cmd_translate)

    sp = sub.add_parser("score")
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--source", required=True)
    sp.add_argument("--candidates", required=True)
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("bleu")
    sp.add_argument("hypotheses")
    sp.add_argument("references")
    sp.set_defaults(func=cmd_bleu)

    sp = sub.add_parser("bench")
    sp.add_argument("--teacher")
    sp.add_argument("--nat")
    sp.add_argument("--testset", required=True, help="source sentences file")
    sp.add_argument("--strategies", default="beam:4,greedy,argmax")
    sp.add_argument("--repeats", type=integer, default=3)
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument("--out", help="per-sentence TSV report path")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen-synth")
    sp.add_argument("--kind", choices=("copy", "dictionary", "multimodal"),
                    required=True)
    sp.add_argument("--size", type=integer, required=True)
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument("--out-prefix", dest="out_prefix", required=True)
    sp.add_argument("--vocab", type=integer, default=30)
    sp.add_argument("--min-len", dest="min_len", type=integer, default=3)
    sp.add_argument("--max-len", dest="max_len", type=integer, default=8)
    sp.add_argument("--modes", type=integer, default=3)
    sp.add_argument("--phrases", type=integer, default=12)
    sp.add_argument("--phrases-per-sent", dest="phrases_per_sent", type=integer,
                    default=2)
    sp.add_argument("--links-out", dest="links_out")
    sp.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise UsageError("natmt: missing subcommand (see --help)")
        args.func(args)
        return 0
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (DataError, OSError) as e:   # any other exception is a bug
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
