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
from .config import ModelConfig, TrainConfig
from .data import (PAD, RESERVED, UNK, DataError, Vocab, encode_corpus,
                   load_corpus, read_sentences, save_corpus)
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
_CONFIG_FLAGS = (("steps", int), ("batch_size", int), ("seed", int),
                 ("warmup", int), ("lam", float), ("d_model", int),
                 ("n_layer", int), ("max_fertility", int), ("log_every", int))


def _coerce(key: str, value: str):
    typ = _MODEL_FIELDS.get(key) or _TRAIN_FIELDS.get(key)
    if typ is None:
        raise DataError(f"unknown configuration key {key!r}")
    text = str(typ)
    try:
        if "tuple" in text:
            return tuple(v for v in value.split(",") if v)
        if "float" in text:
            return None if value.lower() == "none" else float(value)
        return int(value)   # every other field is an int
    except ValueError:
        raise DataError(f"bad value {value!r} for configuration key {key!r}") from None


def read_config_file(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    out = {}
    for ln, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{p}:{ln}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key] = _coerce(key, value)
    return out


def gather_config(args) -> dict:
    """File values first, then --set pairs, then dedicated flags."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key] = _coerce(key.strip(), value.strip())
    for key, _ in _CONFIG_FLAGS:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def split_config(cfg: dict, **forced) -> tuple[ModelConfig, TrainConfig]:
    cfg = dict(cfg, **forced)
    m = {k: v for k, v in cfg.items() if k in _MODEL_FIELDS}
    t = {k: v for k, v in cfg.items() if k in _TRAIN_FIELDS}
    try:
        return ModelConfig(**m), TrainConfig(**t)
    except ValueError as e:
        raise DataError(str(e)) from None


def _add_config_flags(sp):
    sp.add_argument("--config", help="key=value file, one setting per line")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override one configuration key")
    for key, typ in _CONFIG_FLAGS:
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=typ)
    sp.add_argument("--log", help="JSONL training log path")


# reserved tokens input text may not hold; `<unk>` already means "unknown word"
_MARKERS = frozenset(RESERVED) - {RESERVED[UNK]}


def _refuse_markers(path, ln: int, sent) -> None:
    for tok in sent:
        if tok in _MARKERS:
            raise DataError(f"{path}:{ln}: line holds the reserved token {tok}")


def _load_training_corpus(prefix):
    """`load_corpus`, refusing a corpus without one pair of non-empty sides,
    an empty source line or a reserved token other than `<unk>` on either
    side, naming PREFIX.src:LINE or PREFIX.tgt:LINE."""
    pairs = load_corpus(prefix)
    if not any(s and t for s, t in pairs):
        raise DataError(f"corpus {prefix} has no non-empty sentence pairs")
    for ln, (src, tgt) in enumerate(pairs, 1):
        if not src:
            raise DataError(f"{prefix}.src:{ln}: empty source line")
        _refuse_markers(f"{prefix}.src", ln, src)
        _refuse_markers(f"{prefix}.tgt", ln, tgt)
    return pairs


def _check_lengths(pairs, cfg: ModelConfig) -> None:
    longest = max(max(len(s), len(t) + 1) for s, t in pairs)
    if longest > cfg.max_len:
        raise DataError(
            f"sentence of length {longest} exceeds max_len {cfg.max_len}; "
            "raise max_len in the configuration")


def _load_kind(path, kind: str):
    model, sv, tv, ckpt = P.load_model(path)
    if model.kind != kind:
        raise DataError(f"checkpoint {path} holds a {model.kind} model, "
                        f"expected {kind}")
    return model, sv, tv, ckpt


def _check_same_vocabs(teacher_path, teacher_vocabs, nat_path, nat_vocabs) -> None:
    """Refuse a teacher and a parallel model whose (source, target)
    vocabularies differ: each would read the other's token ids as its own."""
    if any(a.tokens != b.tokens for a, b in zip(teacher_vocabs, nat_vocabs)):
        raise DataError(f"checkpoints {teacher_path} and {nat_path} have "
                        "different vocabularies")


def _paired_fertilities(prefix, pairs, path, max_fertility: int) -> list[list[int]]:
    """Read the fertility file paired with corpus PREFIX. Each line is a row
    of integers, each a class of a parallel model with `max_fertility`
    classes (0 to max_fertility - 1), one per token of the source line,
    summing to the length of the target line, which must not be empty. A
    bad row raises a `DataError` naming FILE:LINE."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"fertility file not found: {p}")
    lines = p.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(pairs):
        raise DataError(f"fertility file {p} has {len(lines)} lines for "
                        f"{len(pairs)} sentence pairs")
    out = []
    for ln, (line, (src, tgt)) in enumerate(zip(lines, pairs), 1):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise DataError(f"{p}:{ln}: fertility lines must be integers") from None
        for f in row:
            if not 0 <= f < max_fertility:
                raise DataError(f"{p}:{ln}: fertility {f} is not a class of the "
                                f"parallel model (0 to {max_fertility - 1}, "
                                f"max_fertility {max_fertility})")
        if len(row) != len(src):
            raise DataError(f"{p}:{ln}: {len(row)} fertilities for a source "
                            f"line of {len(src)} tokens")
        if not tgt:
            raise DataError(f"{prefix}.tgt:{ln}: empty target line (a parallel "
                            "model emits at least one token)")
        if sum(row) != len(tgt):
            raise DataError(f"{p}:{ln}: fertilities sum to {sum(row)}, but the "
                            f"target line has {len(tgt)} tokens")
        out.append(row)
    return out


def _save_trained(args, model, sv, tv, log, done: str) -> None:
    """Save a trained model to --out and report `done` with the last loss."""
    P.save_model(args.out, model, sv, tv)
    last = log.records[-1]["loss"] if log.records else float("nan")
    print(f"{done}, final loss {last:.4f}, saved to {args.out}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train_teacher(args) -> None:
    pairs_tok = _load_training_corpus(args.corpus)
    sv = Vocab.build((s for s, _ in pairs_tok), args.min_freq)
    tv = Vocab.build((t for _, t in pairs_tok), args.min_freq)
    mcfg, tcfg = split_config(gather_config(args),
                              src_vocab=len(sv), tgt_vocab=len(tv))
    pairs = encode_corpus(pairs_tok, sv, tv)
    _check_lengths(pairs, mcfg)
    log = P.TrainingLog(args.log)
    model = P.train_teacher(pairs, mcfg, tcfg, log)
    _save_trained(args, model, sv, tv, log,
                  f"trained teacher for {tcfg.steps} steps")


def cmd_distill(args) -> None:
    model, sv, tv, _ = _load_kind(args.teacher, "teacher")
    pairs_tok = load_corpus(args.corpus)
    _check_input_lines(f"{args.corpus}.src", [s for s, _ in pairs_tok],
                       model.cfg.max_len)
    enc = encode_corpus(pairs_tok, sv, tv)
    out = P.build_distill_corpus(enc, model, mode=args.mode,
                                 beam_width=args.beam)
    decoded = [(src_tok, tv.decode(tgt_ids))
               for (src_tok, _), (_, tgt_ids) in zip(pairs_tok, out.pairs)]
    save_corpus(args.out_prefix, decoded)
    print(f"distilled {len(decoded)} pairs with {args.mode} decoding "
          f"({out.replaced_empty} empty decodes replaced) to {args.out_prefix}")


def cmd_align(args) -> None:
    if args.max_fertility < 2:
        raise DataError(f"--max-fertility must be at least 2 (fertility classes "
                        f"0 and 1), got {args.max_fertility}")
    for flag, n in (("--iters-m1", args.iters_m1), ("--iters-m2", args.iters_m2)):
        if n < 0:
            raise DataError(f"{flag} must be at least 0, got {n}")
    if not args.iters_m1 and not args.iters_m2:
        raise DataError("--iters-m1 and --iters-m2 are both 0; at least one "
                        "EM iteration must run")
    pairs_tok = _load_training_corpus(args.corpus)
    model = AL.em_train(pairs_tok, args.iters_m1, args.iters_m2)
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
    pairs_tok = _load_training_corpus(args.corpus)
    exported = None
    if args.init_encoder:
        teacher_model, sv, tv, _ = _load_kind(args.init_encoder, "teacher")
        exported = AR.export_encoder(teacher_model)
        # shared-trunk shape must match the teacher; max_fertility stays free
        tc = teacher_model.cfg
        forced = {k: getattr(tc, k) for k in
                  ("d_model", "d_hidden", "n_layer", "n_head", "src_vocab",
                   "tgt_vocab", "max_len")}
    else:
        sv = Vocab.build((s for s, _ in pairs_tok), args.min_freq)
        tv = Vocab.build((t for _, t in pairs_tok), args.min_freq)
        forced = {"src_vocab": len(sv), "tgt_vocab": len(tv)}
    mcfg, tcfg = split_config(gather_config(args), **forced)
    ferts = _paired_fertilities(args.corpus, pairs_tok, args.fertilities,
                                mcfg.max_fertility)
    pairs = encode_corpus(pairs_tok, sv, tv)
    _check_lengths(pairs, mcfg)
    log = P.TrainingLog(args.log)
    model = P.train_nat(pairs, ferts, mcfg, tcfg, log, init_from=exported)
    _save_trained(args, model, sv, tv, log,
                  f"trained parallel model for {tcfg.steps} steps")


def cmd_finetune(args) -> None:
    model, sv, tv, _ = _load_kind(args.nat, "nat")
    teacher_model, tsv, ttv, _ = _load_kind(args.teacher, "teacher")
    _check_same_vocabs(args.teacher, (tsv, ttv), args.nat, (sv, tv))
    pairs_tok = _load_training_corpus(args.corpus)
    ferts = _paired_fertilities(args.corpus, pairs_tok, args.fertilities,
                                model.cfg.max_fertility)
    _, tcfg = split_config(gather_config(args),
                           src_vocab=model.cfg.src_vocab,
                           tgt_vocab=model.cfg.tgt_vocab)
    pairs = encode_corpus(pairs_tok, sv, tv)
    _check_lengths(pairs, model.cfg)
    log = P.TrainingLog(args.log)
    P.finetune(model, teacher_model, pairs, ferts, tcfg, log)
    _save_trained(args, model, sv, tv, log,
                  f"fine-tuned for {tcfg.steps} steps (lambda {tcfg.lam})")


def _check_input_lines(path, sents, max_len: int) -> None:
    """Reject an empty or over-long input line, or one holding a reserved
    token other than `<unk>`, naming FILE:LINE, before anything is decoded."""
    for ln, sent in enumerate(sents, 1):
        if not sent:
            raise DataError(f"{path}:{ln}: empty input line")
        if len(sent) > max_len:
            raise DataError(f"{path}:{ln}: line of {len(sent)} tokens "
                            f"exceeds max_len {max_len}")
        _refuse_markers(path, ln, sent)


def cmd_translate(args) -> None:
    model, sv, tv, _ = P.load_model(args.model)
    sents = read_sentences(args.input)
    models = {model.kind: model}
    if args.strategy == "npd" and model.kind == "nat":
        if not args.teacher:
            raise UsageError("npd strategy requires --teacher")
        teacher_model, tsv, ttv, _ = _load_kind(args.teacher, "teacher")
        _check_same_vocabs(args.teacher, (tsv, ttv), args.model, (sv, tv))
        models["teacher"] = teacher_model
    spec = {"beam": f"beam:{args.beam}",
            "npd": f"npd:{args.samples}"}.get(args.strategy, args.strategy)
    decode = B.decoder(spec, models.get("teacher"), models.get("nat"), args.seed)
    _check_input_lines(args.input, sents,
                       min(m.cfg.max_len for m in models.values()))
    outputs = [tv.decode(decode(sv.encode(sent)).output) for sent in sents]
    text = "\n".join(" ".join(toks) for toks in outputs)
    if args.output:
        Path(args.output).write_text(text + "\n" if text else "",
                                     encoding="utf-8")
    else:
        print(text)


def cmd_score(args) -> None:
    model, sv, tv, _ = _load_kind(args.teacher, "teacher")
    srcs = read_sentences(args.source)
    cands = read_sentences(args.candidates)
    if len(srcs) != len(cands):
        raise DataError(f"line counts differ: {len(srcs)} sources vs "
                        f"{len(cands)} candidates")
    _check_input_lines(args.source, srcs, model.cfg.max_len)
    limit = model.cfg.max_len - 1   # the teacher reads bos + candidate
    for ln, cand in enumerate(cands, 1):
        if len(cand) > limit:
            raise DataError(f"{args.candidates}:{ln}: candidate of {len(cand)} "
                            f"tokens exceeds max_len {model.cfg.max_len} less "
                            "the start marker")
        if PAD in tv.encode(cand):
            raise DataError(f"{args.candidates}:{ln}: candidate holds the "
                            "padding token")
    for src, cand in zip(srcs, cands):
        score = AR.score_parallel(sv.encode(src), tv.encode(cand), model)
        print(f"{score:.4f}")


def cmd_bleu(args) -> None:
    hyps = read_sentences(args.hypotheses)
    refs = read_sentences(args.references)
    print(f"BLEU = {bleu(hyps, refs):.2f}")


def cmd_bench(args) -> None:
    teacher = _load_kind(args.teacher, "teacher") if args.teacher else None
    nat = _load_kind(args.nat, "nat") if args.nat else None
    if teacher is None and nat is None:
        raise UsageError("bench needs --teacher and/or --nat")
    if teacher and nat:
        _check_same_vocabs(args.teacher, teacher[1:3], args.nat, nat[1:3])
    sv = (nat or teacher)[1]
    sents = read_sentences(args.testset)
    if not sents:
        raise DataError(f"{args.testset}: empty testset")
    _check_input_lines(args.testset, sents,
                       min(m[0].cfg.max_len for m in (teacher, nat) if m))
    testset = [sv.encode(s) for s in sents]
    strategies = [s for s in args.strategies.split(",") if s]
    if not strategies:
        raise UsageError("bench: --strategies names no strategy")
    report = B.bench_latency(testset, teacher and teacher[0], nat and nat[0],
                             strategies, repeats=args.repeats,
                             seed=args.seed or 0)
    if args.out:
        B.write_latency_tsv(report, args.out)
    for spec in strategies:
        print(f"{spec}: mean {report.mean[spec] * 1e3:.2f} ms, median "
              f"{report.median[spec] * 1e3:.2f} ms, speedup "
              f"{report.speedup(spec):.2f}x vs {report.baseline}")


def cmd_gen_synth(args) -> None:
    # the least value of each count that the generator can work with
    floors = [("--size", args.size, 1)]
    if args.kind == "multimodal":
        floors += [("--modes", args.modes, 2), ("--phrases-per-sent", args.phrases_per_sent, 1)]
    else:
        floors.append(("--vocab", args.vocab, 1))
    for flag, value, least in floors:
        if value < least:
            raise DataError(f"{flag} must be at least {least}, got {value}")
    if args.kind == "multimodal" and args.phrases < args.phrases_per_sent:
        raise DataError(f"--phrases must be at least --phrases-per-sent "
                        f"({args.phrases_per_sent}), got {args.phrases}")
    if args.kind != "multimodal" and not 1 <= args.min_len <= args.max_len:
        raise DataError(f"--min-len must be at least 1 and at most --max-len, "
                        f"got --min-len {args.min_len} and --max-len {args.max_len}")
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
    sp.add_argument("--min-freq", dest="min_freq", type=int, default=1)
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_train_teacher)

    sp = sub.add_parser("distill")
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out-prefix", dest="out_prefix", required=True)
    sp.add_argument("--mode", choices=("greedy", "beam"), default="greedy")
    sp.add_argument("--beam", type=int, default=4)
    sp.set_defaults(func=cmd_distill)

    sp = sub.add_parser("align")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--alignments-out", dest="alignments_out")
    sp.add_argument("--fertilities-out", dest="fertilities_out")
    sp.add_argument("--iters-m1", dest="iters_m1", type=int, default=5)
    sp.add_argument("--iters-m2", dest="iters_m2", type=int, default=5)
    sp.add_argument("--max-fertility", dest="max_fertility", type=int,
                    default=50)
    sp.set_defaults(func=cmd_align)

    sp = sub.add_parser("train-nat")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--fertilities", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--init-encoder", dest="init_encoder",
                    help="teacher checkpoint whose encoder seeds the student")
    sp.add_argument("--min-freq", dest="min_freq", type=int, default=1)
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
    sp.add_argument("--seed", type=int, default=0)
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
    sp.add_argument("--repeats", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="per-sentence TSV report path")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen-synth")
    sp.add_argument("--kind", choices=("copy", "dictionary", "multimodal"),
                    required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-prefix", dest="out_prefix", required=True)
    sp.add_argument("--vocab", type=int, default=30)
    sp.add_argument("--min-len", dest="min_len", type=int, default=3)
    sp.add_argument("--max-len", dest="max_len", type=int, default=8)
    sp.add_argument("--modes", type=int, default=3)
    sp.add_argument("--phrases", type=int, default=12)
    sp.add_argument("--phrases-per-sent", dest="phrases_per_sent", type=int,
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
    except (OSError, ValueError) as e:   # a DataError is a ValueError
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
