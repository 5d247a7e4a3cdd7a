"""Command-line behaviour: exit codes, file plumbing, reproducibility."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

import natmt.bench as B
import natmt.pipeline as P
from natmt import nat as N
from natmt import teacher as AR
from natmt.checkpoint import load_checkpoint, save_checkpoint
from natmt.cli import main
from natmt.config import ModelConfig
from natmt.data import RESERVED, Vocab, load_corpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_missing_subcommand_is_usage(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "subcommand" in err


def test_unknown_flag_is_usage(capsys):
    code, _, err = run(capsys, "bleu", "--frobnicate", "a", "b")
    assert code == 1
    assert "frobnicate" in err


def test_unknown_subcommand_is_usage(capsys):
    code, _, err = run(capsys, "translate-all")
    assert code == 1


def test_bleu_identity_prints_100(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text("the cat sat\na b c d\n")
    code, out, _ = run(capsys, "bleu", str(ref), str(ref))
    assert code == 0
    assert "100.00" in out


def test_bleu_missing_file_exits_2_with_path(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    ref = tmp_path / "ref.txt"
    ref.write_text("a b\n")
    code, _, err = run(capsys, "bleu", str(missing), str(ref))
    assert code == 2
    assert str(missing) in err


def test_corpus_line_count_mismatch_exits_2(tmp_path, capsys):
    (tmp_path / "c.src").write_text("a b\nc d\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    code, _, err = run(capsys, "align", "--corpus", str(tmp_path / "c"))
    assert code == 2
    assert "2" in err and "1" in err


def test_gen_synth_is_seed_reproducible(tmp_path, capsys):
    a, b, c = (str(tmp_path / n) for n in ("a", "b", "c"))
    assert run(capsys, "gen-synth", "--kind", "copy", "--size", "15",
               "--seed", "7", "--out-prefix", a)[0] == 0
    assert run(capsys, "gen-synth", "--kind", "copy", "--size", "15",
               "--seed", "7", "--out-prefix", b)[0] == 0
    assert run(capsys, "gen-synth", "--kind", "copy", "--size", "15",
               "--seed", "8", "--out-prefix", c)[0] == 0
    read = lambda p: (open(p + ".src").read(), open(p + ".tgt").read())
    assert read(a) == read(b)
    assert read(a) != read(c)
    src, tgt = read(a)
    assert src == tgt  # copy task
    assert len(src.splitlines()) == 15


def test_gen_synth_multimodal_and_dictionary(tmp_path, capsys):
    mm = str(tmp_path / "mm")
    code, out, _ = run(capsys, "gen-synth", "--kind", "multimodal",
                       "--size", "12", "--seed", "1", "--out-prefix", mm)
    assert code == 0 and "12" in out
    assert len(open(mm + ".src").read().splitlines()) == 12

    dic = str(tmp_path / "dic")
    links = str(tmp_path / "links.txt")
    code, _, _ = run(capsys, "gen-synth", "--kind", "dictionary", "--size",
                     "5", "--out-prefix", dic, "--links-out", links)
    assert code == 0
    assert len(open(links).read().splitlines()) == 5


def test_bad_config_key_and_value_exit_2(tmp_path, capsys):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobs=3\n")
    code, _, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                       "--out", str(tmp_path / "t.nat"), "--config", str(cfg))
    assert code == 2 and "frobs" in err
    cfg.write_text("steps=many\n")
    code, _, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                       "--out", str(tmp_path / "t.nat"), "--config", str(cfg))
    assert code == 2 and "many" in err


def test_removed_rl_samples_key_is_unknown(tmp_path, capsys):
    # fine-tuning draws one fertility sample per sentence; there is no knob
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    code, _, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                       "--out", str(tmp_path / "t.nat"), "--set", "rl_samples=9")
    assert code == 2
    assert "unknown configuration key 'rl_samples'" in err


def test_removed_log_path_key_is_unknown(tmp_path, capsys):
    # training logs are written through --log
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    code, _, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                       "--out", str(tmp_path / "t.nat"), "--set", "log_path=x.jsonl")
    assert code == 2
    assert "unknown configuration key 'log_path'" in err


@pytest.mark.parametrize("key", ["use_pos_attn", "pos_attn_projections",
                                 "scale_embeddings", "scale_per_head",
                                 "kd_includes_fertility"])
def test_removed_architecture_and_loss_keys_are_unknown(tmp_path, capsys, key):
    # one parallel-decoder architecture and one supervised loss, no switches
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    code, _, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                       "--out", str(tmp_path / "t.nat"), "--set", f"{key}=1")
    assert code == 2
    assert f"unknown configuration key '{key}'" in err


@pytest.mark.parametrize("field, change, named", [
    ("config", lambda c: dict(c, use_pos_attn=True), "use_pos_attn"),
    ("config", lambda c: {k: v for k, v in c.items() if k != "max_fertility"},
     "max_fertility"),
    ("kind", lambda k: "autoregressive", "autoregressive"),
    ("params", lambda p: {k: v for k, v in p.items() if k != "proj.bias"},
     "proj.bias"),
    ("params", lambda p: dict(p, **{"proj.bias": p["proj.bias"][:-1]}),
     "proj.bias"),
    ("config", lambda c: dict(c, n_layer="1"), "n_layer"),
    ("config", lambda c: dict(c, n_head=True), "n_head"),
], ids=["unknown_key", "missing_key", "unknown_kind", "missing_param",
        "shape_mismatch", "str_value", "bool_value"])
def test_translate_with_unfit_checkpoint_exits_2_naming_file(tmp_path, capsys,
                                                             field, change, named):
    cfg = ModelConfig(d_model=8, d_hidden=16, n_layer=1, n_head=2, src_vocab=6,
                      tgt_vocab=6, max_len=16, max_fertility=4)
    path = tmp_path / "m.nat"
    P.save_model(path, N.NatModel(cfg, np.random.default_rng(0)),
                 Vocab(["a", "b"]), Vocab(["x", "y"]))
    ckpt = load_checkpoint(path)
    setattr(ckpt, field, change(getattr(ckpt, field)))
    save_checkpoint(path, ckpt.kind, ckpt.config, list(ckpt.params.items()),
                    ckpt.src_vocab, ckpt.tgt_vocab)
    (tmp_path / "in.txt").write_text("a b\n")
    code, _, err = run(capsys, "translate", "--model", str(path),
                       "--input", str(tmp_path / "in.txt"))
    assert code == 2
    assert str(path) in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [
    b"NATF\x03\x00",                                    # cut inside the header
    b"NATF" + struct.pack("<II", 3, 5) + b"{kind",        # manifest not JSON
    b"NATF" + struct.pack("<II", 3, 2) + b"[]",           # manifest not an object
    b"NATF" + struct.pack("<II", 3, 50) + b"{}",          # cut inside the manifest
], ids=["header", "json", "not_object", "manifest"])
def test_translate_with_broken_checkpoint_exits_2_naming_file(tmp_path, capsys, raw):
    path = tmp_path / "m.nat"
    path.write_bytes(raw)
    (tmp_path / "in.txt").write_text("a b\n")
    code, _, err = run(capsys, "translate", "--model", str(path),
                       "--input", str(tmp_path / "in.txt"))
    assert code == 2
    assert str(path) in err
    assert "Traceback" not in err


def _entries(edit):
    return lambda m: dict(m, params=edit(m["params"]))


@pytest.mark.parametrize("change", [
    _entries(lambda ps: [dict(ps[0], shape="x")] + ps[1:]),
    _entries(lambda ps: [dict(ps[0], shape=[-1, 2])] + ps[1:]),
    _entries(lambda ps: [dict(ps[0], shape=[2.0, 8])] + ps[1:]),
    _entries(lambda ps: [{"shape": ps[0]["shape"]}] + ps[1:]),
    _entries(lambda ps: [ps[1]] + ps[1:]),
    _entries(lambda ps: ["a"] + ps[1:]),
    _entries(lambda ps: {p["name"]: p["shape"] for p in ps}),
    lambda m: dict(m, src_vocab=m["src_vocab"][4:]),
    lambda m: dict(m, tgt_vocab=["<pad>", "<bos>", "<unk>", "<eos>"] + m["tgt_vocab"][4:]),
    lambda m: dict(m, tgt_vocab=m["tgt_vocab"] + ["x"]),
], ids=["shape_str", "shape_negative", "shape_float", "no_name", "duplicate_name",
        "entry_not_object", "params_object", "src_vocab_no_reserved",
        "tgt_vocab_reordered", "tgt_vocab_duplicate"])
def test_translate_with_malformed_manifest_exits_2_naming_file(tmp_path, capsys,
                                                               change):
    cfg = ModelConfig(d_model=8, d_hidden=16, n_layer=1, n_head=2, src_vocab=6,
                      tgt_vocab=6, max_len=16, max_fertility=4)
    path = tmp_path / "m.nat"
    P.save_model(path, N.NatModel(cfg, np.random.default_rng(0)),
                 Vocab(["a", "b"]), Vocab(["x", "y"]))
    raw = path.read_bytes()
    _, mlen = struct.unpack_from("<II", raw, 4)
    manifest = json.dumps(change(json.loads(raw[12:12 + mlen]))).encode()
    path.write_bytes(raw[:4] + struct.pack("<II", 3, len(manifest)) + manifest
                     + raw[12 + mlen:])
    (tmp_path / "in.txt").write_text("a b\n")
    code, _, err = run(capsys, "translate", "--model", str(path),
                       "--input", str(tmp_path / "in.txt"))
    assert code == 2
    assert str(path) in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny end-to-end run: corpus, teacher, distilled corpus, alignments,
    parallel model, fine-tuned model."""
    d = tmp_path_factory.mktemp("cli")
    corpus = str(d / "toy")
    teacher = str(d / "teacher.nat")
    distilled = str(d / "dist")
    ferts = str(d / "fert.txt")
    nat = str(d / "nat.nat")
    tuned = str(d / "tuned.nat")
    common = ["--set", "d_model=16", "--set", "d_hidden=32",
              "--set", "n_layer=1", "--set", "n_head=2",
              "--set", "max_fertility=4", "--steps", "3",
              "--batch-size", "8", "--warmup", "10", "--seed", "0"]
    assert main(["gen-synth", "--kind", "copy", "--size", "20", "--seed", "5",
                 "--vocab", "12", "--out-prefix", corpus]) == 0
    # teacher needs real training so its decodes are non-empty downstream
    assert main(["train-teacher", "--corpus", corpus, "--out", teacher]
                + common + ["--steps", "300", "--warmup", "30"]) == 0
    assert main(["distill", "--teacher", teacher, "--corpus", corpus,
                 "--out-prefix", distilled]) == 0
    assert main(["align", "--corpus", distilled, "--fertilities-out", ferts,
                 "--max-fertility", "4",
                 "--alignments-out", str(d / "links.txt")]) == 0
    assert main(["train-nat", "--corpus", distilled, "--fertilities", ferts,
                 "--out", nat, "--init-encoder", teacher] + common) == 0
    assert main(["finetune", "--nat", nat, "--teacher", teacher, "--corpus",
                 distilled, "--fertilities", ferts, "--out", tuned,
                 "--steps", "2", "--batch-size", "4", "--lam", "0.25"]) == 0
    return {"dir": d, "corpus": corpus, "teacher": teacher,
            "distilled": distilled, "ferts": ferts, "nat": nat, "tuned": tuned}


def test_pipeline_artifacts_exist(workdir):
    d = workdir["dir"]
    for name in ("teacher.nat", "nat.nat", "tuned.nat", "fert.txt",
                 "links.txt", "dist.src", "dist.tgt"):
        assert (d / name).exists(), name
    src = load_corpus(workdir["corpus"])
    dist = load_corpus(workdir["distilled"])
    assert len(dist) == len(src)
    assert [s for s, _ in dist] == [s for s, _ in src]


def test_fertility_lines_sum_to_target_lengths(workdir):
    dist = load_corpus(workdir["distilled"])
    lines = open(workdir["ferts"]).read().splitlines()
    assert len(lines) == len(dist)
    for line, (src, tgt) in zip(lines, dist):
        fert = [int(x) for x in line.split()]
        assert len(fert) == len(src)
        assert sum(fert) == len(tgt)


@pytest.mark.parametrize("case", ["empty", "reserved", "long"])
def test_distill_bad_source_exits_2_naming_file_line(workdir, capsys, case):
    pairs = load_corpus(workdir["corpus"])[:2]
    bad, message = {
        "empty": ("", "empty input line"),
        "reserved": ("<eos>", "line holds the reserved token <eos>"),
        "long": (" ".join([pairs[0][0][0]] * 65),
                 "line of 65 tokens exceeds max_len 64")}[case]
    prefix = workdir["dir"] / "holey"
    (prefix.parent / "holey.src").write_text(
        " ".join(pairs[0][0]) + f"\n{bad}\n" + " ".join(pairs[1][0]) + "\n")
    (prefix.parent / "holey.tgt").write_text("a\nb\nc\n")
    code, _, err = run(capsys, "distill", "--teacher", workdir["teacher"],
                       "--corpus", str(prefix), "--out-prefix", str(prefix) + ".out")
    assert code == 2
    assert f"data error: {prefix}.src:2: {message}" in err
    assert not (prefix.parent / "holey.out.src").exists()


def test_translate_writes_one_line_per_input(workdir, capsys):
    d = workdir["dir"]
    out = d / "hyp.txt"
    code, _, _ = run(capsys, "translate", "--model", workdir["nat"],
                     "--input", workdir["corpus"] + ".src",
                     "--output", str(out), "--strategy", "argmax")
    assert code == 0
    assert len(out.read_text().splitlines()) == 20


def test_translate_npd_one_sample_equals_argmax(workdir, capsys):
    d = workdir["dir"]
    a, b = d / "am.txt", d / "npd1.txt"
    assert run(capsys, "translate", "--model", workdir["nat"], "--input",
               workdir["corpus"] + ".src", "--output", str(a),
               "--strategy", "argmax")[0] == 0
    assert run(capsys, "translate", "--model", workdir["nat"], "--input",
               workdir["corpus"] + ".src", "--output", str(b),
               "--strategy", "npd", "--samples", "1",
               "--teacher", workdir["teacher"])[0] == 0
    assert a.read_text() == b.read_text()


def test_translate_npd_without_teacher_is_usage(workdir, capsys):
    code, _, err = run(capsys, "translate", "--model", workdir["nat"],
                       "--input", workdir["corpus"] + ".src",
                       "--strategy", "npd")
    assert code == 1
    assert "--teacher" in err


def test_translate_strategy_kind_mismatch_exits_2(workdir, capsys):
    code, _, err = run(capsys, "translate", "--model", workdir["teacher"],
                       "--input", workdir["corpus"] + ".src",
                       "--strategy", "argmax")
    assert code == 2 and "parallel" in err
    code, _, err = run(capsys, "translate", "--model", workdir["nat"],
                       "--input", workdir["corpus"] + ".src",
                       "--strategy", "greedy")
    assert code == 2 and "teacher" in err


def test_translate_teacher_greedy_and_beam(workdir, capsys):
    code, out, _ = run(capsys, "translate", "--model", workdir["teacher"],
                       "--input", workdir["corpus"] + ".src",
                       "--strategy", "greedy")
    assert code == 0
    assert len(out.splitlines()) == 20
    assert run(capsys, "translate", "--model", workdir["teacher"], "--input",
               workdir["corpus"] + ".src", "--strategy", "beam",
               "--beam", "2")[0] == 0


@pytest.mark.parametrize("strategy, flags, spec", [
    ("beam", ["--beam", "2"], "beam:2"),
    ("npd", ["--samples", "3", "--seed", "4"], "npd:3")])
def test_translate_flags_decode_as_their_spec(workdir, capsys, monkeypatch,
                                              strategy, flags, spec):
    # on these models beam widths 2 and 4 decode alike, so record the width
    widths, beam = [], AR.beam_decode
    monkeypatch.setattr(AR, "beam_decode", lambda src, model, b:
                        widths.append(b) or beam(src, model, b=b))
    kind = "teacher" if strategy == "beam" else "nat"
    code, out, _ = run(capsys, "translate", "--model", workdir[kind],
                       "--input", workdir["corpus"] + ".src",
                       "--strategy", strategy, "--teacher", workdir["teacher"],
                       *flags)
    assert code == 0
    teacher_model, sv, tv, _ = P.load_model(workdir["teacher"])
    nat_model = P.load_model(workdir["nat"])[0]
    decode = B.decoder(spec, teacher_model, nat_model, seed=4)
    want = [" ".join(tv.decode(decode(sv.encode(src)).output))
            for src, _ in load_corpus(workdir["corpus"])]
    assert out.splitlines() == want
    assert set(widths) == ({2} if strategy == "beam" else set())


def _with_reordered_vocab(workdir, side):
    """The parallel model saved again with one vocabulary's order reversed:
    same sizes, different token ids."""
    model, sv, tv, _ = P.load_model(workdir["nat"])
    flip = lambda v: Vocab(list(reversed(v.tokens[len(RESERVED):])))
    path = workdir["dir"] / f"nat_{side}_reordered.nat"
    P.save_model(path, model, *((flip(sv), tv) if side == "src" else (sv, flip(tv))))
    return str(path)


@pytest.mark.parametrize("command", ["translate", "bench", "finetune"])
@pytest.mark.parametrize("side", ["src", "tgt"])
def test_teacher_and_parallel_vocab_mismatch_exits_2(workdir, capsys, command,
                                                    side):
    nat = _with_reordered_vocab(workdir, side)
    teacher, corpus = workdir["teacher"], workdir["corpus"]
    out = str(workdir["dir"] / f"mismatch_{command}_{side}.out")
    argv = {"translate": ["--model", nat, "--input", corpus + ".src",
                          "--output", out, "--strategy", "npd"],
            "bench": ["--nat", nat, "--testset", corpus + ".src",
                      "--strategies", "greedy,npd:3", "--repeats", "1",
                      "--out", out],
            "finetune": ["--nat", nat, "--corpus", workdir["distilled"],
                         "--fertilities", workdir["ferts"], "--out", out,
                         "--steps", "1"]}[command]
    code, stdout, err = run(capsys, command, "--teacher", teacher, *argv)
    assert code == 2 and stdout == ""
    assert (f"data error: checkpoints {teacher} and {nat} have different "
            "vocabularies") in err
    assert not Path(out).exists()


TRANSLATE_CASES = [("teacher", "greedy"), ("teacher", "beam"), ("nat", "argmax")]


def _translate_bad_line(workdir, capsys, monkeypatch, kind, strategy, bad):
    """Translate [good, good, bad, good] with every decoder patched to fail,
    so a run that decodes before checking the whole file cannot pass."""
    def never(*args, **kwargs):
        raise AssertionError("decoded before every line was checked")

    for mod, name in ((AR, "greedy_decode"), (AR, "beam_decode"),
                      (N, "decode_argmax")):
        monkeypatch.setattr(mod, name, never)
    good = " ".join(load_corpus(workdir["corpus"])[0][0])
    path = workdir["dir"] / f"bad_{kind}_{strategy}.src"
    path.write_text("\n".join([good, good, bad, good]) + "\n")
    out = workdir["dir"] / f"bad_{kind}_{strategy}.hyp"
    code, _, err = run(capsys, "translate", "--model", workdir[kind],
                       "--input", str(path), "--output", str(out),
                       "--strategy", strategy, "--beam", "2")
    assert code == 2
    assert not out.exists()
    return str(path), err


@pytest.mark.parametrize("kind,strategy", TRANSLATE_CASES)
def test_translate_empty_line_exits_2_naming_file_line(workdir, capsys,
                                                       monkeypatch, kind,
                                                       strategy):
    path, err = _translate_bad_line(workdir, capsys, monkeypatch, kind,
                                    strategy, "")
    assert f"data error: {path}:3: empty input line" in err


@pytest.mark.parametrize("kind,strategy", TRANSLATE_CASES)
def test_translate_over_long_line_exits_2_naming_file_line(workdir, capsys,
                                                           monkeypatch, kind,
                                                           strategy):
    token = load_corpus(workdir["corpus"])[0][0][0]
    path, err = _translate_bad_line(workdir, capsys, monkeypatch, kind,
                                    strategy, " ".join([token] * 65))
    assert (f"data error: {path}:3: line of 65 tokens exceeds max_len 64"
            in err)


@pytest.mark.parametrize("kind,strategy", TRANSLATE_CASES)
@pytest.mark.parametrize("token", ["<pad>", "<bos>", "<eos>"])
def test_translate_reserved_token_exits_2_naming_file_line(workdir, capsys,
                                                           monkeypatch, kind,
                                                           strategy, token):
    good = load_corpus(workdir["corpus"])[0][0]
    path, err = _translate_bad_line(workdir, capsys, monkeypatch, kind,
                                    strategy, " ".join([good[0], token]))
    assert f"data error: {path}:3: line holds the reserved token {token}" in err


def test_translate_accepts_unknown_word_token(workdir, capsys):
    path = workdir["dir"] / "unk.src"
    path.write_text("<unk> " + " ".join(load_corpus(workdir["corpus"])[0][0]) + "\n")
    code, out, _ = run(capsys, "translate", "--model", workdir["nat"],
                       "--input", str(path), "--strategy", "argmax")
    assert code == 0 and len(out.splitlines()) == 1


def test_score_prints_one_number_per_line(workdir, capsys):
    code, out, _ = run(capsys, "score", "--teacher", workdir["teacher"],
                       "--source", workdir["corpus"] + ".src",
                       "--candidates", workdir["corpus"] + ".tgt")
    assert code == 0
    values = [float(x) for x in out.splitlines()]
    assert len(values) == 20
    assert all(v <= 0 for v in values)


def _score(workdir, capsys, sources, candidates):
    d = workdir["dir"]
    src, cand = d / "score.src", d / "score.cand"
    src.write_text("\n".join(sources) + "\n")
    cand.write_text("\n".join(candidates) + "\n")
    code, out, err = run(capsys, "score", "--teacher", workdir["teacher"],
                         "--source", str(src), "--candidates", str(cand))
    return code, out, err, str(src), str(cand)


@pytest.mark.parametrize("case", ["empty_source", "long_source", "long_candidate",
                                  "pad_candidate", "bos_source"])
def test_score_bad_line_exits_2_naming_file_line(workdir, capsys, case):
    """Every line is checked before any score is printed."""
    src_tok, tgt_tok = load_corpus(workdir["corpus"])[0]
    srcs, cands = [" ".join(src_tok)] * 3, [" ".join(tgt_tok)] * 3
    if case == "empty_source":
        srcs[1] = ""
    elif case == "long_source":
        srcs[1] = " ".join([src_tok[0]] * 65)
    elif case == "long_candidate":
        cands[1] = " ".join([tgt_tok[0]] * 64)   # bos + 64 > max_len 64
    elif case == "bos_source":
        srcs[1] = "<bos> " + srcs[1]
    else:
        cands[1] = "<pad> " + cands[1]
    code, out, err, src, cand = _score(workdir, capsys, srcs, cands)
    assert code == 2 and out == ""
    want = {"empty_source": f"{src}:2: empty input line",
            "long_source": f"{src}:2: line of 65 tokens exceeds max_len 64",
            "long_candidate": f"{cand}:2: candidate of 64 tokens exceeds "
                              "max_len 64 less the start marker",
            "pad_candidate": f"{cand}:2: candidate holds the padding token",
            "bos_source": f"{src}:2: line holds the reserved token <bos>"}[case]
    assert f"data error: {want}" in err


def test_score_accepts_empty_and_longest_candidates(workdir, capsys):
    src_tok, tgt_tok = load_corpus(workdir["corpus"])[0]
    code, out, _, _, _ = _score(workdir, capsys, [" ".join(src_tok)] * 2,
                                ["", " ".join([tgt_tok[0]] * 63)])
    assert code == 0
    assert len(out.splitlines()) == 2


CORPUS_COMMANDS = ["train-teacher", "train-nat", "finetune", "align"]


def _run_on_corpus(workdir, capsys, command, prefix):
    """Run a corpus-reading command on PREFIX, with PREFIX.fert as its
    fertility file and outputs next to it."""
    out = prefix + ".out"
    args = {"train-teacher": ["--out", out],
            "train-nat": ["--fertilities", prefix + ".fert", "--out", out],
            "finetune": ["--nat", workdir["nat"], "--teacher", workdir["teacher"],
                         "--fertilities", prefix + ".fert", "--out", out],
            "align": ["--fertilities-out", out]}[command]
    return run(capsys, command, "--corpus", prefix, *args)


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
def test_empty_corpus_exits_2_naming_prefix(workdir, tmp_path, capsys, command):
    prefix = str(tmp_path / "empty")
    for ext in (".src", ".tgt", ".fert"):
        (tmp_path / ("empty" + ext)).write_text("")
    code, _, err = _run_on_corpus(workdir, capsys, command, prefix)
    assert code == 2
    assert f"data error: corpus {prefix} has no non-empty sentence pairs" in err


@pytest.mark.parametrize("bad, message", [
    ("", ":2: empty input line"),
    ("long", ":2: line of 65 tokens exceeds max_len 64"),
    ("<pad> <pad>", ":2: line holds the reserved token <pad>"),
    ("no lines", ": empty testset")])
def test_bench_bad_testset_exits_2_naming_file(workdir, capsys, bad, message):
    good = " ".join(load_corpus(workdir["corpus"])[0][0])
    path = workdir["dir"] / "bench_bad.src"
    if bad == "no lines":
        path.write_text("")
    else:
        if bad == "long":
            bad = " ".join([good.split()[0]] * 65)
        path.write_text("\n".join([good, bad, good]) + "\n")
    code, out, err = run(capsys, "bench", "--teacher", workdir["teacher"],
                         "--nat", workdir["nat"], "--testset", str(path),
                         "--strategies", "greedy,argmax", "--repeats", "1")
    assert code == 2 and out == ""
    assert f"data error: {path}{message}" in err


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
@pytest.mark.parametrize("side", ["src", "tgt"])
@pytest.mark.parametrize("token", ["<pad>", "<bos>", "<eos>"])
def test_training_corpus_reserved_token_exits_2_naming_file_line(
        workdir, tmp_path, capsys, command, side, token):
    src_tok, tgt_tok = load_corpus(workdir["corpus"])[0]
    lines = {"src": [" ".join(src_tok)] * 3, "tgt": [" ".join(tgt_tok)] * 3}
    lines[side][1] = f"{lines[side][1]} {token}"
    prefix = str(tmp_path / "marked")
    for ext, rows in (("src", lines["src"]), ("tgt", lines["tgt"]),
                      ("fert", [" ".join(["1"] * len(src_tok))] * 3)):
        (tmp_path / f"marked.{ext}").write_text("\n".join(rows) + "\n")
    code, _, err = _run_on_corpus(workdir, capsys, command, prefix)
    assert code == 2
    assert (f"data error: {prefix}.{side}:2: line holds the reserved token "
            f"{token}") in err
    assert not (tmp_path / "marked.out").exists()


def test_training_corpus_accepts_unknown_word_token(tmp_path, capsys):
    (tmp_path / "unk.src").write_text("a <unk> b\nb c\n")
    (tmp_path / "unk.tgt").write_text("x <unk> y\ny z\n")
    code, _, _ = run(capsys, "align", "--corpus", str(tmp_path / "unk"))
    assert code == 0


@pytest.mark.parametrize("command", CORPUS_COMMANDS)
def test_empty_source_line_exits_2_naming_file_line(workdir, tmp_path, capsys,
                                                    command):
    src_tok, tgt_tok = load_corpus(workdir["corpus"])[0]
    prefix = str(tmp_path / "holey")
    (tmp_path / "holey.src").write_text(" ".join(src_tok) + "\n\n")
    (tmp_path / "holey.tgt").write_text(" ".join(tgt_tok) + "\nz\n")
    (tmp_path / "holey.fert").write_text(" ".join(["1"] * len(src_tok)) + "\n\n")
    code, _, err = _run_on_corpus(workdir, capsys, command, prefix)
    assert code == 2
    assert f"data error: {prefix}.src:2: empty source line" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("strategies, code, message", [
    ("", 1, "bench: --strategies names no strategy"),
    (",", 1, "bench: --strategies names no strategy"),
    ("greedy:2", 2, "data error: strategy 'greedy' takes no argument in 'greedy:2'"),
    ("beam:0", 2, "data error: strategy argument must be positive in 'beam:0'"),
    ("argmax", 2, "data error: strategy 'argmax' needs a parallel model")])
def test_bench_bad_strategies(workdir, capsys, strategies, code, message):
    got, out, err = run(capsys, "bench", "--teacher", workdir["teacher"],
                        "--testset", workdir["corpus"] + ".src",
                        "--strategies", strategies, "--repeats", "1")
    assert (got, out) == (code, "")
    assert message in err and "Traceback" not in err


def test_bench_subcommand_writes_tsv(workdir, capsys):
    d = workdir["dir"]
    tsv = d / "lat.tsv"
    code, out, _ = run(capsys, "bench", "--teacher", workdir["teacher"],
                       "--nat", workdir["nat"],
                       "--testset", workdir["corpus"] + ".src",
                       "--strategies", "greedy,argmax", "--repeats", "1",
                       "--out", str(tsv))
    assert code == 0
    assert "speedup" in out
    lines = tsv.read_text().splitlines()
    assert lines[0].split("\t")[0] == "strategy"
    assert len(lines) == 1 + 2 * 20


def test_flag_overrides_config_file(tmp_path, capsys):
    corpus = str(tmp_path / "c")
    assert main(["gen-synth", "--kind", "copy", "--size", "8", "--seed", "2",
                 "--vocab", "10", "--out-prefix", corpus]) == 0
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=5\nd_model=16\nd_hidden=32\nn_layer=1\nn_head=2\n"
                   "warmup=10\nmax_fertility=4\n")
    code, out, _ = run(capsys, "train-teacher", "--corpus", corpus,
                       "--out", str(tmp_path / "t.nat"),
                       "--config", str(cfg), "--steps", "2")
    assert code == 0
    assert "for 2 steps" in out


def test_numeric_failure_exits_3(workdir, tmp_path, capsys):
    # saving refuses NaN weights, so the NaN is written into the file's blob
    model, sv, tv, _ = P.load_model(workdir["teacher"])
    broken = tmp_path / "broken.nat"
    P.save_model(broken, model, sv, tv)
    raw = bytearray(broken.read_bytes())
    at = raw.index(model.proj.weight.data.tobytes())
    raw[at:at + 4] = struct.pack("<f", np.nan)
    broken.write_bytes(bytes(raw))
    code, _, err = run(capsys, "score", "--teacher", str(broken),
                       "--source", workdir["corpus"] + ".src",
                       "--candidates", workdir["corpus"] + ".tgt")
    assert code == 3
    assert "numeric" in err


@pytest.mark.parametrize("strategy", ["argmax", "average"])
def test_translate_caps_fertility_total_at_max_len(tmp_path, capsys, strategy):
    # a 40-token line fits max_len 64, but fertility 2 per token asks for 80
    words = [f"w{i}" for i in range(12)]
    vocab = Vocab(words)
    cfg = ModelConfig(d_model=16, d_hidden=32, n_layer=1, n_head=2,
                      src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=64,
                      max_fertility=4)
    model = N.NatModel(cfg, np.random.default_rng(0))
    model.fert_head.weight.data[...] = 0.0
    model.fert_head.bias.data[...] = np.log([0.05, 0.05, 0.85, 0.05])
    model.proj.bias.data[:4] = -30.0   # reserved ids would not be printed
    path = tmp_path / "nat.nat"
    P.save_model(path, model, vocab, vocab)
    line = tmp_path / "in.src"
    line.write_text(" ".join(words[i % 12] for i in range(40)) + "\n")
    code, out, _ = run(capsys, "translate", "--model", str(path),
                       "--input", str(line), "--strategy", strategy)
    assert code == 0
    assert len(out.split()) == 64
