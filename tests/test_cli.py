"""Command-line behaviour: exit codes, file plumbing, reproducibility."""

import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import natmt
import natmt.aligner as AL
import natmt.bench as B
import natmt.pipeline as P
from natmt import nat as N
from natmt import teacher as AR
from natmt.checkpoint import load_checkpoint, save_checkpoint
from natmt.cli import main
from natmt.config import ModelConfig
from natmt.data import EOS, RESERVED, UNK, Vocab, load_corpus


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


@pytest.mark.parametrize("flags, key", [
    (["--steps", "0"], "steps"),
    (["--steps", "-3"], "steps"),
    (["--batch-size", "0"], "batch_size"),
    (["--warmup", "0"], "warmup"),
    (["--log-every", "0"], "log_every"),
    (["--set", "n_head=0"], "n_head"),
    (["--d-model", "0"], "d_model"),
    (["--set", "d_model=-2"], "d_model"),
    (["--set", "d_hidden=0"], "d_hidden"),
    (["--set", "d_hidden=-4"], "d_hidden"),
    (["--set", "max_len=0"], "max_len"),
], ids=["steps_0", "steps_negative", "batch_size_0", "warmup_0", "log_every_0",
        "n_head_0", "d_model_0", "d_model_negative", "d_hidden_0",
        "d_hidden_negative", "max_len_0"])
def test_config_value_below_one_exits_2_naming_key(tmp_path, capsys, flags, key):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    out_path = tmp_path / "t.nat"
    code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                         "--out", str(out_path), *flags)
    assert (code, out) == (2, "")
    assert f"data error: {key} must be at least 1" in err
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("flags, key", [
    (["--set", "n_layer=-1"], "n_layer"),
    (["--seed", "-1"], "seed"),
], ids=["n_layer_negative", "seed_negative"])
def test_config_value_below_zero_exits_2_naming_key(tmp_path, capsys, flags, key):
    # a zero-layer model is legal; a negative count or seed is not
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    out_path = tmp_path / "t.nat"
    code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                         "--out", str(out_path), *flags)
    assert (code, out) == (2, "")
    assert f"data error: {key} must be at least 0, got -1" in err
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("key, value, most", [
    ("d_model", 10**20, 4096), ("d_hidden", 10**20, 16384), ("max_len", 10**20, 4096),
    ("max_fertility", 10**20, 1024), ("n_head", 4097, 4096), ("n_layer", 65, 64)])
def test_model_size_above_its_ceiling_exits_2_naming_key(tmp_path, capsys, key, value,
                                                         most):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    out_path = tmp_path / "t.nat"
    code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                         "--out", str(out_path), "--steps", "1",
                         "--set", f"{key}={value}")
    assert (code, out) == (2, "")
    assert f"data error: {key} must be at most {most}, got {value}" in err
    assert not out_path.exists()


@pytest.mark.parametrize("text, message", [
    ("steps=2\nfrobs=3\n", ":2: unknown configuration key 'frobs'"),
    ("# width\nd_model=wide\n", ":2: bad value 'wide' for configuration key 'd_model'"),
    ("steps\n", ":1: expected key=value, got 'steps'"),
    ("steps=2\n\xaf\n", ":2: line is not UTF-8 text"),
], ids=["unknown_key", "bad_value", "no_equals", "not_utf8"])
def test_config_file_fault_names_file_line(tmp_path, capsys, text, message):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text.encode("latin-1"))
    code, _, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                       "--out", str(tmp_path / "t.nat"), "--config", str(cfg))
    assert code == 2
    assert f"data error: {cfg}{message}" in err


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
    ("config", lambda c: dict(c, n_head=0), "n_head"),
    ("config", lambda c: dict(c, d_model=0), "d_model"),
], ids=["unknown_key", "missing_key", "unknown_kind", "missing_param",
        "shape_mismatch", "str_value", "bool_value", "zero_heads", "zero_width"])
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
    lambda m: dict(m, config=5),
    lambda m: dict(m, src_vocab=m["src_vocab"] + ["c"]),
], ids=["shape_str", "shape_negative", "shape_float", "no_name", "duplicate_name",
        "entry_not_object", "params_object", "src_vocab_no_reserved",
        "tgt_vocab_reordered", "tgt_vocab_duplicate", "config_not_object",
        "src_vocab_over_config"])
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


@pytest.mark.parametrize("kind, command", [("nat", "translate"),
                                           ("teacher", "translate"),
                                           ("teacher", "distill")])
def test_checkpoint_with_fewer_tokens_than_its_config_exits_2_naming_file(
        tmp_path, capsys, kind, command):
    # config tgt_vocab 46 against a 6-token list: the model favours id 40,
    # which has no token to print
    cfg = ModelConfig(d_model=8, d_hidden=16, n_layer=1, n_head=2, src_vocab=6,
                      tgt_vocab=46, max_len=16, max_fertility=4)
    model = (N.NatModel if kind == "nat" else AR.TeacherModel)(
        cfg, np.random.default_rng(0))
    model.proj.bias.data[40] = 50.0
    path = tmp_path / "m.nat"
    P.save_model(path, model, Vocab(["a", "b"]), Vocab(["x", "y"]))
    for ext in ("src", "tgt"):
        (tmp_path / f"c.{ext}").write_text("a b\n")
    argv = {"translate": ["--model", str(path), "--input", str(tmp_path / "c.src"),
                          "--strategy", "argmax" if kind == "nat" else "greedy"],
            "distill": ["--teacher", str(path), "--corpus", str(tmp_path / "c"),
                        "--out-prefix", str(tmp_path / "d")]}[command]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert (f"data error: checkpoint vocabularies of 6 and 6 tokens are fewer "
            f"than config src_vocab 6 and tgt_vocab 46: {path}") in err
    assert not (tmp_path / "d.tgt").exists()


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


def test_distill_leaves_out_pairs_whose_target_decodes_empty(workdir, capsys,
                                                             monkeypatch):
    # an empty decode (written as its end marker) and an all-<unk> one both
    # decode to no word; the corpus readers refuse an empty target line
    tv = P.load_model(workdir["teacher"])[2]
    words = load_corpus(workdir["corpus"])[0][0]
    hyps = {1: [], 2: [UNK, UNK], 3: [4, UNK]}
    monkeypatch.setattr(AR, "greedy_decode_batch",
                        lambda srcs, model: [hyps[len(s)] for s in srcs])
    prefix = workdir["dir"] / "mixed"
    for ext in ("src", "tgt"):
        (prefix.parent / f"mixed.{ext}").write_text(
            "".join(" ".join(words[:n]) + "\n" for n in (2, 3, 1)))
    out_prefix = str(prefix) + ".out"
    code, out, _ = run(capsys, "distill", "--teacher", workdir["teacher"],
                       "--corpus", str(prefix), "--out-prefix", out_prefix)
    assert code == 0
    assert (f"distilled 1 pairs with greedy decoding (2 empty targets "
            f"dropped) to {out_prefix}") in out
    assert load_corpus(out_prefix) == [(words[:3], [tv.tokens[4]])]


def test_distill_reports_empty_decodes_once_without_a_warning(workdir, capsys,
                                                             monkeypatch):
    # the dropped-pair count is the report; the library's "replaced N empty
    # teacher decode(s)" warning would name the same decodes a second time
    words = load_corpus(workdir["corpus"])[0][0]
    monkeypatch.setattr(AR, "greedy_decode_batch",
                        lambda srcs, model: [[] if len(s) == 1 else [4] for s in srcs])
    prefix = workdir["dir"] / "once"
    for ext in ("src", "tgt"):
        (prefix.parent / f"once.{ext}").write_text(f"{words[0]}\n{words[0]} {words[1]}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "distill", "--teacher", workdir["teacher"],
                           "--corpus", str(prefix), "--out-prefix", str(prefix) + ".out")
    assert code == 0
    assert "(1 empty targets dropped)" in out
    assert [str(w.message) for w in caught] == []


def test_distill_with_every_target_empty_exits_2_naming_the_teacher(tmp_path,
                                                                    capsys):
    cfg = ModelConfig(d_model=8, d_hidden=16, n_layer=1, n_head=2, src_vocab=6,
                      tgt_vocab=6, max_len=16, max_fertility=4)
    model = AR.TeacherModel(cfg, np.random.default_rng(0))
    model.proj.bias.data[EOS] = 50.0    # the end marker wins at once
    path = tmp_path / "t.nat"
    P.save_model(path, model, Vocab(["a", "b"]), Vocab(["x", "y"]))
    for ext in ("src", "tgt"):
        (tmp_path / f"c.{ext}").write_text("a b\nb\n")
    code, out, err = run(capsys, "distill", "--teacher", str(path), "--corpus",
                         str(tmp_path / "c"), "--out-prefix", str(tmp_path / "d"))
    assert (code, out) == (2, "")
    assert (f"data error: teacher {path} decodes every source of {tmp_path / 'c'} "
            "to an empty target") in err
    assert not (tmp_path / "d.tgt").exists()


def test_distill_of_an_empty_corpus_exits_2_naming_the_corpus(workdir, tmp_path,
                                                             capsys):
    for ext in ("src", "tgt"):
        (tmp_path / f"e.{ext}").write_text("")
    code, out, err = run(capsys, "distill", "--teacher", workdir["teacher"],
                         "--corpus", str(tmp_path / "e"),
                         "--out-prefix", str(tmp_path / "d"))
    assert (code, out) == (2, "")
    assert f"data error: corpus {tmp_path / 'e'} has no source lines" in err
    assert "decodes" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.src", "e.tgt"]


@pytest.mark.parametrize("command, flag, given, kind, want", [
    ("distill", "--teacher", "nat", "nat", "teacher"),
    ("finetune", "--nat", "teacher", "teacher", "nat")])
def test_checkpoint_of_the_other_kind_exits_2_naming_both_kinds(
        workdir, tmp_path, capsys, command, flag, given, kind, want):
    argv = {"distill": ["--corpus", workdir["corpus"],
                        "--out-prefix", str(tmp_path / "d")],
            "finetune": ["--teacher", workdir["teacher"],
                         "--corpus", workdir["distilled"],
                         "--fertilities", workdir["ferts"],
                         "--out", str(tmp_path / "o.nat")]}[command]
    code, out, err = run(capsys, command, flag, workdir[given], *argv)
    assert (code, out) == (2, "")
    assert (f"data error: checkpoint {workdir[given]} holds a {kind} model, "
            f"expected {want}") in err
    assert list(tmp_path.iterdir()) == []


def test_set_without_equals_sign_is_usage(tmp_path, capsys):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                         "--out", str(tmp_path / "t.nat"), "--set", "steps")
    assert (code, out) == (1, "")
    assert "--set expects key=value, got 'steps'" in err
    assert not (tmp_path / "t.nat").exists()


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


@pytest.mark.parametrize("value", ["1_0", "+4", " 4", "\u0664"],
                         ids=["underscore", "plus", "space", "arabic_indic"])
@pytest.mark.parametrize("strategy, flag", [("beam", "--beam"),
                                            ("npd", "--samples")])
def test_translate_count_flags_obey_the_strategy_spec_rule(workdir, capsys,
                                                           strategy, flag, value):
    # the same refusal as `bench --strategies beam:1_0`
    kind = "teacher" if strategy == "beam" else "nat"
    code, out, err = run(capsys, "translate", "--model", workdir[kind],
                         "--input", workdir["corpus"] + ".src",
                         "--strategy", strategy, "--teacher", workdir["teacher"],
                         flag, value)
    assert (code, out) == (2, "")
    assert f"data error: bad strategy argument in {f'{strategy}:{value}'!r}" in err
    assert "Traceback" not in err


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
                                  "pad_candidate", "bos_source", "eos_candidate"])
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
    elif case == "eos_candidate":
        cands[1] = f"{tgt_tok[0]} <eos> {tgt_tok[0]}"
    else:
        cands[1] = "<pad> " + cands[1]
    code, out, err, src, cand = _score(workdir, capsys, srcs, cands)
    assert code == 2 and out == ""
    want = {"empty_source": f"{src}:2: empty input line",
            "long_source": f"{src}:2: line of 65 tokens exceeds max_len 64",
            "long_candidate": f"{cand}:2: candidate of 64 tokens exceeds "
                              "max_len 64 less the start marker",
            "pad_candidate": f"{cand}:2: candidate holds the padding token",
            "bos_source": f"{src}:2: line holds the reserved token <bos>",
            "eos_candidate": f"{cand}:2: candidate holds the reserved token <eos>"}[case]
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


@pytest.mark.parametrize("command", ["train-nat", "finetune"])
@pytest.mark.parametrize("value", [-1, 4])
def test_fertility_outside_the_model_classes_exits_2_naming_file_line(
        workdir, tmp_path, capsys, command, value):
    # the parallel model has max_fertility 4: classes 0 to 3
    src_tok, tgt_tok = load_corpus(workdir["corpus"])[0]
    prefix = str(tmp_path / "fert")
    (tmp_path / "fert.src").write_text((" ".join(src_tok) + "\n") * 3)
    (tmp_path / "fert.tgt").write_text((" ".join(tgt_tok) + "\n") * 3)
    good = ["1"] * len(src_tok)
    bad = [str(value)] + good[1:]
    (tmp_path / "fert.fert").write_text(
        "\n".join(" ".join(row) for row in (good, bad, good)) + "\n")
    out = str(tmp_path / "fert.out")
    models = (["--nat", workdir["nat"], "--teacher", workdir["teacher"]]
              if command == "finetune" else ["--max-fertility", "4"])
    code, _, err = run(capsys, command, "--corpus", prefix, "--fertilities",
                       prefix + ".fert", "--out", out, *models)
    assert code == 2
    assert (f"data error: {prefix}.fert:2: fertility {value} is not a class of "
            "the parallel model (0 to 3, max_fertility 4)") in err
    assert "Traceback" not in err
    assert not Path(out).exists()


@pytest.mark.parametrize("value", ["1", "0", "-1"])
def test_align_max_fertility_below_two_exits_2_naming_flag(workdir, capsys, value):
    code, _, err = run(capsys, "align", "--corpus", workdir["corpus"],
                       "--max-fertility", value)
    assert code == 2
    assert (f"data error: --max-fertility must be at least 2 (fertility classes "
            f"0 and 1), got {value}") in err


def _fertility_command(workdir, command, prefix, ferts, out):
    models = (["--nat", workdir["nat"], "--teacher", workdir["teacher"]]
              if command == "finetune" else ["--max-fertility", "4"])
    return [command, "--corpus", prefix, "--fertilities", ferts, "--out", out,
            *models]


@pytest.mark.parametrize("command", ["train-nat", "finetune"])
@pytest.mark.parametrize("case", ["extra entry", "missing entry", "sum"])
def test_misaligned_fertility_row_exits_2_naming_file_line(
        workdir, tmp_path, capsys, command, case):
    src_tok, tgt_tok = load_corpus(workdir["corpus"])[0]   # a copy pair
    n = len(src_tok)
    prefix = str(tmp_path / "mis")
    (tmp_path / "mis.src").write_text((" ".join(src_tok) + "\n") * 3)
    (tmp_path / "mis.tgt").write_text((" ".join(tgt_tok) + "\n") * 3)
    bad, message = {
        "extra entry": (["1"] * n + ["0"],
                        f"{n + 1} fertilities for a source line of {n} tokens"),
        "missing entry": (["1"] * (n - 1),
                          f"{n - 1} fertilities for a source line of {n} tokens"),
        "sum": (["2"] + ["1"] * (n - 1),
                f"fertilities sum to {n + 1}, but the target line has {n} tokens"),
    }[case]
    (tmp_path / "mis.fert").write_text(
        "\n".join(" ".join(row) for row in (["1"] * n, bad, ["1"] * n)) + "\n")
    out = str(tmp_path / "mis.out")
    code, _, err = run(capsys, *_fertility_command(workdir, command, prefix,
                                                   prefix + ".fert", out))
    assert code == 2
    assert f"data error: {prefix}.fert:2: {message}" in err
    assert "Traceback" not in err
    assert not Path(out).exists()


@pytest.mark.parametrize("command", ["train-nat", "finetune"])
def test_raw_corpus_fertilities_on_the_distilled_corpus_exit_2(
        workdir, tmp_path, capsys, command):
    raw = str(tmp_path / "raw.fert")
    assert main(["align", "--corpus", workdir["corpus"], "--fertilities-out", raw,
                 "--max-fertility", "4"]) == 0
    rows = [[int(f) for f in line.split()]
            for line in Path(raw).read_text().splitlines()]
    dist = load_corpus(workdir["distilled"])
    mismatched = [ln for ln, (row, (_, tgt)) in enumerate(zip(rows, dist), 1)
                  if sum(row) != len(tgt)]
    assert mismatched, "the teacher distilled every target unchanged"
    out = str(tmp_path / "raw.out")
    code, _, err = run(capsys, *_fertility_command(workdir, command,
                                                   workdir["distilled"], raw, out))
    assert code == 2
    assert f"data error: {raw}:{mismatched[0]}: fertilities sum to" in err
    assert not Path(out).exists()


def test_empty_target_line_exits_2_naming_file_line(workdir, tmp_path, capsys):
    src_tok, tgt_tok = load_corpus(workdir["corpus"])[0]
    prefix = str(tmp_path / "short")
    (tmp_path / "short.src").write_text((" ".join(src_tok) + "\n") * 2)
    (tmp_path / "short.tgt").write_text(" ".join(tgt_tok) + "\n\n")
    (tmp_path / "short.fert").write_text(
        " ".join(["1"] * len(src_tok)) + "\n" + " ".join(["0"] * len(src_tok)) + "\n")
    out = str(tmp_path / "short.out")
    code, _, err = run(capsys, *_fertility_command(workdir, "train-nat", prefix,
                                                   prefix + ".fert", out))
    assert code == 2
    assert (f"data error: {prefix}.tgt:2: empty target line (a parallel model "
            "emits at least one token)") in err
    assert "zero total fertility" not in err
    assert not Path(out).exists()


def test_fertility_file_line_count_mismatch_names_the_file(workdir, tmp_path,
                                                           capsys):
    ferts = tmp_path / "few.fert"
    ferts.write_text(Path(workdir["ferts"]).read_text().splitlines()[0] + "\n")
    code, _, err = run(capsys, *_fertility_command(
        workdir, "train-nat", workdir["distilled"], str(ferts),
        str(tmp_path / "few.out")))
    assert code == 2
    assert f"data error: fertility file {ferts} has 1 lines for 20 sentence pairs" in err


@pytest.mark.parametrize("command", ["train-nat", "finetune"])
def test_all_rows_misaligned_exits_2_in_a_child_process(workdir, tmp_path, command):
    # every row carries one entry too many; a child process with a timeout
    # turns a training loop left with no batch into a failure, not a stall
    ferts = tmp_path / "wide.fert"
    ferts.write_text("".join(line + " 0\n" for line in
                             Path(workdir["ferts"]).read_text().splitlines()))
    out = tmp_path / "wide.out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(natmt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "natmt.cli",
         *_fertility_command(workdir, command, workdir["distilled"], str(ferts),
                             str(out))],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert f"data error: {ferts}:1: " in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("m1, m2, phase", [("3", "0", "m1"), ("0", "2", "m2")])
def test_align_with_one_em_phase_reports_its_log_likelihood(
        workdir, capsys, m1, m2, phase):
    code, out, err = run(capsys, "align", "--corpus", workdir["corpus"],
                         "--iters-m1", m1, "--iters-m2", m2)
    assert (code, err) == (0, "")
    model = AL.em_train(load_corpus(workdir["corpus"]), int(m1), int(m2))
    assert out == (f"aligned 20 pairs; final log-likelihood "
                   f"{model.ll_history[phase][-1]:.4f}\n")


def test_align_without_outputs_runs_no_viterbi(workdir, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("corpus_alignments called with no output to write")

    model = AL.em_train(load_corpus(workdir["corpus"]))
    monkeypatch.setattr(AL, "corpus_alignments", refuse)
    code, out, err = run(capsys, "align", "--corpus", workdir["corpus"])
    assert (code, err) == (0, "")
    assert out == (f"aligned 20 pairs; final log-likelihood "
                   f"{model.ll_history['m2'][-1]:.4f}\n")


@pytest.mark.parametrize("m1, m2, message", [
    ("-1", "5", "--iters-m1 must be at least 0, got -1"),
    ("5", "-2", "--iters-m2 must be at least 0, got -2"),
    ("0", "0", "--iters-m1 and --iters-m2 are both 0; at least one EM "
               "iteration must run")])
def test_align_bad_iteration_counts_exit_2_naming_flag(workdir, capsys, m1, m2,
                                                       message):
    code, _, err = run(capsys, "align", "--corpus", workdir["corpus"],
                       "--iters-m1", m1, "--iters-m2", m2)
    assert code == 2
    assert f"data error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["copy", "dictionary"])
@pytest.mark.parametrize("lengths", [("5", "2"), ("0", "4"), ("-1", "4")])
def test_gen_synth_bad_length_range_exits_2_naming_both_flags(tmp_path, capsys,
                                                              kind, lengths):
    prefix = tmp_path / "bad"
    code, _, err = run(capsys, "gen-synth", "--kind", kind, "--size", "3",
                       "--out-prefix", str(prefix), "--min-len", lengths[0],
                       "--max-len", lengths[1])
    assert code == 2
    assert ("data error: --min-len must be at least 1 and at most --max-len, "
            f"got --min-len {lengths[0]} and --max-len {lengths[1]}") in err
    assert "low >= high" not in err
    assert not (tmp_path / "bad.src").exists()


@pytest.mark.parametrize("argv, message", [
    (("--kind", "copy", "--size", "-2"), "--size must be at least 1, got -2"),
    (("--kind", "copy", "--size", "3", "--vocab", "0"),
     "--vocab must be at least 1, got 0"),
    (("--kind", "multimodal", "--size", "3", "--modes", "1"),
     "--modes must be at least 2, got 1"),
    (("--kind", "multimodal", "--size", "3", "--phrases", "1"),
     "--phrases must be at least --phrases-per-sent (2), got 1"),
    (("--kind", "multimodal", "--size", "3", "--phrases-per-sent", "0"),
     "--phrases-per-sent must be at least 1, got 0"),
    (("--kind", "copy", "--size", "3", "--seed", "-1"),
     "--seed must be at least 0, got -1")])
def test_gen_synth_count_below_what_the_generator_needs_exits_2_naming_it(
        tmp_path, capsys, argv, message):
    prefix = tmp_path / "bad"
    code, _, err = run(capsys, "gen-synth", *argv, "--out-prefix", str(prefix))
    assert code == 2
    assert f"data error: {message}" in err
    assert "high <= 0" not in err
    assert not (tmp_path / "bad.src").exists()


@pytest.mark.parametrize("argv, message", [
    (("--kind", "copy", "--max-len", "1000000000000"),
     "--max-len must be at most 4096, got 1000000000000"),
    (("--kind", "dictionary", "--max-len", "100000000000000000000"),
     "--max-len must be at most 4096, got 100000000000000000000"),
    (("--kind", "copy", "--max-len", "4097"), "--max-len must be at most 4096, got 4097"),
    (("--kind", "copy", "--vocab", "100000000000000000000"),
     "--vocab must be at most 1048576, got 100000000000000000000"),
    (("--kind", "dictionary", "--vocab", "100000000000000000000"),
     "--vocab must be at most 1048576, got 100000000000000000000"),
    (("--kind", "dictionary", "--vocab", "1048577"),
     "--vocab must be at most 1048576, got 1048577"),
    (("--kind", "multimodal", "--phrases", "2", "--modes", "174763"),
     "--phrases times --modes times 3 target words must be at most 1048576, got 1048578"),
    (("--kind", "multimodal", "--phrases", "1366", "--phrases-per-sent", "1366"),
     "--phrases-per-sent times 3 target tokens must be at most 4096, got 4098")],
    ids=["max_len_1e12", "max_len_1e20", "max_len_4097", "copy_vocab_1e20",
         "dictionary_vocab_1e20", "vocab_1048577", "multimodal_words_1048578",
         "multimodal_tokens_4098"])
def test_gen_synth_count_above_what_a_model_can_train_on_exits_2_naming_it(
        tmp_path, capsys, argv, message):
    code, out, err = run(capsys, "gen-synth", "--size", "1", *argv,
                         "--out-prefix", str(tmp_path / "O"))
    assert (code, out) == (2, "")
    assert f"data error: {message}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["copy", "dictionary"])
def test_gen_synth_accepts_the_ceilings(tmp_path, capsys, kind):
    prefix = str(tmp_path / "top")
    code, _, _ = run(capsys, "gen-synth", "--kind", kind, "--size", "2",
                     "--min-len", "4096", "--max-len", "4096",
                     "--vocab", "1048576", "--out-prefix", prefix)
    assert code == 0
    assert [len(src) for src, _ in load_corpus(prefix)] == [4096, 4096]


def test_gen_synth_links_name_the_source_position_of_each_target_token(
        tmp_path, capsys):
    # the planted dictionary reverses word order: target j+1 comes from n-j
    prefix = str(tmp_path / "dic")
    links = tmp_path / "links.txt"
    assert run(capsys, "gen-synth", "--kind", "dictionary", "--size", "6",
               "--out-prefix", prefix, "--links-out", str(links))[0] == 0
    want = [" ".join(f"{j + 1}-{len(src) - j}" for j in range(len(src)))
            for src, _ in load_corpus(prefix)]
    assert links.read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("strategies, code, message", [
    ("", 1, "bench: --strategies names no strategy"),
    (",", 1, "bench: --strategies names no strategy"),
    ("greedy:2", 2, "data error: strategy 'greedy' takes no argument in 'greedy:2'"),
    ("beam:0", 2, "data error: strategy argument must be positive in 'beam:0'"),
    ("beam:1_0", 2, "data error: bad strategy argument in 'beam:1_0'"),
    ("npd:+4", 2, "data error: bad strategy argument in 'npd:+4'"),
    ("npd:1000000000000", 2, "data error: strategy argument must be at most 1024 "
                             "in 'npd:1000000000000'"),
    ("argmax", 2, "data error: strategy 'argmax' needs a parallel model")])
def test_bench_bad_strategies(workdir, capsys, strategies, code, message):
    got, out, err = run(capsys, "bench", "--teacher", workdir["teacher"],
                        "--testset", workdir["corpus"] + ".src",
                        "--strategies", strategies, "--repeats", "1")
    assert (got, out) == (code, "")
    assert message in err and "Traceback" not in err


def test_bench_with_neither_model_is_usage(workdir, capsys):
    code, out, err = run(capsys, "bench", "--testset", workdir["corpus"] + ".src")
    assert (code, out) == (1, "")
    assert "bench needs --teacher and/or --nat" in err


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


@pytest.mark.parametrize("command, argv, message", [
    ("bench", ["--testset", "SRC", "--strategies", "greedy", "--repeats", "0"],
     "--repeats must be at least 1, got 0"),
    ("bench", ["--testset", "SRC", "--strategies", "greedy,npd:3", "--nat", "NAT",
               "--seed", "-1"], "--seed must be at least 0, got -1"),
    ("distill", ["--corpus", "CORPUS", "--out-prefix", "OUT", "--mode", "beam",
                 "--beam", "0"], "--beam must be at least 1, got 0"),
    # and the one flag with a ceiling as well as a floor
    ("distill", ["--corpus", "CORPUS", "--out-prefix", "OUT", "--mode", "beam",
                 "--beam", "1025"], "--beam must be at most 1024, got 1025"),
    ("translate", ["--model", "NAT", "--input", "SRC", "--strategy", "npd",
                   "--samples", "3", "--seed", "-1"], "--seed must be at least 0, got -1"),
], ids=["bench_repeats_0", "bench_seed_negative", "distill_beam_0",
        "distill_beam_1025", "translate_seed_negative"])
def test_flag_below_its_floor_exits_2_naming_it(workdir, capsys, command, argv,
                                                message):
    # each value would reach a library check, numpy's seeding or a beam wider
    # than the strategy ceiling
    names = {"SRC": workdir["corpus"] + ".src", "CORPUS": workdir["corpus"],
             "NAT": workdir["nat"], "OUT": str(workdir["dir"] / "floor_out")}
    code, out, err = run(capsys, command, "--teacher", workdir["teacher"],
                         *(names.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert f"data error: {message}" in err
    assert not (workdir["dir"] / "floor_out.src").exists()


@pytest.mark.parametrize("case", ["counts", "empty_line", "empty_file"])
def test_bleu_bad_files_exit_2_naming_them(tmp_path, capsys, case):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text({"counts": "a b\nc\n", "empty_line": "a b\nc\n",
                    "empty_file": ""}[case])
    ref.write_text({"counts": "a b\n", "empty_line": "a b\n\n",
                    "empty_file": ""}[case])
    code, out, err = run(capsys, "bleu", str(hyp), str(ref))
    assert (code, out) == (2, "")
    want = {"counts": f"line counts differ: {hyp} has 2, {ref} has 1",
            "empty_line": f"{ref}:2: empty reference line",
            "empty_file": f"{ref}: empty reference file"}[case]
    assert f"data error: {want}" in err


@pytest.mark.parametrize("side, line, message", [
    ("src", "w " * 5, "line of 5 tokens exceeds max_len 4"),
    ("tgt", "w " * 4, "line of 4 tokens exceeds max_len 4 less the start marker"),
], ids=["src", "tgt"])
def test_training_line_over_max_len_exits_2_naming_file_line(tmp_path, capsys,
                                                             side, line, message):
    lines = {"src": ["a b", "a b"], "tgt": ["x y", "x y"]}
    lines[side][1] = line.strip()
    for ext in ("src", "tgt"):
        (tmp_path / f"c.{ext}").write_text("\n".join(lines[ext]) + "\n")
    out_path = tmp_path / "t.nat"
    code, _, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                       "--out", str(out_path), "--set", "max_len=4")
    assert code == 2
    assert f"data error: {tmp_path / 'c'}.{side}:2: {message}" in err
    assert not out_path.exists()


def test_align_target_beyond_the_fertility_cap_exits_2_naming_file_line(tmp_path,
                                                                       capsys):
    # three classes (0-2) let one source token cover two target tokens, not three
    (tmp_path / "c.src").write_text("a b\na\n")
    (tmp_path / "c.tgt").write_text("x y\nx y z\n")
    code, _, err = run(capsys, "align", "--corpus", str(tmp_path / "c"),
                       "--fertilities-out", str(tmp_path / "f.txt"),
                       "--max-fertility", "3")
    assert code == 2
    assert (f"data error: {tmp_path / 'c'}.tgt:2: 3 target tokens do not fit 1 "
            "source tokens of fertility at most 2 (--max-fertility 3)") in err
    assert "Traceback" not in err
    assert not (tmp_path / "f.txt").exists()


@pytest.mark.parametrize("command", ["align", "translate", "bleu"])
def test_non_utf8_input_exits_2_naming_file_line(workdir, tmp_path, capsys, command):
    bad = tmp_path / "bad.src"
    bad.write_bytes(b"a b\nc \xaf d\n")
    (tmp_path / "bad.tgt").write_text("x\ny\n")
    argv = {"align": ["--corpus", str(tmp_path / "bad")],
            "translate": ["--model", workdir["nat"], "--input", str(bad)],
            "bleu": [workdir["corpus"] + ".src", str(bad)]}[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 2
    assert f"data error: {bad}:2: line is not UTF-8 text" in err


def test_main_shows_a_bug_as_one(monkeypatch, tmp_path):
    # only data, file, numeric and usage errors are reported; any other
    # exception escapes with its traceback
    def broken(args):
        raise ValueError("a bug")

    monkeypatch.setattr(natmt.cli, "cmd_bleu", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["bleu", str(tmp_path / "h"), str(tmp_path / "r")])


def test_finetune_corpus_over_the_teachers_max_len_exits_2_naming_file_line(
        tmp_path, capsys):
    # the student fits 12-token lines, but the teacher reads at most 8 tokens
    words = [f"w{i}" for i in range(12)]
    vocab = Vocab(words)
    paths = {}
    for kind, max_len in (("nat", 64), ("teacher", 8)):
        cfg = ModelConfig(d_model=16, d_hidden=32, n_layer=1, n_head=2,
                          src_vocab=len(vocab), tgt_vocab=len(vocab),
                          max_len=max_len, max_fertility=4)
        model = (N.NatModel if kind == "nat" else AR.TeacherModel)(
            cfg, np.random.default_rng(0))
        paths[kind] = str(tmp_path / f"{kind}.nat")
        P.save_model(paths[kind], model, vocab, vocab)
    lines = [" ".join(words[:3]), " ".join(words)]
    for ext in ("src", "tgt"):
        (tmp_path / f"c.{ext}").write_text("\n".join(lines) + "\n")
    (tmp_path / "f.txt").write_text("1 1 1\n" + " ".join(["1"] * 12) + "\n")
    out_path = tmp_path / "tuned.nat"
    code, out, err = run(capsys, "finetune", "--nat", paths["nat"],
                         "--teacher", paths["teacher"], "--corpus",
                         str(tmp_path / "c"), "--fertilities",
                         str(tmp_path / "f.txt"), "--out", str(out_path),
                         "--steps", "1")
    assert (code, out) == (2, "")
    assert (f"data error: {tmp_path / 'c'}.src:2: line of 12 tokens exceeds "
            "max_len 8") in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_no_flag_parses_with_int():
    # int() would take '1_0', '+4', ' 4' and non-ASCII digits
    parser = natmt.cli.build_parser()
    [sub] = [a for a in parser._actions if a.choices and a.dest == "command"]
    lenient = [f"{name} {flag}" for name, sp in sub.choices.items()
               for a in sp._actions if a.type is int for flag in a.option_strings]
    assert lenient == []


@pytest.mark.parametrize("argv, flag", [
    (["train-teacher", "--corpus", "C", "--out", "O", "--steps", "1_0"], "--steps"),
    (["train-teacher", "--corpus", "C", "--out", "O", "--warmup", "٣"],
     "--warmup"),
    (["train-teacher", "--corpus", "C", "--out", "O", "--seed", "+4"], "--seed"),
    (["train-nat", "--corpus", "C", "--fertilities", "F", "--out", "O",
      "--min-freq", " 1"], "--min-freq"),
    (["finetune", "--nat", "N", "--teacher", "T", "--corpus", "C",
      "--fertilities", "F", "--out", "O", "--batch-size", "+2"], "--batch-size"),
    (["gen-synth", "--kind", "copy", "--size", "1_0", "--out-prefix", "O"],
     "--size"),
    (["gen-synth", "--kind", "copy", "--size", "5", "--min-len", "+2",
      "--out-prefix", "O"], "--min-len"),
    (["align", "--corpus", "C", "--iters-m1", "٣"], "--iters-m1"),
    (["distill", "--teacher", "T", "--corpus", "C", "--out-prefix", "O",
      "--beam", "٤"], "--beam"),
    (["translate", "--model", "M", "--input", "I", "--seed", "+1"], "--seed"),
    (["bench", "--teacher", "T", "--testset", "S", "--repeats", "1_0"],
     "--repeats"),
], ids=["steps_underscore", "warmup_arabic_indic", "seed_plus", "min_freq_space",
        "batch_size_plus", "gen_synth_size_underscore", "gen_synth_min_len_plus",
        "align_iters_arabic_indic", "distill_beam_arabic_indic",
        "translate_seed_plus", "bench_repeats_underscore"])
def test_integer_flags_refuse_what_the_integer_rule_refuses(tmp_path, capsys,
                                                           argv, flag):
    # refused as `--steps abc` is, before any file is read or written
    paths = {a: str(tmp_path / a) for a in "CFONTMIS"}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (1, "")
    assert f"argument {flag}: invalid integer value" in err
    assert list(tmp_path.iterdir()) == []


def test_no_flag_parses_with_float():
    # float() would take '1_0', '+0.5', ' 0.5', 'inf' and non-ASCII digits
    parser = natmt.cli.build_parser()
    [sub] = [a for a in parser._actions if a.choices and a.dest == "command"]
    lenient = [f"{name} {flag}" for name, sp in sub.choices.items()
               for a in sp._actions if a.type is float for flag in a.option_strings]
    assert lenient == []


@pytest.mark.parametrize("command", ["train-teacher", "finetune"])
@pytest.mark.parametrize("value", ["٠.٥", "+0.5", " 0.5", "1_0e-1", "inf"],
                         ids=["arabic_indic", "plus", "space", "underscore", "inf"])
def test_lam_flag_refuses_what_the_real_rule_refuses(tmp_path, capsys, command,
                                                     value):
    # refused as `--lam abc` is, before any file is read or written
    paths = {a: str(tmp_path / a) for a in "CFONT"}
    argv = {"train-teacher": ["--corpus", "C", "--out", "O"],
            "finetune": ["--nat", "N", "--teacher", "T", "--corpus", "C",
                         "--fertilities", "F", "--out", "O"]}[command]
    code, out, err = run(capsys, command, *(paths.get(a, a) for a in argv),
                         "--lam", value)
    assert (code, out) == (1, "")
    assert f"argument --lam: invalid real value: {value!r}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("lr_scale", "1_0e-3"), ("lam", "٠.٥"), ("lam", "+0.5"), ("lr_scale", "١e-3")],
    ids=["lr_scale_underscore", "lam_arabic_indic", "lam_plus",
         "lr_scale_arabic_indic"])
def test_float_config_values_refuse_what_the_real_rule_refuses(tmp_path, capsys,
                                                               key, value):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    out_path = tmp_path / "t.nat"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n", encoding="utf-8")
    bad = f"bad value {value!r} for configuration key {key!r}"
    for flags, message in ((["--set", f"{key}={value}"], f"data error: {bad}"),
                           (["--config", str(cfg)], f"data error: {cfg}:1: {bad}")):
        code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                             "--out", str(out_path), "--steps", "1", *flags)
        assert (code, out) == (2, "")
        assert message in err
        assert not out_path.exists()


@pytest.mark.parametrize("value", ["-1", "0", "-0.0"])
def test_lr_scale_not_positive_exits_2_naming_key(tmp_path, capsys, value):
    # a negative rate trains uphill and a zero one moves no weight
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    out_path = tmp_path / "t.nat"
    code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                         "--out", str(out_path), "--steps", "1",
                         "--set", f"lr_scale={value}")
    assert (code, out) == (2, "")
    assert f"data error: lr_scale must be positive, got {float(value)}" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flags, message", [
    (["--lam", "2"], "lam must lie in [0, 1], got 2.0"),
    (["--set", "finetune_terms=rl,xx"], "finetune_terms holds unknown terms ['xx']")],
    ids=["lam_2", "unknown_term"])
def test_bad_finetune_setting_exits_2_naming_it(tmp_path, capsys, flags, message):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    out_path = tmp_path / "t.nat"
    code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                         "--out", str(out_path), "--steps", "1", *flags)
    assert (code, out) == (2, "")
    assert f"data error: {message}" in err
    assert not out_path.exists()


def test_lr_scale_none_overrides_a_config_value(tmp_path, capsys, monkeypatch):
    # `none` restores the default rate schedule, d_model ** -0.5
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    (tmp_path / "run.cfg").write_text("lr_scale=0.5\n")
    seen = []
    train = P.train_teacher
    monkeypatch.setattr(P, "train_teacher",
                        lambda *a: seen.append(a[2].lr_scale) or train(*a))
    out_path = tmp_path / "t.nat"
    code, _, _ = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                     "--out", str(out_path), "--steps", "1", "--set", "d_model=8",
                     "--config", str(tmp_path / "run.cfg"), "--set", "lr_scale=none")
    assert code == 0
    assert seen == [None]
    assert out_path.exists()


@pytest.mark.parametrize("flags, terms, lam", [
    (["--set", "finetune_terms="], [], 0.25),
    (["--set", "finetune_terms=kd", "--lam", "1"], ["kd"], 1.0),
    (["--set", "finetune_terms=rl,bp", "--lam", "0"], ["bp", "rl"], 0.0),
], ids=["no_term", "kd_at_lam_1", "rl_bp_at_lam_0"])
def test_finetune_with_no_weighted_term_exits_2_naming_terms_and_lam(
        workdir, capsys, flags, terms, lam):
    # rl and bp are weighted by lam and kd by 1 - lam: no step would move a
    # weight, and an unchanged model would be saved
    out_path = workdir["dir"] / "unweighted.nat"
    code, out, err = run(capsys, "finetune", "--nat", workdir["nat"], "--teacher",
                         workdir["teacher"], "--corpus", workdir["distilled"],
                         "--fertilities", workdir["ferts"], "--out", str(out_path),
                         "--steps", "1", *flags)
    assert (code, out) == (2, "")
    assert (f"data error: no term of finetune_terms {terms} carries weight at "
            f"lam {lam}") in err
    assert not out_path.exists()


def _fixed(key, fixed, given):
    return (f"data error: configuration key {key!r} is fixed at {fixed} by the "
            f"corpus or a checkpoint, got {given}")


@pytest.mark.parametrize("key, given", [("src_vocab", 5), ("tgt_vocab", 100)])
def test_train_teacher_refuses_a_vocabulary_size_the_corpus_fixes(tmp_path, capsys,
                                                                  key, given):
    (tmp_path / "c.src").write_text("a b\n")
    (tmp_path / "c.tgt").write_text("x y\n")
    out_path = tmp_path / "t.nat"
    code, out, err = run(capsys, "train-teacher", "--corpus", str(tmp_path / "c"),
                         "--out", str(out_path), "--steps", "1",
                         "--set", f"{key}={given}")
    assert (code, out) == (2, "")
    assert _fixed(key, 6, given) in err    # the 4 reserved tokens and 2 words
    assert not out_path.exists()


@pytest.mark.parametrize("flags, key, given", [
    (["--set", "n_layer=3"], "n_layer", 3),
    (["--d-model", "64"], "d_model", 64),
    (["--set", "max_len=9"], "max_len", 9),
], ids=["n_layer", "d_model", "max_len"])
def test_train_nat_refuses_a_trunk_key_the_teacher_fixes(workdir, tmp_path, capsys,
                                                         flags, key, given):
    tc = P.load_model(workdir["teacher"])[0].cfg
    out_path = tmp_path / "n.nat"
    # a key given at the teacher's own value stays accepted
    code, out, err = run(capsys, "train-nat", "--corpus", workdir["distilled"],
                         "--fertilities", workdir["ferts"], "--out", str(out_path),
                         "--init-encoder", workdir["teacher"], "--steps", "1",
                         "--set", "max_fertility=4",
                         "--set", f"d_hidden={tc.d_hidden}", *flags)
    assert (code, out) == (2, "")
    assert _fixed(key, getattr(tc, key), given) in err
    assert not out_path.exists()


@pytest.mark.parametrize("flags, key, given", [
    (["--d-model", "128"], "d_model", 128),
    (["--set", "n_layer=7"], "n_layer", 7),
    (["--set", "max_fertility=9"], "max_fertility", 9),
], ids=["d_model", "n_layer", "max_fertility"])
def test_finetune_refuses_a_model_key_that_differs_from_the_checkpoint(
        workdir, tmp_path, capsys, flags, key, given):
    nc = P.load_model(workdir["nat"])[0].cfg
    out_path = tmp_path / "f.nat"
    code, out, err = run(capsys, "finetune", "--nat", workdir["nat"],
                         "--teacher", workdir["teacher"],
                         "--corpus", workdir["distilled"],
                         "--fertilities", workdir["ferts"], "--out", str(out_path),
                         "--steps", "1", "--set", f"d_hidden={nc.d_hidden}", *flags)
    assert (code, out) == (2, "")
    assert _fixed(key, getattr(nc, key), given) in err
    assert not out_path.exists()


def test_translate_samples_above_the_ceiling_exit_2(workdir, capsys):
    # numpy refuses at once to allocate this many npd draws
    n = 10**12
    code, out, err = run(capsys, "translate", "--model", workdir["nat"],
                         "--input", workdir["corpus"] + ".src", "--strategy", "npd",
                         "--samples", str(n), "--teacher", workdir["teacher"])
    assert (code, out) == (2, "")
    assert f"data error: strategy argument must be at most 1024 in 'npd:{n}'" in err
    assert "Traceback" not in err
