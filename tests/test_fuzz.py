"""Mangled input files fail cleanly.

Every reader of a user file either accepts a mangled copy of a good file or
raises a `DataError` naming it, and `natmt` run on one exits 0, 2 (printing
a data error that names the file) or 3 (a numeric failure), never with a
traceback. The copies are cut short, bit-flipped, or given reserved markers,
empty or over-long lines, non-integers and bytes that are not UTF-8.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import natmt.pipeline as P
from natmt import nat as N
from natmt import teacher as AR
from natmt.cli import main
from natmt.config import ModelConfig, TrainConfig
from natmt.data import (DataError, Vocab, check_corpus, check_lines, load_corpus,
                        read_config, read_fertilities, read_sentences)

MAX_LEN = 12
MAX_FERTILITY = 4
WORDS = [f"w{i}" for i in range(8)]
TYPES = {f.name: f.type for cls in (ModelConfig, TrainConfig)
         for f in dataclasses.fields(cls)}

# byte strings a mangled file may gain: markers, line breaks, an over-long
# line, non-integers, `key=value` syntax and bytes that are not UTF-8
SNIPPETS = [b"<pad>", b"<bos>", b"<eos>", b"<unk>", b"\n", b"\n\n", b"\r", b" ",
            b" w1" * (MAX_LEN + 2), b"-1", b"7", b"x", b"1.5", b"=", b"#",
            b"\x00", b"\xaf", b"\xff\xfe", b"\xc3"]
EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.sampled_from(SNIPPETS)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 16), st.just(None)))
EDITS = st.lists(EDIT, min_size=1, max_size=3)


def mangle(data: bytes, edits) -> bytes:
    for op, at, arg in edits:
        at %= len(data) + 1
        if op == "insert":
            data = data[:at] + arg + data[at:]
        elif op == "flip" and data:
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ (1 << arg)]) + data[at + 1:]
        elif op == "cut":
            data = data[:at]
    return data


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Good files of every kind, a tiny untrained teacher and parallel model,
    and a directory for the mangled copies."""
    d = tmp_path_factory.mktemp("fuzz")
    vocab = Vocab(WORDS)
    cfg = ModelConfig(d_model=8, d_hidden=16, n_layer=1, n_head=2,
                      src_vocab=len(vocab), tgt_vocab=len(vocab), max_len=MAX_LEN,
                      max_fertility=MAX_FERTILITY)
    P.save_model(d / "teacher.nat", AR.TeacherModel(cfg, np.random.default_rng(0)),
                 vocab, vocab)
    P.save_model(d / "nat.nat", N.NatModel(cfg, np.random.default_rng(1)),
                 vocab, vocab)
    lines = ["w1 w2 w3", "w4 w5", "w6 w7 w0 w1", "w2"]
    text = ("\n".join(lines) + "\n").encode()
    good = {"src": text, "tgt": text, "input": text,
            "fert": b"".join(b"1 " * len(line.split()) + b"\n" for line in lines),
            "config": b"steps=2\nd_model=8  # width\n\nlam=0.5\nfinetune_terms=rl,kd\n",
            "teacher": (d / "teacher.nat").read_bytes(),
            "nat": (d / "nat.nat").read_bytes()}
    for name in ("src", "tgt", "fert"):
        (d / f"good.{name}").write_bytes(good[name])
    return {"dir": d, "good": good}


def _write(files, kind, edits):
    """The good file of `kind` mangled by `edits` at m.<kind>; a corpus side
    gets the good other side next to it."""
    d = files["dir"]
    path = d / f"m.{kind}"
    path.write_bytes(mangle(files["good"][kind], edits))
    if kind in ("src", "tgt"):
        other = "tgt" if kind == "src" else "src"
        (d / f"m.{other}").write_bytes(files["good"][other])
    return path


def _read(files, kind, path):
    """Read `path` as a file of `kind` the way the subcommands do."""
    d = files["dir"]
    if kind in ("src", "tgt"):
        prefix = d / "m"
        pairs = load_corpus(prefix)
        check_corpus(prefix, pairs, MAX_LEN, parallel=True)
        read_fertilities(d / "good.fert", pairs, MAX_FERTILITY)
    elif kind == "input":
        check_lines(path, read_sentences(path), MAX_LEN)
    elif kind == "fert":
        pairs = load_corpus(d / "good")
        read_fertilities(path, pairs, MAX_FERTILITY)
    elif kind == "config":
        read_config(path, TYPES)
    else:
        P.load_model(path)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(kind=st.sampled_from(["src", "tgt", "input", "fert", "config", "teacher",
                             "nat"]),
       edits=EDITS)
@example(kind="src", edits=[("insert", 3, b"\xaf")])
@example(kind="teacher", edits=[("cut", 100, None)])
def test_a_mangled_file_is_read_or_refused_naming_it(files, kind, edits):
    path = _write(files, kind, edits)
    try:
        _read(files, kind, path)
    except DataError as e:
        # a corpus fault may name either side, the corpus prefix, or the
        # fertility file the corpus no longer pairs with
        named = ([str(files["dir"] / "m"), str(files["dir"] / "good.fert")]
                 if kind in ("src", "tgt") else [str(path)])
        assert any(p in str(e) for p in named), str(e)


def _argv(files, kind, path):
    d = files["dir"]
    input_path = path if kind == "input" else d / "good.src"
    return {"src": ["train-nat", "--corpus", d / "m", "--fertilities", d / "good.fert",
                    "--out", d / "out.nat", "--init-encoder", d / "teacher.nat",
                    "--steps", "1", "--warmup", "1",
                    "--max-fertility", str(MAX_FERTILITY)],
            "tgt": ["align", "--corpus", d / "m", "--fertilities-out", d / "out.fert",
                    "--max-fertility", str(MAX_FERTILITY)],
            "input": ["translate", "--model", d / "nat.nat", "--input", input_path,
                      "--strategy", "npd", "--samples", "3",
                      "--teacher", d / "teacher.nat"],
            "fert": ["train-nat", "--corpus", d / "good", "--fertilities", path,
                     "--out", d / "out.nat", "--steps", "1", "--warmup", "1",
                     "--max-fertility", str(MAX_FERTILITY)],
            "teacher": ["score", "--teacher", path, "--source", d / "good.src",
                        "--candidates", d / "good.tgt"],
            "nat": ["translate", "--model", path, "--input", input_path,
                    "--strategy", "argmax"],
            }[kind]


@settings(derandomize=True, deadline=None, max_examples=250)
@given(kind=st.sampled_from(["src", "tgt", "input", "fert", "teacher", "nat"]),
       edits=EDITS)
@example(kind="tgt", edits=[("insert", 3, b"\xaf")])
@example(kind="input", edits=[("insert", 0, b"<eos> ")])
def test_natmt_on_a_mangled_file_exits_cleanly(files, kind, edits):
    path = _write(files, kind, edits)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in _argv(files, kind, path)])
    err = err.getvalue()
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        named = str(files["dir"] / "m") if kind in ("src", "tgt") else str(path)
        assert named in err or str(files["dir"] / "good.fert") in err, err


def test_translate_reading_a_checkpoint_as_input_names_it(files, capsys):
    d = files["dir"]
    code = main(["translate", "--model", str(d / "nat.nat"),
                 "--input", str(d / "nat.nat")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"data error: {d / 'nat.nat'}:1: line is not UTF-8 text" in err
