"""Vocabulary, corpus loading, and batching tests."""

import dataclasses

import numpy as np
import pytest

from natmt import data as D
from natmt.config import ModelConfig, TrainConfig


def test_reserved_ids_fixed():
    v = D.Vocab(["cat", "dog"])
    assert v.encode(["<pad>", "<bos>", "<eos>", "<unk>"]) == [0, 1, 2, 3]
    assert (D.PAD, D.BOS, D.EOS, D.UNK) == (0, 1, 2, 3)
    assert v.encode(["cat"]) == [4]
    assert len(v) == 6


def test_vocab_build_frequency_order():
    sents = [["b", "a", "a"], ["c", "a", "b"]]
    v = D.Vocab.build(sents)
    assert v.tokens[4:] == ["a", "b", "c"]  # by count desc, then alphabetical
    v2 = D.Vocab.build(sents, min_freq=2)
    assert v2.tokens[4:] == ["a", "b"]
    assert v2.encode(["c"]) == [D.UNK]


def test_vocab_encode_decode_roundtrip():
    v = D.Vocab.build([["x", "y", "z"]])
    ids = v.encode(["y", "missing", "z"])
    assert ids[1] == D.UNK
    assert v.decode(ids) == ["y", "z"]


def test_vocab_bijective_over_tail():
    v = D.Vocab.build([["p", "q", "r", "p"]])
    for i in range(4, len(v)):
        assert v.encode(v.decode([i])) == [i]


def test_vocab_rejects_duplicates():
    with pytest.raises(D.DataError):
        D.Vocab(["dup", "dup"])


def test_load_corpus_roundtrip(tmp_path):
    pairs = [(["a", "b"], ["x"]), (["c"], ["y", "z", "w"])]
    D.save_corpus(tmp_path / "toy", pairs)
    got = D.load_corpus(tmp_path / "toy")
    assert got == pairs


def test_load_corpus_missing_file_names_path(tmp_path):
    with pytest.raises(D.DataError) as exc:
        D.load_corpus(tmp_path / "absent")
    assert "absent.src" in str(exc.value)


def test_load_corpus_line_count_mismatch_names_both(tmp_path):
    (tmp_path / "t.src").write_text("a\nb\nc\n")
    (tmp_path / "t.tgt").write_text("x\ny\n")
    with pytest.raises(D.DataError) as exc:
        D.load_corpus(tmp_path / "t")
    msg = str(exc.value)
    assert "3" in msg and "2" in msg


def test_read_sentences_ends_lines_at_line_feeds_only(tmp_path):
    # str.splitlines would also end a line at \x0b, \x0c, \x1c-\x1e, \x85,
    # \u2028 and \u2029; to str.split they, and \r, are whitespace
    p = tmp_path / "s.txt"
    p.write_bytes("a\x1cb\nc\x0bd\x0ce\x85f\r\ng\u2028h\u2029i\r\n\r\n".encode())
    assert D.read_sentences(p) == [["a", "b"], ["c", "d", "e", "f"],
                                   ["g", "h", "i"], []]
    # so FILE:LINE counts line feeds
    p.write_bytes(b"a\x1cb\n<pad>\n")
    with pytest.raises(D.DataError, match=":2: line holds the reserved token"):
        D.check_lines(p, D.read_sentences(p))


CONFIG_TYPES = {f.name: f.type for cls in (ModelConfig, TrainConfig)
                for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("key, value", [
    ("steps", "1_0"), ("warmup", "\u0663"), ("seed", "+4"), ("batch_size", " 4"),
    ("d_model", "\uff18"), ("lr_scale", "inf"), ("lr_scale", "nan"),
    ("lr_scale", "-Infinity"), ("lam", "1e999"), ("lr_scale", "1_0e-3"),
    ("lam", "\u0660.\u0665"), ("lam", "+0.5"), ("lr_scale", " 0.1"), ("lam", "none")])
def test_coerce_refuses_a_lenient_or_non_finite_number(key, value):
    with pytest.raises(D.DataError, match=f"configuration key '{key}'"):
        D.coerce(key, value, CONFIG_TYPES)


@pytest.mark.parametrize("text, number", [
    ("0.5", 0.5), ("-1", -1.0), ("3", 3.0), ("5.", 5.0), (".25", 0.25),
    ("1e-3", 1e-3), ("2.5E+2", 250.0), ("-0.0", -0.0)])
def test_real_reads_plain_decimal_numbers(text, number):
    assert D.real(text) == number
    assert D.coerce("lr_scale", text, CONFIG_TYPES) == number


@pytest.mark.parametrize("text", [
    "1_0", "+0.5", " 0.5", "0.5 ", "0.5\n", "\u0660.\u0665", "\uff11", "inf",
    "-Infinity", "nan", "1e999", "", "-", ".", "1.2.3", "e3", "1e", "1e1.5",
    "0x1p3", "--1"])
def test_real_refuses_a_lenient_or_non_finite_number(text):
    with pytest.raises(ValueError):
        D.real(text)


@pytest.mark.parametrize("value", ["+1", "0_1", "١"],
                         ids=["plus", "underscore", "arabic_indic"])
def test_fertility_file_entries_obey_the_integer_rule(tmp_path, value):
    path = tmp_path / "f.txt"
    path.write_text(f"1 {value}\n", encoding="utf-8")
    with pytest.raises(D.DataError) as err:
        D.read_fertilities(path, [(["a", "b"], ["x", "y"])], 4)
    assert str(err.value) == f"{path}:1: fertility lines must be integers"


def test_pad_block():
    arr, lens = D.pad_block([[5, 6], [7], [8, 9, 10]])
    assert arr.shape == (3, 3)
    np.testing.assert_array_equal(lens, [2, 1, 3])
    np.testing.assert_array_equal(arr[1], [7, D.PAD, D.PAD])


def test_make_batches_shapes_and_padding():
    pairs = [([4, 5], [6]), ([7], [8, 9]), ([10, 11, 12], [13])]
    batches = D.make_batches(pairs, batch_size=2)
    assert [b.size for b in batches] == [2, 1]
    b0 = batches[0]
    assert b0.src.shape == (2, 2)
    np.testing.assert_array_equal(b0.src[1], [7, D.PAD])
    np.testing.assert_array_equal(b0.tgt_len, [1, 2])


def test_make_batches_shuffle_deterministic():
    pairs = [([i], [i]) for i in range(4, 20)]
    a = D.make_batches(pairs, 4, rng=np.random.default_rng(7))
    b = D.make_batches(pairs, 4, rng=np.random.default_rng(7))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.src, y.src)
    c = D.make_batches(pairs, 4, rng=np.random.default_rng(8))
    assert any(not np.array_equal(x.src, y.src) for x, y in zip(a, c))


def test_make_batches_carries_fertility():
    pairs = [([4, 5], [6, 7, 8]), ([9], [10])]
    batches = D.make_batches(pairs, 2, fertilities=[[2, 1], [1]])
    f = batches[0].fertility
    assert f.shape == (2, 2)
    np.testing.assert_array_equal(f[0], [2, 1])
    np.testing.assert_array_equal(f[1], [1, 0])


def test_make_batches_rejects_empty_source():
    with pytest.raises(D.DataError):
        D.make_batches([([], [4])], 1)


def test_encode_corpus():
    sv = D.Vocab.build([["a", "b"]])
    tv = D.Vocab.build([["x"]])
    enc = D.encode_corpus([(["a"], ["x", "q"])], sv, tv)
    assert enc == [(sv.encode(["a"]), tv.encode(["x"]) + [D.UNK])]


def test_batch_size_below_one_is_refused():
    with pytest.raises(ValueError) as exc:
        D.make_batches([([4], [5])], 0)
    assert str(exc.value) == "batch_size must be positive"
