"""Checkpoint format tests: bit-exact round-trips and hard format errors."""

import json
import struct

import numpy as np
import pytest

from natmt import checkpoint as C
from natmt.data import DataError, Vocab
from natmt.tensor import NumericError


def sample_state(seed=0):
    rng = np.random.default_rng(seed)
    params = [
        ("enc.embed.weight", rng.normal(0, 1, (7, 4)).astype(np.float32)),
        ("enc.bias", rng.normal(0, 1, (4,)).astype(np.float32)),
        ("scalar", np.float32(rng.normal())[None][0].reshape(())),
    ]
    opt = [("adam.m.enc.bias", rng.normal(0, 1, (4,)).astype(np.float32))]
    sv, tv = Vocab(["a", "b"]), Vocab(["x"])
    cfg = {"d_model": 4, "n_layer": 1}
    return params, opt, sv, tv, cfg


def test_roundtrip_bit_exact(tmp_path):
    params, opt, sv, tv, cfg = sample_state()
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, "teacher", cfg, params, sv, tv)
    got = C.load_checkpoint(path)
    assert got.kind == "teacher"
    assert got.config == cfg
    assert list(got.params) == [n for n, _ in params]  # manifest order kept
    for name, arr in params:
        loaded = got.params[name]
        assert loaded.dtype == np.float32
        assert loaded.shape == arr.shape
        assert np.array_equal(
            loaded.view(np.uint32), arr.view(np.uint32))  # bit-exact
    assert got.src_vocab.tokens == sv.tokens
    assert got.tgt_vocab.tokens == tv.tokens


def test_manifest_with_extra_key_still_loads(tmp_path):
    """A save writes no "extra" manifest entry; a version-3 file that carries
    one, as earlier saves wrote, still loads bit-exactly."""
    params, _, sv, tv, cfg = sample_state()
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, "teacher", cfg, params, sv, tv)
    raw = path.read_bytes()
    _, mlen = struct.unpack_from("<II", raw, 4)
    manifest = json.loads(raw[12:12 + mlen])
    assert "extra" not in manifest
    manifest["extra"] = {"step": 5}
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<II", C.VERSION, len(blob)) + blob
                     + raw[12 + mlen:])
    got = C.load_checkpoint(path)
    assert (got.kind, got.config) == ("teacher", cfg)
    assert list(got.params) == [n for n, _ in params]
    for name, arr in params:
        assert got.params[name].dtype == np.float32
        assert np.array_equal(got.params[name].view(np.uint32), arr.view(np.uint32))
    assert got.src_vocab.tokens == sv.tokens
    assert got.tgt_vocab.tokens == tv.tokens


def test_magic_bytes_checked(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"XXXXrest")
    with pytest.raises(DataError):
        C.load_checkpoint(path)


def test_version_mismatch_hard_error(tmp_path):
    params, opt, sv, tv, cfg = sample_state()
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, "nat", cfg, params, sv, tv)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError) as exc:
        C.load_checkpoint(path)
    assert "99" in str(exc.value)


def test_missing_file(tmp_path):
    with pytest.raises(DataError) as exc:
        C.load_checkpoint(tmp_path / "nope.ckpt")
    assert "nope.ckpt" in str(exc.value)


def test_truncated_and_padded_files_rejected(tmp_path):
    params, opt, sv, tv, cfg = sample_state()
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, "nat", cfg, params, sv, tv)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(DataError):
        C.load_checkpoint(path)
    path.write_bytes(raw[:-3])
    with pytest.raises(DataError):
        C.load_checkpoint(path)


class _FailingBlob:
    """A parameter whose blob cannot be produced, as when a disk fills up
    between two blob writes."""
    shape = (4,)

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_failed_overwrite_keeps_previous_checkpoint(tmp_path):
    params, _, sv, tv, cfg = sample_state()
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, "nat", cfg, params, sv, tv)
    before = path.read_bytes()
    broken = params[:1] + [("late", _FailingBlob())] + params[1:]
    with pytest.raises(OSError, match="no space"):
        C.save_checkpoint(path, "nat", cfg, broken, sv, tv)
    assert path.read_bytes() == before
    got = C.load_checkpoint(path)
    for name, arr in params:
        assert np.array_equal(got.params[name].view(np.uint32), arr.view(np.uint32))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]  # no temp file left


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_refused_before_writing(tmp_path, bad):
    params, _, sv, tv, cfg = sample_state()
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, "nat", cfg, params, sv, tv)
    before = path.read_bytes()
    poisoned = [(n, a.copy()) for n, a in params]
    poisoned[1][1][2] = bad
    with pytest.raises(NumericError, match="enc.bias"):
        C.save_checkpoint(path, "nat", cfg, poisoned, sv, tv)
    assert path.read_bytes() == before
    got = C.load_checkpoint(path)
    for name, arr in params:
        assert np.array_equal(got.params[name].view(np.uint32), arr.view(np.uint32))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]  # no temp file left


def test_failed_rename_keeps_previous_checkpoint(tmp_path, monkeypatch):
    params, _, sv, tv, cfg = sample_state()
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(path, "nat", cfg, params, sv, tv)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(C.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        C.save_checkpoint(path, "nat", cfg, sample_state(1)[0], sv, tv)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]  # no temp file left
