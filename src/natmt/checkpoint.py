"""Single-file binary checkpoints.

Layout: magic bytes b"NATF", little-endian u32 format version, u32 manifest
byte length, UTF-8 JSON manifest, then raw row-major little-endian float32
blobs in manifest order. The manifest carries the model config, both
vocabularies, and the name/shape of every parameter, so a checkpoint is
self-contained. A save writes a temporary file next to the target and renames
it into place, so an interrupted save leaves the previous file intact.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import DataError, Vocab

MAGIC = b"NATF"
VERSION = 3


@dataclass
class CheckpointData:
    kind: str                       # "teacher" | "nat"
    config: dict
    params: dict[str, np.ndarray]   # name -> float32 array, manifest order preserved
    src_vocab: Vocab
    tgt_vocab: Vocab
    extra: dict = field(default_factory=dict)


def save_checkpoint(path: str | Path,
                    kind: str,
                    config: dict,
                    params: Sequence[tuple[str, np.ndarray]],
                    src_vocab: Vocab,
                    tgt_vocab: Vocab,
                    extra: dict | None = None) -> None:
    manifest = {
        "kind": kind,
        "config": config,
        "src_vocab": src_vocab.tokens,
        "tgt_vocab": tgt_vocab.tokens,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in params],
        "extra": extra or {},
    }
    blob = json.dumps(manifest).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(blob)))
            fh.write(blob)
            for _, arr in params:
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> CheckpointData:
    p = Path(path)
    if not p.exists():
        raise DataError(f"checkpoint file not found: {p}")
    raw = p.read_bytes()
    if raw[:4] != MAGIC:
        raise DataError(f"not a checkpoint file (bad magic): {p}")
    version, mlen = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise DataError(
            f"checkpoint version {version} unsupported (expected {VERSION}): {p}")
    manifest = json.loads(raw[12 : 12 + mlen].decode("utf-8"))
    offset = 12 + mlen

    params = {}
    for e in manifest["params"]:
        shape = tuple(e["shape"])
        n = int(np.prod(shape)) if shape else 1
        if offset + 4 * n > len(raw):
            raise DataError(f"checkpoint truncated in blob {e['name']}: {p}")
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
        params[e["name"]] = arr.reshape(shape).astype(np.float32)
        offset += 4 * n
    if offset != len(raw):
        raise DataError(f"checkpoint has {len(raw) - offset} trailing bytes: {p}")
    src_vocab = Vocab(manifest["src_vocab"][4:])
    tgt_vocab = Vocab(manifest["tgt_vocab"][4:])
    return CheckpointData(manifest["kind"], manifest["config"], params,
                          src_vocab, tgt_vocab, manifest.get("extra", {}))
