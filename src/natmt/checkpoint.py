"""Single-file binary checkpoints.

Layout: magic bytes b"NATF", little-endian u32 format version, u32 manifest
byte length, UTF-8 JSON manifest, then raw row-major little-endian float32
blobs in manifest order. The manifest carries the model config, both
vocabularies, and the name/shape of every parameter, so a checkpoint is
self-contained. A save writes a temporary file next to the target and renames
it into place, so an interrupted save leaves the previous file intact. A save
refuses non-finite weights, and a load rejects any file that does not parse,
naming the file either way.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import RESERVED, DataError, Vocab
from .tensor import NumericError

MAGIC = b"NATF"
VERSION = 3
_MANIFEST_KEYS = {"kind", "config", "src_vocab", "tgt_vocab", "params"}


@dataclass
class CheckpointData:
    kind: str                       # "teacher" | "nat"
    config: dict
    params: dict[str, np.ndarray]   # name -> float32 array, manifest order preserved
    src_vocab: Vocab
    tgt_vocab: Vocab


def save_checkpoint(path: str | Path,
                    kind: str,
                    config: dict,
                    params: Sequence[tuple[str, np.ndarray]],
                    src_vocab: Vocab,
                    tgt_vocab: Vocab) -> None:
    """Raises NumericError, before any file is touched, if a parameter holds
    a NaN or an infinity."""
    path = Path(path)
    for name, arr in params:
        if not np.isfinite(arr).all():
            raise NumericError(f"parameter {name} holds non-finite values; "
                               f"not saving {path}")
    manifest = {
        "kind": kind,
        "config": config,
        "src_vocab": src_vocab.tokens,
        "tgt_vocab": tgt_vocab.tokens,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in params],
    }
    blob = json.dumps(manifest).encode("utf-8")
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
    if len(raw) < 12:
        raise DataError(f"checkpoint truncated in header: {p}")
    version, mlen = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise DataError(
            f"checkpoint version {version} unsupported (expected {VERSION}): {p}")
    offset = 12 + mlen
    if offset > len(raw):
        raise DataError(f"checkpoint truncated in manifest: {p}")
    try:
        manifest = json.loads(raw[12:offset].decode("utf-8"))
    except ValueError as e:   # bad UTF-8 or bad JSON
        raise DataError(f"checkpoint manifest is malformed ({e}): {p}") from None
    if not isinstance(manifest, dict) or not _MANIFEST_KEYS <= manifest.keys():
        raise DataError(f"checkpoint manifest lacks one of "
                        f"{sorted(_MANIFEST_KEYS)}: {p}")

    entries = manifest["params"]
    if not isinstance(entries, list):
        raise DataError(f"checkpoint manifest params is not a list: {p}")
    params = {}
    for e in entries:
        name = e.get("name") if isinstance(e, dict) else None
        if not isinstance(name, str) or name in params:
            raise DataError(f"checkpoint manifest has a parameter entry without "
                            f"a unique string name ({e!r}): {p}")
        shape = e.get("shape")
        if not isinstance(shape, list) or not all(
                type(d) is int and d >= 0 for d in shape):
            raise DataError(f"checkpoint shape of {name} is not a list of "
                            f"non-negative ints ({shape!r}): {p}")
        shape = tuple(shape)
        n = math.prod(shape)
        if offset + 4 * n > len(raw):
            raise DataError(f"checkpoint truncated in blob {name}: {p}")
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
        params[name] = arr.reshape(shape).astype(np.float32)
        offset += 4 * n
    if offset != len(raw):
        raise DataError(f"checkpoint has {len(raw) - offset} trailing bytes: {p}")
    vocabs = []
    for key in ("src_vocab", "tgt_vocab"):
        tokens = manifest[key]
        if (not isinstance(tokens, list) or tuple(tokens[:4]) != RESERVED
                or not all(isinstance(t, str) for t in tokens)):
            raise DataError(f"checkpoint {key} is not a list of tokens starting "
                            f"with the reserved {list(RESERVED)}: {p}")
        try:
            vocabs.append(Vocab(tokens[4:]))
        except DataError as e:
            raise DataError(f"checkpoint {key}: {e}: {p}") from None
    return CheckpointData(manifest["kind"], manifest["config"], params, *vocabs)
