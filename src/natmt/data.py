"""Corpus ingestion, vocabularies, and padded batching.

Tokenization is whitespace splitting; vocabularies are closed over the
training corpus with a frequency cutoff. Reserved ids are fixed: pad=0,
bos=1, eos=2, unk=3.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


class DataError(ValueError):
    """Malformed or missing input: a file (corpus, fertility, config or
    checkpoint file), a configuration value or a flag."""


def integer(text: str) -> int:
    """TEXT as an integer: an optional "-", then plain ASCII digits (int()
    would also take '1_0', '+4', ' 4' and non-ASCII digits); else a
    ValueError, which argparse reports naming the flag."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def real(text: str) -> float:
    """TEXT as a finite float: an optional "-", then ASCII digits with at
    most one ".", then an optional exponent ("e" or "E", an optional sign,
    ASCII digits); float() would also take '1_0', '+0.5', ' 0.5', 'inf' and
    non-ASCII digits. Else a ValueError, which argparse reports naming the
    flag."""
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?", text):
        raise ValueError(f"not a real number: {text!r}")
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {text!r}")
    return number


def at_least(name: str, value, least, why: str = "") -> None:
    """Refuse a count, flag or configuration value NAME below LEAST."""
    if value < least:
        raise DataError(f"{name} must be at least {least}{why}, got {value}")


class Vocab:
    """Bijective token<->id map with the four reserved ids in front."""

    def __init__(self, tail: Sequence[str]):
        tokens = list(RESERVED) + list(tail)
        if len(set(tokens)) != len(tokens):
            raise DataError("vocabulary contains duplicate tokens")
        self._tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}

    @classmethod
    def build(cls, sentences: Iterable[Sequence[str]], min_freq: int = 1) -> "Vocab":
        counts = Counter()
        for sent in sentences:
            counts.update(sent)
        for r in RESERVED:
            counts.pop(r, None)
        # frequency order, alphabetical within ties, for determinism
        tail = sorted((t for t, c in counts.items() if c >= min_freq),
                      key=lambda t: (-counts[t], t))
        return cls(tail)

    def __len__(self) -> int:
        return len(self._tokens)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self._ids.get(t, UNK) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        toks = [self._tokens[i] for i in ids]
        return [t for t in toks if t not in RESERVED]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)


# ---------------------------------------------------------------------------
# text input files: one reader and one line check; a fault names FILE:LINE
# ---------------------------------------------------------------------------

# reserved tokens input text may not hold; `<unk>` already means "unknown word"
MARKERS = frozenset(RESERVED) - {RESERVED[UNK]}


def read_sentences(path: str | Path) -> list[list[str]]:
    """The whitespace tokens of each line of a UTF-8 text file. Lines end at
    a line feed only, so a carriage return before one, like any other
    whitespace character, separates tokens. A missing file or bytes that
    are not UTF-8 raise a DataError naming the file."""
    p = Path(path)
    try:
        raw = p.read_bytes()
        lines = raw.decode("utf-8").split("\n")
    except FileNotFoundError:
        raise DataError(f"{p}: file not found") from None
    except UnicodeDecodeError as e:
        ln = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{p}:{ln}: line is not UTF-8 text") from None
    if not lines[-1]:
        lines.pop()   # the end of the last line, or an empty file
    return [line.split() for line in lines]


def read_parallel(*paths) -> list[list[list[str]]]:
    """`read_sentences` of files whose lines pair up, refusing unequal counts."""
    sides = [read_sentences(p) for p in paths]
    if len({len(side) for side in sides}) > 1:
        raise DataError("line counts differ: " + ", ".join(
            f"{p} has {len(side)}" for p, side in zip(paths, sides)))
    return sides


def check_lines(path, sents, max_len: int | None = None, *, target: bool = False,
                noun: str = "line", empty: str | None = "empty input line") -> None:
    """Refuse, naming PATH:LINE, an empty line with the message `empty`
    unless that is None, a line longer than `max_len` tokens (`max_len - 1`
    for a `target` line, which the teacher reads after a start marker), and
    a line holding a reserved token other than `<unk>`."""
    less = " less the start marker" if target else ""
    for ln, sent in enumerate(sents, 1):
        if not sent and empty:
            raise DataError(f"{path}:{ln}: {empty}")
        if max_len is not None and len(sent) > max_len - target:
            raise DataError(f"{path}:{ln}: {noun} of {len(sent)} tokens exceeds "
                            f"max_len {max_len}{less}")
        marker = next((tok for tok in sent if tok in MARKERS), None)
        if marker:
            raise DataError(f"{path}:{ln}: {noun} holds the reserved token {marker}")


def load_corpus(prefix: str | Path) -> list[tuple[list[str], list[str]]]:
    """Read `<prefix>.src` / `<prefix>.tgt` as a parallel corpus."""
    return list(zip(*read_parallel(f"{prefix}.src", f"{prefix}.tgt")))


def check_corpus(prefix, pairs, max_len: int | None = None,
                 parallel: bool = False) -> None:
    """Refuse a training corpus without one pair of non-empty sides, or with
    a line `check_lines` refuses. A source line must not be empty, nor must
    a target line for a `parallel` model, which emits at least one token."""
    if not any(s and t for s, t in pairs):
        raise DataError(f"corpus {prefix} has no non-empty sentence pairs")
    check_lines(f"{prefix}.src", [s for s, _ in pairs], max_len,
                empty="empty source line")
    check_lines(f"{prefix}.tgt", [t for _, t in pairs], max_len, target=True,
                empty="empty target line (a parallel model emits at least one "
                      "token)" if parallel else None)


def read_fertilities(path, pairs, max_fertility: int) -> list[list[int]]:
    """Read the fertility file paired with a checked corpus. Each line is a
    row of integers, each a class of a parallel model with `max_fertility`
    classes (0 to max_fertility - 1), one per token of the source line,
    summing to the length of the target line."""
    rows = read_sentences(path)
    if len(rows) != len(pairs):
        raise DataError(f"fertility file {path} has {len(rows)} lines for "
                        f"{len(pairs)} sentence pairs")
    out = []
    for ln, (toks, (src, tgt)) in enumerate(zip(rows, pairs), 1):
        try:
            row = [integer(tok) for tok in toks]
        except ValueError:
            raise DataError(f"{path}:{ln}: fertility lines must be integers") from None
        for f in row:
            if not 0 <= f < max_fertility:
                raise DataError(f"{path}:{ln}: fertility {f} is not a class of the "
                                f"parallel model (0 to {max_fertility - 1}, "
                                f"max_fertility {max_fertility})")
        if len(row) != len(src):
            raise DataError(f"{path}:{ln}: {len(row)} fertilities for a source "
                            f"line of {len(src)} tokens")
        if sum(row) != len(tgt):
            raise DataError(f"{path}:{ln}: fertilities sum to {sum(row)}, but the "
                            f"target line has {len(tgt)} tokens")
        out.append(row)
    return out


def coerce(key: str, value: str, types: dict[str, str], where: str = ""):
    """VALUE as the type of configuration key KEY in `types` (field name to
    annotation, as in the config dataclasses); a fault names `where`. An
    integer obeys `integer`, a float `real`."""
    typ = types.get(key)
    if typ is None:
        raise DataError(f"{where}unknown configuration key {key!r}")
    if "tuple" in typ:
        return tuple(v for v in value.split(",") if v)
    if "None" in typ and value.lower() == "none":
        return None
    try:
        return real(value) if "float" in typ else integer(value)  # else an int
    except ValueError:
        raise DataError(f"{where}bad value {value!r} for configuration key "
                        f"{key!r}") from None


def read_config(path, types: dict[str, str]) -> dict:
    """`key=value` lines with `#` comments, each value `coerce`d."""
    out = {}
    for ln, toks in enumerate(read_sentences(path), 1):
        line = " ".join(toks).split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key] = coerce(key, value, types, f"{path}:{ln}: ")
    return out


def save_corpus(prefix: str | Path, pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> None:
    src = "\n".join(" ".join(s) for s, _ in pairs)
    tgt = "\n".join(" ".join(t) for _, t in pairs)
    Path(str(prefix) + ".src").write_text(src + "\n" if src else "", encoding="utf-8")
    Path(str(prefix) + ".tgt").write_text(tgt + "\n" if tgt else "", encoding="utf-8")


def encode_corpus(pairs, src_vocab: Vocab, tgt_vocab: Vocab) -> list[tuple[list[int], list[int]]]:
    return [(src_vocab.encode(s), tgt_vocab.encode(t)) for s, t in pairs]


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    src: np.ndarray        # [B, Ts] padded with PAD
    src_len: np.ndarray    # [B]
    tgt: np.ndarray        # [B, Tt] padded with PAD
    tgt_len: np.ndarray    # [B]
    fertility: np.ndarray | None = None  # [B, Ts], aligner supervision

    @property
    def size(self) -> int:
        return self.src.shape[0]


def pad_block(seqs: Sequence[Sequence[int]], width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if width is None:
        width = max(1, int(lengths.max(initial=0)))
    out = np.full((len(seqs), width), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out, lengths


def make_batches(pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                 batch_size: int,
                 rng: np.random.Generator | None = None,
                 fertilities: Sequence[Sequence[int]] | None = None) -> list[Batch]:
    """Group encoded pairs into padded batches, optionally shuffled.

    Empty source sides are rejected; a target may be empty only when the
    caller keeps fertility supervision consistent with it.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    for i, (s, _) in enumerate(pairs):
        if len(s) == 0:
            raise DataError(f"empty source sentence at corpus index {i}")
    order = np.arange(len(pairs))
    if rng is not None:
        order = rng.permutation(order)
    batches = []
    for start in range(0, len(pairs), batch_size):
        idx = order[start : start + batch_size]
        src, src_len = pad_block([pairs[i][0] for i in idx])
        tgt, tgt_len = pad_block([pairs[i][1] for i in idx])
        fert = None
        if fertilities is not None:
            fert, _ = pad_block([fertilities[i] for i in idx], width=src.shape[1])
        batches.append(Batch(src, src_len, tgt, tgt_len, fert))
    return batches
