"""Corpus ingestion, vocabularies, and padded batching.

Tokenization is whitespace splitting; vocabularies are closed over the
training corpus with a frequency cutoff. Reserved ids are fixed: pad=0,
bos=1, eos=2, unk=3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


class DataError(ValueError):
    """Malformed or missing input artifacts (corpora, vocabs, checkpoints)."""


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
# corpus files
# ---------------------------------------------------------------------------

def read_sentences(path: str | Path) -> list[list[str]]:
    p = Path(path)
    if not p.exists():
        raise DataError(f"corpus file not found: {p}")
    text = p.read_text(encoding="utf-8")
    return [line.split() for line in text.splitlines()]


def load_corpus(prefix: str | Path) -> list[tuple[list[str], list[str]]]:
    """Read `<prefix>.src` / `<prefix>.tgt` as a parallel corpus."""
    src = read_sentences(str(prefix) + ".src")
    tgt = read_sentences(str(prefix) + ".tgt")
    if len(src) != len(tgt):
        raise DataError(
            f"parallel corpus line counts differ: {len(src)} source lines "
            f"vs {len(tgt)} target lines for prefix {prefix}")
    return list(zip(src, tgt))


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
