"""Synthetic corpora.

Three generators: a copy task, a planted-dictionary translation task with a
known positional shuffle, and a multimodal phrase corpus where every source
phrase has several equally valid target renderings. The multimodal oracle
classifies a model output as pure-mode or contaminated, contamination being a
mixture of tokens from two different renderings of the same phrase (the
"Vielen schön ." failure: gluing half of one valid translation to half of
another).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

Pair = tuple[list[str], list[str]]


# ---------------------------------------------------------------------------
# copy task
# ---------------------------------------------------------------------------

def gen_copy_corpus(size: int, seed: int, vocab: int = 30,
                    min_len: int = 3, max_len: int = 8) -> list[Pair]:
    """Target equals source; tokens w0..w{vocab-1}, lengths uniform."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(size):
        n = int(rng.integers(min_len, max_len + 1))
        toks = [f"w{int(i)}" for i in rng.integers(0, vocab, size=n)]
        out.append((toks, list(toks)))
    return out


# ---------------------------------------------------------------------------
# planted dictionary
# ---------------------------------------------------------------------------

def gen_planted_dictionary(size: int, seed: int, vocab: int = 20,
                           min_len: int = 3, max_len: int = 8,
                           shuffle: str = "reverse"
                           ) -> tuple[list[Pair], list[list[int]]]:
    """1:1 dictionary s{i} -> t{i} with a known positional shuffle.

    Returns (pairs, links) where links[n][j] is the 1-indexed source position
    that produced target position j+1, i.e. the ground-truth alignment.
    """
    if shuffle not in ("identity", "reverse"):
        raise ValueError(f"unknown shuffle {shuffle!r}")
    rng = np.random.default_rng(seed)
    pairs, links = [], []
    for _ in range(size):
        n = int(rng.integers(min_len, max_len + 1))
        ids = rng.integers(0, vocab, size=n)
        src = [f"s{int(i)}" for i in ids]
        order = list(range(n)) if shuffle == "identity" else list(range(n))[::-1]
        tgt = [f"t{int(ids[i])}" for i in order]
        pairs.append((src, tgt))
        links.append([i + 1 for i in order])
    return pairs, links


# ---------------------------------------------------------------------------
# multimodal phrases
# ---------------------------------------------------------------------------

@dataclass
class MultimodalOracle:
    """Phrase inventory: modes[p][m] is the token list rendering phrase p in
    mode m; src_tokens[p] is the source-side token of phrase p."""

    modes: list[list[list[str]]]
    src_tokens: list[str]

    def __post_init__(self):
        self._phrase_of_src = {s: p for p, s in enumerate(self.src_tokens)}
        self._inventory = [
            {tok for mode in phrase for tok in mode} for phrase in self.modes]

    def is_contaminated(self, src_tokens: Sequence[str],
                        output_tokens: Sequence[str]) -> bool:
        """True if, for some source phrase, the output's tokens from that
        phrase's inventory fit inside no single mode. Tokens shared between
        modes never contaminate on their own."""
        for s in src_tokens:
            p = self._phrase_of_src.get(s)
            if p is None:
                continue
            got = {t for t in output_tokens if t in self._inventory[p]}
            if not got:
                continue
            if not any(got <= set(mode) for mode in self.modes[p]):
                return True
        return False

    def contamination_rate(self, sources: Sequence[Sequence[str]],
                           outputs: Sequence[Sequence[str]]) -> float:
        if len(sources) != len(outputs):
            raise ValueError("sources and outputs differ in length")
        if not sources:
            raise ValueError("empty evaluation set")
        flags = [self.is_contaminated(s, o) for s, o in zip(sources, outputs)]
        return sum(flags) / len(flags)


def gen_synth_multimodal(size: int, seed: int, n_modes: int = 3,
                         n_phrases: int = 12, mode_len: int = 3,
                         phrases_per_sent: int = 2
                         ) -> tuple[list[Pair], MultimodalOracle]:
    """Each sentence picks distinct phrases; each phrase renders as one of its
    modes chosen uniformly, so every training target is pure by construction.
    Token inventories are disjoint across (phrase, mode), which makes the
    contamination check exact."""
    if n_modes < 2:
        raise ValueError("need at least 2 modes per phrase")
    if phrases_per_sent > n_phrases:
        raise ValueError("more phrases per sentence than phrases exist")
    rng = np.random.default_rng(seed)
    modes = [[[f"p{p}m{m}x{k}" for k in range(mode_len)]
              for m in range(n_modes)] for p in range(n_phrases)]
    src_tokens = [f"src{p}" for p in range(n_phrases)]
    oracle = MultimodalOracle(modes, src_tokens)
    pairs = []
    for _ in range(size):
        chosen = rng.choice(n_phrases, size=phrases_per_sent, replace=False)
        src, tgt = [], []
        for p in chosen:
            src.append(src_tokens[p])
            tgt.extend(modes[p][int(rng.integers(0, n_modes))])
        pairs.append((src, tgt))
    return pairs, oracle
