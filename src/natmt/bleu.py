"""Corpus-level BLEU over whitespace tokens.

Modified (clipped) n-gram precision for n=1..MAX_N, geometric mean, brevity
penalty. No smoothing: any zero precision gives score 0. Orders for which no
hypothesis n-gram exists at all (every hypothesis shorter than n) are dropped
from the mean, so identical corpora always score 100.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

TokenSeq = Sequence[str]
MAX_N = 4   # highest n-gram order


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def precision_counts(hypotheses: Sequence[TokenSeq],
                     references: Sequence[TokenSeq]
                     ) -> tuple[list[int], list[int], int, int]:
    """Corpus-aggregated (clipped matches, totals) per order, plus c and r."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}")
    if not references:
        raise ValueError("empty reference list")
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        if len(ref) == 0:
            raise ValueError("empty reference sentence")
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            hyp_grams = _ngrams(hyp, n)
            if not hyp_grams:
                continue
            ref_grams = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_grams.values())
            matches[n - 1] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    return matches, totals, hyp_len, ref_len


def brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def bleu(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> float:
    """Corpus BLEU in [0, 100]."""
    matches, totals, hyp_len, ref_len = precision_counts(hypotheses, references)
    used = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if not used or any(m == 0 for m, _ in used):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in used) / len(used)
    return 100.0 * brevity_penalty(hyp_len, ref_len) * math.exp(log_prec)

