"""Word alignment for fertility supervision.

IBM Model 1 EM initializes a lexical table; IBM Model 2 EM then fits exact
positional tables a(i | j, T, T') bucketed by length pair, with source index
0 reserved for the NULL word. Viterbi alignment picks, independently per
target position, the source index maximizing lexical x positional probability,
breaking exact ties toward the diagonal. Fertilities are per-source-token
alignment counts after NULL-aligned targets are reattached to their nearest
aligned neighbor's source, so they always sum to the target length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

NULL = 0
FLOOR = 1e-9  # unseen-event probability at inference time

Token = Hashable
Pair = tuple[Sequence[Token], Sequence[Token]]


@dataclass
class AlignmentModel:
    src_index: dict        # token -> row, 1-based; row 0 is NULL
    tgt_index: dict        # token -> column
    lex: np.ndarray        # [n_src + 1, n_tgt], rows sum to 1
    pos: dict              # (T, T') -> [T, T'+1], rows over i sum to 1
    ll_history: dict = field(default_factory=lambda: {"m1": [], "m2": []})

    def lex_prob(self, src_token, tgt_token) -> float:
        i = self.src_index.get(src_token)
        j = self.tgt_index.get(tgt_token)
        if i is None or j is None:
            return FLOOR
        return max(float(self.lex[i, j]), FLOOR)

    def null_prob(self, tgt_token) -> float:
        j = self.tgt_index.get(tgt_token)
        return FLOOR if j is None else max(float(self.lex[NULL, j]), FLOOR)

    def pos_prob(self, i: int, j: int, t_tgt: int, t_src: int) -> float:
        tab = self.pos.get((t_tgt, t_src))
        if tab is None:
            return 1.0 / (t_src + 1)
        return max(float(tab[j, i]), FLOOR)


def _clean_corpus(corpus: Sequence[Pair]) -> list[Pair]:
    kept = []
    skipped = 0
    for src, tgt in corpus:
        if len(src) == 0 or len(tgt) == 0:
            skipped += 1
            continue
        kept.append((src, tgt))
    if skipped:
        warnings.warn(f"skipped {skipped} empty sentence pair(s)")
    if not kept:
        raise ValueError("corpus has no non-empty sentence pairs")
    return kept


def em_train(corpus: Sequence[Pair], iters_m1: int = 5, iters_m2: int = 5) -> AlignmentModel:
    """Model 1 EM (uniform positions) then Model 2 EM; the recorded corpus
    log-likelihood is non-decreasing within each phase."""
    pairs = _clean_corpus(corpus)
    src_index = {}
    tgt_index = {}
    for src, tgt in pairs:
        for tok in src:
            src_index.setdefault(tok, len(src_index) + 1)
        for tok in tgt:
            tgt_index.setdefault(tok, len(tgt_index))
    n_src, n_tgt = len(src_index) + 1, len(tgt_index)

    # integer views of the corpus; source side gets NULL prepended
    enc = []
    for src, tgt in pairs:
        xs = np.array([NULL] + [src_index[t] for t in src])
        ys = np.array([tgt_index[t] for t in tgt])
        enc.append((xs, ys))

    lex = np.full((n_src, n_tgt), 1.0 / n_tgt)
    buckets = sorted({(len(ys), len(xs) - 1) for xs, ys in enc})
    pos = {(t, tp): np.full((t, tp + 1), 1.0 / (tp + 1)) for t, tp in buckets}
    model = AlignmentModel(src_index, tgt_index, lex, pos)

    def sweep(model2: bool) -> float:
        """One EM iteration; Model 2 also uses and re-estimates positions."""
        nonlocal lex
        ll = 0.0
        lex_counts = np.zeros_like(lex)
        pos_counts = {k: np.zeros_like(v) for k, v in pos.items()} if model2 else None
        for xs, ys in enc:
            t, tp = len(ys), len(xs) - 1
            sub = lex[np.ix_(xs, ys)]            # [T'+1, T]
            if model2:
                scores = pos[(t, tp)].T * sub    # a(i|j) broadcast over i rows
            else:
                scores = sub / (tp + 1)
            totals = scores.sum(axis=0)          # per target position
            ll += float(np.log(totals).sum())
            gamma = scores / totals              # posterior over i, [T'+1, T]
            np.add.at(lex_counts, (xs[:, None], ys[None, :]), gamma)
            if model2:
                pos_counts[(t, tp)] += gamma.T
        lex = lex_counts / lex_counts.sum(axis=1, keepdims=True)
        model.lex = lex
        if model2:
            for k, c in pos_counts.items():
                pos[k] = c / c.sum(axis=1, keepdims=True)
            model.pos = pos
        return ll

    for _ in range(iters_m1):
        model.ll_history["m1"].append(sweep(model2=False))
    for _ in range(iters_m2):
        model.ll_history["m2"].append(sweep(model2=True))
    return model


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def viterbi_align(pair: Pair, model: AlignmentModel) -> list[int]:
    """Per target position, the best source index in 0..T' (0 = NULL); exact
    ties go to the index closest to the diagonal Round(j * T'/T)."""
    src, tgt = pair
    tp, t = len(src), len(tgt)
    out = []
    for j, y in enumerate(tgt):
        scores = np.empty(tp + 1)
        scores[NULL] = model.null_prob(y) * model.pos_prob(NULL, j, t, tp)
        for i, x in enumerate(src, start=1):
            scores[i] = model.lex_prob(x, y) * model.pos_prob(i, j, t, tp)
        best = scores.max()
        tied = np.flatnonzero(scores == best)
        diag = _round_half_up((j + 1) * tp / t)
        out.append(int(min(tied, key=lambda i: (abs(int(i) - diag), int(i)))))
    return out


def extract_fertilities(alignment: Sequence[int], src_len: int,
                        max_fertility: int = 50) -> list[int]:
    """Alignment counts per source position; NULL-aligned targets reattach to
    the source of the nearest originally-aligned neighbor (left first, then
    right; source position 1 if the whole sentence is NULL-aligned). Values
    clamp to max_fertility - 1 with the excess pushed to the nearest
    unclamped position, keeping the sum equal to the target length exactly."""
    t = len(alignment)
    for a in alignment:
        if not 0 <= a <= src_len:
            raise ValueError(f"alignment entry {a} outside [0, {src_len}]")
    resolved = list(alignment)
    for j, a in enumerate(alignment):
        if a != NULL:
            continue
        target = 1
        for d in range(1, t):
            if j - d >= 0 and alignment[j - d] != NULL:
                target = alignment[j - d]
                break
            if j + d < t and alignment[j + d] != NULL:
                target = alignment[j + d]
                break
        resolved[j] = target
    fert = [0] * src_len
    for a in resolved:
        fert[a - 1] += 1

    cap = max_fertility - 1
    while True:
        over = [i for i, f in enumerate(fert) if f > cap]
        if not over:
            break
        i = over[0]
        open_slots = [k for k, f in enumerate(fert) if f < cap]
        if not open_slots:
            raise ValueError(
                f"target length {t} cannot fit under fertility cap {cap} "
                f"with {src_len} source tokens")
        k = min(open_slots, key=lambda k: (abs(k - i), k))
        amount = min(fert[i] - cap, cap - fert[k])
        fert[i] -= amount
        fert[k] += amount
    return fert


# ---------------------------------------------------------------------------
# corpus-level helpers
# ---------------------------------------------------------------------------

def corpus_fertilities(corpus: Sequence[Pair], model: AlignmentModel,
                       max_fertility: int = 50) -> list[list[int]]:
    return [extract_fertilities(viterbi_align(p, model), len(p[0]), max_fertility)
            for p in corpus]


def dump_alignments(corpus: Sequence[Pair], model: AlignmentModel) -> list[str]:
    """One line per pair: space-separated "j-i" links, 1-indexed, with "j-0"
    marking NULL before any reassignment."""
    lines = []
    for pair in corpus:
        align = viterbi_align(pair, model)
        lines.append(" ".join(f"{j + 1}-{i}" for j, i in enumerate(align)))
    return lines
