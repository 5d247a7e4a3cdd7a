"""Word alignment for fertility supervision.

IBM Model 1 EM initializes a lexical table; IBM Model 2 EM then fits exact
positional tables a(i | j, T, T') bucketed by length pair, with source index
0 reserved for the NULL word. Viterbi alignment picks, independently per
target position, the source index maximizing lexical x positional probability,
breaking exact ties toward the diagonal. Both run on whole arrays per length
bucket, in blocks of at most BLOCK_CELLS cells, so their working arrays do not
grow with the corpus. Fertilities are per-source-token alignment counts after
NULL-aligned targets are reattached to their nearest aligned neighbor's
source, so they always sum to the target length.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

NULL = 0
FLOOR = 1e-9  # unseen-event probability at inference time
BLOCK_CELLS = 1 << 14  # (i, j) cells per array block in EM and Viterbi

Token = Hashable
Pair = tuple[Sequence[Token], Sequence[Token]]


@dataclass
class AlignmentModel:
    src_index: dict        # token -> row, 1-based; row 0 is NULL
    tgt_index: dict        # token -> column
    lex: np.ndarray        # [n_src + 1, n_tgt], rows sum to 1
    pos: dict              # (T, T') -> [T, T'+1], rows over i sum to 1
    ll_history: dict = field(default_factory=lambda: {"m1": [], "m2": []})


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


def _buckets(lengths: Sequence[tuple[int, int]]) -> dict:
    """Indices into `lengths` grouped by their (T, T') pair, in order."""
    rows: dict = {}
    for r, key in enumerate(lengths):
        rows.setdefault(key, []).append(r)
    return rows


def _em_blocks(enc: list, n_tgt: int) -> list:
    """Cut the encoded corpus into blocks of consecutive pairs holding at most
    BLOCK_CELLS (i, j) cells (at least one pair each). A block is the flat
    lexical index of its cells in corpus order (pair, then i, then j) and,
    per length bucket, (bucket, corpus rows, offset of each row's cells)."""
    sizes = [len(xs) * len(ys) for xs, ys in enc]
    blocks = []
    start = 0
    while start < len(enc):
        stop, cells = start + 1, sizes[start]
        while stop < len(enc) and cells + sizes[stop] <= BLOCK_CELLS:
            cells += sizes[stop]
            stop += 1
        offsets = np.cumsum([0] + sizes[start:stop - 1])
        flat = np.concatenate([(np.array(xs)[:, None] * n_tgt + ys).ravel()
                               for xs, ys in enc[start:stop]])
        lengths = [(len(ys), len(xs) - 1) for xs, ys in enc[start:stop]]
        groups = [(key, np.array(local) + start, offsets[local])
                  for key, local in _buckets(lengths).items()]
        blocks.append((flat, groups))
        start = stop
    return blocks


def em_train(corpus: Sequence[Pair], iters_m1: int = 5, iters_m2: int = 5) -> AlignmentModel:
    """Model 1 EM (uniform positions) then Model 2 EM; the recorded corpus
    log-likelihood is non-decreasing within each phase.

    Each sweep works bucket by bucket on whole arrays, block by block, yet
    adds every float in the order of a loop over pairs: lexical counts go
    through one `np.add.at` per block in corpus order, positional counts
    through `np.add.accumulate` seeded with the running table, and per-pair
    log-likelihoods are summed in corpus order."""
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
    enc = [([NULL] + [src_index[t] for t in src], [tgt_index[t] for t in tgt])
           for src, tgt in pairs]
    blocks = _em_blocks(enc, n_tgt)
    ll_pairs = np.empty(len(enc))

    lex = np.full((n_src, n_tgt), 1.0 / n_tgt)
    buckets = sorted({(len(ys), len(xs) - 1) for xs, ys in enc})
    pos = {(t, tp): np.full((t, tp + 1), 1.0 / (tp + 1)) for t, tp in buckets}
    model = AlignmentModel(src_index, tgt_index, lex, pos)

    def sweep(model2: bool) -> float:
        """One EM iteration; Model 2 also uses and re-estimates positions."""
        nonlocal lex
        lex_counts = np.zeros_like(lex)
        flat_counts = lex_counts.reshape(-1)
        # positional counts transposed to [T'+1, T], the posteriors' layout
        pos_counts = {k: np.zeros(v.T.shape) for k, v in pos.items()} if model2 else None
        for flat, groups in blocks:
            gammas = np.empty(len(flat))
            for (t, tp), rows, offsets in groups:
                at = offsets[:, None] + np.arange((tp + 1) * t)
                scores = lex.take(flat[at]).reshape(len(rows), tp + 1, t)
                if model2:
                    scores *= pos[(t, tp)].T             # a(i|j) broadcast over i rows
                else:
                    scores /= tp + 1
                totals = scores.sum(axis=1)              # per target position
                ll_pairs[rows] = np.log(totals).sum(axis=1)
                scores /= totals[:, None, :]             # posterior over i
                gammas[at] = scores.reshape(len(rows), -1)     # corpus order
                if model2:
                    seeded = np.concatenate([pos_counts[(t, tp)][None], scores])
                    pos_counts[(t, tp)] = np.add.accumulate(seeded, axis=0)[-1]
            np.add.at(flat_counts, flat, gammas)
        ll = 0.0
        for v in ll_pairs.tolist():                      # corpus order
            ll += v
        lex = lex_counts / lex_counts.sum(axis=1, keepdims=True)
        model.lex = lex
        if model2:
            for k, c in pos_counts.items():
                # C order: numpy sums contiguous rows pairwise, the way a
                # per-pair [T, T'+1] table's rows are summed
                c = np.ascontiguousarray(c.T)
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

def _viterbi(xs: np.ndarray, ys: np.ndarray, lexf: np.ndarray,
             pos: np.ndarray | None) -> np.ndarray:
    """Best source index (0 = NULL) per target position for n pairs of one
    (T, T') bucket: `xs` [n, T'+1] rows of the floored lexical table `lexf`
    (NULL first), `ys` [n, T] its columns, `pos` the bucket's positional
    table or None. Returns [n, T]."""
    t, tp = ys.shape[1], xs.shape[1] - 1
    posf = np.full((t, tp + 1), 1.0 / (tp + 1)) if pos is None else np.maximum(pos, FLOOR)
    scores = lexf[xs[:, None, :], ys[:, :, None]] * posf      # [n, T, T'+1]
    tied = scores == scores.max(axis=2, keepdims=True)
    # exact ties go to the index closest to the diagonal, then the smaller
    i = np.arange(tp + 1)
    diag = np.floor(np.arange(1, t + 1) * tp / t + 0.5)[:, None]
    key = np.abs(i - diag) * (tp + 2) + i
    return np.where(tied, key, np.inf).argmin(axis=2)


def corpus_alignments(corpus: Sequence[Pair], model: AlignmentModel) -> list[list[int]]:
    """Viterbi alignment of every pair, computed per length bucket in blocks
    of at most BLOCK_CELLS cells: per target position, the best source index
    in 0..T' (0 = NULL) by floored lexical x positional probability (unseen
    tokens score FLOOR, an unseen length pair gets uniform positions), exact
    ties going to the index closest to the diagonal Round(j * T'/T)."""
    n_src, n_tgt = model.lex.shape
    lexf = np.full((n_src + 1, n_tgt + 1), FLOOR)   # last row/column: unseen
    lexf[:n_src, :n_tgt] = np.maximum(model.lex, FLOOR)
    out: list[list[int]] = [[] for _ in corpus]
    for (t, tp), rows in _buckets([(len(tgt), len(src)) for src, tgt in corpus]).items():
        step = max(1, BLOCK_CELLS // max(1, t * (tp + 1)))
        for k in range(0, len(rows), step):
            chunk = rows[k:k + step]
            xs = np.array([[NULL] + [model.src_index.get(tok, n_src) for tok in corpus[r][0]]
                           for r in chunk], dtype=np.intp)
            ys = np.array([[model.tgt_index.get(tok, n_tgt) for tok in corpus[r][1]]
                           for r in chunk], dtype=np.intp).reshape(len(chunk), t)
            best = _viterbi(xs, ys, lexf, model.pos.get((t, tp)))
            for r, align in zip(chunk, best.tolist()):
                out[r] = align
    return out


def viterbi_align(pair: Pair, model: AlignmentModel) -> list[int]:
    """`corpus_alignments` of a single pair."""
    return corpus_alignments([pair], model)[0]


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
    return [extract_fertilities(align, len(p[0]), max_fertility)
            for p, align in zip(corpus, corpus_alignments(corpus, model))]


def dump_alignments(alignments: Sequence[Sequence[int]]) -> list[str]:
    """One line per alignment: space-separated "j-i" links, 1-indexed, with
    "j-0" marking NULL before any reassignment."""
    return [" ".join(f"{j + 1}-{i}" for j, i in enumerate(align))
            for align in alignments]
