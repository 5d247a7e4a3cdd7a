"""Word alignment for fertility supervision.

IBM Model 1 EM initializes a lexical table; IBM Model 2 EM then fits exact
positional tables a(i | j, T, T') bucketed by length pair, with source index
0 reserved for the NULL word. Viterbi alignment picks, independently per
target position, the source index maximizing lexical x positional probability,
breaking exact ties toward the diagonal. Each corpus is encoded once into flat
token-id arrays with per-sentence lengths and starts; EM, Viterbi and
fertility counting then run on whole arrays per length bucket, in blocks of at
most BLOCK_CELLS cells, so their working arrays do not grow with the corpus.
EM stores, once for all sweeps, each block's lexical index per cell and, per
bucket, the cells' positions in the block and their lexical indices: three
8-byte integers, 24 bytes, per cell of the corpus. It sums positional counts
in place and in corpus order: the running table is added into a bucket's
first posterior (IEEE addition commutes), then a reduce over the outer pair
axis adds one pair at a time, because each pair holds T'+1 >= 2 floats.
Fertilities are per-source-token alignment counts after NULL-aligned targets
are reattached to their nearest aligned neighbor's source, so they always sum
to the target length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count, repeat
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


@dataclass
class _Flat:
    """Sequences as one integer array: sequence r is
    ids[starts[r]:starts[r] + lens[r]]."""
    ids: np.ndarray
    lens: np.ndarray
    starts: np.ndarray

    def rows(self, rows: np.ndarray, width: int) -> np.ndarray:
        """[len(rows), width]: the given sequences, all of length `width`."""
        return self.ids[self.starts[rows][:, None] + np.arange(width)]


def _encode(seqs: Sequence[Sequence], index: dict | None = None,
            unseen: int = 0, null: bool = False) -> _Flat:
    """Flatten `seqs`, looking every token up in `index` (`unseen` when it is
    missing) or taking it as an integer without one; with `null`, every
    sequence starts with NULL."""
    lens = np.fromiter(map(len, seqs), np.intp, len(seqs))
    starts = np.zeros_like(lens)
    np.cumsum(lens[:-1], out=starts[1:])
    toks = chain.from_iterable(seqs)
    if index is not None:
        toks = map(index.get, toks, repeat(unseen))
    ids = np.fromiter(toks, np.intp, int(lens.sum()))
    if null:
        ids = np.insert(ids, starts, NULL)
        starts += np.arange(len(seqs))
        lens += 1
    return _Flat(ids, lens, starts)


def _buckets(t: np.ndarray, tp: np.ndarray) -> list:
    """((T, T'), indices r with (t[r], tp[r]) == (T, T') in increasing order)
    for every length pair present."""
    keys = t * (int(tp.max(initial=0)) + 1) + tp
    order = np.argsort(keys, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    return [((int(t[g[0]]), int(tp[g[0]])), g) for g in groups if len(g)]


def _em_blocks(src: _Flat, tgt: _Flat, n_tgt: int) -> list:
    """Cut the encoded corpus (`src` with NULL first) into blocks of
    consecutive pairs holding at most BLOCK_CELLS (i, j) cells (at least one
    pair each). A block is the flat lexical index of its cells in corpus
    order (pair, then i, then j) and, per length bucket, (bucket, corpus
    rows, the cells' positions in that order [pairs, (T'+1)*T], their
    lexical indices [pairs, T'+1, T]), built once for every sweep."""
    sizes = src.lens * tgt.lens
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    blocks = []
    start = 0
    while start < len(ends):
        stop = max(start + 1,
                   int(np.searchsorted(ends, firsts[start] + BLOCK_CELLS, "right")))
        flat = np.empty(ends[stop - 1] - firsts[start], np.intp)
        groups = []
        for (t, tp), local in _buckets(tgt.lens[start:stop], src.lens[start:stop] - 1):
            rows = local + start
            at = (firsts[rows] - firsts[start])[:, None] + np.arange((tp + 1) * t)
            cells = src.rows(rows, tp + 1)[:, :, None] * n_tgt + tgt.rows(rows, t)[:, None, :]
            flat[at] = cells.reshape(len(rows), -1)
            groups.append(((t, tp), rows, at, cells))
        blocks.append((flat, groups))
        start = stop
    return blocks


def em_train(corpus: Sequence[Pair], iters_m1: int = 5, iters_m2: int = 5) -> AlignmentModel:
    """Model 1 EM (uniform positions) then Model 2 EM; the recorded corpus
    log-likelihood is non-decreasing within each phase.

    Each sweep works bucket by bucket on whole arrays, block by block, from
    each group's stored cell positions `at` [pairs, (T'+1)*T] and lexical
    indices `cells` [pairs, T'+1, T] (with the block's flat index, 24 bytes
    per corpus cell), yet adds every float in the order of a loop over
    pairs: lexical counts go through one `np.add.at` per block in corpus
    order; positional counts through the running table added into the
    group's first posterior in place, then `np.add.reduce` over the outer
    pair axis (pair by pair, as T'+1 >= 2); per-pair log-likelihoods are
    accumulated in corpus order. A pair with an empty side has no cell and
    is left out."""
    pairs = [(s, t) for s, t in corpus if len(s) and len(t)]
    if not pairs:
        raise ValueError("corpus has no non-empty sentence pairs")
    srcs, tgts = [s for s, _ in pairs], [t for _, t in pairs]
    # first-occurrence order; source rows start at 1, after NULL
    src_index = dict(zip(dict.fromkeys(chain.from_iterable(srcs)), count(1)))
    tgt_index = dict(zip(dict.fromkeys(chain.from_iterable(tgts)), count()))
    n_src, n_tgt = len(src_index) + 1, len(tgt_index)

    src, tgt = _encode(srcs, src_index, null=True), _encode(tgts, tgt_index)
    blocks = _em_blocks(src, tgt, n_tgt)
    ll_pairs = np.empty(len(pairs))

    lex = np.full((n_src, n_tgt), 1.0 / n_tgt)
    buckets = sorted(set(zip(tgt.lens.tolist(), (src.lens - 1).tolist())))
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
            for (t, tp), rows, at, cells in groups:
                scores = lex.take(cells)                 # [pairs, T'+1, T]
                if model2:
                    scores *= pos[(t, tp)].T             # a(i|j) broadcast over i rows
                else:
                    scores /= tp + 1
                totals = scores.sum(axis=1)              # per target position
                ll_pairs[rows] = np.log(totals).sum(axis=1)
                scores /= totals[:, None, :]             # posterior over i
                gammas[at] = scores.reshape(len(rows), -1)     # corpus order
                if model2:
                    # table + pair 0 is pair 0 + table bit for bit, and a
                    # reduce over the outer pair axis adds one pair at a
                    # time in corpus order, since each pair's slice holds
                    # T'+1 >= 2 floats (only a one-float slice would make
                    # the pair axis contiguous and the sum pairwise)
                    scores[0] += pos_counts[(t, tp)]
                    pos_counts[(t, tp)] = np.add.reduce(scores, axis=0)
            np.add.at(flat_counts, flat, gammas)
        # accumulate adds one pair at a time, in corpus order
        ll = float(np.add.accumulate(ll_pairs)[-1])
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
    src = _encode([s for s, _ in corpus], model.src_index, n_src, null=True)
    tgt = _encode([t for _, t in corpus], model.tgt_index, n_tgt)
    out: list[list[int]] = [[] for _ in corpus]
    for (t, tp), rows in _buckets(tgt.lens, src.lens - 1):
        step = max(1, BLOCK_CELLS // max(1, t * (tp + 1)))
        for k in range(0, len(rows), step):
            chunk = rows[k:k + step]
            best = _viterbi(src.rows(chunk, tp + 1), tgt.rows(chunk, t), lexf,
                            model.pos.get((t, tp)))
            for r, align in zip(chunk.tolist(), best.tolist()):
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
    if t and not src_len:
        raise ValueError("the source is empty but the target is not: no source "
                         "position to attach the target tokens to")
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


def _bucket_fertilities(align: np.ndarray, tp: int, cap: int) -> tuple:
    """`extract_fertilities` of n alignments [n, T] to T' = `tp` source
    tokens, as [n, T'], with a mask of the rows it holds: entries in range
    and no count over `cap`. The other rows need `extract_fertilities`."""
    n, t = align.shape
    if not tp:
        return np.zeros((n, 0), np.intp), np.zeros(n, bool)
    ok = ((align >= 0) & (align <= tp)).all(axis=1)
    align = np.where(ok[:, None], align, 1)
    j = np.arange(t)
    aligned = align != NULL
    left = np.maximum.accumulate(np.where(aligned, j, -1), axis=1)
    right = np.minimum.accumulate(np.where(aligned, j, t)[:, ::-1], axis=1)[:, ::-1]
    # nearest aligned neighbor, left first; an aligned position is its own
    use_left = (left >= 0) & ((right == t) | (j - left <= right - j))
    near = np.where(use_left, left, np.minimum(right, t - 1))
    resolved = np.take_along_axis(align, near, axis=1)
    resolved[resolved == NULL] = 1                # whole row NULL-aligned
    fert = np.bincount((np.arange(n)[:, None] * tp + resolved - 1).ravel(),
                       minlength=n * tp).reshape(n, tp)
    return fert, ok & (fert.max(axis=1) <= cap)


def alignment_fertilities(alignments: Sequence[Sequence[int]], src_lens: Sequence[int],
                          max_fertility: int = 50) -> list[list[int]]:
    """`extract_fertilities` of every alignment, counted per (T, T') bucket on
    whole arrays. Rows with an entry out of range or a count over the cap go
    through `extract_fertilities` itself, in corpus order, so it raises on
    the same row with the same message as a loop over pairs would."""
    flat = _encode(alignments)
    out: list = [None] * len(alignments)
    rest = []
    for (t, tp), rows in _buckets(flat.lens, np.asarray(src_lens, np.intp)):
        fert, ok = _bucket_fertilities(flat.rows(rows, t), tp, max_fertility - 1)
        for r, f in zip(rows[ok].tolist(), fert[ok].tolist()):
            out[r] = f
        rest.extend(rows[~ok].tolist())
    for r in sorted(rest):
        out[r] = extract_fertilities(alignments[r], src_lens[r], max_fertility)
    return out


# ---------------------------------------------------------------------------
# corpus-level helpers
# ---------------------------------------------------------------------------

def corpus_fertilities(corpus: Sequence[Pair], model: AlignmentModel,
                       max_fertility: int = 50) -> list[list[int]]:
    return alignment_fertilities(corpus_alignments(corpus, model),
                                 [len(src) for src, _ in corpus], max_fertility)


def dump_alignments(alignments: Sequence[Sequence[int]]) -> list[str]:
    """One line per alignment: space-separated "j-i" links, 1-indexed, with
    "j-0" marking NULL before any reassignment."""
    return [" ".join(f"{j + 1}-{i}" for j, i in enumerate(align))
            for align in alignments]
