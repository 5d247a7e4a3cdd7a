"""Alignment model tests: EM behavior, Viterbi decisions, fertility extraction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natmt import aligner as AL
from natmt.synth import gen_planted_dictionary, gen_synth_multimodal


def hand_model(lex_rows, pos_tables=None, src_tokens=("a", "b"), tgt_tokens=("x", "y")):
    src_index = {t: i + 1 for i, t in enumerate(src_tokens)}
    tgt_index = {t: i for i, t in enumerate(tgt_tokens)}
    return AL.AlignmentModel(src_index, tgt_index, np.array(lex_rows, dtype=float),
                             pos_tables or {})


# ---------------------------------------------------------------------------
# scalar reference: one pair and one (target, source) cell at a time
# ---------------------------------------------------------------------------

def ref_em_train(corpus, iters_m1=5, iters_m2=5):
    """EM with a loop over pairs, the order every float is added in."""
    pairs = [(s, t) for s, t in corpus if s and t]
    src_index, tgt_index = {}, {}
    for src, tgt in pairs:
        for tok in src:
            src_index.setdefault(tok, len(src_index) + 1)
        for tok in tgt:
            tgt_index.setdefault(tok, len(tgt_index))
    enc = [(np.array([AL.NULL] + [src_index[t] for t in src]),
            np.array([tgt_index[t] for t in tgt])) for src, tgt in pairs]
    lex = np.full((len(src_index) + 1, len(tgt_index)), 1.0 / len(tgt_index))
    buckets = sorted({(len(ys), len(xs) - 1) for xs, ys in enc})
    pos = {(t, tp): np.full((t, tp + 1), 1.0 / (tp + 1)) for t, tp in buckets}
    history = {"m1": [], "m2": []}

    def sweep(model2):
        nonlocal lex
        ll = 0.0
        lex_counts = np.zeros_like(lex)
        pos_counts = {k: np.zeros_like(v) for k, v in pos.items()}
        for xs, ys in enc:
            t, tp = len(ys), len(xs) - 1
            sub = lex[np.ix_(xs, ys)]
            scores = pos[(t, tp)].T * sub if model2 else sub / (tp + 1)
            totals = scores.sum(axis=0)
            ll += float(np.log(totals).sum())
            gamma = scores / totals
            np.add.at(lex_counts, (xs[:, None], ys[None, :]), gamma)
            pos_counts[(t, tp)] += gamma.T
        lex = lex_counts / lex_counts.sum(axis=1, keepdims=True)
        if model2:
            for k, c in pos_counts.items():
                pos[k] = c / c.sum(axis=1, keepdims=True)
        return ll

    for _ in range(iters_m1):
        history["m1"].append(sweep(False))
    for _ in range(iters_m2):
        history["m2"].append(sweep(True))
    return AL.AlignmentModel(src_index, tgt_index, lex, pos, history)


def ref_viterbi_align(pair, model):
    """Per target position, the best of NULL and each source token, scored
    cell by cell with floored probabilities; exact ties go to the index
    closest to the diagonal, then the smaller."""
    def lex_prob(i, j):
        if i is None or j is None:
            return AL.FLOOR
        return max(float(model.lex[i, j]), AL.FLOOR)

    src, tgt = pair
    tp, t = len(src), len(tgt)
    tab = model.pos.get((t, tp))
    out = []
    for j, y in enumerate(tgt):
        col = model.tgt_index.get(y)
        scores = np.empty(tp + 1)
        for i in range(tp + 1):
            row = AL.NULL if i == 0 else model.src_index.get(src[i - 1])
            p = 1.0 / (tp + 1) if tab is None else max(float(tab[j, i]), AL.FLOOR)
            scores[i] = lex_prob(row, col) * p
        tied = np.flatnonzero(scores == scores.max())
        diag = int(math.floor((j + 1) * tp / t + 0.5))
        out.append(int(min(tied, key=lambda i: (abs(int(i) - diag), int(i)))))
    return out


def _mixed_corpus(seed, size=150):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(size):
        n_src, n_tgt = (int(n) for n in rng.integers(1, 14, size=2))
        pairs.append(([f"s{int(i)}" for i in rng.integers(0, 9, n_src)],
                      [f"t{int(i)}" for i in rng.integers(0, 9, n_tgt)]))
    return pairs


def _int_str_corpus(seed, size=120):
    """Tokens 0..5 as ints and as strings on both sides: 3 and "3" are two
    different words."""
    rng = np.random.default_rng(seed)

    def side(n):
        return [int(i) if i < 6 else str(int(i) - 6) for i in rng.integers(0, 12, n)]

    return [(side(n_src), side(n_tgt))
            for n_src, n_tgt in rng.integers(1, 11, size=(size, 2)).tolist()]


EQUIVALENCE_CORPORA = {
    "planted_8_20": lambda: gen_planted_dictionary(90, seed=5, vocab=15,
                                                   min_len=8, max_len=20)[0],
    "multimodal_1": lambda: gen_synth_multimodal(80, seed=6, phrases_per_sent=1)[0],
    "multimodal_2": lambda: gen_synth_multimodal(80, seed=7, phrases_per_sent=2)[0],
    "multimodal_4": lambda: gen_synth_multimodal(80, seed=8, phrases_per_sent=4)[0],
    "mixed_lengths": lambda: _mixed_corpus(9),
    "mixed_int_str_tokens": lambda: _int_str_corpus(12),
}


def assert_same_model(got, want):
    assert got.src_index == want.src_index and got.tgt_index == want.tgt_index
    assert np.array_equal(got.lex, want.lex)
    assert got.pos.keys() == want.pos.keys()
    for k in want.pos:
        assert np.array_equal(got.pos[k], want.pos[k]), k
    assert got.ll_history == want.ll_history


@pytest.mark.parametrize("block_cells", [AL.BLOCK_CELLS, 60, 1])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CORPORA))
def test_bucketed_em_and_viterbi_equal_scalar_reference(monkeypatch, name,
                                                        block_cells):
    """Every table, log-likelihood, alignment and fertility equals the scalar
    loop's bit for bit, also when blocks split buckets (60 cells hold one
    pair of up to 7 x 6 cells, or several short ones) and when every block
    and group is a single pair (1 cell), whose positional reduce has one
    row."""
    monkeypatch.setattr(AL, "BLOCK_CELLS", block_cells)
    corpus = EQUIVALENCE_CORPORA[name]()
    want = ref_em_train(corpus)
    assert_same_model(AL.em_train(corpus), want)
    aligns = [ref_viterbi_align(p, want) for p in corpus]
    assert AL.corpus_alignments(corpus, want) == aligns
    assert [AL.viterbi_align(p, want) for p in corpus[:10]] == aligns[:10]
    assert AL.corpus_fertilities(corpus, want) == [
        AL.extract_fertilities(a, len(s)) for (s, _), a in zip(corpus, aligns)]


@pytest.mark.parametrize("iters", [(0, 3), (3, 0)], ids=["m2_only", "m1_only"])
@pytest.mark.parametrize("name", ["mixed_lengths", "planted_8_20", "multimodal_4"])
def test_single_phase_em_equals_scalar_reference(name, iters):
    """Model 2 from uniform tables, and Model 1 alone, equal the scalar loop
    bit for bit."""
    corpus = EQUIVALENCE_CORPORA[name]()
    assert_same_model(AL.em_train(corpus, *iters), ref_em_train(corpus, *iters))


def test_viterbi_equals_reference_on_unseen_tokens_and_lengths(monkeypatch):
    """Unseen source and target tokens score FLOOR; a length pair without a
    table gets unfloored uniform positions; split into blocks of one pair."""
    monkeypatch.setattr(AL, "BLOCK_CELLS", 1)
    model = AL.em_train(_mixed_corpus(10, size=60))
    rng = np.random.default_rng(11)
    corpus = [([f"s{int(i)}" for i in rng.integers(0, 12, n_src)],
               [f"t{int(i)}" for i in rng.integers(0, 12, n_tgt)])
              for n_src, n_tgt in rng.integers(1, 18, size=(80, 2))]
    assert any((len(t), len(s)) not in model.pos for s, t in corpus)
    assert AL.corpus_alignments(corpus, model) == [
        ref_viterbi_align(p, model) for p in corpus]


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------

def test_single_pair_lexical_fixed_point():
    corpus = [(["a"], ["x"])] * 8
    model = AL.em_train(corpus, iters_m1=5, iters_m2=0)
    assert model.lex[model.src_index["a"], model.tgt_index["x"]] > 1 - 1e-3


def test_loglikelihood_monotone_within_phases():
    pairs, _ = gen_planted_dictionary(60, seed=0, vocab=12)
    model = AL.em_train(pairs, iters_m1=5, iters_m2=5)
    for phase in ("m1", "m2"):
        ll = model.ll_history[phase]
        assert len(ll) == 5
        for prev, nxt in zip(ll, ll[1:]):
            assert nxt >= prev - 1e-9


def test_tables_are_row_stochastic():
    pairs, _ = gen_planted_dictionary(40, seed=1, vocab=10)
    model = AL.em_train(pairs)
    np.testing.assert_allclose(model.lex.sum(axis=1), 1.0, atol=1e-6)
    for tab in model.pos.values():
        np.testing.assert_allclose(tab.sum(axis=1), 1.0, atol=1e-6)


def test_em_deterministic():
    pairs, _ = gen_planted_dictionary(30, seed=2, vocab=8)
    m1 = AL.em_train(pairs)
    m2 = AL.em_train(pairs)
    np.testing.assert_array_equal(m1.lex, m2.lex)
    for k in m1.pos:
        np.testing.assert_array_equal(m1.pos[k], m2.pos[k])


def test_empty_pairs_skipped_without_warning():
    # `natmt align` counts the skipped pairs in its summary line
    corpus = [(["a"], ["x"])] * 4 + [([], ["x"]), (["a"], [])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = AL.em_train(corpus, iters_m1=2, iters_m2=0)
        assert model.lex.shape[1] == 1
        assert model.ll_history == AL.em_train(corpus[:4], 2, 0).ll_history
        with pytest.raises(ValueError, match="no non-empty sentence pairs"):
            AL.em_train([([], [])])


def test_planted_dictionary_recovery():
    pairs, links = gen_planted_dictionary(120, seed=3, vocab=20)
    model = AL.em_train(pairs)
    hit = total = 0
    for pair, truth in zip(pairs, links):
        got = AL.viterbi_align(pair, model)
        hit += sum(g == t for g, t in zip(got, truth))
        total += len(truth)
    assert hit / total >= 0.95


def test_identity_corpus_alignment():
    corpus = [(["a", "b"], ["a", "b"]), (["b", "a"], ["b", "a"]),
              (["a"], ["a"]), (["b"], ["b"])] * 5
    model = AL.em_train(corpus)
    assert AL.viterbi_align((["a", "b"], ["a", "b"]), model) == [1, 2]


# ---------------------------------------------------------------------------
# Viterbi decisions on hand-built tables
# ---------------------------------------------------------------------------

def test_ties_break_toward_diagonal():
    # all probabilities equal: position j must map to Round(j * T'/T)
    model = hand_model([[0.5, 0.5]] * 5, src_tokens=("a", "b", "c", "d"),
                       tgt_tokens=("x", "y"))
    got = AL.viterbi_align((["a", "b", "c", "d"], ["x", "y"]), model)
    assert got == [2, 4]
    got = AL.viterbi_align((["a", "b"], ["x", "y", "x", "y"]), model)
    assert got == [1, 1, 2, 2]  # diag of j=1..4 is round(j/2) = 1,1,2,2


TIE_CASES = [
    # every probability equal
    (hand_model([[0.5, 0.5]] * 5, src_tokens=("a", "b", "c", "d")),
     [(["a", "b", "c", "d"], ["x", "y"]), (["a", "b"], ["x", "y", "x", "y"]),
      (["a"], ["x", "y", "x"]), (["a", "b", "c", "d"], ["y"]),
      (["d", "c", "b"], ["x", "y", "y", "x", "y"])]),
    # ties at FLOOR (zero and sub-floor entries), tied positional tables
    (hand_model([[0.0, 1e-12], [1e-12, 0.3], [0.3, 0.0]],
                {(2, 2): np.array([[0.25, 0.25, 0.5], [0.5, 0.25, 0.25]]),
                 (3, 1): np.array([[0.5, 0.5], [0.5, 0.5], [1e-12, 1.0]]),
                 (1, 1): np.array([[1e-12, 0.0]])}),
     [(["a", "b"], ["x", "y"]), (["b", "a"], ["y", "x"]), (["a"], ["x", "y", "y"]),
      (["a"], ["x"]), (["b"], ["x", "x", "x"]), (["a", "b"], ["y", "mystery"]),
      (["zz", "b"], ["x", "y"])]),
]


@pytest.mark.parametrize("case", range(len(TIE_CASES)))
def test_viterbi_equals_reference_on_hand_built_ties(case):
    model, corpus = TIE_CASES[case]
    assert AL.corpus_alignments(corpus, model) == [
        ref_viterbi_align(p, model) for p in corpus]


def test_all_null_only_when_null_dominates():
    model = hand_model([[0.9, 0.9], [0.01, 0.01], [0.02, 0.02]])
    assert AL.viterbi_align((["a", "b"], ["x", "y"]), model) == [0, 0]
    model2 = hand_model([[0.01, 0.01], [0.9, 0.02], [0.02, 0.9]])
    assert 0 not in AL.viterbi_align((["a", "b"], ["x", "y"]), model2)


def test_unseen_tokens_fall_back_to_floor():
    model = hand_model([[0.2, 0.2], [0.7, 0.1], [0.1, 0.7]])
    got = AL.viterbi_align((["a", "b"], ["mystery", "y"]), model)
    assert len(got) == 2 and got[1] == 2  # seen token still aligns lexically


# ---------------------------------------------------------------------------
# fertilities
# ---------------------------------------------------------------------------

def test_fertility_counting_example():
    # "Thank you ." -> "Danke schön ." with links [1, 1, 3]
    assert AL.extract_fertilities([1, 1, 3], 3) == [2, 0, 1]


def test_fertility_identity_alignment():
    assert AL.extract_fertilities([1, 2, 3, 4], 4) == [1, 1, 1, 1]


def test_fertility_null_reassignment():
    assert AL.extract_fertilities([0, 2], 2) == [0, 2]
    # left neighbor wins over right at equal distance
    assert AL.extract_fertilities([1, 0, 3], 3) == [2, 0, 1]
    # fully NULL-aligned sentences fall back to source position 1
    assert AL.extract_fertilities([0, 0, 0], 2) == [3, 0]


def test_fertility_clamping_pushes_excess_to_neighbor():
    got = AL.extract_fertilities([1, 1, 1, 1, 1], 3, max_fertility=3)
    assert got == [2, 2, 1]
    assert sum(got) == 5
    with pytest.raises(ValueError):
        AL.extract_fertilities([1] * 7, 3, max_fertility=3)


def test_fertility_rejects_out_of_range():
    with pytest.raises(ValueError):
        AL.extract_fertilities([4], 3)
    with pytest.raises(ValueError):
        AL.extract_fertilities([-1], 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_fertility_sums_to_target_length(src_len, data):
    align = data.draw(st.lists(st.integers(0, src_len), min_size=1, max_size=12))
    fert = AL.extract_fertilities(align, src_len, max_fertility=50)
    assert sum(fert) == len(align)
    assert all(0 <= f < 50 for f in fert)
    assert len(fert) == src_len


def _alignment_row(src_len):
    entry = st.integers(0, src_len)
    return st.tuples(st.just(src_len), st.one_of(
        st.lists(entry, max_size=12),
        st.lists(st.one_of(st.just(AL.NULL), entry), max_size=12),     # NULL-heavy
        st.lists(st.just(AL.NULL), min_size=1, max_size=12)))          # all NULL


ALIGNMENT_ROWS = st.lists(st.integers(1, 6).flatmap(_alignment_row), min_size=1,
                          max_size=20)


@settings(max_examples=200, deadline=None)
@given(ALIGNMENT_ROWS, st.integers(2, 8))
def test_alignment_fertilities_equal_per_pair_extraction(rows, max_fertility):
    """Whole buckets at a time, the result equals the per-pair loop's, also
    for rows over the cap; when a row cannot fit under the cap, both raise
    the same error."""
    aligns, src_lens = [a for _, a in rows], [n for n, _ in rows]
    try:
        want = [AL.extract_fertilities(a, n, max_fertility)
                for a, n in zip(aligns, src_lens)]
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            AL.alignment_fertilities(aligns, src_lens, max_fertility)
        assert str(got.value) == str(e)
    else:
        assert AL.alignment_fertilities(aligns, src_lens, max_fertility) == want


@settings(max_examples=100, deadline=None)
@given(ALIGNMENT_ROWS, st.data())
def test_alignment_fertilities_name_the_first_out_of_range_row(rows, data):
    """Entries outside [0, T'] raise the per-pair loop's error, for the first
    bad row in corpus order whatever its length bucket."""
    bad = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
    aligns, src_lens = [], []
    for r, (n, align) in enumerate(rows):
        if r in bad:
            at = data.draw(st.integers(0, len(align)))
            align = align[:at] + [data.draw(st.sampled_from([-1 - r, n + 1 + r]))] + align[at:]
        aligns.append(align)
        src_lens.append(n)
    first = min(bad)
    with pytest.raises(ValueError) as want:
        AL.extract_fertilities(aligns[first], src_lens[first])
    with pytest.raises(ValueError) as got:
        AL.alignment_fertilities(aligns, src_lens)
    assert str(got.value) == str(want.value)


def test_corpus_fertility_sums_exact():
    pairs, _ = gen_planted_dictionary(50, seed=4, vocab=10)
    model = AL.em_train(pairs)
    ferts = AL.corpus_fertilities(pairs, model)
    for (src, tgt), f in zip(pairs, ferts):
        assert sum(f) == len(tgt)
        assert len(f) == len(src)


def test_corpus_fertilities_reject_an_empty_source_with_a_target():
    model = AL.em_train([(["a"], ["x"])])
    with pytest.raises(ValueError, match="source is empty but the target is not"):
        AL.corpus_fertilities([([], ["x"])], model)
    assert AL.corpus_fertilities([([], [])], model) == [[]]


def test_dump_format():
    model = hand_model([[0.01, 0.01], [0.9, 0.02], [0.02, 0.9]])
    corpus = [(["a", "b"], ["x", "y"]), (["a"], ["y", "y"])]
    lines = AL.dump_alignments(AL.corpus_alignments(corpus, model))
    assert lines[0] == "1-1 2-2"
    # "y" beats NULL via source "a"? NULL has 0.01 vs a's 0.02: aligns to 1
    assert lines[1] == "1-1 2-1"
    null_model = hand_model([[0.9, 0.9], [0.01, 0.01], [0.02, 0.02]])
    lines = AL.dump_alignments(AL.corpus_alignments([(["a", "b"], ["x"])], null_model))
    assert lines[0] == "1-0"
