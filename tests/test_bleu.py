"""BLEU scorer tests with hand-computed oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natmt import bleu as B


def toks(s):
    return s.split()


def test_identity_is_100():
    refs = [toks("the cat sat down"), toks("a b c d e")]
    assert B.bleu(refs, refs) == pytest.approx(100.0)


def test_zero_overlap_is_0():
    assert B.bleu([toks("x y z w")], [toks("a b c d")]) == 0.0


def test_clipping_hand_oracle():
    # hyp "the the the cat" vs ref "the cat sat down":
    # 1-grams: "the"x3 clips to 1, "cat" matches -> 2/4
    # 2-grams: only "the cat" matches -> 1/3
    # 3-grams and 4-grams: no matches -> 0, so BLEU is 0
    hyp, ref = [toks("the the the cat")], [toks("the cat sat down")]
    matches, totals, c, r = B.precision_counts(hyp, ref)
    assert (matches, totals) == ([2, 1, 0, 0], [4, 3, 2, 1])
    assert (c, r) == (4, 4)
    assert B.bleu(hyp, ref) == 0.0


def test_corpus_aggregation_hand_oracle():
    hyps = [toks("a b c d e"), toks("a b c d f")]
    refs = [toks("a b c d e"), toks("a b c d e")]
    matches, totals, c, r = B.precision_counts(hyps, refs)
    assert matches == [9, 7, 5, 3]
    assert totals == [10, 8, 6, 4]
    want = 100.0 * math.exp(
        sum(math.log(p) for p in (9 / 10, 7 / 8, 5 / 6, 3 / 4)) / 4)
    assert B.bleu(hyps, refs) == pytest.approx(want)


def test_brevity_penalty():
    assert B.brevity_penalty(5, 5) == 1.0
    assert B.brevity_penalty(7, 5) == 1.0
    assert B.brevity_penalty(2, 3) == pytest.approx(math.exp(1 - 3 / 2))
    assert B.brevity_penalty(0, 3) == 0.0
    # short exact prefix: precisions all 1, only BP below 100
    score = B.bleu([toks("a b c d")], [toks("a b c d e f")])
    assert score == pytest.approx(100.0 * math.exp(1 - 6 / 4))


def test_errors():
    with pytest.raises(ValueError):
        B.bleu([toks("a")], [])
    with pytest.raises(ValueError):
        B.bleu([toks("a"), toks("b")], [toks("a")])
    with pytest.raises(ValueError):
        B.bleu([toks("a")], [[]])


def test_empty_hypothesis_scores_zero():
    assert B.bleu([[]], [toks("a b")]) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("a b c d".split()), min_size=1, max_size=8),
       st.lists(st.sampled_from("a b c d".split()), min_size=1, max_size=8))
def test_score_bounds_and_identity_max(hyp, ref):
    s = B.bleu([hyp], [ref])
    assert 0.0 <= s <= 100.0
    assert B.bleu([ref], [ref]) == pytest.approx(100.0)


def test_empty_corpus_is_refused():
    with pytest.raises(ValueError) as exc:
        B.precision_counts([], [])
    assert str(exc.value) == "empty reference list"
