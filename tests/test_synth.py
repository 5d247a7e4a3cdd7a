"""Synthetic corpus generator and contamination oracle tests."""

import numpy as np
import pytest

from natmt import synth as S


def test_copy_corpus_properties():
    pairs = S.gen_copy_corpus(50, seed=0, vocab=10, min_len=3, max_len=8)
    assert len(pairs) == 50
    for src, tgt in pairs:
        assert src == tgt
        assert 3 <= len(src) <= 8
    assert pairs == S.gen_copy_corpus(50, seed=0, vocab=10, min_len=3, max_len=8)


def test_planted_dictionary_links_are_ground_truth():
    pairs, links = S.gen_planted_dictionary(30, seed=1)
    for (src, tgt), link in zip(pairs, links):
        assert len(tgt) == len(src) == len(link)
        for j, i in enumerate(link):
            assert tgt[j] == "t" + src[i - 1][1:]  # dictionary holds at the link


def test_multimodal_training_targets_are_pure():
    pairs, oracle = S.gen_synth_multimodal(200, seed=2)
    assert len(pairs) == 200
    for src, tgt in pairs:
        assert not oracle.is_contaminated(src, tgt)
    srcs = [s for s, _ in pairs]
    tgts = [t for _, t in pairs]
    assert oracle.contamination_rate(srcs, tgts) == 0.0


def test_multimodal_inventories_disjoint():
    _, oracle = S.gen_synth_multimodal(10, seed=3, n_modes=3, n_phrases=5)
    seen = set()
    for phrase in oracle.modes:
        for mode in phrase:
            for tok in mode:
                assert tok not in seen
                seen.add(tok)


def test_oracle_flags_cross_mode_mixture():
    # the canonical failure: both orderings of "Thank you ." are licensed,
    # their token-level mixture is not
    oracle = S.MultimodalOracle(
        modes=[[["Danke", "schön", "."], ["Vielen", "Dank", "."]]],
        src_tokens=["thank-you"])
    assert not oracle.is_contaminated(["thank-you"], ["Danke", "schön", "."])
    assert not oracle.is_contaminated(["thank-you"], ["Vielen", "Dank", "."])
    assert oracle.is_contaminated(["thank-you"], ["Vielen", "schön", "."])
    # the shared token "." alone belongs to both modes and is clean
    assert not oracle.is_contaminated(["thank-you"], ["."])


def test_oracle_ignores_other_phrases_and_unknown_tokens():
    _, oracle = S.gen_synth_multimodal(5, seed=4, n_phrases=4)
    out = list(oracle.modes[0][0]) + ["mystery"]
    assert not oracle.is_contaminated([oracle.src_tokens[0]], out)
    # tokens from a phrase absent from the source cannot contaminate it
    out2 = list(oracle.modes[1][0])
    assert not oracle.is_contaminated([oracle.src_tokens[0]], out2)


def test_oracle_mixture_within_generated_phrase():
    _, oracle = S.gen_synth_multimodal(5, seed=5)
    p = 2
    mix = [oracle.modes[p][0][0], oracle.modes[p][1][1], oracle.modes[p][0][2]]
    assert oracle.is_contaminated([oracle.src_tokens[p]], mix)


def test_multimodal_rejects_single_mode():
    with pytest.raises(ValueError):
        S.gen_synth_multimodal(5, seed=0, n_modes=1)


def test_contamination_rate_counts_fraction():
    _, oracle = S.gen_synth_multimodal(5, seed=6)
    s0 = [oracle.src_tokens[0]]
    pure = list(oracle.modes[0][0])
    mixed = [oracle.modes[0][0][0], oracle.modes[0][1][1]]
    rate = oracle.contamination_rate([s0, s0], [pure, mixed])
    assert rate == 0.5
    with pytest.raises(ValueError):
        oracle.contamination_rate([], [])


@pytest.mark.parametrize("call, message", [
    (lambda o: o.contamination_rate([[o.src_tokens[0]]], []),
     "sources and outputs differ in length"),
    (lambda o: S.gen_synth_multimodal(5, seed=0, n_phrases=2, phrases_per_sent=3),
     "more phrases per sentence than phrases exist")],
    ids=["unequal_lengths", "phrases_per_sent_above_phrases"])
def test_multimodal_refusals(call, message):
    _, oracle = S.gen_synth_multimodal(5, seed=6)
    with pytest.raises(ValueError) as exc:
        call(oracle)
    assert str(exc.value) == message


def test_source_token_of_no_phrase_is_skipped():
    _, oracle = S.gen_synth_multimodal(5, seed=6)
    mixed = [oracle.modes[0][0][0], oracle.modes[0][1][1]]
    assert not oracle.is_contaminated(["stray"], mixed)
    assert oracle.is_contaminated(["stray", oracle.src_tokens[0]], mixed)
