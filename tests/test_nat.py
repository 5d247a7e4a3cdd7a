"""Parallel decoder tests: copy operations, fertility prediction, decode
strategies, and pass counting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natmt import nat as N
from natmt import teacher as AR
from natmt import tensor as T
from natmt.config import ModelConfig
from natmt.data import PAD, pad_block
from natmt.layers import Encoder, MultiHeadAttention


def cfg(**kw):
    base = dict(d_model=16, d_hidden=32, n_layer=2, n_head=2,
                src_vocab=12, tgt_vocab=14, max_len=32, max_fertility=4)
    base.update(kw)
    return ModelConfig(**base)


def new_model(seed=0, **kw):
    return N.NatModel(cfg(**kw), np.random.default_rng(seed))


def force_fertility_dist(model, probs):
    """Zero head weights + log-prob bias makes every position emit "probs"."""
    model.fert_head.weight.data[...] = 0.0
    model.fert_head.bias.data[...] = np.log(np.asarray(probs, dtype=np.float64))


# ---------------------------------------------------------------------------
# rounding and copies
# ---------------------------------------------------------------------------

def test_round_half_away():
    np.testing.assert_array_equal(N.round_half_away([0.4, 0.5, 1.2, 1.5, 2.5]),
                                  [0, 1, 1, 2, 3])


def test_copy_fertility_examples():
    assert N.copy_fertility(["Thank", "you", "."], [2, 0, 1]) == ["Thank", "Thank", "."]
    assert N.copy_fertility(["a", "b", "c"], [1, 1, 1]) == ["a", "b", "c"]
    assert N.copy_fertility(["a", "b"], [0, 3]) == ["b", "b", "b"]
    with pytest.raises(ValueError):
        N.copy_fertility(["a", "b"], [0, 0])
    with pytest.raises(ValueError):
        N.copy_fertility(["a", "b"], [1])
    with pytest.raises(ValueError):
        N.copy_fertility(["a"], [-1])


class _Copies:
    """Stands in for a `NatModel`: its decode returns what it is given."""

    def decode_logits(self, memory, src_len, dec_ids, dec_len):
        return memory, src_len, dec_ids, dec_len


@st.composite
def _fertility_block(draw):
    """A ragged source block, fertility rows over it (zero past each
    source's end, some real positions zero too, no row all zero) and the
    source row each fertility row reads."""
    srcs = draw(st.lists(st.lists(st.integers(4, 11), min_size=1, max_size=6),
                         min_size=1, max_size=4))
    rows = draw(st.lists(st.integers(0, len(srcs) - 1), min_size=1, max_size=5))
    ferts = []
    for r in rows:
        f = draw(st.lists(st.integers(0, 3), min_size=len(srcs[r]),
                          max_size=len(srcs[r])))
        f[draw(st.integers(0, len(f) - 1))] += not any(f)
        ferts.append(f)
    return srcs, rows, ferts


@settings(derandomize=True, deadline=None, max_examples=200)
@given(block=_fertility_block())
@example(block=([[4]], [0], [[2]]))
@example(block=([[4, 5, 6], [7]], [1, 0, 0], [[3], [0, 1, 0], [1, 0, 2]]))
def test_translate_step_copies_equal_copy_fertility_row_by_row(block):
    srcs, rows, ferts = block
    src, src_len = pad_block(srcs)
    memory = T.Tensor(np.arange(len(srcs), dtype=np.float32)[:, None, None])
    fert_rows, _ = pad_block(ferts, width=src.shape[1])
    want_ids, want_len = pad_block([N.copy_fertility(srcs[r], f)
                                    for r, f in zip(rows, ferts)])
    rows = np.array(rows)

    (mem, lens, dec_ids, dec_len), out_len = N.translate_step(
        _Copies(), memory, src, src_len, fert_rows, rows)
    np.testing.assert_array_equal(dec_ids, want_ids)
    np.testing.assert_array_equal(dec_len, want_len)
    np.testing.assert_array_equal(out_len, want_len)
    np.testing.assert_array_equal(mem.data, memory.data[rows])
    np.testing.assert_array_equal(lens, src_len[rows])

    # selecting source rows equals building from the selected block
    selected = T.Tensor(memory.data[rows])
    (mem, lens, dec_ids, dec_len), _ = N.translate_step(
        _Copies(), selected, src[rows], src_len[rows], fert_rows)
    assert mem is selected
    np.testing.assert_array_equal(dec_ids, want_ids)
    np.testing.assert_array_equal(dec_len, want_len)
    np.testing.assert_array_equal(lens, src_len[rows])


def test_translate_step_refuses_a_row_of_zero_total_fertility():
    src, src_len = pad_block([[4, 5], [6]])
    with pytest.raises(ValueError, match="zero total fertility"):
        N.translate_step(_Copies(), T.Tensor(np.zeros((2, 2, 1))), src, src_len,
                         np.array([[1, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# fertility distributions
# ---------------------------------------------------------------------------

def test_fertility_dist_shape_and_rows():
    model = new_model()
    probs = N.predict_fertility([4, 5, 6], model)
    assert probs.shape == (3, 4)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_fertility_pad_positions_forced_to_zero():
    model = new_model()
    src = np.array([[4, 5, 6], [7, 8, PAD]])
    src_len = np.array([3, 2])
    with T.no_grad():
        memory = model.encode(src, src_len)
    probs = N.fertility_dist_batch(src_len, model, memory)
    np.testing.assert_array_equal(probs[1, 2], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_fertility_head_reads_encoder_output_only():
    # same encoder output => same fertility dist, decoder params irrelevant
    m1, m2 = new_model(seed=3), new_model(seed=3)
    for layer in m2.layers:
        for p in layer.parameters():
            p.data[...] += 1.0
    np.testing.assert_array_equal(N.predict_fertility([4, 5], m1),
                                  N.predict_fertility([4, 5], m2))


def test_fertility_argmax_scale_invariant():
    model = new_model(seed=4)
    before = N.decode_argmax([4, 5, 6, 7], model).fertility
    model.fert_head.weight.data[...] *= 3.0
    model.fert_head.bias.data[...] *= 3.0
    assert N.decode_argmax([4, 5, 6, 7], model).fertility == before


# ---------------------------------------------------------------------------
# parallel forward
# ---------------------------------------------------------------------------

def test_forward_shape_and_single_pass():
    model = new_model()
    src = [4, 5, 6]
    model.reset_passes()
    toks = N.translate_given_fertility(src, [2, 1, 2], model)
    assert len(toks) == 5
    assert model.decoder_passes == 1


def test_positional_attention_rows_stochastic():
    model = new_model()
    N.translate_given_fertility([4, 5, 6], [1, 1, 1], model)
    w = model.layers[0].pos_attn.last_weights
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)


def test_decoder_not_causal():
    # earlier slots react to later decoder inputs; a causal stack would not
    model = new_model(seed=5)
    src = np.array([[4, 5, 6]])
    lens = np.array([3])
    with T.no_grad():
        memory = model.encode(src, lens)
        a = model.decode_logits(memory, lens, np.array([[7, 8, 9]]),
                                np.array([3])).numpy()
        b = model.decode_logits(memory, lens, np.array([[7, 8, 10]]),
                                np.array([3])).numpy()
    assert not np.allclose(a[0, 0], b[0, 0])


def test_outputs_depend_only_on_copied_inputs():
    # two fertility sequences producing the same copies give bit-identical
    # output tables: nothing conditions on other output tokens
    model = new_model(seed=6)
    src = [4, 4]
    a = N.translate_given_fertility(src, [1, 1], model)
    b = N.translate_given_fertility(src, [2, 0], model)
    assert a == b


def test_translation_deterministic():
    model = new_model(seed=7)
    one = N.translate_given_fertility([4, 5, 6], [1, 2, 1], model)
    two = N.translate_given_fertility([4, 5, 6], [1, 2, 1], model)
    assert one == two


def test_decoder_length_cap():
    model = new_model(max_len=6)
    with pytest.raises(ValueError):
        N.translate_given_fertility([4, 5, 6], [3, 3, 3], model)


# ---------------------------------------------------------------------------
# decode strategies
# ---------------------------------------------------------------------------

def test_decode_argmax_and_average_on_forced_dist():
    model = new_model()
    force_fertility_dist(model, [0.1, 0.6, 0.3 - 1e-9, 1e-9])
    src = [4, 5, 6]
    res = N.decode_argmax(src, model)
    assert res.fertility == [1, 1, 1]
    assert len(res.output) == 3
    avg = N.decode_average(src, model)  # E = 1.2 -> 1 per position
    assert avg.fertility == [1, 1, 1]


def test_decode_average_point_mass_and_half():
    model = new_model()
    force_fertility_dist(model, [1e-9, 1e-9, 1e-9, 1.0])
    assert N.decode_average([4, 5], model).fertility == [3, 3]
    force_fertility_dist(model, [0.5, 0.5, 1e-12, 1e-12])
    res = N.decode_average([4, 5], model)
    assert res.fertility == [1, 1]  # E = 0.5 rounds up


def test_decode_argmax_floor_rule():
    model = new_model()
    force_fertility_dist(model, [1.0, 1e-9, 1e-9, 1e-9])
    res = N.decode_argmax([4, 5, 6], model)
    assert sum(res.fertility) == 1
    assert len(res.output) == 1


def test_decode_length_equals_fertility_sum():
    model = new_model(seed=8)
    for src in ([4], [5, 6, 7], [8, 9, 10, 11]):
        res = N.decode_argmax(src, model)
        assert len(res.output) == sum(res.fertility)
        res = N.decode_average(src, model)
        assert len(res.output) == sum(res.fertility)


# ---------------------------------------------------------------------------
# noisy parallel decoding
# ---------------------------------------------------------------------------

def teacher_for(model_cfg, seed=1):
    return AR.TeacherModel(model_cfg, np.random.default_rng(seed))


def test_npd_one_sample_is_argmax():
    model = new_model(seed=9)
    tch = teacher_for(model.cfg)
    plain = N.decode_argmax([4, 5, 6], model)
    npd = N.decode_npd([4, 5, 6], model, tch, samples=1)
    assert npd.output == plain.output
    assert npd.fertility == plain.fertility


def test_npd_rejects_zero_samples():
    model = new_model()
    with pytest.raises(ValueError):
        N.decode_npd([4], model, teacher_for(model.cfg), samples=0)
    with pytest.raises(ValueError, match="empty candidate list"):
        N.npd_over_candidates([4, 5], [], model, teacher_for(model.cfg))


def test_npd_score_monotone_in_samples():
    model = new_model(seed=10)
    tch = teacher_for(model.cfg)
    scores = [N.decode_npd([4, 5, 6, 7], model, tch, samples=s, seed=3).teacher_score
              for s in (1, 2, 4, 6, 9)]
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 1e-9


def test_npd_dominates_argmax():
    model = new_model(seed=11)
    tch = teacher_for(model.cfg)
    plain = N.decode_argmax([5, 6, 7], model)
    base = AR.score_parallel([5, 6, 7], plain.output, tch)
    npd = N.decode_npd([5, 6, 7], model, tch, samples=5, seed=0)
    assert npd.teacher_score >= base - 1e-9


def test_npd_exhaustive_matches_bruteforce():
    model = new_model(seed=12, max_fertility=3)
    tch = teacher_for(model.cfg, seed=2)
    src = [4, 5]
    cands = list(itertools.product(range(3), repeat=2))  # all 9 pairs
    best, scores = N.npd_over_candidates(src, cands, model, tch)
    brute = []
    probs = N.predict_fertility(src, model)
    for f in cands:
        fert = N.floor_fertility(np.array(f), probs)
        toks = N.translate_given_fertility(src, fert, model)
        brute.append(AR.score_parallel(src, toks, tch))
    assert best.teacher_score == pytest.approx(max(brute), abs=1e-6)
    np.testing.assert_allclose(scores, brute, atol=1e-6)


def test_npd_pass_counting():
    model = new_model(seed=13)
    tch = teacher_for(model.cfg)
    model.reset_passes()
    tch.reset_passes()
    N.decode_npd([4, 5, 6], model, tch, samples=4, seed=1)
    assert model.decoder_passes == 4   # four parallel translations
    assert tch.decoder_passes == 4     # four scoring passes
    model.reset_passes()
    N.decode_argmax([4, 5, 6], model)
    assert model.decoder_passes == 1


def test_npd_sampling_deterministic_under_seed():
    model = new_model(seed=14)
    tch = teacher_for(model.cfg)
    a = N.decode_npd([4, 5, 6], model, tch, samples=6, seed=42)
    b = N.decode_npd([4, 5, 6], model, tch, samples=6, seed=42)
    assert a.output == b.output and a.teacher_score == b.teacher_score


def per_choice_sample(probs, n, rng):
    """One `rng.choice` per position per sample, sample by sample."""
    return [np.array([rng.choice(probs.shape[1], p=row / row.sum())
                      for row in probs.astype(np.float64)], dtype=np.int64)
            for _ in range(n)]


@st.composite
def fertility_rows(draw):
    """[T', classes] float32 weights, some classes with zero mass."""
    t = draw(st.integers(1, 6))
    classes = draw(st.integers(2, 6))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    row = st.lists(weight, min_size=classes, max_size=classes).filter(any)
    return np.asarray(draw(st.lists(row, min_size=t, max_size=t)),
                      dtype=np.float32)


@settings(max_examples=200, deadline=None)
@given(fertility_rows(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(np.array([[0.0, 1.0, 0.0]], dtype=np.float32), 1, 0)
@example(np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]], dtype=np.float32), 1, 7)
def test_sample_fertilities_matches_per_choice_draws(probs, n, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = N.sample_fertilities(probs, n, got_rng)
    want = per_choice_sample(probs, n, want_rng)
    assert len(got) == n
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)
        assert (probs[np.arange(len(g)), g] > 0).all()  # zero mass never drawn
    # callers draw sentence after sentence from one generator
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("bad", [[[0.5, -0.1, 0.6]], [[0.5, np.nan, 0.5]],
                                 [[0.0, 0.0, 0.0]]])
def test_sample_fertilities_rejects_what_choice_rejects(bad):
    probs = np.asarray(bad, dtype=np.float32)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        per_choice_sample(probs, 1, np.random.default_rng(0))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        N.sample_fertilities(probs, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# one decode core
# ---------------------------------------------------------------------------

def test_fit_fertility_cuts_from_the_end():
    probs = np.full((3, 4), 0.25)
    np.testing.assert_array_equal(N.fit_fertility([2, 2, 2], probs, 5), [2, 2, 1])
    np.testing.assert_array_equal(N.fit_fertility([3, 3, 1], probs, 2), [2, 0, 0])
    np.testing.assert_array_equal(N.fit_fertility([1, 2, 1], probs, 4), [1, 2, 1])
    np.testing.assert_array_equal(N.fit_fertility([0, 0, 0], probs, 1), [1, 0, 0])


def test_fit_fertility_block_equals_its_rows():
    rng = np.random.default_rng(5)
    lengths = np.array([3, 1, 4, 2, 4])
    probs = rng.dirichlet(np.ones(4), size=(5, 4))
    fert = rng.integers(0, 4, size=(5, 4))
    fert[1] = fert[3, :2] = 0            # all-zero rows get floored
    # padded as `fertility_dist_batch` pins it: class 0 with probability one
    pad = np.arange(4) >= lengths[:, None]
    probs[pad] = np.eye(4)[0]
    fert[pad] = 0
    got = N.fit_fertility(fert, probs, 5)
    for i, n in enumerate(lengths):
        np.testing.assert_array_equal(got[i, :n],
                                      N.fit_fertility(fert[i, :n], probs[i, :n], 5))
        assert not got[i, n:].any()


def _is_cut_from_end(fert, raw, limit):
    """`fert` is `raw` cut from the last position backwards to fit `limit`."""
    fert, raw = np.asarray(fert), np.asarray(raw)
    if raw.sum() <= limit:
        return np.array_equal(fert, raw)
    kept = int(np.flatnonzero(np.cumsum(raw) > limit)[0])
    return (fert.sum() == limit and np.array_equal(fert[:kept], raw[:kept])
            and (fert[kept + 1:] == 0).all())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.floats(0.0, 3.0), st.integers(0, 2**31 - 1))
@example(12, [0.01, 0.01, 1.0, 0.01], 0.0, 0)   # fertility 2 everywhere
def test_parallel_decodes_fit_max_len(n, weights, spread, seed):
    rng = np.random.default_rng(seed)
    model = new_model(seed=seed % 7, max_len=12)
    model.fert_head.weight.data[...] = rng.normal(
        0, spread, model.fert_head.weight.shape).astype(np.float32)
    model.fert_head.bias.data[...] = np.log(np.asarray(weights) / sum(weights))
    tch = teacher_for(model.cfg)
    src = rng.integers(4, model.cfg.src_vocab, size=n).tolist()
    probs = N.predict_fertility(src, model)
    for res, raw, limit in (
            (N.decode_argmax(src, model), probs.argmax(axis=-1), 12),
            (N.decode_average(src, model), N.average_fertility(probs), 12),
            (N.decode_npd(src, model, tch, samples=4, seed=seed), None, 11)):
        assert len(res.output) == sum(res.fertility) <= limit
        if raw is not None:
            assert _is_cut_from_end(res.fertility, N.floor_fertility(raw, probs),
                                    limit)


def test_decode_npd_encodes_the_source_once(monkeypatch):
    model = new_model(seed=13)
    tch = teacher_for(model.cfg)
    calls = []
    encoder_call = Encoder.__call__

    def counted(self, *args):
        calls.append(self)
        return encoder_call(self, *args)

    monkeypatch.setattr(Encoder, "__call__", counted)
    N.decode_npd([4, 5, 6], model, tch, samples=4, seed=1)
    assert [c is model.encoder for c in calls].count(True) == 1
    assert [c is tch.encoder for c in calls].count(True) == 1   # scoring


@pytest.mark.parametrize("decode, expected", [
    (lambda m, t: N.decode_argmax([4, 5, 6], m), 1),
    (lambda m, t: N.decode_average([4, 5, 6], m), 1),
    (lambda m, t: N.decode_npd([4, 5, 6], m, t, samples=4, seed=1), 1),
    (lambda m, t: N.translate_given_fertility([4, 5, 6], [1, 2, 1], m), 0),
], ids=["argmax", "average", "npd", "given_fertility"])
def test_fertility_head_calls_per_decode(monkeypatch, decode, expected):
    model = new_model(seed=13)
    tch = teacher_for(model.cfg)
    calls = []
    dist = N.fertility_dist_batch

    def counted(*args):
        calls.append(args)
        return dist(*args)

    monkeypatch.setattr(N, "fertility_dist_batch", counted)
    decode(model, tch)
    assert len(calls) == expected


def _reference_translate(src, inputs, model):
    """One explicit parallel pass over one decoder input: per-position argmax
    with padding excluded."""
    src_len = np.array([len(src)])
    with T.no_grad():
        memory = model.encode(np.array([src]), src_len)
        logits = model.decode_logits(memory, src_len, np.array([inputs]),
                                     np.array([len(inputs)]))
    logp = T.log_softmax(logits, axis=-1).numpy().astype(np.float64)[0]
    logp[:, PAD] = -np.inf
    return [int(t) for t in logp.argmax(axis=-1)]


def test_decode_average_matches_explicit_reference():
    model = new_model(seed=16)
    model.proj.bias.data[PAD] = 10.0   # padding would win every slot unmasked
    for src in ([4], [5, 6, 7], [8, 9, 10, 11, 4]):
        probs = N.predict_fertility(src, model)
        expected = (probs * np.arange(probs.shape[1])[None, :]).sum(axis=-1)
        fert = N.floor_fertility(N.round_half_away(expected), probs)
        toks = _reference_translate(src, N.copy_fertility(src, fert), model)
        assert N.decode_average(src, model) == N.DecodeResult(
            toks, [int(f) for f in fert], "average")


# ---------------------------------------------------------------------------
# array forward of no-grad decoder passes
# ---------------------------------------------------------------------------

def _attentions(model):
    return [a for layer in model.layers for a in vars(layer).values()
            if isinstance(a, MultiHeadAttention)]


@pytest.mark.parametrize("d_model, lengths, t", [
    (64, [1], 1), (64, [1, 2], 2), (64, [3, 3, 3], 3), (64, [4, 1, 6, 2, 6], 6),
    (64, [1], 3), (64, [40] + [30] * 9, 40), (40, [40] + [30] * 15, 40)])
def test_no_grad_decoder_passes_equal_the_graph_forward(d_model, lengths, t):
    """Teacher-forced and parallel passes without gradients run on arrays,
    over the real positions only; each real position equals the graph
    forward bit for bit, and padded positions come back zero.

    The rows of a product must round alike at any row count. On OpenBLAS,
    a one-row product (the [1] block of width 3) is a gemv, and products
    under 1e6 multiply-adds at width 40 round unlike larger ones: the
    40-wide blocks hold over that size in all their slots, under it in
    their real ones, for the vocabulary projection (40 words) and, at
    d_model 40, for every projection."""
    lengths = np.array(lengths)
    b = len(lengths)
    rng = np.random.default_rng(b)
    src_len = rng.integers(1, 6, size=b)
    src = np.full((b, 5), PAD)
    ids = np.full((b, t), PAD)
    for i in range(b):
        src[i, :src_len[i]] = rng.integers(3, 12, size=src_len[i])
        ids[i, :lengths[i]] = rng.integers(3, 12, size=lengths[i])
    real = np.arange(t)[None, :] < lengths[:, None]
    wide = cfg(d_model=d_model, d_hidden=2 * d_model, tgt_vocab=40, max_len=48)
    for model in (N.NatModel(wide, np.random.default_rng(20)), teacher_for(wide, seed=21)):
        graph = model.decode_logits(model.encode(src, src_len), src_len, ids, lengths)
        assert graph.requires_grad
        with T.no_grad():
            arrays = model.decode_logits(model.encode(src, src_len), src_len, ids,
                                         lengths).numpy()
        assert arrays.dtype == np.float32
        assert np.array_equal(arrays[real], graph.numpy()[real])
        assert not arrays[~real].any()
        for attn in _attentions(model):
            np.testing.assert_allclose(attn.last_weights.sum(axis=-1), 1.0,
                                       rtol=0, atol=1e-6)


@pytest.mark.parametrize("kind", ["nat", "teacher"])
def test_no_grad_decoder_passes_keep_their_checks(kind):
    model = new_model(seed=22) if kind == "nat" else teacher_for(cfg(), seed=23)
    src, src_len = np.array([[4, 5, 6]]), np.array([3])
    with T.no_grad():
        memory = model.encode(src, src_len)
        over = np.full((1, model.cfg.max_len + 1), 4)
        with pytest.raises(ValueError, match="exceeds max_len"):
            model.decode_logits(memory, src_len, over, np.array([over.shape[1]]))
        with pytest.raises(ValueError, match="embedding id out of range"):
            model.decode_logits(memory, src_len, np.array([[4, 99]]), np.array([2]))
        model.layers[0].self_attn.wq.weight.data[0, 0] = np.nan
        with pytest.raises(T.NumericError):
            model.decode_logits(memory, src_len, np.array([[4, 5]]), np.array([2]))


def test_floor_of_a_fertility_of_another_length_is_refused():
    with pytest.raises(ValueError) as exc:
        N.floor_fertility([1, 0], np.full((3, 4), 0.25))
    assert str(exc.value) == "fertility length 2 != source length 3"
