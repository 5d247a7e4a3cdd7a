"""Autoregressive teacher tests: training step, decoding, parallel scoring,
pass counting, and encoder export."""

import math

import numpy as np
import pytest

from natmt import layers as L
from natmt import pipeline as P
from natmt import teacher as AR
from natmt import tensor as T
from natmt.config import ModelConfig, TrainConfig
from natmt.data import BOS, EOS, PAD, Batch, make_batches, pad_block
from natmt.optim import AdamWarmup


def cfg(**kw):
    base = dict(d_model=16, d_hidden=32, n_layer=2, n_head=2,
                src_vocab=12, tgt_vocab=14, max_len=24)
    base.update(kw)
    return ModelConfig(**base)


def new_model(seed=0, **kw):
    return AR.TeacherModel(cfg(**kw), np.random.default_rng(seed))


def uncached_step_logprobs(model, memory, src_len, prefixes):
    """Next-token log-probs [n, V] of bos-prefixed contexts, each decoded
    whole over `memory` in one teacher-forced pass: the reference for the
    cached step."""
    arr, lens = pad_block(prefixes)
    mem, slen = memory, src_len
    if arr.shape[0] > 1:
        mem = T.Tensor(np.repeat(memory.data, arr.shape[0], axis=0))
        slen = np.repeat(src_len, arr.shape[0])
    logits = model.decode_logits(mem, slen, arr, lens)
    return AR._log_probs(logits)[np.arange(len(prefixes)), lens - 1]


def toy_batch():
    pairs = [([4, 5, 6], [7, 8]), ([9, 10], [11, 12, 13])]
    return make_batches(pairs, batch_size=2)[0]


# ---------------------------------------------------------------------------
# teacher forcing
# ---------------------------------------------------------------------------

def test_shift_targets_hand_example():
    tgt = np.array([[5, 6], [7, PAD]])
    dec_in, dec_tgt = AR.shift_targets(tgt, np.array([2, 1]))
    np.testing.assert_array_equal(dec_in, [[BOS, 5, 6], [BOS, 7, PAD]])
    np.testing.assert_array_equal(dec_tgt, [[5, 6, EOS], [7, EOS, PAD]])


def test_initial_loss_near_log_vocab():
    model = new_model()
    batch = toy_batch()
    dec_in, dec_tgt = AR.shift_targets(batch.tgt, batch.tgt_len)
    memory = model.encode(batch.src, batch.src_len)
    logits = model.decode_logits(memory, batch.src_len, dec_in, batch.tgt_len + 1)
    valid = np.arange(dec_tgt.shape[1])[None, :] <= batch.tgt_len[:, None]
    loss = T.cross_entropy(T.log_softmax(logits, axis=-1), dec_tgt, mask=valid)
    assert loss.item() == pytest.approx(math.log(14), rel=0.10)


def test_loss_ignores_padded_positions():
    model = new_model()
    batch = toy_batch()

    def loss_of(b, tgt_override=None):
        dec_in, dec_tgt = AR.shift_targets(b.tgt, b.tgt_len)
        if tgt_override is not None:
            dec_tgt = tgt_override(dec_tgt)
        memory = model.encode(b.src, b.src_len)
        logits = model.decode_logits(memory, b.src_len, dec_in, b.tgt_len + 1)
        valid = np.arange(dec_tgt.shape[1])[None, :] <= b.tgt_len[:, None]
        return T.cross_entropy(T.log_softmax(logits, axis=-1), dec_tgt,
                               mask=valid).item()

    base = loss_of(batch)

    # altering a padded source token must not leak through attention masking
    src2 = batch.src.copy()
    src2[1, 2] = 11  # position beyond src_len=2
    altered = Batch(src2, batch.src_len, batch.tgt, batch.tgt_len)
    assert loss_of(altered) == base

    # altering targets in the padded tail must not change the loss
    def bump(dec_tgt):
        out = dec_tgt.copy()
        out[0, 2] = dec_tgt[0, 2]  # row 0 fully used; leave it
        out[1, 2] = 9              # row 1 pad slot gets a real token id
        return out

    # row 1 has tgt_len 1... recompute with the shorter row padded
    pairs = [([4, 5, 6], [7, 8]), ([9, 10], [11])]
    b2 = make_batches(pairs, 2)[0]
    base2 = loss_of(b2)
    assert loss_of(b2, tgt_override=bump) == base2


def test_train_step_reduces_loss_and_requires_nonempty():
    model = new_model()
    opt = AdamWarmup(list(model.named_parameters()), scale=0.3, warmup=20)
    batch = toy_batch()
    losses = [AR.ar_train_step(batch, model, opt) for _ in range(60)]
    assert losses[-1] < losses[0] * 0.5
    empty = Batch(np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64),
                  np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        AR.ar_train_step(empty, model, opt)


def test_single_pair_overfit():
    model = new_model(seed=1)
    opt = AdamWarmup(list(model.named_parameters()), scale=0.25, warmup=30)
    batch = make_batches([([4, 5, 6], [7, 8, 9, 10])], 1)[0]
    loss = math.inf
    for step in range(500):
        loss = AR.ar_train_step(batch, model, opt)
        if loss < 0.01:
            break
    assert loss < 0.01
    assert AR.greedy_decode([4, 5, 6], model) == [7, 8, 9, 10]


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_matches_stepwise_loop():
    model = new_model(seed=2)
    src = [4, 5, 6, 7]
    cand = [8, 9, 10]
    fast = AR.score_parallel(src, cand, model)
    arr = np.asarray(src)[None, :]
    slen = np.array([4])
    with T.no_grad():
        memory = model.encode(arr, slen)
        slow = 0.0
        chain = list(cand) + [EOS]
        for t, tok in enumerate(chain):
            logp = uncached_step_logprobs(model, memory, slen, [[BOS] + cand[:t]])[0]
            slow += float(logp[tok])
    assert fast == pytest.approx(slow, abs=1e-5)


def test_score_is_one_pass_per_candidate():
    model = new_model(seed=2)
    model.reset_passes()
    AR.score_parallel([4, 5], [6, 7, 8, 9], model)
    assert model.decoder_passes == 1
    model.reset_passes()
    AR.score_candidates([4, 5], [[6], [7, 8], [9, 10, 11]], model)
    assert model.decoder_passes == 3
    model.reset_passes()
    assert AR.score_candidates([4, 5], [], model) == []
    assert model.decoder_passes == 0


def test_score_empty_candidate_is_eos_logprob():
    model = new_model(seed=3)
    got = AR.score_parallel([4, 5, 6], [], model)
    arr = np.asarray([4, 5, 6])[None, :]
    with T.no_grad():
        memory = model.encode(arr, np.array([3]))
        logp = uncached_step_logprobs(model, memory, np.array([3]), [[BOS]])[0]
    assert got == pytest.approx(float(logp[EOS]), abs=1e-6)


def test_score_rejects_pad_interior():
    model = new_model()
    with pytest.raises(ValueError):
        AR.score_parallel([4, 5], [6, PAD, 7], model)


def test_batched_scoring_matches_individual():
    model = new_model(seed=4)
    src = [4, 5, 6]
    cands = [[7], [8, 9], [10, 11, 12, 13]]
    together = AR.score_candidates(src, cands, model)
    alone = [AR.score_parallel(src, c, model) for c in cands]
    np.testing.assert_allclose(together, alone, atol=1e-6)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_greedy_deterministic_and_counts_passes():
    model = new_model(seed=6)
    out1 = AR.greedy_decode([4, 5, 6], model, max_len=6)
    out2 = AR.greedy_decode([4, 5, 6], model, max_len=6)
    assert out1 == out2
    model.reset_passes()
    out = AR.greedy_decode([4, 5, 6], model, max_len=6)
    want = len(out) + 1 if len(out) < 6 else 6
    assert model.decoder_passes == want


def test_greedy_max_len_zero():
    assert AR.greedy_decode([4, 5], new_model(), max_len=0) == []


@pytest.mark.parametrize("max_len", [None, 0])
def test_beam_respects_no_output_slot(max_len):
    # a teacher of max_len 1 has no output slot after bos
    model = new_model(max_len=1)
    assert AR.beam_decode([4], model, b=2, max_len=max_len) == []
    assert AR.greedy_decode([4], model, max_len=max_len) == []
    assert model.decoder_passes == 0


def test_greedy_equals_beam_width_one():
    for seed in (0, 1, 2, 3):
        model = new_model(seed=seed)
        for src in ([4], [5, 6, 7], [8, 9, 10, 11]):
            assert AR.greedy_decode(src, model, max_len=5) == \
                AR.beam_decode(src, model, b=1, max_len=5)


def test_beam_rejects_zero_width():
    with pytest.raises(ValueError):
        AR.beam_decode([4], new_model(), b=0)


def test_beam_finds_higher_probability_sequence():
    # two-step trap: greedy takes A (p=.55) whose continuations are weak;
    # B (p=.45) reaches eos at p=.95 giving the higher-probability sequence
    A, B = 4, 5

    def step(prefixes, parents):
        rows = []
        for p in prefixes:
            row = np.full(6, -30.0)
            if p == [BOS]:
                row[A], row[B] = math.log(0.55), math.log(0.45)
            elif p == [BOS, A]:
                row[B], row[EOS] = math.log(0.70), math.log(0.30)
            elif p == [BOS, B]:
                row[EOS], row[A] = math.log(0.95), math.log(0.04)
            elif p == [BOS, A, B]:
                row[EOS] = math.log(1.0)
            else:
                row[EOS] = math.log(1.0)
            rows.append(row)
        return np.stack(rows)

    assert AR.beam_core(step, b=1, max_len=4) == [A, B]      # greedy path
    assert AR.beam_core(step, b=2, max_len=4) == [B]         # search wins
    # sanity: the found sequence really is more probable
    assert 0.45 * 0.95 > 0.55 * 0.70 * 1.0


def reference_beam_core(step_fn, b: int, max_len: int) -> list[int]:
    """`teacher.beam_core` as it was before it passed its step function the
    parent of each prefix, kept verbatim as the reference for its outputs."""
    if b < 1:
        raise ValueError("beam width must be >= 1")
    if max_len == 0:
        return []
    unfinished: list[tuple[float, list[int]]] = [(0.0, [])]
    finished: list[tuple[float, list[int]]] = []
    capped: list[tuple[float, list[int]]] = []
    while unfinished:
        best_open = max(s for s, _ in unfinished)
        if finished and max(s for s, _ in finished) >= best_open:
            break  # log-probs only decrease; no open hypothesis can win
        logp = step_fn([[BOS] + toks for _, toks in unfinished])
        expansions: list[tuple[float, int, int]] = []  # score, beam idx, token
        for i, (score, _) in enumerate(unfinished):
            row = logp[i]
            # top-b tokens per row suffice to fill b survivors; ties keep the
            # lowest token id, matching the greedy tie-break
            for tok in np.argsort(-row, kind="stable")[:b]:
                expansions.append((score + float(row[tok]), i, int(tok)))
        expansions.sort(key=lambda e: (-e[0], e[2], e[1]))
        nxt: list[tuple[float, list[int]]] = []
        for score, i, tok in expansions:
            if tok == EOS:
                finished.append((score, unfinished[i][1]))
            else:
                hyp = unfinished[i][1] + [tok]
                if len(hyp) >= max_len:
                    capped.append((score, hyp))
                else:
                    nxt.append((score, hyp))
            if len(nxt) == b:
                break
        unfinished = nxt
    pool = finished or capped
    return max(pool, key=lambda h: h[0])[1] if pool else []


@pytest.mark.parametrize("seed", range(40))
def test_beam_core_matches_its_reference_and_names_each_parent(seed):
    # log-probs on a coarse grid of a few values force exact score ties
    rng = np.random.default_rng(seed)
    vocab = int(rng.integers(EOS + 1, 8))
    grid = np.log(rng.choice([0.05, 0.1, 0.2, 0.4], size=int(rng.integers(1, 4))))
    table = {}

    def row(prefix):
        return table.setdefault(tuple(prefix), rng.choice(grid, size=vocab))

    last = []

    def step(prefixes, parents):
        if parents is None:
            assert prefixes == [[BOS]]
        else:
            assert [p[:-1] for p in prefixes] == [last[i] for i in parents]
        last[:] = prefixes
        return np.stack([row(p) for p in prefixes])

    for b in range(1, 6):
        for max_len in range(1, 7):
            want = reference_beam_core(lambda ps: np.stack([row(p) for p in ps]),
                                       b, max_len)
            last.clear()
            assert AR.beam_core(step, b, max_len) == want


def test_beam_score_at_least_greedy_when_trained():
    # on the overfit model both searches find the target, scores equal
    model = new_model(seed=1)
    opt = AdamWarmup(list(model.named_parameters()), scale=0.25, warmup=30)
    batch = make_batches([([4, 5, 6], [7, 8, 9])], 1)[0]
    for _ in range(400):
        if AR.ar_train_step(batch, model, opt) < 0.01:
            break
    g = AR.greedy_decode([4, 5, 6], model)
    bm = AR.beam_decode([4, 5, 6], model, b=4)
    sg = AR.score_parallel([4, 5, 6], g, model)
    sb = AR.score_parallel([4, 5, 6], bm, model)
    assert sb >= sg - 1e-9


# ---------------------------------------------------------------------------
# incremental (cached) decoding
# ---------------------------------------------------------------------------

def mixed_length_model():
    # pinned so that some greedy decodes end at the end marker and some at
    # their length cap
    model = new_model(seed=1)
    model.proj.bias.data[EOS] = -0.5
    return model


MIXED_SOURCES = [[4], [5, 6, 7], [8, 9, 10, 11, 4, 5], [6, 7],
                 [9, 10, 11, 4, 5, 6, 7, 8, 9, 10]]


def cached_step_logits(model, memory, src_len, tgt_in, cache=None):
    if cache is None:
        cache = AR.DecoderCache(model, memory, src_len)
    steps = [model.decode_logits(None, None, tgt_in[:, j:j + 1], None, cache).numpy()
             for j in range(tgt_in.shape[1])]
    return np.concatenate(steps, axis=1)


def test_cached_logits_match_teacher_forced():
    model = new_model(seed=11, n_layer=3)
    rng = np.random.default_rng(0)
    src_len = np.array([3, 7, 1, 5])
    tgt_len = np.array([6, 2, 4, 1])
    src = np.full((4, 7), PAD)
    tgt_in = rng.integers(3, 14, size=(4, 6))
    tgt_in[:, 0] = BOS
    for i, n in enumerate(src_len):
        src[i, :n] = rng.integers(3, 12, size=n)
    with T.no_grad():
        memory = model.encode(src, src_len)
        forced = model.decode_logits(memory, src_len, tgt_in, tgt_len).numpy()
        cached = cached_step_logits(model, memory, src_len, tgt_in)
    for i, n in enumerate(tgt_len):
        np.testing.assert_allclose(cached[i, :n], forced[i, :n], rtol=0, atol=1e-5)


def test_cache_select_reorders_and_repeats_rows():
    model = new_model(seed=12)
    src = np.array([[4, 5, 6], [7, 8, PAD]])
    src_len = np.array([3, 2])
    tgt_in = np.array([[BOS, 9, 10, 11], [BOS, 12, 13, 4]])
    rows = [1, 0, 1]
    with T.no_grad():
        memory = model.encode(src, src_len)
        cache = AR.DecoderCache(model, memory, src_len)
        head = cached_step_logits(model, memory, src_len, tgt_in[:, :2], cache)
        cache.select(rows)
        tail = cached_step_logits(model, None, None, tgt_in[rows, 2:], cache)
        forced = model.decode_logits(memory, src_len, tgt_in, np.array([4, 4])).numpy()
    np.testing.assert_allclose(head, forced[:, :2], rtol=0, atol=1e-5)
    np.testing.assert_allclose(tail, forced[rows, 2:], rtol=0, atol=1e-5)


def test_cached_beam_matches_uncached_search():
    # the uncached step function decodes every prefix whole: the reference
    # for the cache rows beam_decode reorders by parent hypothesis
    for seed in (1, 2):
        model = new_model(seed=seed)
        model.proj.bias.data[EOS] = -0.5
        for src in MIXED_SOURCES:
            with T.no_grad():
                slen = np.array([len(src)])
                memory = model.encode(np.array([src]), slen)
                for b in (2, 4):
                    want = AR.beam_core(
                        lambda p, _: uncached_step_logprobs(model, memory, slen, p),
                        b, 8)
                    assert AR.beam_decode(src, model, b, 8) == want


def _attend(attn, x, k, v, bias):
    q = T.linear_split_heads(x, attn.wq.weight, attn.wq.bias, attn.n_head)
    ctx, _ = L.attention_core(q, T.Tensor(k), T.Tensor(v), bias, attn.scale)
    return T.merge_heads_linear(ctx, attn.wo.weight, attn.wo.bias)


def tensor_op_step_logits(model, cache, tok):
    """One cached step of the tokens `tok` [B, 1] rebuilt from the Tensor
    ops the array step replaces, fed from the cache's arrays; the cache is
    left as it was."""
    enc = model.encoder
    x = model.norm_in(L.embed_positions(model.embed, tok, enc.pos, enc.embed_scale,
                                        cache.length))
    for layer, (self_kv, cross_kv) in zip(model.layers, cache.layers):
        sa = layer.self_attn
        k, v = (T.linear_split_heads(x, p.weight, p.bias, sa.n_head).numpy()
                for p in (sa.wk, sa.wv))
        if self_kv.k is not None:
            k = np.concatenate([self_kv.k, k], axis=2)
            v = np.concatenate([self_kv.v, v], axis=2)
        x = layer.norm_self(_attend(sa, x, k, v, None), x)
        x = layer.norm_cross(_attend(layer.cross_attn, x, cross_kv.k, cross_kv.v,
                                     cache.cross_bias), x)
        x = layer.norm_ffn(layer.ffn(x), x)
    return model.proj(x).numpy()


@pytest.mark.parametrize("n_layer", [2, 3])
def test_cached_step_is_bit_equal_to_its_tensor_op_chain(n_layer):
    model = new_model(seed=13, n_layer=n_layer)
    rng = np.random.default_rng(n_layer)
    src_len = np.array([3, 7, 1, 5])
    src = np.full((4, 7), PAD)
    for i, n in enumerate(src_len):
        src[i, :n] = rng.integers(3, 12, size=n)
    rows = [3, 0, 0, 2, 1]
    with T.no_grad():
        cache = AR.DecoderCache(model, model.encode(src, src_len), src_len)
        tok = np.full((4, 1), BOS)
        for step in range(5):
            if step == 2:
                cache.select(rows)
                tok = tok[rows]
            want = tensor_op_step_logits(model, cache, tok)
            got = model.decode_logits(None, None, tok, None, cache).numpy()
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)
            tok = rng.integers(3, 14, size=(len(tok), 1))


def test_cached_decoding_needs_no_grad():
    model = new_model()
    with T.no_grad():
        cache = AR.DecoderCache(model, model.encode(np.array([[4, 5]]), np.array([2])),
                                np.array([2]))
    with pytest.raises(RuntimeError, match="no_grad"):
        model.decode_logits(None, None, np.array([[BOS]]), None, cache)


def test_cached_decoding_takes_one_token_per_row():
    model = new_model()
    with T.no_grad():
        cache = AR.DecoderCache(model, model.encode(np.array([[4, 5]]), np.array([2])),
                                np.array([2]))
        with pytest.raises(ValueError, match="cached decoding takes one token per row"):
            model.decode_logits(None, None, np.array([[BOS, 4]]), None, cache)


def test_batched_greedy_equals_per_sentence_greedy():
    model = mixed_length_model()
    alone = [AR.greedy_decode(s, model) for s in MIXED_SOURCES]
    caps = [AR._clamp_max_len(model, AR.default_max_len(len(s))) for s in MIXED_SOURCES]
    ended = [len(h) < cap for h, cap in zip(alone, caps)]
    assert any(ended) and not all(ended)
    out = P.build_distill_corpus([(s, [4]) for s in MIXED_SOURCES], model)
    assert out.pairs == list(zip(MIXED_SOURCES, alone))
    assert AR.greedy_decode_batch(MIXED_SOURCES, model, [3, 0, 5, 1, 2]) == \
        [AR.greedy_decode(s, model, m) for s, m in zip(MIXED_SOURCES, [3, 0, 5, 1, 2])]


def test_batched_distill_counts_per_sentence_passes():
    model = mixed_length_model()
    want = 0
    for s in MIXED_SOURCES:
        cap = AR._clamp_max_len(model, AR.default_max_len(len(s)))
        model.reset_passes()
        hyp = AR.greedy_decode(s, model)
        assert model.decoder_passes == (len(hyp) + 1 if len(hyp) < cap else cap)
        want += model.decoder_passes
    model.reset_passes()
    P.build_distill_corpus([(s, [4]) for s in MIXED_SOURCES], model)
    assert model.decoder_passes == want


def test_distill_keeps_corpus_order_across_chunks(monkeypatch):
    model = mixed_length_model()
    rng = np.random.default_rng(3)
    srcs = [rng.integers(4, 12, size=int(rng.integers(1, 9))).tolist()
            for _ in range(P.DISTILL_CHUNK + 5)]
    encodes = []
    real_encode = AR.TeacherModel.encode

    def counted_encode(self, src, src_len):
        encodes.append(len(src_len))
        return real_encode(self, src, src_len)

    monkeypatch.setattr(AR.TeacherModel, "encode", counted_encode)
    out = P.build_distill_corpus([(s, [4]) for s in srcs], model)
    assert encodes == [P.DISTILL_CHUNK, 5]   # one encode per chunk
    monkeypatch.undo()
    assert out.pairs == [(s, AR.greedy_decode(s, model)) for s in srcs]


# ---------------------------------------------------------------------------
# encoder export
# ---------------------------------------------------------------------------

def test_export_names_and_disjointness():
    model = new_model()
    exported = AR.export_encoder(model)
    names = [n for n, _ in exported]
    assert names and all(n.startswith("encoder.") for n in names)
    all_names = [n for n, _ in model.named_parameters()]
    decoder_side = set(all_names) - set(names)
    assert decoder_side and set(names).isdisjoint(decoder_side)
    assert any("embed" in n for n in names)  # source embeddings included


def test_export_import_roundtrip_bit_identical():
    m1 = new_model(seed=7)
    m2 = new_model(seed=8)
    src = np.array([[4, 5, 6]])
    lens = np.array([3])
    before = m2.encode(src, lens).numpy()
    assert not np.array_equal(before, m1.encode(src, lens).numpy())
    lookup = dict(m2.named_parameters())
    for name, arr in AR.export_encoder(m1):
        lookup[name].data[...] = arr
    np.testing.assert_array_equal(m2.encode(src, lens).numpy(),
                                  m1.encode(src, lens).numpy())


def test_export_changes_after_training():
    model = new_model(seed=9)
    first = {n: a.copy() for n, a in AR.export_encoder(model)}
    opt = AdamWarmup(list(model.named_parameters()), scale=0.3, warmup=20)
    for _ in range(3):
        AR.ar_train_step(toy_batch(), model, opt)
    second = dict(AR.export_encoder(model))
    assert any(not np.array_equal(first[n], second[n]) for n in first)
