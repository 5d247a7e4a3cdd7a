"""Training pipeline: distillation corpus, supervised step, encoder seeding,
reverse-KL term, and the fine-tuning estimator."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import natmt.nat as N
import natmt.pipeline as P
import natmt.teacher as AR
import natmt.tensor as T
from natmt.checkpoint import load_checkpoint, save_checkpoint
from natmt.config import ModelConfig, TrainConfig
from natmt.data import EOS, Batch, DataError, Vocab, make_batches
from natmt.layers import Encoder
from natmt.optim import AdamWarmup, warmup_rate
from natmt.tensor import Tensor


def tiny_cfg(**kw):
    base = dict(d_model=16, d_hidden=32, n_layer=1, n_head=2,
                src_vocab=12, tgt_vocab=12, max_len=32, max_fertility=4)
    base.update(kw)
    return ModelConfig(**base)


def words(n):
    return Vocab([f"w{i}" for i in range(n)])


def one_batch(pairs, fertilities=None):
    return make_batches(pairs, batch_size=len(pairs), fertilities=fertilities)[0]


def params_hash(model):
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def teacher():
    model = AR.TeacherModel(tiny_cfg(), np.random.default_rng(3))
    # keep untrained decodes non-empty so tests see real token sequences
    model.proj.bias.data[EOS] = -30.0
    return model


@pytest.fixture(scope="module")
def student():
    return N.NatModel(tiny_cfg(), np.random.default_rng(4))


# ---------------------------------------------------------------------------
# distillation corpus
# ---------------------------------------------------------------------------

def test_distill_replaces_targets_with_teacher_decodes(teacher):
    pairs = [([4, 5, 6], [7, 8]), ([5, 4], [9])]
    out = P.build_distill_corpus(pairs, teacher)
    assert len(out.pairs) == len(pairs)
    for (src, _), (dsrc, dtgt) in zip(pairs, out.pairs):
        assert dsrc == src
        assert dtgt == AR.greedy_decode(src, teacher)
    again = P.build_distill_corpus(pairs, teacher)
    assert again.pairs == out.pairs


def test_distill_beam_mode_and_bad_mode(teacher):
    pairs = [([4, 5, 6], [7, 8])]
    out = P.build_distill_corpus(pairs, teacher, mode="beam", beam_width=2)
    assert out.pairs[0][1] == AR.beam_decode([4, 5, 6], teacher, b=2)
    with pytest.raises(ValueError, match="mode"):
        P.build_distill_corpus(pairs, teacher, mode="sampled")


def test_distill_keeps_an_empty_decode_as_it_is():
    model = AR.TeacherModel(tiny_cfg(), np.random.default_rng(3))
    model.proj.bias.data[EOS] = 50.0  # decoder now emits the end marker first
    assert AR.greedy_decode([4, 5], model) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = P.build_distill_corpus([([4, 5], [7])], model)
    assert out.pairs == [([4, 5], [])]


def test_distill_rejects_bad_sources_before_decoding(teacher):
    too_long = [4] * (teacher.cfg.max_len + 1)
    teacher.reset_passes()
    with pytest.raises(DataError, match="empty source sentence at corpus index 1"):
        P.build_distill_corpus([([4, 5], [7]), ([], [7])], teacher)
    with pytest.raises(DataError, match="exceeds max_len 32 at corpus index 2"):
        P.build_distill_corpus([([4, 5], [7]), ([6], [7]), (too_long, [7])],
                               teacher, mode="beam")
    assert teacher.decoder_passes == 0


@pytest.fixture(scope="module")
def converged_teacher():
    cfg = tiny_cfg()
    model = AR.TeacherModel(cfg, np.random.default_rng(1))
    batch = one_batch([([4, 5, 6], [7, 8, 9, 10])])
    opt = AdamWarmup(list(model.named_parameters()), scale=0.25, warmup=30)
    for _ in range(500):
        if AR.ar_train_step(batch, model, opt) < 0.005:
            break
    return model


def test_distill_fixed_point_on_memorized_pair(converged_teacher):
    out = P.build_distill_corpus([([4, 5, 6], [7, 8, 9, 10])], converged_teacher)
    assert out.pairs == [([4, 5, 6], [7, 8, 9, 10])]


# ---------------------------------------------------------------------------
# supervised step
# ---------------------------------------------------------------------------

def test_nat_ml_step_rejects_fertility_sum_mismatch():
    model = N.NatModel(tiny_cfg(), np.random.default_rng(0))
    opt = AdamWarmup(list(model.named_parameters()), scale=0.1)
    batch = one_batch([([4, 5], [7, 8, 9])], fertilities=[[1, 1]])
    with pytest.raises(ValueError, match="fertility sum 2 != target length 3"):
        P.nat_ml_step(batch, model, opt)
    batch2 = one_batch([([4, 5], [7, 8, 9])])
    with pytest.raises(ValueError, match="fertility"):
        P.nat_ml_step(batch2, model, opt)


def test_nat_ml_step_total_is_exact_sum():
    model = N.NatModel(tiny_cfg(), np.random.default_rng(0))
    opt = AdamWarmup(list(model.named_parameters()), scale=0.1)
    batch = one_batch([([4, 5], [7, 8, 9]), ([6, 4, 5], [10, 11])],
                      fertilities=[[1, 2], [1, 1, 0]])
    res = P.nat_ml_step(batch, model, opt)
    assert math.isfinite(res.translation_loss) and math.isfinite(res.fertility_loss)
    assert res.total == res.translation_loss + res.fertility_loss


@pytest.mark.parametrize("kind", ["teacher", "nat"])
def test_one_training_step_leaves_a_gradient_on_every_parameter(kind):
    # a parameter that no gradient reaches, such as a cross-attention key or
    # value projection read from detached encoder states, would never train
    cfg = tiny_cfg(n_layer=2)
    batch = one_batch([([4, 5, 6], [7, 8]), ([9, 4], [10, 11, 5])],
                      fertilities=[[1, 0, 1], [2, 1]])
    if kind == "teacher":
        model = AR.TeacherModel(cfg, np.random.default_rng(3))
        AR.ar_train_step(batch, model, AdamWarmup(model.named_parameters(), 0.1))
    else:
        model = N.NatModel(cfg, np.random.default_rng(4))
        P.nat_ml_step(batch, model, AdamWarmup(model.named_parameters(), 0.1))
    missing = [name for name, p in model.named_parameters() if p.grad is None]
    assert missing == []


def test_initial_fertility_loss_near_uniform():
    cfg = tiny_cfg(max_fertility=50, max_len=64)
    model = N.NatModel(cfg, np.random.default_rng(5))
    opt = AdamWarmup(list(model.named_parameters()), scale=0.0)  # no movement
    pairs = [([4, 5, 6, 7], [7, 8, 9, 10]), ([5, 6], [8, 9])]
    batch = one_batch(pairs, fertilities=[[1, 1, 1, 1], [1, 1]])
    res = P.nat_ml_step(batch, model, opt)
    assert abs(res.fertility_loss - math.log(50)) < 0.1 * math.log(50)


def test_single_pair_overfit_drives_both_terms_down():
    model = N.NatModel(tiny_cfg(), np.random.default_rng(2))
    opt = AdamWarmup(list(model.named_parameters()), scale=0.25, warmup=30)
    batch = one_batch([([4, 5, 6], [7, 8, 9, 10])], fertilities=[[2, 1, 1]])
    res = None
    for _ in range(1000):
        res = P.nat_ml_step(batch, model, opt)
        if res.translation_loss < 0.01 and res.fertility_loss < 0.01:
            break
    assert res.translation_loss < 0.01
    assert res.fertility_loss < 0.01
    out = N.decode_argmax([4, 5, 6], model)
    assert out.output == [7, 8, 9, 10]
    assert out.fertility == [2, 1, 1]


# ---------------------------------------------------------------------------
# encoder seeding
# ---------------------------------------------------------------------------

def test_encoder_import_copies_and_matches_outputs(teacher):
    student = N.NatModel(tiny_cfg(), np.random.default_rng(9))
    before_head = student.fert_head.weight.data.copy()
    before_dec = {n: p.data.copy() for n, p in student.named_parameters()
                  if not n.startswith("encoder.")}
    P.init_encoder_from_teacher(student, AR.export_encoder(teacher))

    src = np.array([[4, 5, 6]])
    src_len = np.array([3])
    with T.no_grad():
        t_mem = teacher.encode(src, src_len).numpy()
        s_mem = student.encode(src, src_len).numpy()
    assert np.array_equal(t_mem, s_mem)
    assert np.array_equal(student.fert_head.weight.data, before_head)
    for n, p in student.named_parameters():
        if not n.startswith("encoder."):
            assert np.array_equal(p.data, before_dec[n]), n


def test_encoder_import_errors_name_offending_keys(teacher):
    student = N.NatModel(tiny_cfg(), np.random.default_rng(9))
    exported = AR.export_encoder(teacher)
    renamed = [("encoder.bogus" if n == exported[0][0] else n, a)
               for n, a in exported]
    with pytest.raises(ValueError) as exc:
        P.init_encoder_from_teacher(student, renamed)
    assert "encoder.bogus" in str(exc.value)
    assert exported[0][0] in str(exc.value)


def test_encoder_import_rejects_other_width(teacher):
    student = N.NatModel(tiny_cfg(d_model=32, d_hidden=64),
                         np.random.default_rng(9))
    with pytest.raises(ValueError, match="shape mismatch"):
        P.init_encoder_from_teacher(student, AR.export_encoder(teacher))


def test_encoder_import_names_every_fault_and_copies_nothing(teacher):
    student = N.NatModel(tiny_cfg(), np.random.default_rng(9))
    before = {n: p.data.copy() for n, p in student.named_parameters()}
    (short, arr), (gone, _), *rest = AR.export_encoder(teacher)
    with pytest.raises(DataError) as exc:
        P.init_encoder_from_teacher(
            student, [(short, arr[..., :-1]), ("encoder.bogus", arr), *rest])
    assert str(exc.value).startswith(
        f"missing parameter {gone}; unexpected parameter encoder.bogus; "
        f"shape mismatch {short}: ")
    for n, p in student.named_parameters():
        assert np.array_equal(p.data, before[n]), n


def test_load_model_names_every_fault_and_the_file(tmp_path):
    path = tmp_path / "m.nat"
    P.save_model(path, N.NatModel(tiny_cfg(), np.random.default_rng(0)),
                 words(8), words(8))
    ckpt = load_checkpoint(path)
    params = dict(ckpt.params)
    params["proj.weight"] = params["proj.weight"][:-1]
    params["extra"] = params.pop("proj.bias")
    save_checkpoint(path, ckpt.kind, ckpt.config, list(params.items()),
                    ckpt.src_vocab, ckpt.tgt_vocab)
    with pytest.raises(DataError) as exc:
        P.load_model(path)
    assert str(exc.value) == (
        f"missing parameter proj.bias; unexpected parameter extra; shape mismatch "
        f"proj.weight: {params['proj.weight'].shape} given, "
        f"{ckpt.params['proj.weight'].shape} expected: {path}")


@pytest.mark.parametrize("saved, kind, sizes, message", [
    ("teacher", "nat", (8, 8), "checkpoint {path} holds a teacher model, expected nat"),
    ("nat", "teacher", (8, 8), "checkpoint {path} holds a nat model, expected teacher"),
    ("nat", "nat", (7, 8), "checkpoint vocabularies of 11 and 12 tokens do not "
     "match config src_vocab 12 and tgt_vocab 12: {path}"),
    ("teacher", None, (8, 9), "checkpoint vocabularies of 12 and 13 tokens do not "
     "match config src_vocab 12 and tgt_vocab 12: {path}")],
    ids=["teacher-as-nat", "nat-as-teacher", "shorter-lists", "longer-lists"])
def test_load_model_refuses_a_checkpoint_it_cannot_serve(tmp_path, saved, kind,
                                                         sizes, message):
    # tiny_cfg's 12-token vocabularies are the 4 reserved tokens and 8 words
    path = tmp_path / "m.nat"
    model = {"teacher": AR.TeacherModel, "nat": N.NatModel}[saved](
        tiny_cfg(), np.random.default_rng(0))
    P.save_model(path, model, words(sizes[0]), words(sizes[1]))
    with pytest.raises(DataError) as exc:
        P.load_model(path, kind)
    assert str(exc.value) == message.format(path=path)


# ---------------------------------------------------------------------------
# reverse-KL term
# ---------------------------------------------------------------------------

def test_rkl_one_hot_student_recovers_teacher_score(teacher, student):
    sharp = N.NatModel(tiny_cfg(), np.random.default_rng(4))
    for (_, p), (_, q) in zip(sharp.named_parameters(),
                              student.named_parameters()):
        p.data[...] = q.data
    sharp.proj.weight.data *= 300.0   # saturate the output softmax
    sharp.proj.bias.data *= 300.0
    src, fert = [4, 5, 6], [1, 2, 1]
    val = float(P.rkl_value(src, fert, sharp, teacher, with_grad=False).item())
    yhat = N.translate_given_fertility(src, fert, sharp)
    assert val == pytest.approx(AR.score_parallel(src, yhat, teacher), abs=1e-4)


def test_rkl_uniform_student_averages_teacher_logprobs(teacher):
    flat = N.NatModel(tiny_cfg(), np.random.default_rng(4))
    flat.proj.weight.data[...] = 0.0
    flat.proj.bias.data[...] = 0.0
    src, fert = [4, 5], [2, 1]
    val = float(P.rkl_value(src, fert, flat, teacher, with_grad=False).item())

    yhat = N.translate_given_fertility(src, fert, flat)
    score = AR.score_parallel(src, yhat, teacher)
    with T.no_grad():
        mem = teacher.encode(np.array([src]), np.array([2]))
        t_in = np.array([[AR.BOS] + yhat])
        logits = teacher.decode_logits(mem, np.array([2]), t_in, np.array([4]))
        tlp = T.log_softmax(logits, axis=-1).numpy().astype(np.float64)[0]
    # the student spreads mass evenly over the eleven non-pad tokens
    want = tlp[:3, 1:].mean(axis=1).sum() + tlp[3, EOS]
    assert val == pytest.approx(want, abs=1e-5)
    # sanity: the teacher's score comes from the same forced pass
    assert score == pytest.approx(
        sum(tlp[t, y] for t, y in enumerate(yhat)) + tlp[3, EOS], abs=1e-5)


def test_rkl_gradients_reach_student_not_teacher(teacher, student):
    student.zero_grad()
    teacher.zero_grad()
    loss = T.neg(P.rkl_value([4, 5, 6], [1, 1, 1], student, teacher))
    T.backward(loss)
    assert any(p.grad is not None for _, p in student.named_parameters())
    assert all(p.grad is None for _, p in teacher.named_parameters())


# ---------------------------------------------------------------------------
# fine-tuning step
# ---------------------------------------------------------------------------

def test_finetune_rejects_bad_lambda(teacher):
    model = N.NatModel(tiny_cfg(), np.random.default_rng(6))
    opt = AdamWarmup(list(model.named_parameters()), scale=0.1)
    batch = one_batch([([4, 5], [7, 8])], fertilities=[[1, 1]])
    rng = np.random.default_rng(0)
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError, match="0, 1"):
            P.finetune_step(batch, model, teacher, bad, opt, rng)


@pytest.mark.parametrize("fertilities, terms, message", [
    ([[1, 1]], ("rl", "xx"), r"unknown fine-tuning terms \['xx'\]"),
    (None, ("rl", "bp", "kd"), "fine-tuning needs aligner fertilities on the batch")],
    ids=["unknown_term", "no_fertilities"])
def test_finetune_rejects_unknown_terms_and_a_batch_without_fertilities(
        teacher, fertilities, terms, message):
    model = N.NatModel(tiny_cfg(), np.random.default_rng(6))
    opt = AdamWarmup(list(model.named_parameters()), scale=0.1)
    batch = one_batch([([4, 5], [7, 8])], fertilities=fertilities)
    with pytest.raises(ValueError, match=message):
        P.finetune_step(batch, model, teacher, 0.5, opt, np.random.default_rng(0),
                        terms=terms)


def test_finetune_lambda_zero_equals_supervised_step(teacher):
    batch = one_batch([([4, 5], [7, 8]), ([6, 4, 5], [9, 10])],
                      fertilities=[[1, 1], [1, 1, 0]])
    a = N.NatModel(tiny_cfg(), np.random.default_rng(6))
    b = N.NatModel(tiny_cfg(), np.random.default_rng(6))
    opt_a = AdamWarmup(list(a.named_parameters()), scale=0.1)
    opt_b = AdamWarmup(list(b.named_parameters()), scale=0.1)
    res = P.finetune_step(batch, a, teacher, 0.0, opt_a, np.random.default_rng(0))
    ml = P.nat_ml_step(batch, b, opt_b)
    assert res.l_kd == ml.total
    assert res.l_rl == 0.0 and res.l_bp == 0.0
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data), na


def test_finetune_point_mass_sample_has_zero_rl_gradient(teacher):
    model = N.NatModel(tiny_cfg(), np.random.default_rng(6))
    model.fert_head.weight.data[...] = 0.0
    model.fert_head.bias.data[...] = np.array([-30.0, 5.0, -30.0, -30.0])
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    opt = AdamWarmup(list(model.named_parameters()), scale=0.1)
    batch = one_batch([([4, 5], [7, 8])], fertilities=[[1, 1]])
    res = P.finetune_step(batch, model, teacher, 1.0, opt,
                          np.random.default_rng(0), terms=("rl",))
    assert res.l_bp == 0.0 and res.l_kd == 0.0
    for n, p in model.named_parameters():
        assert np.array_equal(p.data, before[n]), n


def test_finetune_teacher_stays_frozen(teacher):
    model = N.NatModel(tiny_cfg(), np.random.default_rng(6))
    opt = AdamWarmup(list(model.named_parameters()), scale=0.1)
    batch = one_batch([([4, 5], [7, 8]), ([6, 4], [9])],
                      fertilities=[[1, 1], [1, 0]])
    frozen = params_hash(teacher)
    res = P.finetune_step(batch, model, teacher, 0.25, opt,
                          np.random.default_rng(1))
    assert params_hash(teacher) == frozen
    for v in (res.l_rl, res.l_bp, res.l_kd, res.total):
        assert math.isfinite(v)
    assert res.total == pytest.approx(
        0.25 * (res.l_rl + res.l_bp) + 0.75 * res.l_kd)


def test_reinforce_expectation_matches_exact_gradient(teacher):
    # two positions, three fertility classes: enumerate all nine outcomes
    cfg = tiny_cfg(max_fertility=3)
    model = N.NatModel(cfg, np.random.default_rng(8))
    model.fert_head.weight.data[...] = 0.0
    row = np.array([0.2, 0.5, 0.3])
    model.fert_head.bias.data[...] = np.log(row).astype(np.float32)
    src = [4, 5]
    probs = N.predict_fertility(src, model)
    p_row = probs[0].astype(np.float64)

    expected = (probs * np.arange(3)[None, :]).sum(axis=-1)
    f_bar = N.floor_fertility(N.round_half_away(expected), probs)
    baseline = float(P.rkl_value(src, f_bar, model, teacher,
                                 with_grad=False).item())

    bias = model.fert_head.bias
    estimate = np.zeros(3, dtype=np.float64)
    exact = np.zeros(3, dtype=np.float64)
    for f1 in range(3):
        for f2 in range(3):
            f = np.array([f1, f2])
            p_f = p_row[f1] * p_row[f2]
            f_tr = N.floor_fertility(f, probs)
            reward = float(P.rkl_value(src, f_tr, model, teacher,
                                       with_grad=False).item())
            model.zero_grad()
            T.backward(P.fertility_log_prob(src, f, model))
            score = bias.grad.astype(np.float64)
            estimate += p_f * (reward - baseline) * score
            exact += reward * p_f * score   # d p(f)/d b = p(f) * d log p / d b
    assert np.allclose(estimate, exact, atol=1e-6)
    # independent closed form for the score function
    f = np.array([2, 0])
    model.zero_grad()
    T.backward(P.fertility_log_prob(src, f, model))
    onehots = np.eye(3)[f].sum(axis=0)
    assert np.allclose(bias.grad, onehots - 2 * p_row, atol=1e-5)


class _GradGrab:
    """Optimizer stand-in that keeps the gradients of the step and leaves the
    parameters alone."""

    def __init__(self, model):
        self.model = model
        self.grads = None

    def step(self):
        self.grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                      for n, p in self.model.named_parameters()}
        return 0.0


def _per_sentence_finetune(batch, model, teacher, lam, rng, terms):
    """Reference fine-tuning objective, one sentence at a time from the
    public single-sentence pieces; returns (l_rl, l_bp, l_kd, grads)."""
    grads = {n: np.zeros(p.data.shape, dtype=np.float64)
             for n, p in model.named_parameters()}
    l_rl = l_bp = l_kd = 0.0
    if "kd" in terms:
        grab = _GradGrab(model)
        l_kd = P.nat_ml_step(batch, model, grab).total
        for n, g in grab.grads.items():
            grads[n] += (1.0 - lam) * g
    scale = Tensor(np.float32(lam / batch.size))
    model.zero_grad()
    for i in range(batch.size):
        src = [int(t) for t in batch.src[i, : batch.src_len[i]]]
        probs = N.predict_fertility(src, model)
        if "bp" in terms:
            value = P.rkl_value(src, batch.fertility[i, : batch.src_len[i]],
                                model, teacher)
            l_bp -= value.item()
            T.backward(T.mul(T.neg(value), scale))
        if "rl" in terms:
            f_s = N.sample_fertilities(probs, 1, rng)[0]
            expected = (probs * np.arange(probs.shape[1])[None, :]).sum(axis=-1)
            f_bar = N.floor_fertility(N.round_half_away(expected), probs)
            reward, baseline = (
                P.rkl_value(src, f, model, teacher, with_grad=False).item()
                for f in (N.floor_fertility(f_s, probs), f_bar))
            l_rl -= reward
            if reward != baseline:
                T.backward(T.mul(P.fertility_log_prob(src, f_s, model),
                                 T.mul(Tensor(np.float32(baseline - reward)), scale)))
    for n, p in model.named_parameters():
        if p.grad is not None:
            grads[n] += p.grad
    return l_rl / batch.size, l_bp / batch.size, l_kd, grads


_MIXED_BATCHES = [
    ([([4, 5], [7, 8, 9]), ([6, 4, 5, 7], [9, 10]), ([5, 6, 8], [8, 9, 10, 11])],
     [[2, 1], [1, 0, 1, 0], [1, 2, 1]]),
    ([([4, 5, 6, 7, 8], [7, 8, 9, 10, 11, 4]), ([9], [5]), ([10, 11], [6, 7, 8])],
     [[1, 1, 1, 1, 2], [1], [0, 3]]),
]


@pytest.mark.parametrize("terms,lam", [(("rl", "bp", "kd"), 0.25),
                                       (("bp",), 1.0), (("rl",), 1.0)])
@pytest.mark.parametrize("which", range(len(_MIXED_BATCHES)))
def test_batched_finetune_matches_per_sentence_reference(teacher, monkeypatch,
                                                         terms, lam, which):
    pairs, ferts = _MIXED_BATCHES[which]
    batch = one_batch(pairs, fertilities=ferts)
    model = N.NatModel(tiny_cfg(), np.random.default_rng(6))
    want = _per_sentence_finetune(batch, model, teacher, lam,
                                  np.random.default_rng(5), terms)

    encoder_calls = []
    encoder_call = Encoder.__call__

    def counted(self, *args):
        encoder_calls.append(self)
        return encoder_call(self, *args)

    monkeypatch.setattr(Encoder, "__call__", counted)
    grab = _GradGrab(model)
    res = P.finetune_step(batch, model, teacher, lam, grab,
                          np.random.default_rng(5), terms=terms)
    assert len(encoder_calls) == 2   # one student encode, one teacher encode

    got = (res.l_rl, res.l_bp, res.l_kd)
    assert got == pytest.approx(want[:3], rel=1e-5)
    assert any(want[:3])
    for name, g in want[3].items():
        assert np.allclose(grab.grads[name], g, rtol=1e-3, atol=1e-6), name
    assert any(np.abs(g).max() > 1e-3 for g in want[3].values())


# ---------------------------------------------------------------------------
# loops, logging, persistence
# ---------------------------------------------------------------------------

def test_training_on_no_pairs_raises_instead_of_spinning():
    tcfg = TrainConfig(steps=3, batch_size=2, warmup=10)
    with pytest.raises(DataError, match="no sentence pairs to train on"):
        P.train_teacher([], tiny_cfg(), tcfg)
    with pytest.raises(DataError, match="no sentence pairs to train on"):
        P.train_nat([], [], tiny_cfg(), tcfg)


def test_training_loops_log_jsonl(tmp_path):
    cfg = tiny_cfg()
    tcfg = TrainConfig(steps=3, batch_size=2, warmup=10, seed=0, log_every=1,
                       lam=0.25)
    pairs = [([4, 5], [7, 8]), ([6, 4, 5], [9, 10]), ([5, 6], [8])]
    ferts = [[1, 1], [1, 1, 0], [1, 0]]
    log = P.TrainingLog(tmp_path / "run.jsonl")

    teacher_model = P.train_teacher(pairs, cfg, tcfg, log)
    nat_model = P.train_nat(pairs, ferts, cfg, tcfg, log,
                            init_from=AR.export_encoder(teacher_model))
    P.finetune(nat_model, teacher_model, pairs, ferts, tcfg, log)

    lines = [json.loads(l) for l in
             (tmp_path / "run.jsonl").read_text().splitlines()]
    assert len(lines) == 9
    phases = [l["phase"] for l in lines]
    assert phases == ["teacher"] * 3 + ["nat"] * 3 + ["finetune"] * 3
    for l in lines:
        assert set(l) >= {"step", "phase", "loss", "wall"}
        assert math.isfinite(l["loss"])
    assert {"l_rl", "l_bp", "l_kd"} <= set(lines[-1])
    assert {"translation_loss", "fertility_loss"} <= set(lines[4])


def test_training_logs_record_grad_norm_and_tokens_per_s():
    cfg = tiny_cfg()
    tcfg = TrainConfig(steps=2, batch_size=2, warmup=2, seed=0, log_every=2,
                       lam=0.25, lr_scale=0.05)
    pairs = [([4, 5], [7, 8]), ([6, 4, 5], [9, 10]), ([5, 6], [8])]
    ferts = [[1, 1], [1, 1, 0], [1, 0]]

    def norm(model):
        # the gradients of the last step stay on the parameters
        return math.sqrt(sum(np.sum(p.grad.astype(np.float64) ** 2)
                             for _, p in model.named_parameters()
                             if p.grad is not None))

    log = P.TrainingLog()
    teacher_model = P.train_teacher(pairs, cfg, tcfg, log)
    norms = [norm(teacher_model)]
    nat_model = P.train_nat(pairs, ferts, cfg, tcfg, log)
    norms.append(norm(nat_model))
    P.finetune(nat_model, teacher_model, pairs, ferts, tcfg, log)
    norms.append(norm(nat_model))
    assert [r["phase"] for r in log.records] == ["teacher", "nat", "finetune"]
    for rec, want in zip(log.records, norms):
        assert want > 0
        assert rec["grad_norm"] == pytest.approx(want, rel=1e-4)
        assert rec["tokens_per_s"] > 0


def _train_step(kind, model, teacher, opt):
    pairs = [([4, 5], [7, 8]), ([6, 4, 5], [9, 10]), ([5, 6, 7], [8])]
    if kind == "teacher":
        return AR.ar_train_step(one_batch(pairs), model, opt)
    batch = one_batch(pairs, fertilities=[[1, 1], [1, 1, 0], [1, 0, 0]])
    if kind == "nat":
        return P.nat_ml_step(batch, model, opt)
    terms = ("rl",) if kind == "finetune_rl" else ("rl", "bp", "kd")
    return P.finetune_step(batch, model, teacher, 0.5, opt,
                           np.random.default_rng(1), terms=terms)


@pytest.mark.parametrize("kind", ["teacher", "nat", "finetune", "finetune_rl"])
def test_step_does_not_depend_on_optimizer_parameter_order(teacher, kind):
    # finetune_rl leaves the decoder without gradients, so the optimizer
    # updates several runs of parameters whose offsets differ per order
    make = AR.TeacherModel if kind == "teacher" else N.NatModel
    a = make(tiny_cfg(), np.random.default_rng(8))
    b = make(tiny_cfg(), np.random.default_rng(8))
    before = params_hash(a)
    opt_a = AdamWarmup(list(a.named_parameters()), scale=0.1)
    opt_b = AdamWarmup(list(b.named_parameters())[::-1], scale=0.1)
    for _ in range(2):
        _train_step(kind, a, teacher, opt_a)
        _train_step(kind, b, teacher, opt_b)
    assert params_hash(a) != before
    if kind == "finetune_rl":
        assert any(p.grad is None for _, p in a.named_parameters())
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data), na


def test_training_logs_record_learning_rate(tmp_path):
    cfg = tiny_cfg()
    tcfg = TrainConfig(steps=3, batch_size=2, warmup=2, seed=0, log_every=1,
                       lam=0.25, lr_scale=0.05)
    pairs = [([4, 5], [7, 8]), ([6, 4, 5], [9, 10]), ([5, 6], [8])]
    ferts = [[1, 1], [1, 1, 0], [1, 0]]
    log = P.TrainingLog()
    teacher_model = P.train_teacher(pairs, cfg, tcfg, log)
    nat_model = P.train_nat(pairs, ferts, cfg, tcfg, log)
    P.finetune(nat_model, teacher_model, pairs, ferts, tcfg, log)
    assert len(log.records) == 9
    for rec in log.records:
        assert rec["lr"] == warmup_rate(rec["step"], 0.05, 2)


def test_model_save_load_round_trip(tmp_path, teacher):
    sv = words(8)
    tv = Vocab([f"c{i}" for i in range(8)])
    path = tmp_path / "m.nat"
    P.save_model(path, teacher, sv, tv)
    loaded, lsv, ltv = P.load_model(path)
    assert isinstance(loaded, AR.TeacherModel)
    assert lsv.tokens == sv.tokens and ltv.tokens == tv.tokens
    for (n, p), (m, q) in zip(teacher.named_parameters(),
                              loaded.named_parameters()):
        assert n == m and np.array_equal(p.data, q.data)

    nat_model = N.NatModel(tiny_cfg(), np.random.default_rng(0))
    P.save_model(tmp_path / "n.nat", nat_model, sv, tv)
    loaded2, *_ = P.load_model(tmp_path / "n.nat")
    assert isinstance(loaded2, N.NatModel)


def test_finetune_rl_rows_fit_max_len():
    # the aligner fertilities fit max_len 8, but a head peaked on fertility 3
    # proposes 15 output slots for the 5-token source
    cfg = tiny_cfg(max_len=8)
    teacher = AR.TeacherModel(cfg, np.random.default_rng(3))
    teacher.proj.bias.data[EOS] = -30.0
    model = N.NatModel(cfg, np.random.default_rng(4))
    model.fert_head.weight.data[...] = 0.0
    model.fert_head.bias.data[...] = np.log([0.01, 0.01, 0.01, 0.97])
    batch = one_batch([([4, 5, 6, 7, 8], [7, 8, 9, 10, 11]), ([4, 5, 6], [7, 8, 9])],
                      fertilities=[[1, 1, 1, 1, 1], [1, 1, 1]])
    res = P.finetune_step(batch, model, teacher, 1.0, _GradGrab(model),
                          np.random.default_rng(0), terms=("rl",))
    assert math.isfinite(res.l_rl)
