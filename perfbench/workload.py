"""Inputs, set-up, correctness checks and measured phases of the natmt benchmark.

A run of one workload executes four phases in one process, with one caller
in a closed loop (each call starts when the previous one has returned):

- latency: batch-size-one decoding of every source with greedy, beam:4,
  argmax and npd:10, the strategies interleaved per source;
- distill: `build_distill_corpus` (greedy) over chunks of a planted-dictionary
  corpus, one sentence per source length in a chunk;
- align: `em_train` followed by `corpus_fertilities` over a planted-dictionary
  corpus, which has the lexical structure an aligner needs;
- train: per round, one teacher step, one parallel-decoder step and one
  fine-tuning step at batch size 32 on the multimodal corpus, each started
  from the same snapshot of parameters, so work does not drift with training.

The decoding models are fixed-seed "structural" models: work depends on
shapes, not on training outcome. The teacher's end marker is suppressed, so
greedy and beam emit exactly `max_len` tokens; the parallel decoder's
fertility head has argmax 1 at every source token but keeps real mass off it,
so npd samples distinct candidates. The inputs come from the seed; the models
do not.

Correctness is checked outside the timed calls. The first time an input is
decoded (or trained on), its output gets the full check; every later output
for the same input must equal that verified output exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import resource
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import natmt.aligner as AL
import natmt.data as D
import natmt.nat as N
import natmt.pipeline as P
import natmt.synth as SY
import natmt.teacher as AR
import natmt.tensor as T
from natmt.config import ModelConfig
from natmt.data import BOS, EOS, PAD, RESERVED, Vocab, encode_corpus
from natmt.optim import AdamWarmup

from spans import Timer, Tracer, layer_metrics


@dataclass(frozen=True)
class Spec:
    latency_lengths: tuple[int, ...]
    distill_lengths: tuple[int, ...]
    sources_per_length: int = 4    # latency and distill inputs, cycled by round
    align_pairs: int = 2000
    train_phrases: int = 2         # multimodal phrases per sentence
    train_pairs: int = 600
    batch_size: int = 32
    train_batches: int = 4         # distinct batches, cycled by round
    d_model: int = 64
    n_layer: int = 2
    setup_repeats: int = 5


# Five evenly spaced lengths put p50 on the middle length and p90 inside the
# top length's samples, away from a boundary between two lengths. Both
# workloads include length 20 for the greedy/argmax ratio.
WORKLOADS = {
    "short": Spec(latency_lengths=(4, 8, 12, 16, 20),
                  distill_lengths=(3, 4, 5, 6, 7, 8),
                  align_pairs=1500, train_phrases=2),
    "long": Spec(latency_lengths=(20, 22, 24, 26, 28),
                 distill_lengths=(12, 14, 16, 18, 20),
                 align_pairs=600, train_phrases=4),
}

# share of --seconds given to each phase
PHASES = {"latency": 0.40, "distill": 0.14, "align": 0.12, "train": 0.34}

STRATEGIES = ("greedy", "beam4", "argmax", "npd10")
TRAIN_STEPS = ("teacher", "nat", "finetune")

STRUCT_VOCAB = 40
MAX_LEN = 64
# A finite bias: teacher logits span under 4 nats, so the end marker is never
# chosen, while npd's teacher scores stay on the scale of token log-probs
# (with -1e9 every score is about -1e9 and float32 rounding picks the winner).
EOS_BIAS = -30.0
FERTILITY_HEAD = (0.15, 0.6, 0.2, 0.05)
NPD_SAMPLES = 10
BEAM_WIDTH = 4
TRAIN_MAX_FERTILITY = 8
LAM = 0.25
REFERENCE_KERNEL_MS = 7.0   # reference_kernel() on a 2.1 GHz Xeon, one thread
TOL = 1e-4          # slack for float32 near-ties between batch shapes

E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("greedy_ms_p50", "ms"), ("greedy_ms_p90", "ms"),
    ("beam4_ms_p50", "ms"),
    ("argmax_ms_p50", "ms"), ("argmax_ms_p90", "ms"),
    ("npd10_ms_p50", "ms"), ("npd10_ms_p90", "ms"),
    ("distill_sent_per_s", "1/s"),
    ("align_pairs_per_s", "1/s"),
    ("teacher_step_ms", "ms"), ("nat_step_ms", "ms"), ("finetune_step_ms", "ms"),
)

_TEACHER_DECODE = ("teacher.decode_logits.calls", "teacher.decode_logits.ms",
                   "teacher.decode_logits.rows", "teacher.decode_logits.positions",
                   "teacher.encode.calls")
_NAT_DECODE = ("nat.decode_logits.calls", "nat.decode_logits.ms",
               "nat.decode_logits.rows", "nat.decode_logits.positions",
               "nat.encode.calls", "nat.fertility.ms", "nat.sample.ms")
_LAYERS = ("layers.encoder.calls", "layers.encoder.ms", "layers.attention.ms",
           "layers.ffn.ms", "layers.layernorm.ms", "layers.attention_bias.calls",
           "layers.attention_bias.ms", "tensor.op_calls", "tensor.op_ms",
           "tensor.matmul_gflop", "data.pad_block.ms")
_TAIL = ("other.ms", "trace_overhead_frac")

# Per-layer metrics of the traced run, per phase and per unit of work:
# latency per source (decoded with all four strategies), distill per
# sentence, align per pair, train per round of the three steps, setup per
# pass. `ms` is self time.
PER_LAYER = {
    "latency": _TEACHER_DECODE + ("teacher.score_candidates.ms",) + _NAT_DECODE
               + ("nat.npd.distinct_frac",) + _LAYERS + _TAIL,
    "distill": _TEACHER_DECODE + _LAYERS + _TAIL,
    "align": ("aligner.em_train.ms", "aligner.corpus_fertilities.ms") + _TAIL,
    "train": _TEACHER_DECODE + _NAT_DECODE + _LAYERS
             + ("tensor.backward.ms", "pipeline.rkl_value.calls",
                "pipeline.rkl_value.ms", "pipeline.fertility_log_prob.calls",
                "pipeline.finetune.encoder_calls", "optim.step.ms",
                "data.make_batches.ms") + _TAIL,
    "setup": ("checkpoint.save.ms", "checkpoint.load.ms", "synth.gen.ms"),
}


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("frac"):
        return "frac"
    return "count"


def per_layer_names() -> list[tuple[str, str]]:
    return [(f"{phase}.{name}", layer_unit(name))
            for phase, names in PER_LAYER.items() for name in names]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Bench:
    spec: Spec
    teacher: AR.TeacherModel
    nat: N.NatModel
    sources: dict            # length -> [token ids] per source
    npd_seeds: dict          # length -> seed per source
    distill: dict            # length -> [(src ids, tgt ids)]
    align_pairs: list
    train_teacher: AR.TeacherModel
    student: N.NatModel
    batches: list            # [(pairs, fertilities)] of batch_size each
    snapshot: list           # [(parameter, saved array)] of the training models

    def restore(self) -> None:
        for p, saved in self.snapshot:
            p.data[...] = saved
            p.grad = None


def _structural_models(spec: Spec):
    cfg = ModelConfig(d_model=spec.d_model, d_hidden=4 * spec.d_model,
                      n_layer=spec.n_layer, n_head=2, src_vocab=STRUCT_VOCAB,
                      tgt_vocab=STRUCT_VOCAB, max_len=MAX_LEN,
                      max_fertility=len(FERTILITY_HEAD))
    teacher = AR.TeacherModel(cfg, np.random.default_rng(0))
    teacher.proj.bias.data[EOS] = EOS_BIAS
    nat = N.NatModel(cfg, np.random.default_rng(1))
    nat.fert_head.weight.data[...] = 0.0
    nat.fert_head.bias.data[...] = np.log(FERTILITY_HEAD)
    return teacher, nat


def _round_trip(model, src_vocab, tgt_vocab, path: Path):
    """Save and reload through the checkpoint format; the reloaded model is
    the one measured."""
    P.save_model(path, model, src_vocab, tgt_vocab)
    loaded = P.load_model(path)[0]
    saved = dict(model.named_parameters())
    for name, p in loaded.named_parameters():
        if not np.array_equal(p.data, saved[name].data):
            raise RuntimeError(f"checkpoint round trip changed {name}")
    return loaded


def _planted(lengths, per_length, rng):
    pairs = []
    for n in lengths:
        got, _ = SY.gen_planted_dictionary(per_length, int(rng.integers(2**31)),
                                           min_len=n, max_len=n)
        pairs.extend(got)
    return pairs


def set_up(spec: Spec, seed: int, tmpdir: Path) -> Bench:
    """Corpora, models, checkpoint round trips and warm-up."""
    rng = np.random.default_rng([seed, 1])
    per = spec.sources_per_length
    sources = {n: [rng.integers(len(RESERVED), STRUCT_VOCAB, size=n).tolist()
                   for _ in range(per)] for n in spec.latency_lengths}
    npd_seeds = {n: rng.integers(2**31, size=per).tolist()
                 for n in spec.latency_lengths}

    planted = _planted(spec.distill_lengths, per, rng)
    pv = Vocab.build(s for s, _ in planted)
    enc = encode_corpus(planted, pv, Vocab.build(t for _, t in planted))
    distill = {n: [p for p in enc if len(p[0]) == n] for n in spec.distill_lengths}
    align_pairs = _planted(spec.distill_lengths,
                           spec.align_pairs // len(spec.distill_lengths), rng)

    multimodal, _ = SY.gen_synth_multimodal(spec.train_pairs, int(rng.integers(2**31)),
                                            phrases_per_sent=spec.train_phrases)
    sv = Vocab.build(s for s, _ in multimodal)
    tv = Vocab.build(t for _, t in multimodal)
    aligner = AL.em_train(multimodal)
    ferts = AL.corpus_fertilities(multimodal, aligner, TRAIN_MAX_FERTILITY)
    enc_mm = encode_corpus(multimodal, sv, tv)
    bs = spec.batch_size
    batches = [(enc_mm[i * bs:(i + 1) * bs], ferts[i * bs:(i + 1) * bs])
               for i in range(spec.train_batches)]

    teacher, nat = _structural_models(spec)
    wv = Vocab([f"w{i}" for i in range(STRUCT_VOCAB - len(RESERVED))])
    tcfg = ModelConfig(d_model=spec.d_model, d_hidden=4 * spec.d_model,
                       n_layer=spec.n_layer, n_head=2, src_vocab=len(sv),
                       tgt_vocab=len(tv), max_len=32,
                       max_fertility=TRAIN_MAX_FERTILITY)
    train_teacher = AR.TeacherModel(tcfg, np.random.default_rng(2))
    student = N.NatModel(tcfg, np.random.default_rng(3))

    teacher = _round_trip(teacher, wv, wv, tmpdir / "teacher.nat")
    nat = _round_trip(nat, wv, wv, tmpdir / "nat.nat")
    train_teacher = _round_trip(train_teacher, sv, tv, tmpdir / "train_teacher.nat")
    student = _round_trip(student, sv, tv, tmpdir / "student.nat")
    snapshot = [(p, p.data.copy()) for m in (train_teacher, student)
                for _, p in m.named_parameters()]

    b = Bench(spec, teacher, nat, sources, npd_seeds, distill, align_pairs,
              train_teacher, student, batches, snapshot)
    n = spec.latency_lengths[-1]
    for s in STRATEGIES:
        DECODERS[s](b, b.sources[n][0], n, b.npd_seeds[n][0])
    P.build_distill_corpus(b.distill[spec.distill_lengths[0]][:1], b.teacher)
    for kind in TRAIN_STEPS:
        b.restore()
        TRAIN[kind](b, *batches[0], _optimizer(b, kind), _train_rng(0))
    b.restore()
    return b


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

DECODERS = {
    "greedy": lambda b, src, n, seed: AR.greedy_decode(src, b.teacher, n),
    "beam4": lambda b, src, n, seed: AR.beam_decode(src, b.teacher, BEAM_WIDTH, n),
    "argmax": lambda b, src, n, seed: N.decode_argmax(src, b.nat),
    "npd10": lambda b, src, n, seed: N.decode_npd(src, b.nat, b.teacher,
                                                  NPD_SAMPLES, seed),
}


def _log_probs(logits) -> np.ndarray:
    return T.log_softmax(logits, axis=-1).numpy().astype(np.float64)[0]


def _is_argmax(logp: np.ndarray, out) -> bool:
    """Every token is its row's maximum, up to a float32 near-tie."""
    picked = logp[np.arange(len(out)), out]
    return bool(np.all(picked >= logp.max(axis=-1) - TOL))


def teacher_argmax_ok(teacher, src, out) -> bool:
    """`out` equals the per-position argmax of one teacher-forced pass over
    [BOS] + out, which an incremental decoder must reproduce."""
    with T.no_grad():
        memory = teacher.encode(np.array([src]), np.array([len(src)]))
        logits = teacher.decode_logits(memory, np.array([len(src)]),
                                       np.array([[BOS] + list(out)]),
                                       np.array([len(out) + 1]))
    return _is_argmax(_log_probs(logits)[: len(out)], out)


def parallel_argmax_ok(nat, src, fertility, out) -> bool:
    """`out` is the per-position argmax of one parallel pass over the
    fertility copies, pad excluded, and its length is the fertility sum."""
    copies = N.copy_fertility(list(src), list(fertility))
    if len(copies) != len(out) or len(out) > nat.cfg.max_len:
        return False
    with T.no_grad():
        memory = nat.encode(np.array([src]), np.array([len(src)]))
        logits = nat.decode_logits(memory, np.array([len(src)]),
                                   np.array([copies]), np.array([len(copies)]))
    logp = _log_probs(logits)
    logp[:, PAD] = -np.inf
    return _is_argmax(logp, out)


def npd_scores(b: Bench, src, seed) -> list[float]:
    """Teacher scores of decode_npd's candidates, rebuilt from the public
    pieces: argmax, rounded average, then seeded samples."""
    probs = N.predict_fertility(src, b.nat)
    expected = (probs * np.arange(probs.shape[1])[None, :]).sum(axis=-1)
    cands = [probs.argmax(axis=-1), N.round_half_away(expected)]
    cands += N.sample_fertilities(probs, NPD_SAMPLES - 2, np.random.default_rng(seed))
    outs = [N.translate_given_fertility(src, N.floor_fertility(f, probs), b.nat)
            for f in cands]
    if len(outs[0]) != len(src):
        raise AssertionError("npd argmax candidate is not source-length")
    return AR.score_candidates(src, outs, b.teacher)


def check_decode(b: Bench, strategy: str, src, n: int, seed, out) -> bool:
    if strategy in ("greedy", "beam4"):
        if len(out) != n:
            return False
        return strategy == "beam4" or teacher_argmax_ok(b.teacher, src, out)
    if sum(out.fertility) != len(out.output) or len(out.output) > MAX_LEN:
        return False
    if not parallel_argmax_ok(b.nat, src, out.fertility, out.output):
        return False
    if strategy == "argmax":
        return len(out.output) == n
    scores = npd_scores(b, src, seed)
    best = max(scores)
    return (abs(out.teacher_score - best) <= TOL * max(1.0, abs(best))
            and out.teacher_score >= scores[0] - TOL)


def _fingerprint(out):
    if isinstance(out, N.DecodeResult):
        return (tuple(out.output), tuple(out.fertility), out.teacher_score)
    return tuple(out)


def check_distill(b: Bench, chunk, out) -> bool:
    """Pair count and sources kept; each target is the teacher's greedy
    decode at the default length cap."""
    if len(out.pairs) != len(chunk):
        return False
    for (src, _), (got_src, hyp) in zip(chunk, out.pairs):
        cap = min(AR.default_max_len(len(src)), b.teacher.cfg.max_len - 1)
        if list(got_src) != list(src) or len(hyp) != cap:
            return False
        if not teacher_argmax_ok(b.teacher, src, hyp):
            return False
    return True


def align(pairs):
    return AL.corpus_fertilities(pairs, AL.em_train(pairs))


def check_align(pairs, ferts) -> bool:
    return len(ferts) == len(pairs) and all(
        len(f) == len(s) and sum(f) == len(t) for (s, t), f in zip(pairs, ferts))


def _optimizer(b: Bench, kind: str) -> AdamWarmup:
    model = b.train_teacher if kind == "teacher" else b.student
    return AdamWarmup(list(model.named_parameters()),
                      scale=model.cfg.d_model ** -0.5, warmup=200)


def _train_rng(batch_index: int) -> np.random.Generator:
    return np.random.default_rng([7, batch_index])


TRAIN = {
    "teacher": lambda b, pairs, ferts, opt, rng: AR.ar_train_step(
        D.make_batches(pairs, len(pairs))[0], b.train_teacher, opt),
    "nat": lambda b, pairs, ferts, opt, rng: P.nat_ml_step(
        D.make_batches(pairs, len(pairs), fertilities=ferts)[0], b.student, opt),
    "finetune": lambda b, pairs, ferts, opt, rng: P.finetune_step(
        D.make_batches(pairs, len(pairs), fertilities=ferts)[0], b.student,
        b.train_teacher, LAM, opt, rng),
}


def _losses(out) -> tuple[float, ...]:
    if dataclasses.is_dataclass(out):
        return tuple(float(v) for v in dataclasses.astuple(out))
    return (float(out),)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((24, 64)).astype(np.float32)
_REF_W = [(_REF_RNG.standard_normal((64, 64)) / 8).astype(np.float32)
          for _ in range(32)]


def reference_kernel(reps: int = 200) -> int:
    """Fixed numpy and Python work that uses no natmt code, with natmt's op
    mix: small float32 matmuls over a few hundred KB of weights, reshapes,
    float64 softmax rows, and one recorded closure per step."""
    x, graph = _REF_X, []
    for i in range(reps):
        w = _REF_W[i % len(_REF_W)]
        y = (x @ w).reshape(24, 2, 32).transpose(1, 0, 2).reshape(24, 64)
        z = y.astype(np.float64)
        z = np.exp(z - z.max(axis=-1, keepdims=True))
        x = (z / z.sum(axis=-1, keepdims=True)).astype(np.float32) + _REF_X
        graph.append((x, lambda g, w=w: g @ w.T))
    return len(graph)


class Run:
    """Timer, operation tally and verified outputs shared by the phases, and
    the machine-speed factor that samples are recorded with."""

    def __init__(self, timer: Timer):
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.verified: dict = {}
        self.kernel_s: list[float] = []
        self.scale = 1.0

    def calibrate(self) -> None:
        """Time the reference kernel once. `scale` turns a time measured now
        into the time it would take on a machine that runs the kernel in
        REFERENCE_KERNEL_MS: the median of the last five kernel timings
        follows machine-wide speed changes (on a shared host, stretches of a
        minute can run 25% faster or slower), while changes to natmt, whose
        code the kernel does not use, show in full."""
        t0 = perf_counter()
        reference_kernel()
        self.kernel_s.append(perf_counter() - t0)
        self.scale = REFERENCE_KERNEL_MS / (1e3 * float(np.median(self.kernel_s[-5:])))

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: failed op {what}", file=sys.stderr)

    def attempt(self, what, fn, *args):
        """Timed call; (output, seconds), or None when it raised."""
        try:
            return self.timer.call(fn, *args)
        except Exception:   # a raising op is a failed op; keep measuring
            traceback.print_exc()
            self.attempted += 1
            self._fail(repr(what))
            return None

    def verify(self, key, fingerprint, check) -> None:
        """Full check on the first output for `key`, exact equality with
        that verified output afterwards."""
        self.attempted += 1
        try:
            if key in self.verified:
                ok = self.verified[key] == fingerprint
            else:
                ok = bool(check())
                if ok:
                    self.verified[key] = fingerprint
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self._fail(repr(key))

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.verified, key=repr):
            h.update(repr((key, self.verified[key])).encode())
        return h.hexdigest()


def _delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


_COUNTED = ("teacher.decode_logits.positions", "nat.decode_logits.positions",
            "tensor.op.calls", "tensor.matmul_flop")

# Each phase is a generator that runs one round per `next()` and accumulates
# its samples in `res`.


def latency_phase(b: Bench, run: Run, res: dict):
    lengths = b.spec.latency_lengths
    walls = res["walls"] = {s: defaultdict(list) for s in STRATEGIES}
    counts = res["counts"] = {s: defaultdict(float) for s in STRATEGIES}
    res["units_per_round"] = len(lengths)
    for r in itertools.count():
        i = r % b.spec.sources_per_length
        for n in lengths:
            src, seed = b.sources[n][i], b.npd_seeds[n][i]
            for s in STRATEGIES:
                b.teacher.reset_passes()
                b.nat.reset_passes()
                before = run.timer.snapshot()
                got = run.attempt((s, n, i), DECODERS[s], b, src, n, seed)
                if got is None:
                    continue
                out, dt = got
                walls[s][n].append((dt, run.scale))
                for k, v in _delta(before, run.timer.snapshot()).items():
                    if k in _COUNTED:
                        counts[s][k] += v
                counts[s]["decoder_passes"] += b.teacher.decoder_passes + b.nat.decoder_passes
                counts[s]["sentences"] += 1
                run.verify(("latency", s, n, i), _fingerprint(out),
                           lambda: check_decode(b, s, src, n, seed, out))
        yield


def distill_phase(b: Bench, run: Run, res: dict):
    lengths = b.spec.distill_lengths
    rates = res["rates"] = []
    res["units_per_round"] = len(lengths)
    for r in itertools.count():
        i = r % b.spec.sources_per_length
        chunk = [b.distill[n][i] for n in lengths]
        got = run.attempt(("distill", i), P.build_distill_corpus, chunk, b.teacher)
        if got is not None:
            out, dt = got
            rates.append((len(chunk) / dt, run.scale))
            run.verify(("distill", i), tuple(tuple(h) for _, h in out.pairs),
                       lambda: check_distill(b, chunk, out))
        yield


def align_phase(b: Bench, run: Run, res: dict):
    pairs = b.align_pairs
    rates = res["rates"] = []
    res["units_per_round"] = len(pairs)
    while True:
        got = run.attempt("align", align, pairs)
        if got is not None:
            ferts, dt = got
            rates.append((len(pairs) / dt, run.scale))
            run.verify(("align",), tuple(tuple(f) for f in ferts),
                       lambda: check_align(pairs, ferts))
        yield


def train_phase(b: Bench, run: Run, res: dict):
    walls = res["walls"] = {k: [] for k in TRAIN_STEPS}
    res["finetune_encoder_calls"] = 0.0
    res["units_per_round"] = 1
    for r in itertools.count():
        i = r % len(b.batches)
        pairs, ferts = b.batches[i]
        for kind in TRAIN_STEPS:
            b.restore()
            opt, rng = _optimizer(b, kind), _train_rng(i)
            before = run.timer.snapshot().get("layers.encoder.calls", 0.0)
            got = run.attempt((kind, i), TRAIN[kind], b, pairs, ferts, opt, rng)
            if got is None:
                continue
            out, dt = got
            walls[kind].append((dt, run.scale))
            if kind == "finetune":
                res["finetune_encoder_calls"] += (
                    run.timer.snapshot().get("layers.encoder.calls", 0.0) - before)
            losses = _losses(out)
            run.verify(("train", kind, i), losses,
                       lambda: all(np.isfinite(losses)))
        yield


PHASE_FNS = {"latency": latency_phase, "distill": distill_phase,
             "align": align_phase, "train": train_phase}


def interleave(step, deadline: float, share: dict[str, float]) -> dict[str, int]:
    """Call `step(phase)` for the phase furthest behind its share of wall
    time, until the deadline and at least once per phase. Fine interleaving
    spreads every phase over the whole run, so a stretch of slow machine
    time shifts all metrics a little instead of one phase a lot."""
    spent = dict.fromkeys(share, 0.0)
    rounds = dict.fromkeys(share, 0)
    while True:
        phase = min(spent, key=lambda p: spent[p] / share[p])
        t0 = perf_counter()
        step(phase)
        spent[phase] += perf_counter() - t0
        rounds[phase] += 1
        if perf_counter() >= deadline and all(rounds.values()):
            return rounds


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def _times(samples, scaled: bool) -> list[float]:
    return [t * f if scaled else t for t, f in samples]


def _rates(samples, scaled: bool) -> list[float]:
    return [r / f if scaled else r for r, f in samples]


def _all(by_length: dict) -> list:
    return [w for ws in by_length.values() for w in ws]


def e2e_metrics(setups: list, res: dict, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics; `scaled` gives them at the reference machine
    speed (see `Run.calibrate`), otherwise as measured."""
    def ms(samples, q):
        return float(np.percentile(_times(samples, scaled), q)) * 1e3

    def rate(samples):
        return float(np.median(_rates(samples, scaled)))

    lat = {s: _all(w) for s, w in res["latency"]["walls"].items()}
    train = res["train"]["walls"]
    return {
        "setup_s": float(np.median(_times(setups, scaled))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "greedy_ms_p50": ms(lat["greedy"], 50),
        "greedy_ms_p90": ms(lat["greedy"], 90),
        "beam4_ms_p50": ms(lat["beam4"], 50),
        "argmax_ms_p50": ms(lat["argmax"], 50),
        "argmax_ms_p90": ms(lat["argmax"], 90),
        "npd10_ms_p50": ms(lat["npd10"], 50),
        "npd10_ms_p90": ms(lat["npd10"], 90),
        "distill_sent_per_s": rate(res["distill"]["rates"]),
        "align_pairs_per_s": rate(res["align"]["rates"]),
        "teacher_step_ms": ms(train["teacher"], 50),
        "nat_step_ms": ms(train["nat"], 50),
        "finetune_step_ms": ms(train["finetune"], 50),
    }


def length_criterion(lat: dict) -> dict:
    """Latency-vs-output-length slope per strategy and the greedy/argmax
    ratio at length 20, from per-length medians at matched lengths
    (informational; not gated)."""
    out = {"slope_ms_per_token": {}}
    for s, by_len in lat["walls"].items():
        lengths = sorted(n for n in by_len if by_len[n])
        med = [float(np.median(_times(by_len[n], True))) * 1e3 for n in lengths]
        if len(lengths) >= 2:
            out["slope_ms_per_token"][s] = float(np.polyfit(lengths, med, 1)[0])
    g, a = lat["walls"]["greedy"].get(20), lat["walls"]["argmax"].get(20)
    if g and a:
        out["greedy_over_argmax_at_20"] = float(np.median(_times(g, True))
                                                / np.median(_times(a, True)))
    return out


def exact_counts(res: dict) -> dict:
    """Exact counters from the traced run, per sentence per strategy."""
    out = {}
    for s, c in res["latency"]["counts"].items():
        k = max(1.0, c["sentences"])
        out[s] = {"decoder_passes": c["decoder_passes"] / k,
                  "positions": (c["teacher.decode_logits.positions"]
                                + c["nat.decode_logits.positions"]) / k,
                  "tensor_ops": c["tensor.op.calls"] / k,
                  "matmul_gflop": c["tensor.matmul_flop"] / 1e9 / k}
    train = res["train"]
    out["finetune_encoder_calls_per_step"] = (
        train["finetune_encoder_calls"] / max(1, len(train["walls"]["finetune"])))
    return out


def _traced_layers(bench: Bench, run: Run, deadline: float):
    """Every round runs untraced and then traced on the same inputs; the
    traced rounds give the per-layer metrics, the pair gives the overhead."""
    plain, traced = {}, {}
    gens = {p: fn(bench, run, plain.setdefault(p, {})) for p, fn in PHASE_FNS.items()}
    tgens = {p: fn(bench, run, traced.setdefault(p, {})) for p, fn in PHASE_FNS.items()}
    totals = {p: defaultdict(float) for p in PHASE_FNS}
    untraced_s = dict.fromkeys(PHASE_FNS, 0.0)
    tracer = Tracer()

    def step(phase):
        timer = run.timer
        t0 = timer.timed_s
        next(gens[phase])
        untraced_s[phase] += timer.timed_s - t0
        tracer.install()
        run.timer = tracer
        try:
            before = tracer.snapshot()
            next(tgens[phase])
            for k, v in _delta(before, tracer.snapshot()).items():
                totals[phase][k] += v
        finally:
            run.timer = timer
            tracer.uninstall()

    rounds = interleave(step, deadline, PHASES)
    layers = {}
    for p, n in rounds.items():
        m = layer_metrics(totals[p], n * traced[p]["units_per_round"])
        m["trace_overhead_frac"] = totals[p]["timed_s"] / untraced_s[p] - 1.0
        layers[p] = m
    layers["train"]["pipeline.finetune.encoder_calls"] = \
        exact_counts(traced)["finetune_encoder_calls_per_step"]
    return rounds, layers, traced


def execute(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run: set-up, then the interleaved phases. Returns
    attempted, failed, metrics and information about the run."""
    run = Run(Timer())
    setups = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as tmp:
        for _ in range(spec.setup_repeats):
            run.calibrate()
            t0 = perf_counter()
            bench = set_up(spec, seed, Path(tmp))
            setups.append((perf_counter() - t0, run.scale))
            run.attempted += 1
        if trace:
            setup_tracer = Tracer()
            setup_tracer.install()
            try:
                bench = setup_tracer.call(set_up, spec, seed, Path(tmp))[0]
            finally:
                setup_tracer.uninstall()

    deadline = perf_counter() + seconds
    info = {"workload_spec": dataclasses.asdict(spec), "seed": seed,
            "seconds": seconds}
    if trace:
        rounds, layers, res = _traced_layers(bench, run, deadline)
        layers["setup"] = layer_metrics(setup_tracer.snapshot(), 1)
        metrics = {f"{p}.{name}": float(layers[p].get(name, 0.0))
                   for p, names in PER_LAYER.items() for name in names}
        info["exact_counts"] = exact_counts(res)
        info["layers_all"] = layers
    else:
        res = {}
        gens = {p: fn(bench, run, res.setdefault(p, {})) for p, fn in PHASE_FNS.items()}

        def step(phase):
            run.calibrate()
            next(gens[phase])

        rounds = interleave(step, deadline, PHASES)
        metrics = e2e_metrics(setups, res)
        info.update(raw_metrics=e2e_metrics(setups, res, scaled=False),
                    reference_kernel_ms=1e3 * float(np.median(run.kernel_s)),
                    setup_passes_s=[t for t, _ in setups])
        info["samples"] = {s: len(_all(w)) for s, w in res["latency"]["walls"].items()}
        info["samples"].update({f"{k}_steps": len(v)
                                for k, v in res["train"]["walls"].items()})
    info.update(rounds=rounds, digest=run.digest(),
                verified_outputs=len(run.verified),
                ops_failed_frac=run.failed / max(1, run.attempted),
                length_criterion=length_criterion(res["latency"]))
    return {"attempted": run.attempted, "failed": run.failed,
            "metrics": metrics, "info": info}
