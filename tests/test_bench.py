"""Benchmark harness: pass-count instrumentation, aggregates, TSV reports."""

import dataclasses
import importlib.util
import statistics
from pathlib import Path

import numpy as np
import pytest

import natmt.bench as B
import natmt.data as D
import natmt.nat as N
import natmt.pipeline as P
import natmt.teacher as AR
import natmt.tensor as T
from natmt.config import ModelConfig
from natmt.data import BOS, EOS, DataError
from natmt.optim import AdamWarmup


def tiny_cfg():
    return ModelConfig(d_model=16, d_hidden=32, n_layer=1, n_head=2,
                       src_vocab=12, tgt_vocab=12, max_len=40, max_fertility=4)


@pytest.fixture(scope="module")
def models():
    teacher = AR.TeacherModel(tiny_cfg(), np.random.default_rng(3))
    teacher.proj.bias.data[EOS] = -30.0  # keep untrained decodes non-empty
    nat = N.NatModel(tiny_cfg(), np.random.default_rng(4))
    return teacher, nat


def test_parse_strategy():
    assert B.parse_strategy("greedy") == ("greedy", None)
    assert B.parse_strategy("beam") == ("beam", 4)
    assert B.parse_strategy("npd:7") == ("npd", 7)
    for bad in ("sampled", "npd:x", "beam:0", "beam:1_0", "npd:+4", "npd: 4",
                "npd:\u0663"):
        with pytest.raises(ValueError):
            B.parse_strategy(bad)


def test_parse_strategy_refuses_an_argument_above_the_ceiling():
    assert B.parse_strategy("beam:1024") == ("beam", 1024)
    assert B.parse_strategy("npd:1024") == ("npd", 1024)
    for spec in ("beam:1000000000000", "npd:1000000000000"):
        with pytest.raises(DataError, match=f"at most 1024 in '{spec}'"):
            B.parse_strategy(spec)


@pytest.mark.parametrize("spec", ["greedy:2", "argmax:1", "average:3"])
def test_parse_strategy_refuses_argument_it_would_ignore(spec):
    with pytest.raises(DataError, match="takes no argument"):
        B.parse_strategy(spec)


@pytest.mark.parametrize("spec", ["greedy", "beam:2", "argmax", "average",
                                  "npd:3"])
def test_decoder_equals_direct_call(models, spec):
    teacher, nat = models
    direct = {"greedy": lambda s: AR.greedy_decode(s, teacher),
              "beam:2": lambda s: AR.beam_decode(s, teacher, b=2),
              "argmax": lambda s: N.decode_argmax(s, nat).output,
              "average": lambda s: N.decode_average(s, nat).output,
              "npd:3": lambda s: N.decode_npd(s, nat, teacher, 3, 5).output}[spec]
    decode = B.decoder(spec, teacher, nat, seed=5)
    for src in ([4, 5, 6], [7, 7, 7], [11, 10, 9, 5]):  # beam 2 and 4 differ on the last two
        res = decode(src)
        assert res.output == direct(src)


@pytest.mark.parametrize("spec, teacher, nat, missing", [
    ("greedy", False, True, "teacher"), ("beam:2", False, True, "teacher"),
    ("argmax", True, False, "parallel"), ("average", True, False, "parallel"),
    ("npd:3", True, False, "parallel"), ("npd:3", False, True, "teacher")])
def test_decoder_refuses_missing_model(models, spec, teacher, nat, missing):
    t, n = models
    with pytest.raises(DataError,
                       match=f"strategy '{spec}' needs a {missing} model"):
        B.decoder(spec, t if teacher else None, n if nat else None)


def test_tensor_ops_per_decode_are_pinned(monkeypatch):
    """Graph ops are the per-call overhead of batch-size-one decoding. With
    2-layer models, where each encoder runs 24 ops and every decoder pass
    runs on arrays, a cached teacher step runs one op (the log-softmax), an
    `argmax` decode 27 (the encoder, the fertility head and its softmax, the
    log-softmax) and an `npd:10` decode 52 (both encoders, the fertility
    head and its softmax, two log-softmaxes), whatever the length."""
    cfg = dataclasses.replace(tiny_cfg(), n_layer=2)
    teacher = AR.TeacherModel(cfg, np.random.default_rng(3))
    nat = N.NatModel(cfg, np.random.default_rng(4))
    src = [4, 5, 6, 7, 8]
    ops = [0]
    make = T._make

    def counting_make(*args):
        ops[0] += 1
        return make(*args)

    with T.no_grad():
        memory = teacher.encode(np.array([src]), np.array([len(src)]))
        cache = AR.DecoderCache(teacher, memory, np.array([len(src)]))
        AR._step_logprobs(teacher, [[BOS]], cache)
        monkeypatch.setattr(T, "_make", counting_make)
        AR._step_logprobs(teacher, [[BOS, 9]], cache)
    assert ops[0] == 1
    ops[0] = 0
    N.decode_argmax(src, nat)
    assert ops[0] == 27
    ops[0] = 0
    N.decode_npd(src, nat, teacher, 10)
    assert ops[0] == 52


def test_tensor_ops_per_training_step_are_pinned(monkeypatch):
    """The gradient passes record the autograd graph, and its op count is
    the structure their gradients are summed over. With 2-layer models and
    a ragged batch of two pairs, one teacher step, one parallel step and one
    fine-tuning step with every loss term record these many ops."""
    cfg = dataclasses.replace(tiny_cfg(), n_layer=2)
    teacher = AR.TeacherModel(cfg, np.random.default_rng(3))
    nat = N.NatModel(cfg, np.random.default_rng(4))
    batch = D.make_batches([([4, 5, 6], [7, 8]), ([9, 4], [10, 11, 5])], 2,
                           fertilities=[[1, 0, 1], [2, 1]])[0]
    ops = [0]
    make = T._make

    def counting_make(*args):
        ops[0] += 1
        return make(*args)

    monkeypatch.setattr(T, "_make", counting_make)
    counts = []
    for step in (
            lambda: AR.ar_train_step(
                batch, teacher, AdamWarmup(teacher.named_parameters(), 0.1)),
            lambda: P.nat_ml_step(batch, nat, AdamWarmup(nat.named_parameters(), 0.1)),
            lambda: P.finetune_step(batch, nat, teacher, 0.5,
                                    AdamWarmup(nat.named_parameters(), 0.1),
                                    np.random.default_rng(0))):
        ops[0] = 0
        step()
        counts.append(ops[0])
    assert counts == [69, 91, 137]


def test_bench_counts_passes_per_contract(models):
    teacher, nat = models
    testset = [[4, 5, 6], [5, 6, 7, 4]]
    rep = B.bench_latency(testset, teacher, nat,
                          strategies=("greedy", "argmax", "npd:3"),
                          repeats=1)
    for src, r in zip(testset, rep.sentences["greedy"]):
        teacher.reset_passes()
        out = AR.greedy_decode(src, teacher)
        assert r.out_len == len(out)
        assert r.passes == teacher.decoder_passes
    for r in rep.sentences["argmax"]:
        assert r.passes == 1
    for r in rep.sentences["npd:3"]:
        assert r.passes == 6  # three parallel decodes plus three scorings


def test_bench_greedy_passes_on_terminating_decode(models):
    _, nat = models
    teacher = AR.TeacherModel(tiny_cfg(), np.random.default_rng(3))
    teacher.proj.bias.data[EOS] = 50.0  # end marker wins immediately
    rep = B.bench_latency([[4, 5, 6]], teacher, nat,
                          strategies=("greedy",), repeats=1)
    r = rep.sentences["greedy"][0]
    assert r.out_len == 0 and r.passes == r.out_len + 1


def test_bench_aggregates_and_speedup(models):
    teacher, nat = models
    testset = [[4, 5], [5, 6, 7]]
    rep = B.bench_latency(testset, teacher, nat,
                          strategies=("beam:2", "argmax"), repeats=2)
    assert rep.baseline == "beam:2"
    for spec in ("beam:2", "argmax"):
        recs = rep.sentences[spec]
        assert len(recs) == len(testset)
        assert all(r.wall > 0 for r in recs)
        assert rep.mean[spec] == statistics.fmean(r.wall for r in recs)
        assert rep.median[spec] == statistics.median(r.wall for r in recs)
    assert rep.speedup("argmax") == rep.mean["beam:2"] / rep.mean["argmax"]
    assert rep.speedup("beam:2") == 1.0


def test_bench_argument_errors(models):
    teacher, nat = models
    with pytest.raises(ValueError, match="empty"):
        B.bench_latency([], teacher, nat)
    with pytest.raises(ValueError, match="teacher"):
        B.bench_latency([[4]], None, nat, strategies=("greedy",))
    with pytest.raises(ValueError, match="parallel"):
        B.bench_latency([[4]], teacher, None, strategies=("argmax",))
    with pytest.raises(ValueError, match="repeat"):
        B.bench_latency([[4]], teacher, nat, strategies=("greedy",), repeats=0)


def test_latency_slope_on_synthetic_stats():
    recs = [B.SentenceStat(n, n, 0.002 * n + 0.01, 1) for n in (2, 4, 6, 8)]
    assert B.latency_slope(recs) == pytest.approx(0.002, rel=1e-6)
    with pytest.raises(ValueError, match="distinct"):
        B.latency_slope([B.SentenceStat(3, 3, 0.1, 1)] * 2)


def test_latency_tsv_round_trip(tmp_path, models):
    teacher, nat = models
    rep = B.bench_latency([[4, 5], [5, 6, 7]], teacher, nat,
                          strategies=("greedy", "argmax"), repeats=1)
    path = tmp_path / "latency.tsv"
    B.write_latency_tsv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["strategy", "src_len", "out_len",
                                    "wall_s", "passes"]
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split("\t")
    assert first[0] == "greedy" and int(first[1]) == 2
    float(first[3])  # parses as a number


def test_npd_curve_rows_and_tsv(tmp_path, models):
    teacher, nat = models
    testset = [[4, 5], [6, 7]]
    refs = [[7, 8], [9, 10]]
    rows = B.npd_quality_curve(testset, refs, nat, teacher, (1, 2), seed=0)
    assert [r[0] for r in rows] == [1, 2]
    assert rows[1][2] >= rows[0][2]  # more candidates never score worse
    B.write_npd_curve_tsv(rows, tmp_path / "npd.tsv")
    lines = (tmp_path / "npd.tsv").read_text().splitlines()
    assert lines[0].startswith("samples\t") and len(lines) == 3


def test_multimodal_pipeline_script_smoke(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_multimodal_pipeline.py"
    spec = importlib.util.spec_from_file_location("run_multimodal_pipeline", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out-dir", str(tmp_path), "--size", "40",
                        "--dev-size", "10", "--teacher-steps", "3",
                        "--nat-steps", "3", "--skip-finetune"]) == 0
    curve = (tmp_path / "npd_curve.tsv").read_text().splitlines()
    assert curve[0].split("\t") == ["samples", "bleu", "mean_teacher_score"]
    assert [row.split("\t")[0] for row in curve[1:]] == ["1", "2", "5", "10", "20"]
    for name in ("summary.txt", "learning_curve.tsv"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_multimodal_pipeline_script_leaves_out_empty_distilled_targets(
        tmp_path, monkeypatch):
    decode_batch = AR.greedy_decode_batch
    calls = []

    def first_distilled_row_empty(srcs, *args):
        out = decode_batch(srcs, *args)
        if len(srcs) > 1 and not calls:   # one source: greedy_decode's dev decodes
            calls.append(srcs)
            out[0] = []
        return out

    monkeypatch.setattr(AR, "greedy_decode_batch", first_distilled_row_empty)
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_multimodal_pipeline.py"
    spec = importlib.util.spec_from_file_location("run_multimodal_pipeline", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out-dir", str(tmp_path), "--size", "40",
                        "--dev-size", "10", "--teacher-steps", "3",
                        "--nat-steps", "3", "--skip-finetune"]) == 0
    assert calls
    assert "1 empty target(s) left out" in (tmp_path / "summary.txt").read_text()


def test_learning_curve_tsv(tmp_path):
    records = [{"step": 1, "phase": "teacher", "loss": 2.5, "wall": 0.1},
               {"step": 2, "phase": "teacher", "loss": 2.0, "wall": 0.2}]
    B.write_learning_curve_tsv(records, tmp_path / "curve.tsv")
    lines = (tmp_path / "curve.tsv").read_text().splitlines()
    assert lines[1].split("\t")[:3] == ["1", "teacher", "2.500000"]
    assert len(lines) == 3
