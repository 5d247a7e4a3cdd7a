"""Benchmark harness: pass-count instrumentation, aggregates, TSV reports."""

import importlib.util
import statistics
from pathlib import Path

import numpy as np
import pytest

import natmt.bench as B
import natmt.nat as N
import natmt.teacher as AR
from natmt.config import ModelConfig
from natmt.data import EOS


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
    for bad in ("sampled", "npd:x", "beam:0"):
        with pytest.raises(ValueError):
            B.parse_strategy(bad)


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


def test_structural_latency_script_matches_output_lengths(tmp_path, capsys):
    # every strategy emits exactly the source length, so speedups compare
    # decodes of equal output length
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_latency_bench.py"
    spec = importlib.util.spec_from_file_location("run_latency_bench", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "latency.tsv"
    assert script.main(["--out", str(out), "--lengths", "3", "7",
                        "--per-length", "1", "--repeats", "1",
                        "--d-model", "16", "--n-layer", "1"]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert {r[0] for r in rows} == {"greedy", "beam:4", "argmax", "average",
                                    "npd:10"}
    for strategy, src_len, out_len, _, _ in rows:
        assert out_len == src_len, strategy


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


def test_learning_curve_tsv(tmp_path):
    records = [{"step": 1, "phase": "teacher", "loss": 2.5, "wall": 0.1},
               {"step": 2, "phase": "teacher", "loss": 2.0, "wall": 0.2}]
    B.write_learning_curve_tsv(records, tmp_path / "curve.tsv")
    lines = (tmp_path / "curve.tsv").read_text().splitlines()
    assert lines[1].split("\t")[:3] == ["1", "teacher", "2.500000"]
    assert len(lines) == 3
