"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import natmt.data as D  # noqa: E402
import natmt.teacher as AR  # noqa: E402
import workload as W  # noqa: E402
from spans import Timer, Tracer, layer_metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> W.Spec:
    spec = W.WORKLOADS[name]
    return dataclasses.replace(
        spec, latency_lengths=spec.latency_lengths[:2],
        distill_lengths=spec.distill_lengths[:2], sources_per_length=1,
        align_pairs=20, train_pairs=24, batch_size=4, train_batches=1,
        d_model=16, n_layer=1, setup_repeats=1)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(W.E2E)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == W.per_layer_names()
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    res = W.execute(tiny(name), seed=3, seconds=0.2, trace=trace, workdir=tmp_path)
    expected = W.per_layer_names() if trace else list(W.E2E)
    assert list(res["metrics"]) == [n for n, _ in expected]
    assert all(math.isfinite(v) for v in res["metrics"].values())
    if not trace:
        assert all(v > 0 for v in res["metrics"].values())
    assert res["attempted"] > 0 and res["failed"] == 0
    assert list(tmp_path.iterdir()) == []   # checkpoints are cleaned up


def test_self_times_account_for_the_timed_wall(tmp_path):
    b = W.set_up(tiny("short"), 3, tmp_path)
    n = b.spec.latency_lengths[-1]
    original = (D.pad_block, AR.TeacherModel.decode_logits)
    tracer = Tracer()
    tracer.install()
    try:
        assert AR.pad_block is not original[0]
        for s in W.STRATEGIES:
            tracer.call(W.DECODERS[s], b, b.sources[n][0], n, b.npd_seeds[n][0])
    finally:
        tracer.uninstall()
    assert (D.pad_block, AR.TeacherModel.decode_logits) == original
    assert AR.pad_block is D.pad_block
    m = layer_metrics(tracer.snapshot(), 1)
    self_ms = sum(v for k, v in m.items() if k.endswith(".ms") and k != "other.ms")
    self_ms += m["tensor.op_ms"]
    assert self_ms + m["other.ms"] == pytest.approx(tracer.timed_s * 1e3, rel=1e-9)
    assert m["teacher.decode_logits.calls"] > 0 and m["tensor.matmul_gflop"] > 0


def _flip(tokens, k=0):
    out = list(tokens)
    out[k] = (out[k] + 1) % W.STRUCT_VOCAB
    return out


@pytest.mark.parametrize("strategy", W.STRATEGIES)
def test_flipped_token_counts_as_failed(strategy, tmp_path):
    b = W.set_up(tiny("short"), 3, tmp_path)
    n = b.spec.latency_lengths[-1]
    src, seed = b.sources[n][0], b.npd_seeds[n][0]
    good = W.DECODERS[strategy](b, src, n, seed)
    if isinstance(good, list):
        bad = _flip(good)
    else:
        bad = dataclasses.replace(good, output=_flip(good.output))
    if strategy == "beam4":   # beam outputs are checked for length only
        bad = good[:-1]

    run = W.Run(Timer())
    run.verify("first", W._fingerprint(bad),
               lambda: W.check_decode(b, strategy, src, n, seed, bad))
    run.verify("second", W._fingerprint(good),
               lambda: W.check_decode(b, strategy, src, n, seed, good))
    # a later output for a verified input must equal the verified one
    run.verify("second", W._fingerprint(bad), lambda: True)
    assert (run.attempted, run.failed) == (3, 2)


def _cli(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_each_metric_with_its_unit():
    out = _cli(["--workload", "short", "--seed", "5", "--seconds", "0.1",
                "--trace", "0"], ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    for name, unit in W.E2E:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(W.E2E)
    info = json.loads(lines[-2].removeprefix("info "))
    assert info["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert info["ops_failed_frac"] == 0.0


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli(["--workload", "short", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
