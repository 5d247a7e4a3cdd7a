"""`scripts/bench.py` parses what `perfbench/run.py` prints: checked on the
output of one real, very short run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
bench_script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_script)


@pytest.fixture(scope="module")
def short_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


def test_parser_reads_every_metric_info_and_operation_count(short_run):
    got = bench_script.parse_run(short_run)
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(got["metrics"]) == names
    assert all(isinstance(m["value"], float) for m in got["metrics"].values())
    summary = json.loads(short_run.splitlines()[-1])
    assert got["metrics"] == summary["metrics"]
    assert (got["correct"], got["attempted"], got["failed"]) == (
        True, summary["attempted"], 0)
    assert got["info"]["seconds"] == 0.1 and len(got["info"]["digest"]) == 64


@pytest.mark.parametrize("damage", ["metric_line", "info_line", "last_line", "empty"])
def test_parser_refuses_damaged_output(short_run, damage):
    lines = short_run.splitlines()
    if damage == "metric_line":
        name, value, unit = lines[0].split(" ", 2)
        lines[0] = f"{name} {float(value) + 1} {unit}"
    elif damage == "info_line":
        lines = [line for line in lines if not line.startswith("info ")]
    elif damage == "last_line":
        lines = lines[:-1]
    else:
        lines = []
    with pytest.raises(bench_script.BenchError):
        bench_script.parse_run("\n".join(lines))
