"""Run the perfbench harness on both workloads and write BENCH_<TAG>.json.

    python3 scripts/bench.py --tag TAG

For `short` and then `long`, runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 45 --trace T

with T = 0 and then T = 1, each in a fresh process from the repository root,
and writes `BENCH_<TAG>.json` there. Per workload the file holds the
end-to-end metrics (the `--trace 0` run), the per-layer metrics (the
`--trace 1` run) and every run's command, `--seconds`, output digest,
operation counts and `info` line. At the top it holds the environment, the
git commit (`git rev-parse HEAD`) and the git tree ids of `src` and
`perfbench` in it, which name the measured code even if the commit is later
rewritten. The digest depends on `--seconds`, so compare digests only
between runs of equal `--seconds`.

Exits 1, writing nothing, when a tracked file differs from HEAD (the commit
would not name the measured tree; commit first), when a run exits non-zero,
prints output it cannot parse, or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("short", "long")
SEED = 1
SECONDS = 45.0


class BenchError(Exception):
    pass


def parse_run(text: str) -> dict:
    """The metrics ({name: {"value", "unit"}}), `info` and operation counts
    of one `perfbench/run.py` stdout: `name value unit` lines, one
    `info {...}` line and a final JSON line, whose metrics must agree with
    the lines."""
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("empty output")
    try:
        summary = json.loads(lines[-1])
        metrics, info = {}, None
        for line in lines[:-1]:
            if line.startswith("info "):
                info = json.loads(line[len("info "):])
            else:
                name, value, unit = line.split(" ", 2)
                metrics[name] = {"value": float(value), "unit": unit}
    except ValueError as exc:
        raise BenchError(f"unparsable output: {exc}") from None
    if info is None:
        raise BenchError("no info line")
    if metrics != summary.get("metrics"):
        raise BenchError("metric lines disagree with the final JSON line")
    return {"metrics": metrics, "info": info, "correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"]}


def run(workload: str, trace: int) -> dict:
    """One perfbench run in a fresh process, parsed; refuses a failed run."""
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{SECONDS:g}", "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True)
    command = " ".join(["python3", *args])
    if proc.returncode:
        raise BenchError(f"{command} exited {proc.returncode}:\n{proc.stderr}")
    try:
        parsed = parse_run(proc.stdout)
    except BenchError as exc:
        raise BenchError(f"{command}: {exc}") from None
    if parsed["failed"] or not parsed["correct"]:
        raise BenchError(f"{command}: {parsed['failed']} of "
                         f"{parsed['attempted']} operations failed")
    return {"command": command, "seconds": SECONDS, "trace": trace,
            "digest": parsed["info"].get("digest"), **parsed}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.tag):
        ap.error(f"--tag must be letters, digits, '_', '.' or '-', got {args.tag!r}")
    if git("status", "--porcelain", "--untracked-files=no"):
        print("bench: tracked files differ from HEAD; commit them first",
              file=sys.stderr)
        return 1
    workloads = {}
    try:
        for workload in WORKLOADS:
            runs = [run(workload, trace) for trace in (0, 1)]
            workloads[workload] = {
                "end_to_end": runs[0].pop("metrics"),
                "per_layer": runs[1].pop("metrics"),
                "runs": runs}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    first = workloads[WORKLOADS[0]]["runs"][0]
    report = {"tag": args.tag, "commit": git("rev-parse", "HEAD"),
              "trees": {d: git("rev-parse", f"HEAD:{d}") for d in ("src", "perfbench")},
              "seed": SEED, "seconds": SECONDS,
              "environment": first["info"]["environment"],
              "workloads": workloads}
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
