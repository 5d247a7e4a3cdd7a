"""`scripts/fingerprint.py` is deterministic: two processes with different
string-hash seeds print the same hash for every stage. No hash is pinned,
because they depend on the BLAS build."""

import os
import subprocess
import sys
from pathlib import Path

import natmt

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
STAGES = ("teacher", "distill", "align", "nat", "finetune",
          "greedy", "beam:2", "argmax", "average", "npd:5", "score")


def _fingerprint(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        [str(Path(natmt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    return proc.stdout.splitlines()


def test_fingerprint_is_reproducible_across_processes():
    first, second = _fingerprint("1"), _fingerprint("2")
    assert [line.split()[0] for line in first] == [
        f"{shape}.{stage}" for shape in ("1x16", "2x32", "2x24") for stage in STAGES]
    assert all(len(line.split()[1]) == 64 for line in first)
    assert first == second
