"""The benchmark's own checks: its correctness gate must be able to fail.

Run from the repository root (about a minute)::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# fewest cases; the minimum units (one evaluate pass, each case once) set the time
WORKLOAD = "mri-large"
ARGS = ["--workload", WORKLOAD, "--seed", "0", "--seconds", "1", "--trace", "0"]


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *ARGS, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_default_seed_matches_recorded_digests():
    proc = bench()
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] is True
    assert result["failed"] == 0
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names


def test_wrong_digest_exits_nonzero(tmp_path):
    table = json.loads((ROOT / "bench" / "digests.json").read_text())
    table[WORKLOAD]["artifacts"]["anova.csv"] = "0" * 64
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps(table))
    proc = bench("--digests", str(wrong))
    assert proc.returncode != 0
    assert last_json(proc)["correct"] is False
    assert "digests at the default seed differ" in proc.stderr


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
