import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def run_bench(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_runs_every_workload_in_under_a_minute():
    began = time.monotonic()
    proc = run_bench(ROOT, "--smoke", "--seed", "0")
    elapsed = time.monotonic() - began
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert elapsed < 60.0, "smoke run took {:.1f}s".format(elapsed)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "cli-oneshot", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
