"""What every workload module shares: paths, child environments and
process bookkeeping.

Every child runs the program from the checkout's ``src/`` with a fixed
hash seed (so exploration order, and therefore timing, repeats) and
with its verdict cache pointed into the run's private directory.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, Sequence

import stats

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable

#: Seconds any single child may take before it is killed.
CHILD_TIMEOUT_S = 150.0
#: Seconds a stopped server gets to drain and exit before its whole
#: process group is killed.
STOP_GRACE_S = 20.0


@dataclasses.dataclass
class Run:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    run_dir: str

    def path(self, *parts: str) -> str:
        return os.path.join(self.run_dir, *parts)

    def env(self, **extra: str) -> Dict[str, str]:
        """The environment of a child that runs the program."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = "0"
        env["REPRO_CACHE_DIR"] = self.path("cache")
        env.pop("REPRO_CACHE", None)
        env.update(extra)
        return env


@dataclasses.dataclass
class Finished:
    """A child that ran to completion."""

    returncode: int
    t0: float
    t1: float
    maxrss_kb: int
    stdout: str

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def run_child(argv: Sequence[str], env: Dict[str, str], out_path: str) -> Finished:
    """Run ``argv`` to completion, timing it from just before the spawn
    to the moment it is reaped and taking its own peak RSS from
    ``wait4``.  Stdout goes to ``out_path`` (a pipe could fill and stall
    the child); stderr is discarded."""
    with open(out_path, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    return Finished(proc.returncode, t0, t1, usage.ru_maxrss, stdout)


def stop_group(proc: subprocess.Popen) -> None:
    """Stop ``proc``, a process-group leader, and everything in its process
    group (a server's spawned attempt workers): SIGTERM, up to
    :data:`STOP_GRACE_S` to exit, then SIGKILL to the group; returns
    once the group is empty."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.01)


def import_probe(run: Run) -> Dict[str, float]:
    """``cli.import_s``: ``import repro.cli`` minus a bare interpreter
    start (medians of five each), and numpy's share of that import
    from ``-X importtime``."""
    reps = 2 if run.smoke else 5
    bare = [
        run_child([PYTHON, "-c", "pass"], run.env(), run.path("probe.out")).wall
        for _ in range(reps)
    ]
    full = [
        run_child(
            [PYTHON, "-c", "import repro.cli"], run.env(), run.path("probe.out")
        ).wall
        for _ in range(reps)
    ]
    proc = subprocess.run(
        [PYTHON, "-X", "importtime", "-c", "import repro.cli"],
        env=run.env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1])
    total = cumulative.get("repro.cli", 0)
    return {
        "cli.import_s": stats.median(full) - stats.median(bare),
        "cli.import_numpy_frac": cumulative.get("numpy", 0) / total if total else 0.0,
    }
