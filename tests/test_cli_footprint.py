"""What a process loads for ``repro --help``, a warm verdict and the
engines themselves.

Each command runs as a real ``python`` child under ``-X importtime``,
whose report names every module the process imported.  Neither
``--help`` nor a cache hit may load numpy or any engine package: they
cost a parser build and one cache read.  The engines are pure python,
so importing them must not load numpy either.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: ``repro`` subpackages a help or cache-hit process must not import.
ENGINE_PACKAGES = (
    "analyze", "core", "faults", "gen", "ioa", "lint", "sim",
    "systems", "timed", "zones", "runner", "serve", "dist",
)

#: Verdict commands (``argv`` less ``--json``) whose second run must be a
#: cache hit.
WARM_COMMANDS = (
    ("lint", "rm"),
    ("analyze", "fischer"),
    ("check", "fischer"),
    ("perturb", "rm", "--epsilon", "1/8"),
)

#: Modules whose import pulls in a verification engine.
ENGINE_ENTRY_POINTS = (
    "repro.zones.zone_graph", "repro.core.checker", "repro.ioa.explorer",
    "repro.faults", "repro.gen.fuzzer",
)


def _child(argv, cache_dir):
    """``(exit code, stdout, imported module names)`` of one
    ``python -X importtime <argv>`` child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime"] + list(argv),
        env=env, capture_output=True, text=True, timeout=300,
    )
    modules = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            modules.add(line.rsplit("|", 1)[1].strip())
    return proc.returncode, proc.stdout, modules


def _run(args, cache_dir):
    return _child(["-m", "repro"] + list(args), cache_dir)


def _numpy_modules(modules):
    return sorted(m for m in modules if m == "numpy" or m.startswith("numpy."))


def _engine_modules(modules):
    prefixes = tuple("repro.{}".format(p) for p in ENGINE_PACKAGES)
    return _numpy_modules(modules) + sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_help_loads_no_engine(tmp_path):
    code, out, modules = _run(["--help"], tmp_path)
    assert code == 0
    assert "repro.cli" in modules
    assert _engine_modules(modules) == []


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("verdicts")
    for argv in WARM_COMMANDS:
        code, out, _ = _run(list(argv) + ["--json"], cache_dir)
        assert json.loads(out)["cached"] is False, (argv, code)
    return cache_dir


@pytest.mark.parametrize("argv", WARM_COMMANDS, ids="-".join)
def test_warm_hit_loads_no_engine(warm_cache, argv):
    code, out, modules = _run(list(argv) + ["--json"], warm_cache)
    assert code == 0
    assert json.loads(out)["cached"] is True
    assert "repro.cache.store" in modules
    assert _engine_modules(modules) == []


@pytest.mark.parametrize("argv", WARM_COMMANDS, ids="-".join)
def test_warm_text_hit_loads_no_engine(warm_cache, argv):
    # The text renderers answer a hit with what the JSON does: the
    # cache entry plus stdlib formatting (``repro.table``).
    code, out, modules = _run(argv, warm_cache)
    assert code == 0
    assert "verdict: ok" in out
    assert "repro.cache.store" in modules
    assert _engine_modules(modules) == []


def test_engines_load_no_numpy(tmp_path):
    code, _, modules = _child(
        ["-c", "import " + ", ".join(ENGINE_ENTRY_POINTS)], tmp_path
    )
    assert code == 0
    assert set(ENGINE_ENTRY_POINTS) <= modules
    assert _numpy_modules(modules) == []
