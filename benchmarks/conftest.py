"""Shared helpers for the benchmark/experiment harness.

Each ``bench_*.py`` file regenerates one experiment from EXPERIMENTS.md:
it prints the paper-vs-measured rows (via :func:`emit`, which suspends
pytest's output capture so the tables appear in ``bench_output.txt``)
and times the underlying machinery with pytest-benchmark.
"""

import sys

from repro.table import Table

_CONFIG = None


def pytest_configure(config):
    global _CONFIG
    _CONFIG = config


def _uncaptured_write(text: str) -> None:
    capman = None
    if _CONFIG is not None:
        capman = _CONFIG.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            sys.stdout.write(text)
            sys.stdout.flush()
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def emit(table: Table) -> None:
    """Print a report table around pytest's output capture."""
    _uncaptured_write("\n" + table.render() + "\n")


def emit_line(text: str) -> None:
    _uncaptured_write(text + "\n")
