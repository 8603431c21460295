"""Engine selection and the fork-pool substrate of :mod:`repro.par`.

The parallel engine is *opt-in and process-wide*, mirroring the
telemetry pattern of :mod:`repro.obs.instrument`: engines consult
:func:`current_engine` (serial unless something was installed) and the
CLI scopes a choice with :func:`engine_scope`.  Individual calls can
still override via their ``engine=`` keyword.

Parallelism uses the ``fork`` start method deliberately:

- shipped automata close over :class:`~fractions.Fraction` parameters
  and local helper functions, which do not pickle — ``fork`` inherits
  them by memory image instead of by value;
- the forked children inherit the parent's hash seed, so set/dict
  iteration order inside a worker matches what the same code would do
  serially in the parent — a prerequisite for the byte-identical
  deterministic merges of :mod:`repro.par.explorer` and
  :mod:`repro.par.obligations`.

Where ``fork`` is unavailable (non-POSIX platforms, or inside the
daemonic workers of :mod:`repro.runner`, which may not have children)
the engine degrades to serial and counts ``par.fallbacks`` — callers
always get the same verdicts, just without the speedup.
"""

from __future__ import annotations

import multiprocessing
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.catalog import ENGINE_KINDS
from repro.errors import ReproError
from repro.obs import instrument as _telemetry

__all__ = [
    "ENGINE_KINDS",
    "EngineConfig",
    "EngineUnavailable",
    "current_engine",
    "set_engine",
    "engine_scope",
    "resolve_engine",
    "default_workers",
    "shard_items",
    "ForkPool",
]

#: Hard cap on worker processes (beyond this the per-level merge cost
#: dominates any speedup on the shipped workloads).
MAX_WORKERS = 16


class EngineUnavailable(ReproError):
    """Raised internally when a fork pool cannot be built here (no
    ``fork`` start method, daemonic process, or too few workers) — the
    parallel entry points catch it and fall back to serial."""


@dataclass(frozen=True)
class EngineConfig:
    """One resolved engine choice.

    ``workers=None`` means "pick from the machine" (see
    :func:`default_workers`); ``min_batch`` is the frontier size below
    which a level is expanded inline — shipping a two-state level to a
    pool costs more than expanding it.
    """

    kind: str = "serial"
    workers: Optional[int] = None
    min_batch: int = 8

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ReproError(
                "unknown engine {!r}; expected one of {}".format(
                    self.kind, ", ".join(ENGINE_KINDS)
                )
            )
        if self.workers is not None and self.workers < 1:
            raise ReproError("engine workers must be >= 1")
        if self.min_batch < 1:
            raise ReproError("engine min_batch must be >= 1")

    @property
    def parallel(self) -> bool:
        return self.kind == "parallel"


#: The process-wide engine; serial unless the CLI (or a test) installs
#: a parallel config.  Checkers read this through
#: :func:`current_engine` when their ``engine=`` keyword is ``None``.
_ENGINE = EngineConfig()


def current_engine() -> EngineConfig:
    """The process-wide engine configuration."""
    return _ENGINE


def set_engine(config: Optional[Union[str, EngineConfig]]) -> EngineConfig:
    """Install ``config`` (or a kind name; ``None`` resets to serial)
    as the process-wide engine and return it."""
    global _ENGINE
    _ENGINE = _coerce(config)
    return _ENGINE


@contextmanager
def engine_scope(
    config: Optional[Union[str, EngineConfig]],
    workers: Optional[int] = None,
) -> Iterator[EngineConfig]:
    """Scope an engine choice: install for the ``with`` block, then
    restore whatever was active before (scopes nest)."""
    global _ENGINE
    chosen = _coerce(config)
    if workers is not None:
        chosen = replace(chosen, workers=workers)
    previous = _ENGINE
    _ENGINE = chosen
    try:
        yield chosen
    finally:
        _ENGINE = previous


def _coerce(config: Optional[Union[str, EngineConfig]]) -> EngineConfig:
    if config is None:
        return EngineConfig()
    if isinstance(config, EngineConfig):
        return config
    return EngineConfig(kind=str(config))


def resolve_engine(
    engine: Optional[Union[str, EngineConfig]],
) -> EngineConfig:
    """What an ``engine=`` keyword means *here*: an explicit value wins,
    ``None`` defers to the process-wide choice."""
    if engine is None:
        return _ENGINE
    return _coerce(engine)


def default_workers() -> int:
    """Worker count when the config leaves it open: every core but one
    (the parent replays the merge), within [2, MAX_WORKERS]."""
    cores = os.cpu_count() or 1
    return max(2, min(MAX_WORKERS, cores - 1 if cores > 2 else cores))


def shard_items(items: Sequence[Any], shards: int) -> List[List[Tuple[int, Any]]]:
    """Hash-partition ``items`` into at most ``shards`` non-empty
    batches of ``(original_index, item)`` pairs.

    Partitioning uses ``crc32`` of the item's ``repr`` — stable across
    processes and runs, unlike builtin ``hash`` — so the same frontier
    always shards the same way.  The original index lets the parent
    reassemble results in serial order regardless of which worker
    expanded what.
    """
    buckets: List[List[Tuple[int, Any]]] = [[] for _ in range(max(1, shards))]
    for index, item in enumerate(items):
        key = zlib.crc32(repr(item).encode("utf-8", "backslashreplace"))
        buckets[key % len(buckets)].append((index, item))
    return [bucket for bucket in buckets if bucket]


# ----------------------------------------------------------------------
# Fork pool with memory-image task inheritance
# ----------------------------------------------------------------------

#: The task the *next* forked pool will run: ``(fn, payload)``.  Workers
#: inherit it through the fork memory image — the payload (an automaton,
#: a mapping) never crosses a pickle boundary.  Pools are built and used
#: one at a time per process, so a single slot suffices.
_TASK: Optional[Tuple[Callable[[Any, List[Any]], Any], Any]] = None


def _pool_initializer() -> None:
    # The child inherited the parent's active recorder (if any) in its
    # memory image; detach it so worker-side telemetry never double
    # counts — workers report work back as explicit data instead.
    _telemetry._ACTIVE = None


def _pool_run(batch: List[Any]) -> Any:
    fn, payload = _TASK  # inherited at fork
    return fn(payload, batch)


class ForkPool:
    """A ``fork``-context worker pool bound to one ``(fn, payload)``
    task.

    ``fn(payload, batch)`` runs in the workers; ``payload`` is inherited
    by memory image, ``batch`` items and results cross by pickle.  Use
    as a context manager; :meth:`map` dispatches one batch per task and
    returns results in batch order.
    """

    def __init__(
        self,
        fn: Callable[[Any, List[Any]], Any],
        payload: Any,
        workers: int,
    ):
        global _TASK
        if workers < 2:
            raise EngineUnavailable("parallel engine needs at least 2 workers")
        if multiprocessing.current_process().daemon:
            raise EngineUnavailable(
                "daemonic processes cannot fork worker pools"
            )
        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise EngineUnavailable("no fork start method: {}".format(exc))
        self.workers = workers
        _TASK = (fn, payload)
        try:
            self._pool = context.Pool(
                processes=workers, initializer=_pool_initializer
            )
        except OSError as exc:  # pragma: no cover - fork exhaustion
            _TASK = None
            raise EngineUnavailable("could not fork workers: {}".format(exc))

    def map(self, batches: Sequence[List[Any]]) -> List[Any]:
        return self._pool.map(_pool_run, batches, chunksize=1)

    def close(self) -> None:
        global _TASK
        self._pool.terminate()
        self._pool.join()
        _TASK = None

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
