"""``repro.cache`` — the content-addressed on-disk verdict cache.

Warm re-runs of lint, analyze, check and perturb skip settled work: a
verdict is stored under a key derived from the *dependency closure* of
the modules that produced it
(:func:`~repro.cache.fingerprint.closure_fingerprint`), the engine
version, and the parameters of the check itself — so editing an
unrelated subsystem (say ``repro.serve``) leaves ``check rm`` verdicts
warm, while touching anything the verdict can actually reach (the
system's own modules, the zone engine, …) invalidates it.  See
:mod:`repro.cache.store` for layout and atomicity, and
``docs/performance.md`` for the CI wiring.
"""

from repro.cache.fingerprint import (
    ENGINE_VERSION,
    KIND_ROOTS,
    SYSTEM_SEEDS,
    closure_fingerprint,
    dependency_closure,
    source_fingerprint,
    verdict_key,
)
from repro.cache.store import (
    DEFAULT_CACHE_DIR,
    BackendError,
    DirBackend,
    VerdictCache,
    cache_enabled,
    default_cache,
)

__all__ = [
    "ENGINE_VERSION",
    "KIND_ROOTS",
    "SYSTEM_SEEDS",
    "closure_fingerprint",
    "dependency_closure",
    "source_fingerprint",
    "verdict_key",
    "DEFAULT_CACHE_DIR",
    "BackendError",
    "DirBackend",
    "VerdictCache",
    "cache_enabled",
    "default_cache",
]
