"""The content-addressed on-disk verdict cache.

Layout: ``<root>/v1/<first two hex chars>/<full key>.json``, one entry
per settled verdict, written atomically (temp file + ``os.replace``) so
concurrent writers — campaign workers share the directory — can only
ever race to write *identical* content.  Entries are self-describing
(:func:`repro.serialize.cache_entry_to_json`); anything torn, stale or
misfiled reads as a miss and is recomputed, never trusted.  Beside the
entries, ``<root>/v1/scan.json`` memoises the package's module scan,
so that a warm process hashes only the source files that changed
(:func:`repro.cache.fingerprint.verdict_key`'s ``memo``).

What gets cached is a policy of the callers, with two hard rules
enforced here: only plain-JSON payloads, and only under a real key from
:func:`repro.cache.fingerprint.verdict_key` (so every entry is
invalidated by any source change) — this process's key, or the one the
process that computed the verdict hashed (a payload's ``verdict_key``,
see :func:`repro.runner.jobs.execute_job`).  Callers additionally skip
storing inconclusive outcomes (budget cuts) and chaos-mode jobs.

Telemetry: ``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
``cache.errors`` counters on the active recorder, mirrored as instance
counts for CLI summaries.

Environment: ``REPRO_CACHE=0`` disables the cache process-wide;
``REPRO_CACHE_DIR`` moves the root (default ``.repro-cache``).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.cache.fingerprint import verdict_key
from repro.obs import instrument as _telemetry
from repro.serialize import (
    SerializationError,
    cache_entry_from_json,
    cache_entry_to_json,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "BackendError",
    "DirBackend",
    "VerdictCache",
    "cache_enabled",
    "default_cache",
]

#: Default on-disk root, relative to the working directory (CI persists
#: exactly this path via ``actions/cache``).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory per entry-schema version: a future format bump reads
#: from a fresh namespace instead of tripping over old entries.
_VERSION_DIR = "v1"

#: The module-scan memo's file name, beside the entry directories.
_SCAN_MEMO = "scan.json"

_FALSE_WORDS = ("0", "false", "no", "off")


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` is set to 0/false/no/off."""
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in _FALSE_WORDS


def default_cache(enabled: Optional[bool] = None) -> Optional["VerdictCache"]:
    """The environment-configured cache, or ``None`` when disabled.

    ``enabled`` overrides the environment gate (the CLI's ``--no-cache``
    passes ``False``); the root honours ``REPRO_CACHE_DIR``.
    """
    on = cache_enabled() if enabled is None else enabled
    if not on:
        return None
    return VerdictCache(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def _replace(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: a temp file in the same
    directory, then ``os.replace``."""
    import tempfile  # only writers need it; a warm hit never does

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class BackendError(Exception):
    """A storage backend failed in a way that is not a plain miss.

    The :class:`VerdictCache` converts these into ``cache.errors``-
    counted no-ops — a cache must never fail the check it fronts."""


class DirBackend:
    """The original on-disk layout as a pluggable backend.

    Layout: ``<root>/v1/<first two hex chars>/<full key>.json``; writes
    are atomic (temp file + ``os.replace``), so concurrent writers can
    only ever race to write *identical* content.  ``<root>/v1/scan.json``
    memoises the package's module scan for the next process
    (:meth:`load_scan`, :meth:`save_scan`), written the same way.
    """

    kind = "dir"

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, _VERSION_DIR, key[:2], key + ".json")

    def get(self, key: str) -> Optional[str]:
        """The stored entry text, or ``None`` when absent/unreadable."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return None

    def put(self, key: str, text: str) -> None:
        try:
            _replace(self._path(key), text.encode("utf-8"))
        except OSError as exc:
            raise BackendError(str(exc))

    def load_scan(self) -> Optional[bytes]:
        """The stored module scan (:func:`repro.cache.fingerprint.verdict_key`'s
        ``memo``), or ``None`` when absent/unreadable."""
        try:
            with open(self._scan_path(), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def save_scan(self, data: bytes) -> None:
        """Store the module scan; a scan that cannot be stored is only
        made again by the next process."""
        try:
            _replace(self._scan_path(), data)
        except OSError:
            pass

    def _scan_path(self) -> str:
        return os.path.join(self.root, _VERSION_DIR, _SCAN_MEMO)

    def describe(self) -> str:
        return "dir:{}".format(self.root)


class VerdictCache:
    """One verdict pool: lookup and store by ``(kind, system, parts)``.

    Storage is delegated to a *backend* (``get``/``put`` of entry text
    by key).  The default backend is the original per-key-file directory
    store; :mod:`repro.serve.backends` adds a sqlite backend safe for
    many serving processes sharing one pool.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR, backend=None):
        self.backend = backend if backend is not None else DirBackend(root)
        self.root = getattr(self.backend, "root", root)
        #: where keys' module scan is memoised: a backend with a
        #: directory (:meth:`DirBackend.load_scan`), else nowhere
        self.scan_memo = self.backend if hasattr(self.backend, "load_scan") else None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0

    # -- operations ----------------------------------------------------

    def lookup(
        self, kind: str, system: str, parts: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The cached payload for this work item, or ``None`` (a miss —
        also on any unreadable/torn/mismatched entry)."""
        key = verdict_key(kind, system, parts, self.scan_memo)
        try:
            text = self.backend.get(key)
            if text is None:
                self.misses += 1
                _telemetry.incr("cache.misses")
                return None
            payload = cache_entry_from_json(text, expected_key=key)
        except (BackendError, SerializationError):
            self.errors += 1
            self.misses += 1
            _telemetry.incr("cache.errors")
            _telemetry.incr("cache.misses")
            return None
        self.hits += 1
        _telemetry.incr("cache.hits")
        return payload

    def store(
        self,
        kind: str,
        system: str,
        parts: Dict[str, Any],
        payload: Dict[str, Any],
        key: Optional[str] = None,
    ) -> bool:
        """Persist ``payload`` under this work item's key; atomic, and
        failure (read-only disk, full disk) degrades to a no-op with a
        ``cache.errors`` count — a cache must never fail the check.
        ``key`` is the one the process that computed ``payload`` hashed
        (its ``verdict_key``), used in place of one hashed here from
        ``parts``: it is the key of the code that ran."""
        if key is None:
            key = verdict_key(kind, system, parts, self.scan_memo)
        meta = {"kind": kind, "system": system}
        try:
            text = cache_entry_to_json(key, payload, meta)
            self.backend.put(key, text)
        except (BackendError, SerializationError):
            self.errors += 1
            _telemetry.incr("cache.errors")
            return False
        self.stores += 1
        _telemetry.incr("cache.stores")
        return True

    # -- reporting -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
        }

    def stats_line(self) -> str:
        return "cache: hits={hits} misses={misses} stores={stores} errors={errors}".format(
            **self.stats()
        )

    def __repr__(self) -> str:
        return "<VerdictCache {} {}>".format(
            self.backend.describe()
            if hasattr(self.backend, "describe")
            else self.root,
            self.stats(),
        )
