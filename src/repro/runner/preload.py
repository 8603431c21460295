"""The attempt forkserver's preload: hash the package, then import it.

``multiprocessing`` imports this module once, in the forkserver that
forks every isolated attempt (:func:`repro.runner.attempts.spawn_attempt`).
The import scans the package first — each module's hash, the import
graph, and each file's ``(path, size, mtime_ns)`` — and marks the scan
frozen (:func:`repro.cache.fingerprint.freeze`); only then are the
worker and every module a known verdict closes over imported
(:func:`repro.cache.fingerprint.engine_modules`), so an engine's code is
read no earlier than the hash its verdicts are keyed on.  (The package
``__init__`` and the cache and telemetry modules this import needs load
a few milliseconds before the scan.)  Each forked attempt inherits
both: its verdict keys hash the code it runs, and
:func:`~repro.cache.fingerprint.closure_current` tells it when a source
file changed since.  Only modules are imported: every bundle and memo
stays empty until a job builds it.
"""

import importlib

from repro.cache.fingerprint import engine_modules, freeze

freeze()
for _name in ("repro.runner.worker",) + engine_modules():
    importlib.import_module(_name)
