"""The durable request journal behind crash recovery.

Every accepted job is journaled *before* the submit response is sent,
and journaled again when it reaches a terminal state — so a daemon
killed with ``kill -9`` at any instant can replay the journal on
restart and finish exactly the accepted-but-unfinished jobs, the same
contract ``repro run --resume`` provides for campaigns.

The journal deliberately reuses the campaign ledger's JSONL entry
format (:func:`repro.serialize.ledger_entry_to_line` /
:func:`~repro.serialize.ledger_entries_from_jsonl`): one
schema-stamped, self-describing entry per line, flushed and fsynced as
written, torn-tail tolerant on read.  Entry kinds:

- ``serve-start``  — a daemon generation began (restart markers let an
  audit count crashes);
- ``serve-job``    — one accepted job: the full job body plus the
  request's deadline/retry envelope;
- ``serve-done``   — that job's terminal result payload;
- ``serve-drain``  — a graceful drain completed (all accepted jobs
  terminal at shutdown).

Writes take an internal lock (HTTP handler threads and worker threads
share one journal) and append whole lines, so concurrent writers — and
even multiple daemon processes sharing one file via O_APPEND — can
interleave entries but never tear each other's lines.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serialize import ledger_entries_from_jsonl, ledger_entry_to_line

__all__ = ["Journal", "JournalState", "load_journal"]


class Journal:
    """Append-only JSONL journal of one serving daemon's requests."""

    def __init__(self, path: str):
        self.path = path
        self._fh = None
        self._lock = threading.Lock()

    def _write(self, entry: Dict[str, Any]) -> None:
        line = ledger_entry_to_line(entry)
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a")
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def start(self, generation: str, options: Dict[str, Any]) -> None:
        self._write(
            {"kind": "serve-start", "generation": generation, "options": dict(options)}
        )

    def job(self, body: Dict[str, Any], envelope: Dict[str, Any]) -> None:
        """One accepted job: ``body`` is ``Job.to_dict()`` output,
        ``envelope`` the request's serving parameters (deadline_ms,
        max_retries…) needed to resume it faithfully."""
        self._write({"kind": "serve-job", "job": dict(body), "envelope": dict(envelope)})

    def done(self, job_id: str, result: Dict[str, Any]) -> None:
        self._write({"kind": "serve-done", "job_id": job_id, "result": dict(result)})

    def drain(self, summary: Dict[str, Any]) -> None:
        self._write({"kind": "serve-drain", "summary": dict(summary)})

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalState:
    """A parsed journal: everything a restart needs to recover.

    ``jobs`` maps job id to its ``serve-job`` entry (last write wins —
    a replayed job re-journaled by a later generation is the same job);
    ``results`` holds terminal results.  ``pending`` is the recovery
    work list: accepted jobs with no terminal entry, in acceptance
    order.
    """

    jobs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    generations: List[str] = field(default_factory=list)
    drained: bool = False

    @property
    def pending(self) -> List[Dict[str, Any]]:
        return [
            entry
            for job_id, entry in self.jobs.items()
            if job_id not in self.results
        ]

    @property
    def complete(self) -> bool:
        return not self.pending


def load_journal(path: str, job_id: Optional[str] = None) -> Optional[JournalState]:
    """Parse a request journal back into recoverable state.

    Returns ``None`` when the journal does not exist (a fresh daemon).
    Torn final lines (mid-write kill) are tolerated; unknown entry
    kinds are skipped so future shapes stay additive.  Unlike a
    campaign ledger, a journal spans daemon *generations*: every
    restart appends a new ``serve-start`` and keeps the file.

    With ``job_id``, only the lines that mention it are parsed: the
    state of that one job, for a poll of a finished job the daemon no
    longer keeps in memory.
    """
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        if job_id is None:
            text = fh.read()
        else:
            text = "".join(line for line in fh if job_id in line)
        entries = ledger_entries_from_jsonl(text)
    state = JournalState()
    for entry in entries:
        kind = entry.get("kind")
        if kind == "serve-start":
            state.generations.append(entry.get("generation", "?"))
            state.drained = False
        elif kind == "serve-job":
            job = entry.get("job", {})
            job_id = job.get("job_id")
            if job_id:
                state.jobs[job_id] = entry
        elif kind == "serve-done":
            job_id = entry.get("job_id")
            if job_id:
                state.results[job_id] = entry.get("result", {})
        elif kind == "serve-drain":
            state.drained = True
        # other kinds (future informational markers) are skipped
    return state
