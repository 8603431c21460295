"""Campaign outcomes: per-job terminal records and the final report.

A supervised campaign (see :mod:`repro.runner.supervisor`) must always
*complete*: whatever workers crash, hang, or return garbage, every job
ends in exactly one terminal :class:`JobOutcome` and the fold of those
outcomes is a :class:`CampaignReport` — built, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.table import Table

__all__ = [
    "FAILURE_CLASSES",
    "TRANSIENT_CLASSES",
    "JobOutcome",
    "CampaignReport",
]

#: The supervisor's failure taxonomy.  ``crash`` — the worker process
#: died without producing a result; ``timeout`` — the per-job watchdog
#: expired and the worker was killed; ``malformed`` — the worker
#: produced a result the supervisor cannot interpret; ``budget`` — the
#: check itself degraded to a partial verdict (``exhausted_budget``);
#: ``verdict`` — the check ran to completion and failed; ``error`` — a
#: structured library error escaped the check; ``ok`` — success.
FAILURE_CLASSES = ("ok", "crash", "timeout", "malformed", "budget", "verdict", "error")

#: Classes worth retrying: process-level losses are presumed transient,
#: and a budget cut is retried with an escalated budget.  ``verdict``
#: and ``error`` are deterministic — retrying re-proves the same
#: failure — so those jobs are quarantined instead.
TRANSIENT_CLASSES = frozenset({"crash", "timeout", "malformed", "budget"})


@dataclass
class JobOutcome:
    """One job's terminal record.

    ``status`` is the last attempt's classification, except for the
    expectation twist: a deliberately-broken system (``expect_failure``)
    that fails on the merits reports ``expected-failure`` and *counts
    as success*, while one that passes reports ``unexpected-pass`` and
    counts as failure.  ``ok`` is the campaign-level success flag.
    """

    job_id: str
    kind: str
    system: str
    status: str
    ok: bool
    attempts: int
    retries: int
    detail: str = ""
    wall: float = 0.0
    conclusive: bool = True
    expect_failure: bool = False
    #: Per-attempt classification history, e.g. ``["crash", "ok"]``.
    classifications: List[str] = field(default_factory=list)
    #: Structured library error (``ReproError.to_dict()``), if any.
    error: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "system": self.system,
            "status": self.status,
            "ok": self.ok,
            "attempts": self.attempts,
            "retries": self.retries,
            "detail": self.detail,
            "wall": self.wall,
            "conclusive": self.conclusive,
            "expect_failure": self.expect_failure,
            "classifications": list(self.classifications),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, body: Dict[str, Any]) -> "JobOutcome":
        return cls(
            job_id=body["job_id"],
            kind=body["kind"],
            system=body["system"],
            status=body["status"],
            ok=bool(body["ok"]),
            attempts=int(body["attempts"]),
            retries=int(body["retries"]),
            detail=body.get("detail", ""),
            wall=float(body.get("wall", 0.0)),
            conclusive=bool(body.get("conclusive", True)),
            expect_failure=bool(body.get("expect_failure", False)),
            classifications=list(body.get("classifications", [])),
            error=body.get("error"),
        )


@dataclass
class CampaignReport:
    """The fold of every job's terminal outcome.

    Always complete: the supervisor guarantees one outcome per job, so
    ``len(report.outcomes)`` equals the campaign's job count even after
    crashes, kills, and resumes.
    """

    campaign_id: str
    outcomes: List[JobOutcome] = field(default_factory=list)
    interrupted: bool = False
    wall: float = 0.0
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every terminal outcome counts as success (and the
        campaign was not interrupted before covering every job)."""
        return not self.interrupted and all(o.ok for o in self.outcomes)

    def counts(self) -> Dict[str, int]:
        """Outcome statuses histogrammed (sorted keys for stable JSON)."""
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return {k: tally[k] for k in sorted(tally)}

    def total_retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign_id": self.campaign_id,
            "ok": self.ok,
            "interrupted": self.interrupted,
            "jobs": [o.to_dict() for o in sorted(self.outcomes, key=lambda o: o.job_id)],
            "counts": self.counts(),
            "total_retries": self.total_retries(),
            "wall": self.wall,
            "telemetry": self.telemetry,
        }

    def render(self) -> str:
        table = Table(
            "campaign {} — {}".format(
                self.campaign_id, "ok" if self.ok else "FAILED"
            ),
            ["job", "status", "attempts", "retries", "detail"],
        )
        for outcome in sorted(self.outcomes, key=lambda o: o.job_id):
            detail = outcome.detail
            if len(detail) > 60:
                detail = detail[:57] + "..."
            table.add_row(
                outcome.job_id,
                outcome.status + ("" if outcome.ok else " !"),
                outcome.attempts,
                outcome.retries,
                detail,
            )
        lines = [table.render()]
        lines.append(
            "jobs: {}  retries: {}  verdict: {}{}".format(
                len(self.outcomes),
                self.total_retries(),
                "ok" if self.ok else "FAILED",
                " [interrupted]" if self.interrupted else "",
            )
        )
        return "\n".join(lines)
