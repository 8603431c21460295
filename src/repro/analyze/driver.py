"""The static-analysis driver: one report per shipped system.

``analyze_system`` runs the three passes — symbolic obligation
discharge, timing-interference linting (R015–R019), closed-form bound
derivation — and folds them into one :class:`AnalyzeReport` with the
same gate semantics as the lint/check commands (``fails(strict)``,
expected-broken handling for ``fischer-tight``).

Statically **proved** mappings can be recorded in the verdict cache
(:func:`record_proved_mappings`); a warm ``repro check`` then skips the
exhaustive grid sweep for those mappings entirely
(:func:`lookup_static_mapping`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro import catalog
from repro.obs import instrument as _telemetry
from repro.lint.diagnostics import LintReport
# The waiver semantics must match the lint driver exactly, so the
# private helpers are shared rather than reimplemented.
from repro.lint.driver import _apply_waivers, _run
from repro.analyze.composition import DerivedBound, closed_form_tolerance, derived_bounds
from repro.analyze.interference import InterferenceContext
from repro.analyze.obligations import ObligationResult, Verdict, discharge_system

__all__ = [
    "AnalyzeReport",
    "analyze_system",
    "analyze_all",
    "record_proved_mappings",
    "lookup_static_mapping",
    "ANALYZE_SCHEMA_VERSION",
]

ANALYZE_SCHEMA_VERSION = 1


@dataclass
class AnalyzeReport:
    """Everything the static analyzer concluded about one system."""

    system: str
    obligations: List[ObligationResult]
    interference: LintReport
    bounds: List[DerivedBound]
    tolerance: Optional[Fraction]
    expected_broken: bool
    wall: float = 0.0

    # ------------------------------------------------------------------
    # Verdict accounting
    # ------------------------------------------------------------------

    def _count(self, verdict: Verdict) -> int:
        return sum(1 for o in self.obligations if o.verdict is verdict)

    @property
    def proved(self) -> int:
        return self._count(Verdict.PROVED)

    @property
    def refuted(self) -> int:
        return self._count(Verdict.REFUTED)

    @property
    def unknown(self) -> int:
        return self._count(Verdict.UNKNOWN)

    @property
    def discharged(self) -> int:
        return self.proved + self.refuted

    @property
    def discharge_ratio(self) -> Fraction:
        if not self.obligations:
            return Fraction(1)
        return Fraction(self.discharged, len(self.obligations))

    @property
    def bounds_agree(self) -> bool:
        return all(bound.agrees for bound in self.bounds)

    def fails(self, strict: bool = False) -> bool:
        """Gate verdict: refuted obligations and bound mismatches always
        fail; interference warnings fail under ``strict``.  UNKNOWN
        never fails — it defers to exploration, it does not refute."""
        if self.refuted:
            return True
        if not self.bounds_agree:
            return True
        return self.interference.fails(strict=strict)

    @property
    def unexpected(self) -> bool:
        """True when the verdict contradicts the shipped expectation
        (a broken system analyzed clean, or vice versa)."""
        return self.fails() == (not self.expected_broken)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def sorted_obligations(self) -> List[ObligationResult]:
        return sorted(self.obligations, key=lambda o: (o.obligation, o.verdict.value))

    def summary(self) -> Dict[str, int]:
        return {
            "obligations": len(self.obligations),
            "proved": self.proved,
            "refuted": self.refuted,
            "unknown": self.unknown,
        }

    def summary_line(self) -> str:
        return (
            "{}/{} obligations discharged ({} proved, {} refuted, "
            "{} unknown), {} interference finding(s), bounds {}".format(
                self.discharged,
                len(self.obligations),
                self.proved,
                self.refuted,
                self.unknown,
                len(self.interference),
                "agree" if self.bounds_agree else "DISAGREE",
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ANALYZE_SCHEMA_VERSION,
            "system": self.system,
            "expected_broken": self.expected_broken,
            "summary": self.summary(),
            "discharge_ratio": float(self.discharge_ratio),
            "obligations": [o.to_dict() for o in self.sorted_obligations()],
            "interference": {
                "diagnostics": self.interference.to_dicts(),
                "summary": self.interference.summary(),
            },
            "bounds": [b.to_dict() for b in sorted(self.bounds, key=lambda b: b.label)],
            "tolerance": None if self.tolerance is None else str(self.tolerance),
            "fails": {"default": self.fails(), "strict": self.fails(strict=True)},
            "wall": self.wall,
        }

    def render(self) -> str:
        lines = ["{}: {}".format(self.system, self.summary_line())]
        for o in self.sorted_obligations():
            lines.append(
                "  {:<8} {} [{}]".format(o.verdict.value, o.obligation, o.method)
            )
            if o.verdict is Verdict.REFUTED and o.witness:
                lines.append(
                    "           witness: {}".format(
                        ", ".join(
                            "{} = {}".format(k, v)
                            for k, v in sorted(o.witness.items())
                        )
                    )
                )
        if len(self.interference):
            lines.append(self.interference.render())
        for bound in sorted(self.bounds, key=lambda b: b.label):
            lines.append(
                "  bound {:<24} derived {!r} {} declared {!r}".format(
                    bound.label,
                    bound.derived,
                    "==" if bound.agrees else "!=",
                    bound.declared,
                )
            )
        if self.tolerance is not None:
            lines.append("  closed-form tolerance: {}".format(self.tolerance))
        return "\n".join(lines)


def analyze_system(name: str) -> AnalyzeReport:
    """Run all three static passes over one system."""
    from repro.surface import bundle

    started = time.perf_counter()
    system = bundle(name)
    with _telemetry.span("analyze.discharge"):
        obligations = discharge_system(name)
    for result in obligations:
        _telemetry.incr("analyze.obligations")
        _telemetry.incr("analyze." + result.verdict.value.lower())

    bounds = derived_bounds(name)
    ctx = InterferenceContext(
        name=name,
        timed=system.timed(),
        requirements=system.requirements(),
        bounds=tuple(bounds),
    )
    with _telemetry.span("analyze.interference"):
        report = _apply_waivers(_run("interference", ctx), system.analyze_waivers)
    _telemetry.incr("analyze.findings", len(report))

    return AnalyzeReport(
        system=name,
        obligations=obligations,
        interference=report,
        bounds=bounds,
        tolerance=closed_form_tolerance(name),
        expected_broken=name in catalog.EXPECTED_BROKEN,
        wall=time.perf_counter() - started,
    )


def analyze_all() -> List[AnalyzeReport]:
    return [analyze_system(name) for name in catalog.SURFACE_SYSTEMS]


# ----------------------------------------------------------------------
# Verdict-cache integration: statically proved mappings let a warm
# ``repro check`` skip the exhaustive sweep.
# ----------------------------------------------------------------------

_CACHE_KIND = "analyze-mapping"


def _proved_labels(report: AnalyzeReport) -> List[str]:
    by_label: Dict[str, List[ObligationResult]] = {}
    for o in report.obligations:
        if o.mapping_label is not None:
            by_label.setdefault(o.mapping_label, []).append(o)
    return sorted(
        label
        for label, results in by_label.items()
        if all(r.verdict is Verdict.PROVED for r in results)
    )


def record_proved_mappings(cache, report: AnalyzeReport) -> List[str]:
    """Store one cache entry per fully-proved mapping; returns the
    labels recorded.  No-op without a cache."""
    labels = _proved_labels(report)
    if cache is None:
        return labels
    for label in labels:
        cache.store(
            _CACHE_KIND,
            report.system,
            {"mapping": label},
            {
                "ok": True,
                "system": report.system,
                "mapping": label,
                "obligations": sorted(
                    o.obligation
                    for o in report.obligations
                    if o.mapping_label == label
                ),
            },
        )
    return labels


def lookup_static_mapping(cache, system: str, label: str) -> Optional[Dict[str, Any]]:
    """The cached static proof for one mapping, if any.  The key's
    closure fingerprint covers the analyzer, every rule module and the
    system's own source, so a stale proof is unreachable."""
    if cache is None:
        return None
    hit = cache.lookup(_CACHE_KIND, system, {"mapping": label})
    if hit and hit.get("ok") and hit.get("mapping") == label:
        return hit
    return None
