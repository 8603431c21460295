"""``repro.analyze`` — static proofs without state exploration.

Three passes over each shipped system:

1. **Symbolic obligation discharge** (:mod:`repro.analyze.obligations`):
   each mapping obligation of Definition 3.2 — base identity, initial
   containment, the per-step ``Ft``/``Lt`` inequality schema — compiled
   to exact-rational linear constraints and decided by Fourier–Motzkin
   elimination (:mod:`repro.analyze.fourier_motzkin`).  Verdicts are
   PROVED, REFUTED (with a concrete rational witness) or UNKNOWN.
2. **Timing-interference linting** (:mod:`repro.analyze.interference`):
   rules R015–R019, registered through the standard lint registry under
   the ``interference`` target.
3. **Closed-form bound derivation** (:mod:`repro.analyze.composition`):
   the Theorem 6.4 ``B_k`` hierarchy constant-folded and cross-checked
   against the bounds each system declares, and against the operational
   milestone chains of :mod:`repro.analyze.recurrence`.

The driver (:mod:`repro.analyze.driver`) folds all three into one
:class:`~repro.analyze.driver.AnalyzeReport` per system and records
statically-proved mappings in the verdict cache so a warm ``repro
check`` can skip their exhaustive sweeps.
"""

from repro.analyze.constraints import Constraint, LinExpr, const, eq, ge, gt, le, lt, negate, var
from repro.analyze.composition import DerivedBound, closed_form_tolerance, derived_bounds
from repro.analyze.driver import (
    ANALYZE_SCHEMA_VERSION,
    AnalyzeReport,
    analyze_all,
    analyze_system,
    lookup_static_mapping,
    record_proved_mappings,
)
from repro.analyze.fourier_motzkin import EntailmentResult, FMResult, decide, entails
from repro.analyze.interference import InterferenceContext
from repro.analyze.obligations import (
    ObligationResult,
    Verdict,
    discharge_all,
    discharge_system,
)

__all__ = [
    "ANALYZE_SCHEMA_VERSION",
    "AnalyzeReport",
    "Constraint",
    "DerivedBound",
    "EntailmentResult",
    "FMResult",
    "InterferenceContext",
    "LinExpr",
    "ObligationResult",
    "Verdict",
    "analyze_all",
    "analyze_system",
    "closed_form_tolerance",
    "const",
    "decide",
    "derived_bounds",
    "discharge_all",
    "discharge_system",
    "entails",
    "eq",
    "ge",
    "gt",
    "le",
    "lookup_static_mapping",
    "lt",
    "negate",
    "record_proved_mappings",
    "var",
]
