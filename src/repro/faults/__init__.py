"""Fault injection, perturbation, and timing-tolerance analysis.

The paper's strong possibilities mappings are *inequalities* between
predicted times (Section 4), so every proof implicitly tolerates some
slack in the boundmap.  This package measures that slack:

- :mod:`repro.faults.budget` — a cross-cutting resource guard so every
  checker degrades gracefully instead of hanging on state blow-up;
- :mod:`repro.faults.perturb` — clock-drift/jitter operators on
  boundmaps and condition sets, plus action delay/drop injection;
- :mod:`repro.faults.strategies` — adversarial schedulers that steer
  runs to the edges of every ``Ft``/``Lt`` window;
- :mod:`repro.faults.tolerance` — binary search for the largest ε a
  system's proofs survive;
- :mod:`repro.faults.targets` — per-system perturbation harnesses for
  every shipped system.
"""

from repro.faults.budget import Budget
from repro.faults.checks import (
    absolute_bounds_check,
    lemma_2_1_check,
    mapping_run_check,
    safety_check,
    slack_refinement_mapping,
    zone_condition_check,
)
from repro.faults.perturb import (
    ActionDropAutomaton,
    Drift,
    delay_class,
    drop_actions,
    perturb_boundmap,
    perturb_conditions,
    perturb_interval,
)
from repro.faults.strategies import (
    AdversarialStrategy,
    DeadlinePushStrategy,
    JitterStrategy,
)
from repro.faults.targets import (
    PerturbTarget,
    build_perturb_target,
    probe_tolerance,
)
from repro.faults.tolerance import ToleranceReport, search_tolerance

__all__ = [
    "Budget",
    "Drift",
    "perturb_interval",
    "perturb_boundmap",
    "perturb_conditions",
    "delay_class",
    "drop_actions",
    "ActionDropAutomaton",
    "AdversarialStrategy",
    "DeadlinePushStrategy",
    "JitterStrategy",
    "ToleranceReport",
    "search_tolerance",
    "PerturbTarget",
    "build_perturb_target",
    "probe_tolerance",
    "mapping_run_check",
    "lemma_2_1_check",
    "absolute_bounds_check",
    "zone_condition_check",
    "safety_check",
    "slack_refinement_mapping",
]
