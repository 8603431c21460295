"""The concrete lint rules.

Every rule is a generator registered with
:func:`repro.lint.registry.rule`; the drivers in
:mod:`repro.lint.driver` feed it the matching context object
(:class:`~repro.lint.driver.BoundmapContext`,
:class:`~repro.lint.driver.TimedContext`, …).  Rule ids are stable and
documented, one by one, in ``docs/linting.md``.

Overview (see the docs for paper citations):

========  =========================================================
R001      boundmap misses partition classes (Definition 2.1)
R002      boundmap names unknown partition classes
R003      invalid bound interval (lo > hi, lo < 0, lo = ∞, hi = 0)
R004      inexact (float) bound endpoints
R005      trivial ``[0, ∞]`` class bound — ``cond(C)`` is vacuous
R006      timing condition targets no action of the automaton
R007      trigger/disabling overlap (the paper's two requirements)
R008      partition class never enabled in bounded exploration
R009      dummy ``NULL`` class left untimed / not upper-bounded
R010      mapping endpoints disagree on the underlying ``A``
R011      mapping chain levels do not share intermediate automata
R012      input action disabled in a reachable state
R013      timing condition never activated in bounded exploration
R014      fragile bounds: a small drift already breaks the proofs
========  =========================================================
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import rule

__all__ = ["coverage_diagnostics", "endpoints_of"]


# ----------------------------------------------------------------------
# Shared helpers (also reused outside the registry, e.g. by
# Boundmap.validate_against for eager construction-time validation)
# ----------------------------------------------------------------------


def coverage_diagnostics(
    partition_names: Iterable[str],
    bound_names: Iterable[str],
    location: str = "boundmap",
) -> List[Diagnostic]:
    """R001/R002 as a plain function: compare a partition's class names
    with a boundmap's keys and report both directions of mismatch."""
    names = set(partition_names)
    bounds = set(bound_names)
    diagnostics: List[Diagnostic] = []
    for missing in sorted(names - bounds):
        diagnostics.append(
            Diagnostic(
                rule="R001",
                severity=Severity.ERROR,
                location=location,
                message="partition class {!r} has no bound interval".format(missing),
                hint="add a [b_l, b_u] entry for {!r} (Definition 2.1 requires "
                "a bound for every class)".format(missing),
            )
        )
    for extra in sorted(bounds - names):
        diagnostics.append(
            Diagnostic(
                rule="R002",
                severity=Severity.ERROR,
                location=location,
                message="bound entry {!r} names no partition class".format(extra),
                hint="remove the entry or rename it to one of {!r}".format(
                    sorted(names)
                ),
            )
        )
    return diagnostics


def endpoints_of(value) -> Optional[Tuple[object, object]]:
    """The (lo, hi) endpoints of a bound entry: an
    :class:`~repro.timed.interval.Interval` or a raw 2-sequence.
    Returns None when the shape is not recognisable."""
    from repro.timed.interval import Interval

    if isinstance(value, Interval):
        return (value.lo, value.hi)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return (value[0], value[1])
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


def _is_inexact(value) -> bool:
    return isinstance(value, float) and not math.isinf(value)


# ----------------------------------------------------------------------
# Boundmap rules
# ----------------------------------------------------------------------


@rule(
    "R001",
    targets="boundmap",
    title="boundmap misses partition classes",
    paper="Definition 2.1",
)
def boundmap_missing_classes(ctx):
    if ctx.partition_names is None:
        return
    for diagnostic in coverage_diagnostics(
        ctx.partition_names, ctx.bound_names(), ctx.location
    ):
        if diagnostic.rule == "R001":
            yield diagnostic


@rule(
    "R002",
    targets="boundmap",
    title="boundmap names unknown partition classes",
    paper="Definition 2.1",
)
def boundmap_unknown_classes(ctx):
    if ctx.partition_names is None:
        return
    for diagnostic in coverage_diagnostics(
        ctx.partition_names, ctx.bound_names(), ctx.location
    ):
        if diagnostic.rule == "R002":
            yield diagnostic


@rule(
    "R003",
    targets="boundmap",
    title="invalid bound interval",
    paper="Section 2.2",
)
def invalid_interval(ctx):
    """The paper requires ``0 ≤ b_l ≤ b_u``, ``b_l ≠ ∞`` and
    ``b_u ≠ 0`` of every bound."""
    for name, value in ctx.entries():
        endpoints = endpoints_of(value)
        if endpoints is None:
            yield ctx.diagnostic(
                Severity.ERROR,
                "bound for {!r} is not an interval: {!r}".format(name, value),
                hint="use Interval(lo, hi) or a (lo, hi) pair",
            )
            continue
        lo, hi = endpoints
        if not _is_number(lo) or not _is_number(hi):
            yield ctx.diagnostic(
                Severity.ERROR,
                "bound for {!r} has non-numeric endpoints ({!r}, {!r})".format(
                    name, lo, hi
                ),
                hint="endpoints must be int, Fraction or float",
            )
            continue
        if math.isinf(lo):
            yield ctx.diagnostic(
                Severity.ERROR,
                "bound for {!r} has an infinite lower endpoint".format(name),
                hint="the paper requires b_l(C) != inf",
            )
        if not math.isinf(lo) and lo < 0:
            yield ctx.diagnostic(
                Severity.ERROR,
                "bound for {!r} has a negative lower endpoint {!r}".format(name, lo),
                hint="bounds are lengths of time; use lo >= 0",
            )
        if hi == 0:
            yield ctx.diagnostic(
                Severity.ERROR,
                "bound for {!r} has a zero upper endpoint".format(name),
                hint="the paper requires b_u(C) != 0; use a positive upper bound",
            )
        if not math.isinf(lo) and hi != 0 and hi < lo:
            yield ctx.diagnostic(
                Severity.ERROR,
                "bound for {!r} is inverted: lo = {!r} > hi = {!r}".format(
                    name, lo, hi
                ),
                hint="swap the endpoints (intervals are [lo, hi] with lo <= hi)",
            )


@rule(
    "R004",
    targets="boundmap",
    title="inexact (float) bound endpoints",
    paper="Section 2.2",
)
def inexact_bounds(ctx):
    """Float endpoints make the predictive ``Ft``/``Lt`` arithmetic
    inexact; mapping inequalities that hold on paper can then fail by
    rounding."""
    for name, value in ctx.entries():
        endpoints = endpoints_of(value)
        if endpoints is None:
            continue
        inexact = [e for e in endpoints if _is_inexact(e)]
        if inexact:
            yield ctx.diagnostic(
                Severity.WARNING,
                "bound for {!r} uses inexact float endpoint(s) {!r}".format(
                    name, inexact
                ),
                hint="use fractions.Fraction for exact predictive arithmetic",
            )


# ----------------------------------------------------------------------
# Timed-automaton rules
# ----------------------------------------------------------------------


@rule(
    "R005",
    targets="timed",
    title="trivial [0, inf] class bound",
    paper="Section 2.3",
)
def trivial_class_bound(ctx):
    """A ``[0, ∞]`` bound makes ``cond(C)`` vacuous: the class is
    effectively untimed.  Legitimate for environment classes (the
    relay's ``SIGNAL_0``), so a warning, not an error."""
    for cls in ctx.timed.classes():
        if cls.name in ctx.timed.boundmap and ctx.timed.boundmap[cls.name].is_trivial:
            yield ctx.diagnostic(
                Severity.WARNING,
                "class {!r} is bounded by [0, inf]: cond({!r}) imposes no "
                "timing constraint".format(cls.name, cls.name),
                hint="tighten the bound, or keep it only for deliberately "
                "untimed environment classes",
            )


@rule(
    "R008",
    targets="timed",
    title="partition class never enabled",
    paper="Section 2.3",
)
def dead_class(ctx):
    """A class with no enabled action in any reachable state never
    fires; its bound is dead weight and its upper bound can never be
    demanded.  Skipped when exploration was truncated (a deeper state
    could still enable the class)."""
    exploration = ctx.exploration()
    if exploration.truncated:
        return
    automaton = ctx.timed.automaton
    for cls in ctx.timed.classes():
        if not any(
            automaton.class_enabled(state, cls) for state in exploration.reachable
        ):
            yield ctx.diagnostic(
                Severity.WARNING,
                "class {!r} is never enabled in any of the {} reachable "
                "states".format(cls.name, len(exploration.reachable)),
                hint="check the preconditions of {!r} or drop the class".format(
                    sorted(map(repr, cls.actions))
                ),
            )


@rule(
    "R009",
    targets="timed",
    title="dummy NULL component left untimed",
    paper="Section 5, Lemma 5.1",
)
def untimed_dummy(ctx):
    """Dummification only forces executions to be infinite when the
    ``NULL`` class has a *finite* upper bound (``n_2 < ∞``)."""
    from repro.core.dummification import NULL

    automaton = ctx.timed.automaton
    if not automaton.signature.contains(NULL):
        return
    cls = automaton.partition.class_of(NULL)
    if cls is None:
        yield ctx.diagnostic(
            Severity.ERROR,
            "dummy action NULL is in the signature but in no partition class",
            hint="give NULL its own class so the boundmap can time it",
        )
        return
    if cls.name not in ctx.timed.boundmap:
        yield ctx.diagnostic(
            Severity.ERROR,
            "dummy class {!r} has no bound interval".format(cls.name),
            hint="bound it with a finite upper end, e.g. Interval(0, 1)",
        )
        return
    if not ctx.timed.boundmap[cls.name].is_upper_bounded:
        yield ctx.diagnostic(
            Severity.ERROR,
            "dummy class {!r} has an unbounded upper end: the dummy does "
            "not force progress".format(cls.name),
            hint="Lemma 5.1 needs n_2 < inf; use e.g. Interval(0, 1)",
        )


@rule(
    "R012",
    targets="timed",
    title="input action disabled in a reachable state",
    paper="Section 2.1",
)
def input_enabledness(ctx):
    """I/O automata must be input-enabled; a disabled input breaks
    composition and the ``time(A, U)`` step semantics.  Checked over the
    (possibly truncated) explored states; one diagnostic per action."""
    automaton = ctx.timed.automaton
    inputs = sorted(automaton.signature.inputs, key=repr)
    if not inputs:
        return
    exploration = ctx.exploration()
    for action in inputs:
        for state in exploration.reachable:
            if not automaton.is_enabled(state, action):
                yield ctx.diagnostic(
                    Severity.ERROR,
                    "input {!r} is disabled in reachable state {!r}".format(
                        action, state
                    ),
                    hint="inputs must be enabled in every state "
                    "(input-enabledness)",
                )
                break


# ----------------------------------------------------------------------
# Timing-condition rules
# ----------------------------------------------------------------------


@rule(
    "R006",
    targets="conditions",
    title="condition targets no known action",
    paper="Definition 2.2",
)
def vacuous_targets(ctx):
    """A condition whose ``Π`` matches no action of the automaton can
    never be satisfied by an occurrence — usually a misspelt action."""
    actions = sorted(ctx.automaton.signature.all_actions, key=repr)
    for cond in ctx.conditions:
        if not any(cond.in_pi(action) for action in actions):
            yield ctx.diagnostic(
                Severity.ERROR,
                "condition {!r}: Pi matches none of the automaton's "
                "{} actions".format(cond.name, len(actions)),
                hint="check the target action set of {!r} for typos".format(
                    cond.name
                ),
            )


@rule(
    "R007",
    targets="conditions",
    title="trigger/disabling overlap",
    paper="Section 2.3 (technical requirements)",
)
def trigger_disabling_overlap(ctx):
    """The paper's two technical requirements, checked pre-flight
    instead of at first use: (1) no start state is both triggering and
    disabling; (2) no trigger step ends in a disabling state."""
    starts = list(ctx.automaton.start_states())
    for cond in ctx.conditions:
        for state in starts:
            if cond.starts(state) and cond.disables(state):
                yield ctx.diagnostic(
                    Severity.ERROR,
                    "condition {!r}: start state {!r} is both triggering "
                    "and disabling (T_start and S overlap)".format(cond.name, state),
                    hint="shrink T_start or S so they are disjoint",
                )
                break
        for pre, action, post in ctx.steps():
            if cond.triggers(pre, action, post) and cond.disables(post):
                yield ctx.diagnostic(
                    Severity.ERROR,
                    "condition {!r}: trigger step ({!r}, {!r}, {!r}) ends in "
                    "a disabling state".format(cond.name, pre, action, post),
                    hint="a step in T_step must not enter S; adjust the "
                    "trigger or disabling predicate",
                )
                break


@rule(
    "R013",
    targets="conditions",
    title="condition never activated",
    paper="Definition 2.2",
)
def inactive_condition(ctx):
    """A condition that no start state starts and no reachable step
    triggers imposes no constraint at all — usually a wrong trigger
    predicate.  Skipped when exploration was truncated."""
    exploration = ctx.exploration()
    if exploration.truncated:
        return
    starts = list(ctx.automaton.start_states())
    for cond in ctx.conditions:
        if any(cond.starts(state) for state in starts):
            continue
        if any(cond.triggers(pre, a, post) for pre, a, post in ctx.steps()):
            continue
        yield ctx.diagnostic(
            Severity.WARNING,
            "condition {!r} is never activated: no start state is in "
            "T_start and no reachable step is in T_step".format(cond.name),
            hint="check the start/trigger predicates of {!r}".format(cond.name),
        )


# ----------------------------------------------------------------------
# Mapping and chain rules
# ----------------------------------------------------------------------


@rule(
    "R010",
    targets="mapping",
    title="mapping endpoints disagree on the underlying A",
    paper="Definition 3.2 (condition 3)",
)
def mapping_base_mismatch(ctx):
    """Condition 3 requires ``f`` to be the identity on ``A``-state
    components, which is unsatisfiable unless source and target are
    built over the *same* underlying automaton."""
    mapping = ctx.mapping
    if mapping.bases_agree:
        return
    source_base = mapping.source.base
    target_base = mapping.target.base
    if source_base.name == target_base.name and (
        source_base.signature == target_base.signature
    ):
        yield ctx.diagnostic(
            Severity.WARNING,
            "mapping {!r}: source and target use distinct (but look-alike) "
            "base automaton instances".format(mapping.name),
            hint="build both time(A, .) automata over one shared A object",
        )
    else:
        yield ctx.diagnostic(
            Severity.ERROR,
            "mapping {!r}: source base {!r} and target base {!r} are "
            "different automata — the identity requirement on A-states "
            "cannot hold".format(mapping.name, source_base.name, target_base.name),
            hint="a strong possibilities mapping relates time(A, U) to "
            "time(A, V) over the same A (Definition 3.2)",
        )


@rule(
    "R011",
    targets="chain",
    title="mapping chain levels do not share intermediates",
    paper="Section 6.3, Corollary 6.3",
)
def chain_broken_link(ctx):
    """Adjacent levels must share the intermediate automaton *object*:
    level k's target is level k+1's source, or the composed hierarchy
    proves nothing about the end-to-end requirement."""
    mappings = list(ctx.mappings)
    for index, (first, second) in enumerate(zip(mappings, mappings[1:])):
        if first.target is not second.source:
            yield ctx.diagnostic(
                Severity.ERROR,
                "chain link {}: {!r} targets {!r} but the next level "
                "{!r} starts from {!r}".format(
                    index,
                    first.name,
                    first.target.name,
                    second.name,
                    second.source.name,
                ),
                hint="reuse one intermediate automaton instance per level "
                "(cache B_k as RelaySystem.intermediate does)",
            )


@rule(
    "R014",
    targets="system",
    title="fragile bounds: zero measured timing tolerance",
    paper="Section 4 (the mapping inequalities)",
)
def fragile_bounds(ctx):
    """Probe the system's perturbation harness at a small drift.  A
    system whose proofs already fail at ``ε = 1/32`` has (to lint
    precision) *zero* timing tolerance: its bounds sit exactly at the
    proofs' breaking point, and any implementation drift voids them.
    Systems without a harness are skipped; an exhausted probe budget
    downgrades to INFO (inconclusive, not fragile)."""
    from repro.catalog import SURFACE_SYSTEMS
    from repro.faults import Budget, probe_tolerance

    name = ctx.target.name
    if name not in SURFACE_SYSTEMS:
        return
    budget = Budget(max_states=50_000, max_steps=500_000, wall_time=15)
    try:
        _target, nominal, probe = probe_tolerance(
            name, ctx.probe_epsilon, budget=budget, seeds=1, steps=40
        )
    except Exception as exc:  # pragma: no cover - defensive
        yield ctx.diagnostic(
            Severity.WARNING,
            "tolerance probe crashed: {}".format(exc),
            hint="run `python -m repro perturb {} --search` by hand".format(name),
        )
        return
    if not nominal.ok:
        yield ctx.diagnostic(
            Severity.WARNING,
            "system fails its own checks at eps=0: {}".format(nominal.detail),
            hint="the nominal bounds do not satisfy the requirements; "
            "see `python -m repro perturb {}`".format(name),
        )
        return
    if not probe.ok:
        yield ctx.diagnostic(
            Severity.WARNING,
            "fragile bounds: drift eps={} already breaks the checks "
            "({})".format(ctx.probe_epsilon, probe.detail),
            hint="measured tolerance is zero to lint precision; widen the "
            "slack between algorithm and requirement bounds",
        )
        return
    if nominal.exhausted_budget or probe.exhausted_budget:
        yield ctx.diagnostic(
            Severity.INFO,
            "tolerance probe inconclusive: the lint budget ran out before "
            "the checks finished",
            hint="run `python -m repro perturb {} --search` with a larger "
            "budget".format(name),
        )
