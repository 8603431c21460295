"""The Section 4.3 strong possibilities mapping for the resource
manager.

A state ``u`` of the requirements automaton ``B`` is in ``f(s)``
exactly when (with ``TIMER`` taken from the shared ``A``-state):

- ``TIMER > 0``:
    ``min(Lt(G1), Lt(G2)) ≥ Lt(TICK) + (TIMER − 1)·c2 + l`` and
    ``max(Ft(G1), Ft(G2)) ≤ Ft(TICK) + (TIMER − 1)·c1``;
- ``TIMER = 0``:
    ``min(Lt(G1), Lt(G2)) ≥ Lt(LOCAL)`` and
    ``max(Ft(G1), Ft(G2)) ≤ Ct``.

The right-hand sides read off *how* the bound will be met: a tick within
``Lt(TICK)``, then ``TIMER − 1`` more ticks of at most ``c2`` each, then
a ``GRANT`` within ``l`` (and symmetrically for the lower bound).  The
min and max unfold into one inequality per requirement condition.
"""

from __future__ import annotations

from repro.core.mappings import (
    NOW,
    Ineq,
    InequalityMapping,
    source_ft,
    source_lt,
    target_ft,
    target_lt,
)
from repro.systems.resource_manager import ResourceManagerSystem, timer_of

__all__ = ["resource_manager_mapping", "resource_manager_mapping_over"]


def resource_manager_mapping(system: ResourceManagerSystem) -> InequalityMapping:
    """The mapping ``f : time(A, b) → B`` of Section 4.3."""
    return resource_manager_mapping_over(
        system.algorithm, system.requirements, system.params
    )


def resource_manager_mapping_over(
    algorithm, requirements, params
) -> InequalityMapping:
    """The same mapping over an explicit (algorithm, requirements,
    params) triple.  The fault-injection harness uses this to check a
    *perturbed* algorithm automaton against the *nominal* requirements
    and constants — a robust-refinement question the bundled
    :func:`resource_manager_mapping` cannot pose."""
    c1, c2, l = params.c1, params.c2, params.l

    def case(timer: int):
        if timer > 0:
            need_lt = source_lt("TICK") + ((timer - 1) * c2 + l)
            need_ft = source_ft("TICK") + (timer - 1) * c1
        else:
            need_lt, need_ft = source_lt("LOCAL"), NOW
        return [
            ineq
            for grant in ("G1", "G2")
            for ineq in (
                Ineq(target_lt(grant), ">=", need_lt),
                Ineq(target_ft(grant), "<=", need_ft),
            )
        ]

    return InequalityMapping(
        source=algorithm,
        target=requirements,
        cases={timer: case(timer) for timer in range(params.k + 1)},
        case_of=lambda astate: timer_of(astate),
        name="f: time(A,b) -> B (Section 4.3)",
    )
