"""Human-readable timelines of timed executions.

Renders a run (or its projection) as a time-ordered event log with the
predictive ``Ft/Lt`` components inline — the view one wants when a
mapping check fails and the offending step needs inspecting.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.table import format_value
from repro.core.time_automaton import PredictiveTimeAutomaton
from repro.core.time_state import TimeState
from repro.timed.timed_sequence import TimedSequence

__all__ = ["render_timeline", "render_predictions", "timeline_lines"]


def render_predictions(
    automaton: PredictiveTimeAutomaton, state: TimeState, only: Optional[Iterable[str]] = None
) -> str:
    """One-line summary of a state's predictions:
    ``name∈[Ft, Lt]`` per condition, defaults elided."""
    names = list(only) if only is not None else [c.name for c in automaton.conditions]
    parts: List[str] = []
    for name in names:
        pred = state.preds[automaton.index_of(name)]
        if pred.is_default:
            continue
        parts.append(
            "{}∈[{}, {}]".format(name, format_value(pred.ft), format_value(pred.lt))
        )
    return " ".join(parts) if parts else "(all default)"


def timeline_lines(
    run: TimedSequence,
    automaton: Optional[PredictiveTimeAutomaton] = None,
    limit: Optional[int] = None,
) -> List[str]:
    """The timeline as a list of lines.

    With ``automaton`` given (and a run over :class:`TimeState`), each
    event line carries the post-state predictions.
    """
    lines: List[str] = []
    first = run.first_state
    if isinstance(first, TimeState):
        header = "t=0  START  As={!r}".format(first.astate)
        if automaton is not None:
            header += "  " + render_predictions(automaton, first)
    else:
        header = "t=0  START  {!r}".format(first)
    lines.append(header)
    for index, (_pre, event, post) in enumerate(run.triples()):
        if limit is not None and index >= limit:
            lines.append("… ({} more events)".format(len(run) - limit))
            break
        if isinstance(post, TimeState):
            line = "t={}  {!r}  As={!r}".format(
                format_value(event.time), event.action, post.astate
            )
            if automaton is not None:
                line += "  " + render_predictions(automaton, post)
        else:
            line = "t={}  {!r}  {!r}".format(
                format_value(event.time), event.action, post
            )
        lines.append(line)
    return lines


def render_timeline(
    run: TimedSequence,
    automaton: Optional[PredictiveTimeAutomaton] = None,
    limit: Optional[int] = None,
) -> str:
    """The timeline as one printable string."""
    return "\n".join(timeline_lines(run, automaton, limit))
