"""Precondition/effect style automata (the paper's pseudocode notation).

The paper describes each automaton by listing, per action, a
*precondition* (the set of states in which the action is enabled) and
an *effect* (the state change).  :class:`GuardedAutomaton` is the
executable form of that notation.  Input actions have no precondition —
they are enabled everywhere, which makes the automaton input-enabled by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence

from repro.errors import AutomatonError
from repro.ioa.actions import ActionSignature, Kind
from repro.ioa.automaton import IOAutomaton
from repro.ioa.partition import Partition

__all__ = ["ActionSpec", "GuardedAutomaton"]


def _identity(state: Hashable) -> Hashable:
    return state


@dataclass(frozen=True)
class ActionSpec:
    """One action's precondition/effect entry.

    ``precondition`` must be omitted (None) for input actions and may be
    omitted for always-enabled local actions.  Exactly one of ``effect``
    (deterministic) or ``effects`` (nondeterministic, yields post-states)
    may be given; by default the action has no effect on the state.
    """

    action: Hashable
    kind: str
    precondition: Optional[Callable[[Hashable], bool]] = None
    effect: Optional[Callable[[Hashable], Hashable]] = None
    effects: Optional[Callable[[Hashable], Iterable[Hashable]]] = None

    def __post_init__(self) -> None:
        if self.kind not in Kind.ALL:
            raise AutomatonError("unknown action kind {!r}".format(self.kind))
        if self.kind == Kind.INPUT and self.precondition is not None:
            raise AutomatonError(
                "input action {!r} must not have a precondition "
                "(inputs are always enabled)".format(self.action)
            )
        if self.effect is not None and self.effects is not None:
            raise AutomatonError(
                "action {!r}: give either effect or effects, not both".format(self.action)
            )

    def enabled(self, state: Hashable) -> bool:
        """True if this action is enabled in ``state``."""
        if self.precondition is None:
            return True
        return bool(self.precondition(state))

    def successors(self, state: Hashable) -> Iterator[Hashable]:
        """Post-states of taking this action from ``state`` (assumes
        enabled)."""
        if self.effects is not None:
            for post in self.effects(state):
                yield post
        else:
            yield (self.effect or _identity)(state)


class GuardedAutomaton(IOAutomaton):
    """An I/O automaton assembled from :class:`ActionSpec` entries.

    Parameters
    ----------
    name:
        Diagnostic name.
    start:
        The start states (any non-empty finite sequence of hashables).
    specs:
        One :class:`ActionSpec` per action.
    partition:
        Optional explicit :class:`Partition`; defaults to singleton
        classes.
    """

    def __init__(
        self,
        name: str,
        start: Sequence[Hashable],
        specs: Sequence[ActionSpec],
        partition: Optional[Partition] = None,
    ):
        self.name = name
        self._start = tuple(start)
        if not self._start:
            raise AutomatonError("{}: at least one start state is required".format(name))
        self._specs: Dict[Hashable, ActionSpec] = {}
        inputs, outputs, internals = set(), set(), set()
        for spec in specs:
            if spec.action in self._specs:
                raise AutomatonError(
                    "{}: duplicate spec for action {!r}".format(name, spec.action)
                )
            self._specs[spec.action] = spec
            {Kind.INPUT: inputs, Kind.OUTPUT: outputs, Kind.INTERNAL: internals}[
                spec.kind
            ].add(spec.action)
        self._signature = ActionSignature(
            inputs=frozenset(inputs),
            outputs=frozenset(outputs),
            internals=frozenset(internals),
        )
        self._partition = partition
        if partition is not None:
            partition.validate_against(self._signature)

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    @property
    def partition(self) -> Partition:
        if self._partition is not None:
            return self._partition
        return super().partition

    def start_states(self) -> Iterator[Hashable]:
        return iter(self._start)

    def spec(self, action: Hashable) -> ActionSpec:
        """The :class:`ActionSpec` for ``action``."""
        try:
            return self._specs[action]
        except KeyError:
            raise AutomatonError(
                "{} has no action {!r}".format(self.name, action)
            ) from None

    def transitions(self, state: Hashable, action: Hashable) -> Iterator[Hashable]:
        spec = self._specs.get(action)
        if spec is None or not spec.enabled(state):
            return iter(())
        return spec.successors(state)

    def is_enabled(self, state: Hashable, action: Hashable) -> bool:
        # Cheaper than the base class: consult the guard, not the effects.
        spec = self._specs.get(action)
        return spec is not None and spec.enabled(state)

    def enabled_actions(self, state: Hashable) -> List[Hashable]:
        """The base class's answer, read off ``(action, precondition)``
        pairs in repr order: no action is looked up or hashed per guard.
        The pairs are built on the first call."""
        try:
            guards = self._guards
        except AttributeError:
            guards = self._guards = tuple(
                (action, self._specs[action].precondition)
                for action in sorted(self._signature.all_actions, key=repr)
            )
        return [action for action, guard in guards if guard is None or guard(state)]
