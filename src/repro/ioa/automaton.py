"""The I/O automaton abstraction (paper Section 2.1).

An :class:`IOAutomaton` is a *description*: a signature, a set of start
states, a transition relation and a partition of the locally controlled
actions.  States are arbitrary hashable values; the automaton object
itself is immutable and holds no execution state, which makes
exploration, simulation and lockstep replay straightforward.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import AutomatonError, NotEnabledError
from repro.ioa.actions import ActionSignature
from repro.ioa.partition import Partition, PartitionClass

__all__ = ["IOAutomaton", "Step"]

#: A step is a (pre-state, action, post-state) triple, as in the paper.
Step = Tuple[Hashable, Hashable, Hashable]


class IOAutomaton(ABC):
    """Abstract base class for I/O automata.

    Subclasses implement :meth:`start_states`, :attr:`signature`,
    :meth:`transitions` and (for timed use) :attr:`partition`.  All
    derived notions — enabledness, steps, enabled classes — are provided
    here.
    """

    #: Optional human-readable name, used in diagnostics.
    name: str = "automaton"

    @property
    @abstractmethod
    def signature(self) -> ActionSignature:
        """The action signature of the automaton."""

    @abstractmethod
    def start_states(self) -> Iterator[Hashable]:
        """Iterate over the start states (``start(A)``)."""

    @abstractmethod
    def transitions(self, state: Hashable, action: Hashable) -> Iterable[Hashable]:
        """All post-states ``s`` with ``(state, action, s) ∈ steps(A)``.

        Must return an empty iterable when the action is not enabled.
        Input actions must be enabled in every state (input enabledness);
        :meth:`check_input_enabled` spot-checks this.
        """

    @property
    def partition(self) -> Partition:
        """``part(A)``: by default, one singleton class per locally
        controlled action.  Subclasses modelling multi-action processes
        override this."""
        return Partition.singletons(sorted(self.signature.locally_controlled, key=repr))

    # ------------------------------------------------------------------
    # Derived notions
    # ------------------------------------------------------------------

    def is_enabled(self, state: Hashable, action: Hashable) -> bool:
        """True if some step ``(state, action, s)`` exists."""
        for _ in self.transitions(state, action):
            return True
        return False

    def enabled_actions(self, state: Hashable) -> List[Hashable]:
        """All actions enabled in ``state`` (signature order is not
        significant; the result is sorted by repr for determinism).

        The sorted action tuple is built once per instance.  The result
        itself is not memoised: an exploration asks once per state, so a
        memo would only keep every explored state alive."""
        try:
            order = self._action_order
        except AttributeError:
            order = self._action_order = tuple(
                sorted(self.signature.all_actions, key=repr)
            )
        is_enabled = self.is_enabled
        return [a for a in order if is_enabled(state, a)]

    def is_step(self, pre: Hashable, action: Hashable, post: Hashable) -> bool:
        """True if ``(pre, action, post) ∈ steps(A)``."""
        return any(post == s for s in self.transitions(pre, action))

    def unique_transition(self, state: Hashable, action: Hashable) -> Hashable:
        """The unique post-state for a deterministic action.

        Raises :class:`NotEnabledError` if no step exists and
        :class:`AutomatonError` if the action is nondeterministic here.
        """
        posts = list(self.transitions(state, action))
        if not posts:
            raise NotEnabledError(
                "action {!r} is not enabled in state {!r} of {}".format(
                    action, state, self.name
                )
            )
        if len(posts) > 1:
            raise AutomatonError(
                "action {!r} is nondeterministic in state {!r} of {} "
                "({} successors)".format(action, state, self.name, len(posts))
            )
        return posts[0]

    def _enabledness(self) -> Tuple[Dict[PartitionClass, int], Dict[Hashable, int]]:
        """``(bit of each partition class, mask memo by A-state)``, made
        on first use.  One attribute holds both, so a thread that races
        the first call at worst recomputes some masks."""
        try:
            return self._class_masks
        except AttributeError:
            bits = {cls: 1 << i for i, cls in enumerate(self.partition)}
            memo = self._class_masks = (bits, {})
            return memo

    def enabled_mask(self, state: Hashable) -> int:
        """The classes enabled in ``state`` as a bitmask: bit ``i`` is set
        iff ``self.partition.classes[i]`` has an enabled action.
        Computed once per A-state and memoised on the instance."""
        bits, memo = self._enabledness()
        mask = memo.get(state)
        if mask is None:
            mask = 0
            is_enabled = self.is_enabled
            for cls, bit in bits.items():
                for action in cls.actions:
                    if is_enabled(state, action):
                        mask |= bit
                        break
            memo[state] = mask
        return mask

    def class_enabled(self, state: Hashable, cls: PartitionClass) -> bool:
        """``state ∈ enabled(A, C)``: some action of class ``cls`` is
        enabled.  Reads :meth:`enabled_mask` for a class of the
        partition; any other class is decided from :meth:`is_enabled`."""
        bit = self._enabledness()[0].get(cls)
        if bit is None:
            return any(self.is_enabled(state, a) for a in cls.actions)
        return bool(self.enabled_mask(state) & bit)

    def enabled_classes(self, state: Hashable) -> List[PartitionClass]:
        """The partition classes with an enabled action in ``state``."""
        mask = self.enabled_mask(state)
        return [cls for cls, bit in self._enabledness()[0].items() if mask & bit]

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def validate(self, sample_states: Optional[Iterable[Hashable]] = None) -> None:
        """Cheap well-formedness checks: the partition matches the
        signature, and input enabledness holds on ``sample_states``
        (default: the start states)."""
        self.partition.validate_against(self.signature)
        states = list(sample_states) if sample_states is not None else list(self.start_states())
        self.check_input_enabled(states)

    def check_input_enabled(self, states: Iterable[Hashable]) -> None:
        """Assert that every input action is enabled in each given state."""
        for state in states:
            for action in self.signature.inputs:
                if not self.is_enabled(state, action):
                    raise AutomatonError(
                        "{} is not input-enabled: input {!r} disabled in "
                        "state {!r}".format(self.name, action, state)
                    )

    def __repr__(self) -> str:
        return "<{} {!r}>".format(type(self).__name__, self.name)
