"""Actions and action signatures for I/O automata (paper Section 2.1).

An I/O automaton classifies its actions as *input*, *output* or
*internal*; input and output actions are *external*, output and
internal actions are *locally controlled*.  Actions themselves may be
any hashable value; :class:`Act` is a convenience for parameterised
action families such as ``SIGNAL_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Iterable, Tuple

from repro.errors import SignatureError

__all__ = ["Act", "act", "Kind", "ActionSignature"]


@dataclass(frozen=True, order=True)
class Act:
    """A named, optionally parameterised action token.

    ``Act("SIGNAL", 3)`` models the paper's ``SIGNAL_3``.  Instances are
    immutable, hashable and ordered, so they can live in signatures,
    partitions and explored state sets.
    """

    name: str
    args: Tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        # Actions key every guard, memo and signature lookup: hash the
        # fields once, to the value the generated ``__hash__`` gave.
        object.__setattr__(self, "_hash", hash((self.name, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes are salted per process; rebuild rather than
        # carry a stale ``_hash`` across a pickle boundary.
        return (Act, (self.name, self.args))

    def __repr__(self) -> str:
        if not self.args:
            return self.name
        return "{}({})".format(self.name, ", ".join(repr(a) for a in self.args))


def act(name: str, *args: Hashable) -> Act:
    """Build an :class:`Act`; ``act("SIGNAL", i)`` reads like the paper."""
    return Act(name, tuple(args))


class Kind:
    """Action kind constants (string-valued for readable reprs)."""

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"

    ALL = (INPUT, OUTPUT, INTERNAL)


@dataclass(frozen=True)
class ActionSignature:
    """The action signature of an I/O automaton.

    Holds three disjoint finite sets of actions.  ``external`` and
    ``locally_controlled`` follow the paper's terminology: external =
    input ∪ output, locally controlled = output ∪ internal.
    """

    inputs: FrozenSet[Hashable] = field(default_factory=frozenset)
    outputs: FrozenSet[Hashable] = field(default_factory=frozenset)
    internals: FrozenSet[Hashable] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        object.__setattr__(self, "internals", frozenset(self.internals))
        overlap = (
            (self.inputs & self.outputs)
            | (self.inputs & self.internals)
            | (self.outputs & self.internals)
        )
        if overlap:
            raise SignatureError(
                "actions appear under more than one kind: {!r}".format(sorted(map(repr, overlap)))
            )

    @property
    def external(self) -> FrozenSet[Hashable]:
        """Input and output actions (visible in behaviors)."""
        return self.inputs | self.outputs

    @property
    def locally_controlled(self) -> FrozenSet[Hashable]:
        """Output and internal actions (the ones the partition covers)."""
        return self.outputs | self.internals

    @property
    def all_actions(self) -> FrozenSet[Hashable]:
        """Every action in the signature."""
        return self.inputs | self.outputs | self.internals

    def kind_of(self, action: Hashable) -> str:
        """Return the :class:`Kind` of ``action``.

        Raises :class:`SignatureError` if the action is not in the
        signature at all.
        """
        if action in self.inputs:
            return Kind.INPUT
        if action in self.outputs:
            return Kind.OUTPUT
        if action in self.internals:
            return Kind.INTERNAL
        raise SignatureError("action {!r} is not in the signature".format(action))

    def contains(self, action: Hashable) -> bool:
        """True if ``action`` belongs to any of the three sets."""
        return action in self.inputs or action in self.outputs or action in self.internals

    def is_external(self, action: Hashable) -> bool:
        """True if ``action`` is an input or output action."""
        return action in self.inputs or action in self.outputs

    def is_locally_controlled(self, action: Hashable) -> bool:
        """True if ``action`` is an output or internal action."""
        return action in self.outputs or action in self.internals

    def hide(self, actions: Iterable[Hashable]) -> "ActionSignature":
        """Reclassify the given output actions as internal (the paper's
        hiding operator); non-output actions in ``actions`` are rejected."""
        hidden = frozenset(actions)
        not_outputs = hidden - self.outputs
        if not_outputs:
            raise SignatureError(
                "cannot hide non-output actions: {!r}".format(sorted(map(repr, not_outputs)))
            )
        return ActionSignature(
            inputs=self.inputs,
            outputs=self.outputs - hidden,
            internals=self.internals | hidden,
        )

    def describe(self) -> str:
        """Human-readable one-line summary, for diagnostics."""
        return "inputs={} outputs={} internals={}".format(
            sorted(map(repr, self.inputs)),
            sorted(map(repr, self.outputs)),
            sorted(map(repr, self.internals)),
        )
