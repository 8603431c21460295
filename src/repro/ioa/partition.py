"""Partitions of locally controlled actions (paper Section 2.1).

``part(A)`` groups the locally controlled actions of an automaton into
equivalence classes, one per underlying "process".  Boundmaps (Section
2.2) assign a time interval to each class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.errors import PartitionError
from repro.ioa.actions import ActionSignature

__all__ = ["PartitionClass", "Partition"]


@dataclass(frozen=True)
class PartitionClass:
    """A named equivalence class of locally controlled actions."""

    name: str
    actions: FrozenSet[Hashable]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", frozenset(self.actions))
        if not self.actions:
            raise PartitionError("partition class {!r} is empty".format(self.name))
        # Classes key every enabledness lookup: hash the fields once.
        object.__setattr__(self, "_hash", hash((self.name, self.actions)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes are salted per process; rebuild rather than
        # carry a stale ``_hash`` across a pickle boundary.
        return (PartitionClass, (self.name, self.actions))

    def __contains__(self, action: Hashable) -> bool:
        return action in self.actions

    def __repr__(self) -> str:
        return "PartitionClass({!r}, {{{}}})".format(
            self.name, ", ".join(sorted(repr(a) for a in self.actions))
        )


class Partition:
    """An ordered collection of disjoint :class:`PartitionClass` objects
    that together cover a signature's locally controlled actions.

    The class order is preserved (it fixes the layout of ``Ft``/``Lt``
    components in predictive-time states).
    """

    def __init__(self, classes: Iterable[PartitionClass]):
        self._classes: Tuple[PartitionClass, ...] = tuple(classes)
        seen_names: Dict[str, PartitionClass] = {}
        seen_actions: Dict[Hashable, PartitionClass] = {}
        for cls in self._classes:
            if cls.name in seen_names:
                raise PartitionError("duplicate partition class name {!r}".format(cls.name))
            seen_names[cls.name] = cls
            for action in cls.actions:
                if action in seen_actions:
                    raise PartitionError(
                        "action {!r} appears in classes {!r} and {!r}".format(
                            action, seen_actions[action].name, cls.name
                        )
                    )
                seen_actions[action] = cls
        self._by_name = seen_names
        self._by_action = seen_actions

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, Iterable[Hashable]]]) -> "Partition":
        """Build a partition from ``(name, actions)`` pairs."""
        return cls(PartitionClass(name, frozenset(actions)) for name, actions in pairs)

    @classmethod
    def singletons(cls, actions: Iterable[Hashable]) -> "Partition":
        """One class per action, named by the action's repr — the default
        partition when the modeller does not group actions."""
        return cls(PartitionClass(repr(a), frozenset([a])) for a in actions)

    @property
    def classes(self) -> Tuple[PartitionClass, ...]:
        return self._classes

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self._classes)

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __getitem__(self, name: str) -> PartitionClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise PartitionError("no partition class named {!r}".format(name)) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def class_of(self, action: Hashable) -> Optional[PartitionClass]:
        """The class containing ``action``, or None (e.g. for inputs)."""
        return self._by_action.get(action)

    def covered_actions(self) -> FrozenSet[Hashable]:
        """The union of all classes."""
        return frozenset(self._by_action)

    def validate_against(self, signature: ActionSignature) -> None:
        """Check the paper's requirement: the partition covers exactly the
        locally controlled actions of ``signature``."""
        covered = self.covered_actions()
        local = signature.locally_controlled
        missing = local - covered
        extra = covered - local
        if missing:
            raise PartitionError(
                "locally controlled actions not covered by the partition: "
                "{!r}".format(sorted(map(repr, missing)))
            )
        if extra:
            raise PartitionError(
                "partition covers actions that are not locally controlled: "
                "{!r}".format(sorted(map(repr, extra)))
            )

    def __repr__(self) -> str:
        return "Partition([{}])".format(", ".join(repr(c.name) for c in self._classes))
