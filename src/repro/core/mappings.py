"""Strong possibilities mappings (paper Definition 3.2).

A strong possibilities mapping ``f`` relates states of
``time(A, U)`` (the *source*, typically the algorithm with its timing
assumptions) to sets of states of ``time(A, V)`` (the *target*,
typically the requirements automaton).  It must:

1. map some start state of the target into the image of every start
   state of the source;
2. allow every source step to be matched by a target step staying in
   the image; and
3. be the identity on the ``A``-state components.

Concrete mappings in the paper are systems of *inequalities* over the
predictive ``Ft``/``Lt`` components; :class:`InequalityMapping` declares
exactly that, as linear data (:class:`Ineq` over :class:`Linear`
terms).  :class:`ProjectionMapping` covers the paper's "trivial"
mappings (dropping or renaming conditions with equal predictions).
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.obs import instrument as _telemetry
from repro.core.time_automaton import PredictiveTimeAutomaton
from repro.core.time_state import TimeState
from repro.timed.interval import render_time

__all__ = [
    "StrongPossibilitiesMapping",
    "Linear",
    "Ineq",
    "NOW",
    "target_ft",
    "target_lt",
    "source_ft",
    "source_lt",
    "InequalityMapping",
    "ProjectionMapping",
    "MappingChain",
]


class StrongPossibilitiesMapping(ABC):
    """Base class: a candidate strong possibilities mapping.

    Subclasses provide :meth:`image_contains`; the identity-on-``A``
    requirement (condition 3 of Definition 3.2) is enforced here in
    :meth:`contains` so no subclass can forget it.
    """

    def __init__(
        self,
        source: PredictiveTimeAutomaton,
        target: PredictiveTimeAutomaton,
        name: Optional[str] = None,
    ):
        self.source = source
        self.target = target
        self.name = name or "{} -> {}".format(source.name, target.name)

    @abstractmethod
    def image_contains(self, target_state: TimeState, source_state: TimeState) -> bool:
        """True when ``target_state ∈ f(source_state)``, assuming the
        ``A``-components already agree."""

    @property
    def bases_agree(self) -> bool:
        """True when source and target are built over the *same*
        underlying ``A`` object — a necessary condition for the
        identity-on-``A`` requirement (checked statically by lint rule
        R010)."""
        return self.source.base is self.target.base

    def contains(self, target_state: TimeState, source_state: TimeState) -> bool:
        """``target_state ∈ f(source_state)`` including the identity
        requirement on ``A``-state components."""
        rec = _telemetry._ACTIVE
        if rec is not None:
            rec.incr("mapping.evals")
        if target_state.astate != source_state.astate:
            return False
        return self.image_contains(target_state, source_state)

    def describe_failure(
        self, target_state: TimeState, source_state: TimeState
    ) -> str:
        """Diagnostic text for a containment failure; subclasses may
        refine this with the violated inequality."""
        if target_state.astate != source_state.astate:
            return "A-state components differ: {!r} vs {!r}".format(
                target_state.astate, source_state.astate
            )
        return "target state {!r} is outside the image of {!r}".format(
            target_state, source_state
        )

    def __repr__(self) -> str:
        return "<{} {}>".format(type(self).__name__, self.name)


class Linear:
    """An affine expression ``Σ coeff·term + constant`` over a target
    state ``u`` and a source state ``s``: a term is ``(side, field,
    condition)``, ``side`` ``"u"``/``"s"`` and ``field`` ``"Ft"``/``"Lt"``,
    or :data:`NOW`, the pair's ``Ct``.  The constant may be ``math.inf``
    (the paper's ``Lt ≥ ∞``).  Combine terms with ``+``, ``-`` and
    multiplication by a number."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Iterable[Tuple[Tuple[str, str, str], Any]] = (), constant: Any = 0):
        merged: Dict[Tuple[str, str, str], Any] = {}
        for term, coeff in terms:
            merged[term] = merged.get(term, 0) + coeff
        self.terms = tuple(sorted((t, c) for t, c in merged.items() if c != 0))
        self.constant = constant

    def __add__(self, other: Any) -> "Linear":
        other = _linear(other)
        return Linear(self.terms + other.terms, self.constant + other.constant)

    __radd__ = __add__

    def __mul__(self, factor: Any) -> "Linear":
        scaled = self.constant * factor if self.constant else 0
        return Linear(((t, c * factor) for t, c in self.terms), scaled)

    __rmul__ = __mul__

    def __sub__(self, other: Any) -> "Linear":
        return self + _linear(other) * -1

    def __repr__(self) -> str:
        parts = []
        for (side, field, name), coeff in self.terms:
            term = "Ct" if field == "Ct" else "{}.{}({})".format(side, field, name)
            parts.append(term if coeff == 1 else "{}*{}".format(coeff, term))
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


def _linear(value: Any) -> Linear:
    return value if isinstance(value, Linear) else Linear((), value)


def _term(side: str, field: str) -> Callable[[str], Linear]:
    return lambda condition: Linear((((side, field, condition), 1),))


#: ``u.Ft(C)``, ``u.Lt(C)``, ``s.Ft(C)``, ``s.Lt(C)`` of a condition name,
#: and ``Ct``.
target_ft, target_lt = _term("u", "Ft"), _term("u", "Lt")
source_ft, source_lt = _term("s", "Ft"), _term("s", "Lt")
NOW = Linear(((("s", "Ct", ""), 1),))

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


class Ineq:
    """``lhs rel rhs`` with ``rel`` one of ``<=``, ``>=``, ``==``; a side
    may be a number.  Decided as Python compares numbers (``∞ ≥ ∞``)."""

    __slots__ = ("lhs", "rel", "rhs")

    def __init__(self, lhs: Any, rel: str, rhs: Any):
        if rel not in _RELATIONS:
            raise MappingError("unknown relation {!r}".format(rel))
        self.lhs = _linear(lhs)
        self.rel = rel
        self.rhs = _linear(rhs)

    def __repr__(self) -> str:
        return "{!r} {} {!r}".format(self.lhs, self.rel, self.rhs)


def _reader(mapping: "InequalityMapping", side: Linear) -> Callable[[TimeState, TimeState], Any]:
    """Compile one side of an inequality into index lookups."""
    terms = []
    for (which, field, condition), coeff in side.terms:
        automaton = mapping.target if which == "u" else mapping.source
        index = None if field == "Ct" else automaton.index_of(condition)
        terms.append((which == "u", index, field == "Lt", coeff))
    constant = side.constant
    if len(terms) == 1 and terms[0][3] == 1:
        target, index, is_lt, _ = terms[0]
        pick = operator.attrgetter("lt" if is_lt else "ft")
        if index is None:
            value = lambda u, s: s.now
        elif target:
            value = lambda u, s: pick(u.preds[index])
        else:
            value = lambda u, s: pick(s.preds[index])
        if constant == 0:
            return value
        return lambda u, s: value(u, s) + constant

    def read(u: TimeState, s: TimeState) -> Any:
        total = constant
        for target, index, is_lt, coeff in terms:
            state = u if target else s
            pred = None if index is None else state.preds[index]
            total = total + coeff * (state.now if pred is None else pred.lt if is_lt else pred.ft)
        return total

    return read


class InequalityMapping(StrongPossibilitiesMapping):
    """A mapping declared as linear data, the form the paper gives
    (Section 4.3's ``f``, Section 6.4's ``f_k``): ``cases`` is one
    conjunction of :class:`Ineq`, or, with ``case_of``, a dict from case
    keys to conjunctions with ``case_of(astate)`` choosing the source
    ``A``-state's.  ``u ∈ f(s)`` exactly when every inequality of
    ``s``'s case holds (an empty conjunction is ``True``); min and max
    unfold, ``min(a, b) ≥ c`` being ``a ≥ c`` and ``b ≥ c``.

    The declaration yields the grid checker's predicate (each side
    compiled once into index lookups), the failure text, and the
    obligations :mod:`repro.analyze.compiler` derives from :meth:`case`.
    """

    def __init__(
        self,
        source: PredictiveTimeAutomaton,
        target: PredictiveTimeAutomaton,
        cases: Any,
        case_of: Optional[Callable[[Hashable], Hashable]] = None,
        name: Optional[str] = None,
    ):
        super().__init__(source, target, name=name)
        self.case_of = case_of
        table = cases if case_of is not None else {None: cases}
        self._declare({key: tuple(conjunction) for key, conjunction in table.items()})

    def _declare(self, cases: Dict[Hashable, Tuple[Ineq, ...]]) -> None:
        """Set the case table and compile each side against the current
        source and target (also how a scaled copy is recompiled)."""
        self.cases: Dict[Hashable, Tuple[Ineq, ...]] = cases
        self._compiled = {
            key: tuple(
                (_reader(self, ineq.lhs), _RELATIONS[ineq.rel], _reader(self, ineq.rhs), ineq)
                for ineq in conjunction
            )
            for key, conjunction in cases.items()
        }
        self._by_astate: Dict[Hashable, Tuple] = {}

    def case_key(self, astate: Hashable) -> Hashable:
        """The case of a source ``A``-state."""
        key = None if self.case_of is None else self.case_of(astate)
        if key not in self.cases:
            raise MappingError("{} declares no case {!r} (A-state {!r})".format(self.name, key, astate))
        return key

    def case(self, astate: Hashable) -> Tuple[Ineq, ...]:
        """The conjunction declared for a source ``A``-state."""
        return self.cases[self.case_key(astate)]

    def _atoms(self, astate: Hashable) -> Tuple:
        atoms = self._by_astate.get(astate)
        if atoms is None:
            atoms = self._by_astate[astate] = self._compiled[self.case_key(astate)]
        return atoms

    def image_contains(self, target_state: TimeState, source_state: TimeState) -> bool:
        for left, compare, right, _ineq in self._atoms(source_state.astate):
            if not compare(left(target_state, source_state), right(target_state, source_state)):
                return False
        return True

    def describe_failure(self, target_state: TimeState, source_state: TimeState) -> str:
        if target_state.astate != source_state.astate:
            return super().describe_failure(target_state, source_state)
        values = [
            (ineq, left(target_state, source_state), compare, right(target_state, source_state))
            for left, compare, right, ineq in self._atoms(source_state.astate)
        ]
        return "; ".join(
            "{!r} = {} violates {} {!r} = {}".format(
                ineq.lhs, render_time(lhs), ineq.rel, ineq.rhs, render_time(rhs)
            )
            for ineq, lhs, compare, rhs in values
            if not compare(lhs, rhs)
        ) or "inequalities hold (?)"


class ProjectionMapping(InequalityMapping):
    """The paper's "trivial" mappings: every target condition's
    prediction must *equal* the prediction of a designated source
    condition (by default the one with the same name); source-only
    conditions are simply forgotten.  It is the declaration
    ``u.Ft(X) = s.Ft(name_map[X])``, ``u.Lt(X) = s.Lt(name_map[X])``.

    Used for ``B_0 → B`` (drop boundmap conditions) and
    ``time(Ã, b̃) → B_{n-1}`` (rename ``SIGNAL_n``'s class condition to
    ``U_{n-1,n}``).
    """

    def __init__(
        self,
        source: PredictiveTimeAutomaton,
        target: PredictiveTimeAutomaton,
        name_map: Optional[Dict[str, str]] = None,
        name: Optional[str] = None,
    ):
        renamed = dict(name_map or {})
        self._name_map = {c.name: renamed.get(c.name, c.name) for c in target.conditions}
        super().__init__(
            source,
            target,
            [
                Ineq(field(target_name), "==", mirror(source_name))
                for target_name, source_name in self._name_map.items()
                for field, mirror in ((target_ft, source_ft), (target_lt, source_lt))
            ],
            name=name,
        )

    @property
    def name_map(self) -> Mapping[str, str]:
        """Target condition name → the source condition it equals
        (read-only; every target condition is present)."""
        return MappingProxyType(self._name_map)


class MappingChain:
    """A hierarchy ``time(A, U_m) → … → time(A, U_0)`` of mappings whose
    composition witnesses the overall requirement (paper Section 6.3,
    Corollary 6.3).  The chain is checked level-by-level in lockstep by
    :func:`repro.core.checker.check_chain_on_run`.
    """

    def __init__(self, mappings: Sequence[StrongPossibilitiesMapping]):
        self.mappings = tuple(mappings)
        if not self.mappings:
            raise MappingError("a mapping chain needs at least one mapping")
        for first, second in zip(self.mappings, self.mappings[1:]):
            if first.target is not second.source:
                raise MappingError(
                    "chain mismatch: {} targets {} but {} starts from {}".format(
                        first.name, first.target.name, second.name, second.source.name
                    )
                )

    @property
    def source(self) -> PredictiveTimeAutomaton:
        return self.mappings[0].source

    @property
    def target(self) -> PredictiveTimeAutomaton:
        return self.mappings[-1].target

    def __len__(self) -> int:
        return len(self.mappings)

    def __iter__(self):
        return iter(self.mappings)
