"""Symbolic (zone-graph) reachability for MMT timed automata.

Encodes a :class:`~repro.timed.boundmap.TimedAutomaton` as a timed
safety automaton with one clock per partition class whose bound is not
the trivial ``[0, ∞]`` (such a class has no guard and no invariant):

- **invariant** — for every class ``C`` enabled in the current state
  with a finite ``b_u(C)``: ``x_C ≤ b_u(C)``;
- **guard** of an action in class ``C`` — ``x_C ≥ b_l(C)``;
- **resets** — the fired class's clock, plus the clock of every class
  that flips from disabled to enabled (MMT bounds restart on
  re-enable); disabled classes' clocks are pinned to 0 so zone keys
  stay canonical.

*Observer* clocks reset on designated actions make event-separation
times directly readable off the zone at fire time, which is how the
exact bounds of the paper's theorems are extracted.

Exploration is exact for the continuous semantics (zones are) and is
kept finite by per-action occurrence limits: once a counted action has
fired its limit, the branch is not expanded further.

The search is a passed/waiting list with inclusion subsumption
(Behrmann, Bouyer, Larsen and Pelánek, STTT 2006).  Each popped node
computes its delayed zone (``up`` under the invariant) once; every
enabled action narrows a copy with its guard.  Per discrete state
``(A-state, counts)`` only maximal zones are kept: a successor that a
kept zone includes is skipped (``zones.subsumed``), and kept zones the
successor includes are evicted (``zones.evicted``), their queued
entries dead.  A covered zone's firings are a subset of its cover's,
and the cover is itself reachable, so reachable A-states and firing
records are exactly those of the equality-only search.  An exact-key
hash set stays in front of the inclusion scan as the O(1) fast path.
``nodes`` counts admitted zones, evicted ones included.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ZoneError
from repro.obs import instrument as _telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults uses zones)
    from repro.faults.budget import Budget
from repro.timed.boundmap import TimedAutomaton
from repro.zones.dbm import Bound, DBM, INF_BOUND, le_bound

__all__ = ["Observer", "FiringRecord", "ZoneGraphResult", "explore_zone_graph"]


def _scale_hint(intervals) -> int:
    """The lcm of every denominator the exploration's constraints will
    use — pre-sizing the flat DBM's rational grid once up front means
    no matrix ever rescales mid-flight."""
    scale = 1
    for interval in intervals:
        for value in (interval.lo, interval.hi):
            if isinstance(value, float):
                continue  # ±inf contributes no grid refinement
            den = Fraction(value).denominator
            scale = scale * den // math.gcd(scale, den)
    return scale


@dataclass(frozen=True)
class Observer:
    """An extra clock reset whenever one of ``reset_on`` fires (it also
    starts at 0 at time zero, so with ``reset_on = ()`` it reads
    absolute time)."""

    name: str
    reset_on: FrozenSet[Hashable] = frozenset()


@dataclass
class FiringRecord:
    """Accumulated bounds of every observer at the firings of one
    (counted action or group, occurrence) pair, over all reachable ways
    to fire it."""

    action: Hashable  # the counted key: an action, or a group name
    occurrence: int
    lower: Dict[str, Bound] = field(default_factory=dict)
    upper: Dict[str, Bound] = field(default_factory=dict)

    def merge(self, name: str, lower: Bound, upper: Bound) -> None:
        if name not in self.lower or lower < self.lower[name]:
            self.lower[name] = lower
        if name not in self.upper or upper > self.upper[name]:
            self.upper[name] = upper


@dataclass
class ZoneGraphResult:
    """Outcome of a zone-graph exploration."""

    nodes: int
    transitions: int
    truncated: bool
    firings: Dict[Tuple[Hashable, int], FiringRecord]
    #: Reachable A-states matched by the ``watch`` predicate (if given).
    watched: List[Hashable] = field(default_factory=list)
    #: True when a Budget (not max_nodes) stopped the exploration.
    exhausted_budget: bool = False
    #: The maximal zones kept per discrete state ``(A-state, counts)``,
    #: each taken at entry (before delay), and the clock index of every
    #: clocked class: what a caller needs to read the reachable clock
    #: valuations of an A-state.
    kept: Dict[Tuple[Hashable, Tuple[int, ...]], List[DBM]] = field(default_factory=dict)
    clocks: Dict[str, int] = field(default_factory=dict)

    def record(self, action: Hashable, occurrence: int) -> FiringRecord:
        key = (action, occurrence)
        if key not in self.firings:
            self.firings[key] = FiringRecord(action, occurrence)
        return self.firings[key]


def explore_zone_graph(
    timed: TimedAutomaton,
    observers: Sequence[Observer] = (),
    counted_actions: Optional[Dict[Hashable, int]] = None,
    counted_groups: Optional[Dict[str, Tuple[FrozenSet[Hashable], int]]] = None,
    max_nodes: int = 100_000,
    watch=None,
    stop_on_watch: bool = False,
    budget: Optional["Budget"] = None,
    dbm_cls=DBM,
) -> ZoneGraphResult:
    """Forward zone reachability of ``(A, b)``.

    A ``budget`` caps nodes (as states), fired transitions (as steps)
    and wall time; exhaustion returns the partial result with both
    ``truncated`` and ``exhausted_budget`` set, never raising — firing
    records accumulated so far remain valid lower/upper evidence.

    ``counted_actions`` maps actions to occurrence limits; exploration
    stops along a branch once any counted action reaches its limit, and
    firing bounds are recorded per occurrence up to the limit.
    ``counted_groups`` does the same for *sets* of actions counted
    jointly (``{"ENTER": ({ENTER(1), ENTER(2)}, 1)}`` measures the
    first time *anyone* enters); group firings are recorded under the
    group name.  All actions of the automaton must be locally
    controlled (analyse closed systems).

    ``watch`` is an optional predicate over ``A``-states: every
    reachable matching state is collected into ``result.watched``
    (deduplicated), enabling exact timed safety checks — e.g. "no state
    with two processes critical is reachable".  With ``stop_on_watch``
    the search returns at the first match.

    ``dbm_cls`` selects the zone substrate: the flat encoded-integer
    :class:`~repro.zones.dbm.DBM` (default) or the object-based
    :class:`~repro.zones.dbm_reference.ReferenceDBM` oracle — the
    ``zone_equivalence`` differential suite runs both and asserts
    identical results.
    """
    automaton = timed.automaton
    partition = automaton.partition
    # Unify single-action counters and group counters: each counter is
    # (key, member actions, limit); an action belongs to at most one.
    counters: List[Tuple[Hashable, FrozenSet[Hashable], int]] = []
    for action, limit in sorted((counted_actions or {}).items(), key=lambda kv: repr(kv[0])):
        counters.append((action, frozenset([action]), limit))
    for name, (members, limit) in sorted((counted_groups or {}).items()):
        counters.append((name, frozenset(members), limit))
    counter_of_action: Dict[Hashable, int] = {}
    for index, (_key, members, _limit) in enumerate(counters):
        for member in members:
            if member in counter_of_action:
                raise ZoneError(
                    "action {!r} is counted by more than one counter".format(member)
                )
            counter_of_action[member] = index
    if automaton.signature.inputs:
        raise ZoneError(
            "zone analysis needs a closed system; {} still has inputs {!r}".format(
                automaton.name, sorted(map(repr, automaton.signature.inputs))
            )
        )

    classes = list(partition.classes)
    # A class with the trivial bound [0, ∞] contributes no guard and no
    # invariant, so it gets no clock: pinned to 0 at every transition to
    # keep the zone graph finite, it would only mirror the reference
    # clock and widen every matrix.
    clocked = [cls for cls in classes if not timed.class_interval(cls).is_trivial]
    class_index = {cls.name: i + 1 for i, cls in enumerate(clocked)}
    observer_index = {
        obs.name: len(clocked) + 1 + i for i, obs in enumerate(observers)
    }
    total_clocks = len(clocked) + len(observers)

    starts = list(automaton.start_states())
    if len(starts) != 1:
        raise ZoneError("zone analysis expects a unique start state")
    start_astate = starts[0]

    # Hot-path precomputation.  Class intervals are fixed for the whole
    # exploration.  Class enabledness comes from the automaton's own
    # per-A-state memo (``enabled_mask``, bits in partition order), so
    # clock ``i + 1`` is enabled iff the mask has ``clocked_bits[i]``.
    # Enabled actions are memoised here, for this search only: zone
    # nodes revisit A-states, and the automaton does not keep them.
    upper_bounds: List[Optional[Bound]] = []
    lower_bounds: Dict[str, object] = {}
    for cls in classes:
        lower_bounds[cls.name] = timed.class_interval(cls).lo
    for cls in clocked:
        upper = timed.class_interval(cls).hi
        upper_bounds.append(
            None if isinstance(upper, float) and math.isinf(upper) else le_bound(upper)
        )
    class_bit = {cls.name: 1 << i for i, cls in enumerate(classes)}
    clocked_bits = [class_bit[cls.name] for cls in clocked]
    enabled_mask = automaton.enabled_mask
    actions_memo: Dict[Hashable, List[Hashable]] = {}

    def enabled_actions(astate) -> List[Hashable]:
        cached = actions_memo.get(astate)
        if cached is None:
            cached = automaton.enabled_actions(astate)
            actions_memo[astate] = cached
        return cached

    def apply_invariant(zone: DBM, enabled: int) -> DBM:
        for i, upper in enumerate(upper_bounds):
            if enabled & clocked_bits[i] and upper is not None:
                zone.constrain(i + 1, 0, upper)
        return zone

    result = ZoneGraphResult(
        nodes=0, transitions=0, truncated=False, firings={}, clocks=class_index
    )
    if dbm_cls is DBM:
        # Flat engine: fix the rational grid once so no successor ever
        # pays a mid-flight rescale.
        initial_zone = DBM.zero(
            total_clocks,
            _scale_hint(timed.class_interval(cls) for cls in classes),
        )
    else:
        initial_zone = dbm_cls.zero(total_clocks)
    zero_counts = tuple(0 for _ in counters)

    watched_seen = set()

    def note_watch(astate) -> bool:
        """Record a watched state; True when the search should stop."""
        if watch is None or not watch(astate):
            return False
        if astate not in watched_seen:
            watched_seen.add(astate)
            result.watched.append(astate)
        return stop_on_watch

    rec = _telemetry._ACTIVE
    # Exact keys of every zone ever admitted or subsumed: the O(1) fast
    # path in front of the inclusion scan.  Canonical zone keys are
    # interned, so nodes that share a zone share one key object.
    visited = set()
    interned: Dict[Hashable, Hashable] = {}
    # The maximal zones kept per discrete state ``(A-state, counts)``.
    # A frontier entry is the list ``[A-state, counts, zone]``; evicting
    # a kept zone sets its zone to None, so a queued entry is skipped
    # when popped.
    kept: Dict[Tuple[Hashable, Tuple[int, ...]], List[list]] = {}
    frontier: deque = deque()
    if rec is not None:
        rec.incr("zones.successors")
    start_key = (start_astate, zero_counts, initial_zone.key())
    if budget is not None and not budget.charge_state():
        result.truncated = True
        result.exhausted_budget = True
        return result
    visited.add(start_key)
    start_entry = [start_astate, zero_counts, initial_zone]
    kept[(start_astate, zero_counts)] = [start_entry]
    frontier.append(start_entry)
    result.nodes = 1
    if rec is not None:
        rec.incr("zones.nodes")
    if note_watch(start_astate):
        return result

    while frontier:
        if budget is not None and not budget.ok():
            result.truncated = True
            result.exhausted_budget = True
            return result
        if rec is not None:
            rec.gauge("zones.frontier", len(frontier))
        astate, counts, zone = frontier.popleft()
        if zone is None:
            continue  # evicted by a larger zone of the same discrete state
        pre_enabled = enabled_mask(astate)
        # Delay under the invariant depends only on the node: compute it
        # once and let each action's guard narrow a copy.
        delayed = apply_invariant(zone.copy().up(), pre_enabled)
        for action in enabled_actions(astate):
            cls = partition.class_of(action)
            if cls is None:
                raise ZoneError(
                    "action {!r} has no partition class (open system?)".format(action)
                )
            lower = lower_bounds[cls.name]
            fired_bit = class_bit[cls.name]
            if lower > 0:
                # x_0 − x_C ≤ −b_l(C)  ⇔  x_C ≥ b_l(C)
                fire_zone = delayed.copy().constrain(
                    0, class_index[cls.name], le_bound(-lower)
                )
            else:
                fire_zone = delayed  # read-only below: successors copy it
            if fire_zone.is_empty():
                continue
            if budget is not None and not budget.charge_step():
                result.truncated = True
                result.exhausted_budget = True
                return result
            result.transitions += 1
            if rec is not None:
                rec.incr("zones.transitions")

            # Occurrence bookkeeping and observer measurement at fire time.
            new_counts = counts
            occurrence = None
            counter_index = counter_of_action.get(action)
            if counter_index is not None:
                key, _members, limit = counters[counter_index]
                occurrence = counts[counter_index] + 1
                if occurrence > limit:
                    continue  # beyond the horizon of interest
                new_counts = (
                    counts[:counter_index]
                    + (occurrence,)
                    + counts[counter_index + 1 :]
                )
                record = result.record(key, occurrence)
                for obs in observers:
                    lo, hi = fire_zone.clock_bounds(observer_index[obs.name])
                    record.merge(obs.name, lo, hi)

            if occurrence is not None and occurrence >= counters[counter_index][2]:
                continue  # record made; branch horizon reached

            for post_astate in automaton.transitions(astate, action):
                # Incremental successor construction: reuse the parent's
                # canonical matrix and touch only the rows/columns of
                # the clocks that actually reset (the fired class,
                # (re-)disabled or re-enabled classes, and triggered
                # observers).  A clock survives only if its class is
                # enabled on both sides and is not the fired one.
                surviving = pre_enabled & enabled_mask(post_astate) & ~fired_bit
                resets = [
                    i + 1
                    for i, bit in enumerate(clocked_bits)
                    if not surviving & bit
                ]
                for obs in observers:
                    if action in obs.reset_on:
                        resets.append(observer_index[obs.name])
                post_zone = fire_zone.copy().reset_many(resets)
                if rec is not None:
                    rec.incr("zones.successors")
                zone_key = post_zone.key()
                zone_key = interned.setdefault(zone_key, zone_key)
                key = (post_astate, new_counts, zone_key)
                if key in visited:
                    if rec is not None:
                        rec.incr("zones.cache_hits")
                    continue
                state_key = (post_astate, new_counts)
                bucket = kept.get(state_key)
                if bucket is not None and any(
                    entry[2].includes(post_zone) for entry in bucket
                ):
                    # A kept zone covers it: every firing from here is
                    # already a firing from the cover.
                    visited.add(key)
                    if rec is not None:
                        rec.incr("zones.subsumed")
                    continue
                if result.nodes >= max_nodes:
                    result.truncated = True
                    return result
                if budget is not None and not budget.charge_state():
                    result.truncated = True
                    result.exhausted_budget = True
                    return result
                visited.add(key)
                result.nodes += 1
                if rec is not None:
                    rec.incr("zones.nodes")
                if note_watch(post_astate):
                    return result
                entry = [post_astate, new_counts, post_zone]
                if bucket is None:
                    kept[state_key] = [entry]
                else:
                    survivors = []
                    for other in bucket:
                        if post_zone.includes(other[2]):
                            other[2] = None  # dead if still queued
                            if rec is not None:
                                rec.incr("zones.evicted")
                        else:
                            survivors.append(other)
                    survivors.append(entry)
                    kept[state_key] = survivors
                frontier.append(entry)
    result.kept = {
        state: [entry[2] for entry in bucket] for state, bucket in kept.items()
    }
    return result
