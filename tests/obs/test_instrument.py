"""The telemetry core: recorders, the process-wide switch, hot-path hooks."""

import random
from fractions import Fraction as F

import pytest

from repro.obs.instrument import (
    Recorder,
    TraceEvent,
    active,
    emit,
    gauge,
    incr,
    install,
    jsonable,
    recording,
    span,
    uninstall,
)


class TestRecorder:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.incr("x")
        rec.incr("x", 4)
        rec.incr("y")
        assert rec.counters == {"x": 5, "y": 1}

    def test_gauge_tracks_last_min_max(self):
        rec = Recorder()
        for value in [3, 1, 7, 5]:
            rec.gauge("g", value)
        stat = rec.gauges["g"]
        assert (stat.last, stat.lo, stat.hi, stat.updates) == (5, 1, 7, 4)

    def test_timer_counts_calls(self):
        rec = Recorder()
        for _ in range(3):
            with rec.timer("t"):
                pass
        assert rec.timers["t"].calls == 3
        assert rec.timers["t"].total >= 0.0

    def test_events_ordered_and_timestamped(self):
        rec = Recorder()
        first = rec.event("a", value=1)
        second = rec.event("b", value=F(1, 2))
        assert [e.seq for e in rec.events] == [0, 1]
        assert first.name == "a" and second.fields["value"] == F(1, 2)
        assert second.wall >= first.wall >= 0.0
        assert rec.counters == {"events.a": 1, "events.b": 1}

    def test_event_cap_drops_but_keeps_counting(self):
        rec = Recorder(max_events=2)
        assert rec.event("e") is not None
        assert rec.event("e") is not None
        assert rec.event("e") is None
        assert len(rec.events) == 2
        assert rec.dropped_events == 1
        assert rec.counters["events.e"] == 3

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            Recorder(max_events=-1)

    def test_snapshot_is_sorted_and_jsonable(self):
        import json

        rec = Recorder(name="snap")
        rec.incr("b")
        rec.incr("a")
        rec.gauge("g", F(3, 2))
        with rec.timer("t"):
            pass
        rec.event("done")
        snap = rec.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert snap["gauges"]["g"]["last"] == "3/2"
        assert snap["events_recorded"] == 1
        json.dumps(snap)

    def test_clear_resets_everything(self):
        rec = Recorder()
        rec.incr("c")
        rec.event("e")
        rec.clear()
        assert rec.counters == {} and rec.events == []
        assert rec.event("e").seq == 0


class TestProcessWideSwitch:
    def test_off_by_default_and_helpers_noop(self):
        assert active() is None
        incr("nothing")
        gauge("nothing", 1)
        emit("nothing")
        with span("nothing") as rec:
            assert rec is None

    def test_install_uninstall(self):
        rec = install(Recorder())
        try:
            assert active() is rec
            incr("hit")
            assert rec.counters["hit"] == 1
        finally:
            uninstall()
        assert active() is None

    def test_recording_scopes_and_nests(self):
        with recording(name="outer") as outer:
            incr("seen")
            with recording(name="inner") as inner:
                incr("seen")
            assert active() is outer
            incr("seen")
        assert active() is None
        assert outer.counters["seen"] == 2
        assert inner.counters["seen"] == 1

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert active() is None


class TestJsonable:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (F(3), 3),
            (F(3, 2), "3/2"),
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
            ((1, F(1, 2)), [1, "1/2"]),
            ({"k": F(5)}, {"k": 5}),
            (None, None),
            (True, True),
        ],
    )
    def test_projection(self, value, expected):
        assert jsonable(value) == expected

    def test_unknown_type_reprs(self):
        assert jsonable(object()).startswith("<object")


class TestEngineHooks:
    """The instrumented hot paths actually feed a recorder."""

    def test_explorer_counts_states_and_transitions(self):
        from repro.ioa.explorer import explore
        from repro.systems import ResourceManagerParams, resource_manager

        automaton = resource_manager(ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1))).automaton
        with recording() as rec:
            result = explore(automaton, max_states=500)
        assert rec.counters["explore.states"] == len(result.reachable)
        assert rec.counters["explore.transitions"] > 0
        assert rec.gauges["explore.frontier"].hi >= 1

    def test_simulator_steps_slack_and_end_event(self):
        from repro.sim import Simulator, UniformStrategy
        from repro.systems import ResourceManagerParams, ResourceManagerSystem

        system = ResourceManagerSystem(ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1)))
        with recording() as rec:
            run = Simulator(
                system.algorithm, UniformStrategy(random.Random(0))
            ).run(max_steps=40)
        assert rec.counters["sim.steps"] == len(run.events) == 40
        assert any(name.startswith("sim.slack.") for name in rec.gauges)
        assert rec.events[-1].name == "sim.end"
        assert rec.events[-1].fields["reason"] == "max_steps"

    def test_deadlock_emits_terminal_event(self):
        from repro.errors import SchedulingDeadlockError
        from repro.sim import Simulator, UniformStrategy
        from repro.systems.extensions import FischerParams, fischer_system
        from repro.core import time_of_boundmap

        # e=1 bounds the critical section but EXIT never fires in this
        # broken variant: a=b makes CHECK windows collapse on occasion.
        automaton = time_of_boundmap(
            fischer_system(FischerParams(n=2, a=F(1), b=F(2), e=F(1)))
        )
        with recording() as rec:
            try:
                for seed in range(20):
                    Simulator(
                        automaton, UniformStrategy(random.Random(seed))
                    ).run(max_steps=300)
            except SchedulingDeadlockError:
                assert rec.events[-1].name == "sim.deadlock"
                assert "condition" in rec.events[-1].fields

    def test_zone_graph_counters(self):
        from repro.systems import ResourceManagerParams, resource_manager
        from repro.zones.zone_graph import explore_zone_graph

        timed = resource_manager(ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1)))
        with recording() as rec:
            graph = explore_zone_graph(timed, max_nodes=10_000)
        assert rec.counters["zones.nodes"] == graph.nodes
        assert rec.counters["zones.successors"] >= graph.nodes
        assert rec.counters["zones.transitions"] == graph.transitions > 0

    def test_zone_graph_subsumption_counters(self):
        from repro.gen import build_bundle
        from repro.zones.zone_graph import explore_zone_graph

        timed = build_bundle("gen:fischer-3").timed()
        with recording() as rec:
            graph = explore_zone_graph(timed, max_nodes=50_000)
        assert not graph.truncated
        assert rec.counters["zones.nodes"] == graph.nodes
        # Fischer's zones nest: later arrivals at a discrete state both
        # fall inside and swallow earlier ones.
        assert rec.counters["zones.subsumed"] > 0
        assert rec.counters["zones.evicted"] > 0
        assert "zones.cache_hits" in rec.counters

    def test_checker_emits_outcome_and_mapping_evals(self):
        from repro.core import check_mapping_on_run
        from repro.sim import Simulator, UniformStrategy
        from repro.systems import (
            ResourceManagerParams,
            ResourceManagerSystem,
            resource_manager_mapping,
        )

        system = ResourceManagerSystem(ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1)))
        run = Simulator(system.algorithm, UniformStrategy(random.Random(1))).run(
            max_steps=30
        )
        with recording() as rec:
            outcome = check_mapping_on_run(resource_manager_mapping(system), run)
        assert outcome.ok
        assert rec.counters["check.steps"] == 30
        assert rec.counters["mapping.evals"] >= 30
        assert rec.events[-1].name == "check.outcome"
        assert rec.events[-1].fields["ok"] is True

    def test_disabled_recorder_changes_nothing(self):
        from repro.sim import Simulator, UniformStrategy
        from repro.systems import ResourceManagerParams, ResourceManagerSystem

        system = ResourceManagerSystem(ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1)))
        baseline = Simulator(
            system.algorithm, UniformStrategy(random.Random(2))
        ).run(max_steps=25)
        with recording():
            observed = Simulator(
                system.algorithm, UniformStrategy(random.Random(2))
            ).run(max_steps=25)
        assert baseline == observed


def test_trace_event_is_frozen():
    ev = TraceEvent(seq=0, name="x", wall=0.0, fields={})
    with pytest.raises(AttributeError):
        ev.name = "y"


class TestThreadSafety:
    def test_concurrent_increments_never_lose_updates(self):
        import threading

        rec = Recorder(max_events=0)
        per_thread = 2_000

        def hammer():
            for _ in range(per_thread):
                rec.incr("hits")
                rec.gauge("depth", 1)
                rec.event("tick")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counters["hits"] == 8 * per_thread
        assert rec.counters["events.tick"] == 8 * per_thread
        assert rec.gauges["depth"].updates == 8 * per_thread
        assert rec.dropped_events == 8 * per_thread  # max_events=0

    def test_lock_makes_recorder_unpicklable_by_design(self):
        import pickle

        with pytest.raises(TypeError):
            pickle.dumps(Recorder())


class TestMerge:
    def test_merge_folds_a_worker_snapshot(self):
        worker = Recorder(name="worker", max_events=0)
        worker.incr("sim.steps", 7)
        worker.gauge("frontier", 3)
        worker.gauge("frontier", 9)
        with worker.timer("zone.query"):
            pass
        worker.event("dropped")  # max_events=0 -> counted + dropped

        parent = Recorder(name="parent")
        parent.incr("sim.steps", 5)
        parent.gauge("frontier", 6)
        parent.merge(worker.snapshot())

        assert parent.counters["sim.steps"] == 12
        assert parent.counters["events.dropped"] == 1
        assert parent.dropped_events == 1
        stat = parent.gauges["frontier"]
        assert (stat.lo, stat.hi, stat.last) == (3, 9, 9)
        assert stat.updates == 3
        assert parent.timers["zone.query"].calls == 1

    def test_merge_accepts_a_recorder_directly_and_chains(self):
        a = Recorder()
        a.incr("x")
        b = Recorder()
        b.incr("x", 2)
        c = Recorder()
        c.incr("x", 4)
        assert a.merge(b).merge(c).counters["x"] == 7

    def test_merge_restores_exact_fraction_gauges(self):
        worker = Recorder()
        worker.gauge("slack", F(1, 3))
        worker.gauge("slack", F(5, 2))
        parent = Recorder()
        parent.gauge("slack", F(1, 2))
        parent.merge(worker.snapshot())  # rides as "1/3" / "5/2" strings
        stat = parent.gauges["slack"]
        assert stat.lo == F(1, 3)
        assert stat.hi == F(5, 2)

    def test_merge_tolerates_incomparable_gauges(self):
        worker = Recorder()
        worker.gauge("phase", "late")
        parent = Recorder()
        parent.gauge("phase", 2)
        parent.merge(worker.snapshot())  # no TypeError escape
        stat = parent.gauges["phase"]
        assert stat.last == "late"
        assert stat.lo == 2 and stat.hi == 2  # incomparable: ours kept

    def test_merge_adds_timers(self):
        snap = {"timers": {"t": {"total_s": 1.5, "calls": 3}}}
        rec = Recorder()
        rec.merge(snap)
        rec.merge(snap)
        assert rec.timers["t"].total == pytest.approx(3.0)
        assert rec.timers["t"].calls == 6


class TestMergeWorkerSnapshots:
    """The dist coordinator's usage: many worker snapshots, arriving in
    whatever order the network delivers them, some more than once."""

    @staticmethod
    def worker_snapshot(jobs, wall_each, depth):
        worker = Recorder()
        worker.incr("jobs", jobs)
        worker.gauge("queue_depth", depth)
        snap = worker.snapshot()
        snap["timers"] = {"job": {"total_s": wall_each * jobs, "calls": jobs}}
        return snap

    def test_overlapping_keys_accumulate_across_workers(self):
        parent = Recorder()
        for snap in (
            self.worker_snapshot(jobs=3, wall_each=0.5, depth=2),
            self.worker_snapshot(jobs=5, wall_each=0.2, depth=7),
            self.worker_snapshot(jobs=2, wall_each=1.0, depth=1),
        ):
            parent.merge(snap)
        assert parent.counters["jobs"] == 10
        assert parent.timers["job"].calls == 10
        assert parent.timers["job"].total == pytest.approx(4.5)
        stat = parent.gauges["queue_depth"]
        assert (stat.lo, stat.hi) == (1, 7)
        assert stat.updates == 3

    def test_merge_order_does_not_change_the_aggregate(self):
        # Results race in over sockets; whichever worker reports first
        # must not change the campaign totals.
        snaps = [
            self.worker_snapshot(jobs=1, wall_each=0.1, depth=4),
            self.worker_snapshot(jobs=6, wall_each=0.3, depth=9),
            self.worker_snapshot(jobs=4, wall_each=0.7, depth=3),
        ]
        forward, backward = Recorder(), Recorder()
        for snap in snaps:
            forward.merge(snap)
        for snap in reversed(snaps):
            backward.merge(snap)
        fs, bs = forward.snapshot(), backward.snapshot()
        assert fs["counters"] == bs["counters"]
        assert fs["timers"] == bs["timers"]
        for name in fs["gauges"]:
            assert fs["gauges"][name]["min"] == bs["gauges"][name]["min"]
            assert fs["gauges"][name]["max"] == bs["gauges"][name]["max"]
            assert fs["gauges"][name]["updates"] == bs["gauges"][name]["updates"]

    def test_duplicate_snapshot_double_counts_by_design(self):
        # merge() is additive, not idempotent: deduplicating duplicate
        # deliveries is the *caller's* job (the dist coordinator admits
        # one result per lease epoch before it ever merges telemetry).
        parent = Recorder()
        snap = self.worker_snapshot(jobs=3, wall_each=0.5, depth=2)
        parent.merge(snap)
        parent.merge(snap)
        assert parent.counters["jobs"] == 6

    def test_merge_snapshot_roundtrip_is_lossless_for_aggregates(self):
        # parent.merge(w1).merge(w2) then snapshot → re-merge into a
        # fresh recorder: totals survive serialization both hops.
        parent = Recorder()
        parent.merge(self.worker_snapshot(jobs=2, wall_each=0.25, depth=5))
        parent.merge(self.worker_snapshot(jobs=3, wall_each=0.25, depth=8))
        reloaded = Recorder()
        reloaded.merge(parent.snapshot())
        assert reloaded.counters["jobs"] == 5
        assert reloaded.timers["job"].calls == 5
        assert reloaded.gauges["queue_depth"].hi == 8

    def test_concurrent_merges_lose_nothing(self):
        import threading

        parent = Recorder()
        snaps = [
            self.worker_snapshot(jobs=1, wall_each=0.01, depth=i)
            for i in range(8)
        ]
        threads = [
            threading.Thread(target=parent.merge, args=(s,)) for s in snaps
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert parent.counters["jobs"] == 8
        assert parent.gauges["queue_depth"].updates == 8
