"""Coordinator semantics over real loopback sockets: leases, chaos
recovery, idempotent merge, degraded fallback — with in-process workers
so every scenario runs in milliseconds-to-seconds, not minutes."""

import socket
import threading
import time

import pytest

from repro.dist import (
    DistConfig,
    DistCoordinator,
    DistWorker,
    FrameConnection,
    parse_hosts,
    parse_plan,
)
from repro.dist import protocol
from repro.errors import ReproError
from repro.runner import RetryPolicy, Supervisor, default_jobs
from repro.runner.ledger import Ledger, load_ledger
from repro.serialize import ledger_entries_from_jsonl


def small_jobs(systems=("rm", "relay"), kinds=("lint", "analyze")):
    return default_jobs(
        systems=list(systems),
        kinds=list(kinds),
        seeds=1,
        steps=10,
        seed=0,
        max_states=10_000,
        max_steps=100_000,
        wall_time=30.0,
        fuzz_count=4,
        fuzz_shard=4,
    )


def verdicts(report):
    return sorted((o.job_id, o.status, o.ok, o.detail) for o in report.outcomes)


@pytest.fixture
def fleet():
    """Start in-process dist workers on ephemeral loopback ports; yields
    a factory and tears every worker down afterwards."""
    started = []

    def start(count=1, **kwargs):
        workers = []
        for _ in range(count):
            ports = []
            worker = DistWorker(
                port=0, isolation=False, quiet=True, on_ready=ports.append, **kwargs
            )
            thread = threading.Thread(target=worker.serve_forever, daemon=True)
            thread.start()
            deadline = time.monotonic() + 5.0
            while not ports and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ports, "worker never bound"
            workers.append(worker)
            started.append(worker)
        return workers, [("127.0.0.1", w.port) for w in workers]

    yield start
    for worker in started:
        worker.stop()


def config_for(hosts, **kwargs):
    options = dict(lease_ms=4000, heartbeat_ms=400, timeout=30.0)
    options.update(kwargs)
    return DistConfig(hosts=hosts, **options)


class TestParseHosts:
    def test_parses_lists(self):
        assert parse_hosts("a:1, b:2,c:65535") == [("a", 1), ("b", 2), ("c", 65535)]

    @pytest.mark.parametrize(
        "spec", ["", ",", "nohost", ":1", "h:x", "h:0", "h:70000"]
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ReproError):
            parse_hosts(spec)


class TestConfig:
    def test_heartbeat_must_beat_inside_the_lease(self):
        with pytest.raises(ReproError):
            DistConfig(hosts=[("h", 1)], lease_ms=100, heartbeat_ms=100)

    def test_default_reassign_allowance_scales_with_fleet(self):
        config = DistConfig(hosts=[("a", 1), ("b", 2)])
        assert config.max_reassigns == 9


class TestHappyPath:
    def test_campaign_completes_with_identical_verdicts(self, fleet, tmp_path):
        base = Supervisor(small_jobs(), workers=0, cache=False).run()
        _workers, hosts = fleet(2)
        ledger_path = str(tmp_path / "dist-ledger.jsonl")
        with Ledger(ledger_path) as ledger:
            report = DistCoordinator(
                small_jobs(), config_for(hosts), ledger=ledger
            ).run()
        assert report.ok and not report.interrupted
        assert verdicts(report) == verdicts(base)
        # The ledger is a normal campaign ledger: resumable and complete.
        state = load_ledger(ledger_path)
        assert state.complete and state.ended
        assert not state.foreign_to()  # written right here

    def test_done_entries_carry_writer_identity(self, fleet, tmp_path):
        _workers, hosts = fleet(1)
        ledger_path = str(tmp_path / "ledger.jsonl")
        with Ledger(ledger_path) as ledger:
            DistCoordinator(
                small_jobs(systems=("rm",)), config_for(hosts), ledger=ledger
            ).run()
        entries = ledger_entries_from_jsonl(open(ledger_path).read())
        assert all(e.get("host") == socket.gethostname() for e in entries)
        assert all(isinstance(e.get("pid"), int) for e in entries)

    def test_telemetry_counts_assignments_and_results(self, fleet):
        _workers, hosts = fleet(2)
        report = DistCoordinator(small_jobs(), config_for(hosts)).run()
        counters = report.telemetry["counters"]
        assert counters["dist.jobs"] == 4
        assert counters["dist.results"] == 4
        assert counters["dist.assigned"] == 4
        assert counters["dist.connects"] >= 1


class TestChaosRecovery:
    def test_severed_result_frame_reassigns_with_zero_lost_jobs(self, fleet, tmp_path):
        # The worker tears the connection mid-frame while shipping its
        # first result; the coordinator reclaims, re-dials, reassigns.
        (worker,), hosts = fleet(1, chaos=parse_plan("sever@result:1"))
        ledger_path = str(tmp_path / "ledger.jsonl")
        with Ledger(ledger_path) as ledger:
            report = DistCoordinator(
                small_jobs(), config_for(hosts), ledger=ledger
            ).run()
        assert report.ok
        assert len(report.outcomes) == 4
        assert worker.chaos_injected == ["sever@result:1"]
        counters = report.telemetry["counters"]
        assert counters["dist.reassigned"] == 1
        assert counters["dist.reconnects"] >= 1
        # The infrastructure attempt is on the record, classified crash,
        # stamped with the worker's identity and the lease epoch.
        entries = ledger_entries_from_jsonl(open(ledger_path).read())
        infra = [
            e
            for e in entries
            if e["kind"] == "attempt" and e["classification"] == "crash"
        ]
        assert len(infra) == 1
        assert infra[0]["epoch"] == 1
        assert infra[0]["worker"] == worker.worker_id
        # Exactly one done entry per job: nothing lost, nothing doubled.
        done = [e["job_id"] for e in entries if e["kind"] == "done"]
        assert sorted(done) == sorted(j.job_id for j in small_jobs())

    def test_duplicate_result_discarded_by_epoch_merge(self, fleet):
        (worker,), hosts = fleet(1, chaos=parse_plan("dup@result:1"))
        report = DistCoordinator(small_jobs(), config_for(hosts)).run()
        assert report.ok and len(report.outcomes) == 4
        counters = report.telemetry["counters"]
        assert counters["dist.stale_results"] == 1
        assert counters["dist.results"] == 4
        assert "dist.duplicate_outcomes" not in counters

    def test_dropped_heartbeats_ride_out_inside_the_lease(self, fleet):
        (worker,), hosts = fleet(1, chaos=parse_plan("drop@heartbeat:1"))
        report = DistCoordinator(
            small_jobs(systems=("rm",)), config_for(hosts, heartbeat_ms=300)
        ).run()
        assert report.ok
        assert "dist.lease_expired" not in report.telemetry["counters"]


class TestLeaseExpiry:
    def test_silent_worker_loses_its_lease_and_the_job_moves(self, fleet, tmp_path):
        # A hand-rolled "worker" that registers, accepts the assignment,
        # and then goes silent — the connection stays open, so only the
        # lease watchdog can notice.  The real worker finishes the work.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        silent_port = listener.getsockname()[1]
        assigned = threading.Event()

        def silent_worker():
            while True:
                try:
                    sock, _ = listener.accept()
                except OSError:
                    return
                conn = FrameConnection(sock)
                try:
                    hello = conn.recv(timeout=5.0)
                    if hello is None:
                        continue
                    conn.send(
                        {
                            "kind": "register",
                            "protocol": protocol.PROTOCOL_VERSION,
                            "worker_id": "silent",
                            "host": "nowhere",
                            "pid": 1,
                            "slots": 1,
                        }
                    )
                    frame = conn.recv(timeout=5.0)
                    if frame and frame.get("kind") == "assign":
                        assigned.set()
                    while True:  # hold the socket open, say nothing
                        if conn.recv(timeout=0.5) is None:
                            continue
                except Exception:
                    pass

        threading.Thread(target=silent_worker, daemon=True).start()
        (_real,), hosts = fleet(1)
        hosts = [("127.0.0.1", silent_port)] + hosts
        ledger_path = str(tmp_path / "ledger.jsonl")
        with Ledger(ledger_path) as ledger:
            report = DistCoordinator(
                small_jobs(),
                config_for(hosts, lease_ms=600, heartbeat_ms=150),
                ledger=ledger,
            ).run()
        listener.close()
        assert assigned.is_set(), "the silent worker was never assigned a job"
        assert report.ok and len(report.outcomes) == 4
        counters = report.telemetry["counters"]
        assert counters["dist.lease_expired"] >= 1
        entries = ledger_entries_from_jsonl(open(ledger_path).read())
        timeouts = [
            e
            for e in entries
            if e["kind"] == "attempt" and e["classification"] == "timeout"
        ]
        assert timeouts and timeouts[0]["worker"] == "silent"


class TestDegradedMode:
    def test_no_reachable_workers_falls_back_to_local_pool(self, tmp_path):
        # A port nothing listens on: connection refused immediately.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        base = Supervisor(small_jobs(), workers=0, cache=False).run()
        coordinator = DistCoordinator(
            small_jobs(),
            config_for([("127.0.0.1", dead_port)], connect_timeout=0.5),
        )
        report = coordinator.run()
        assert coordinator.degraded
        assert report.ok and len(report.outcomes) == 4
        assert verdicts(report) == verdicts(base)

    def test_ledger_still_written_in_degraded_mode(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        ledger_path = str(tmp_path / "ledger.jsonl")
        with Ledger(ledger_path) as ledger:
            DistCoordinator(
                small_jobs(systems=("rm",)),
                config_for([("127.0.0.1", dead_port)], connect_timeout=0.5),
                ledger=ledger,
            ).run()
        state = load_ledger(ledger_path)
        assert state.complete

    def test_fallback_supervisor_keeps_the_campaign_retry_policy(self):
        # A degraded run's jitter must still follow --seed: the local
        # pool retries under the campaign's own policy, not a default.
        policy = RetryPolicy(max_retries=3, base=0.07, cap=1.5, jitter=0.4, seed=11)
        coordinator = DistCoordinator(
            small_jobs(), config_for([("127.0.0.1", 1)]), retry=policy
        )
        fallback = coordinator._local_supervisor(coordinator.jobs, write_header=False)
        fields = ("max_retries", "base", "cap", "jitter", "seed")
        assert [getattr(fallback.retry, f) for f in fields] == [
            getattr(policy, f) for f in fields
        ]


class TestCacheSync:
    def test_worker_verdicts_flow_back_and_warm_the_next_campaign(self, fleet, tmp_path):
        from repro.cache.store import DirBackend, VerdictCache

        coordinator_cache = VerdictCache(
            backend=DirBackend(str(tmp_path / "pool"))
        )
        _w, hosts = fleet(1)
        jobs = small_jobs(systems=("rm",))
        first = DistCoordinator(
            jobs, config_for(hosts), cache=coordinator_cache
        ).run()
        assert first.ok
        pulled = first.telemetry["counters"].get("dist.cache_pulled", 0)
        assert pulled >= 1
        # A fresh worker, same coordinator pool: assignments carry the
        # cached verdicts and the worker answers without recomputing.
        _w2, hosts2 = fleet(1)
        second = DistCoordinator(
            small_jobs(systems=("rm",)),
            config_for(hosts2),
            cache=coordinator_cache,
        ).run()
        assert second.ok
        assert second.telemetry["counters"].get("dist.cache_pushed", 0) >= 1
        assert verdicts(first) == verdicts(second)
