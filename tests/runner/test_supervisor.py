"""Supervisor recovery paths: classification, retry/backoff, chaos.

The spawn-isolated tests share one campaign where possible — every
worker process costs a fresh interpreter, so the battery is folded into
few campaigns rather than one per assertion.
"""

import pytest

from repro.runner import (
    CHAOS_MODES,
    TRANSIENT_CLASSES,
    Job,
    RetryPolicy,
    Supervisor,
)
from repro.errors import ReproError


def _job(job_id, kind, system, chaos=None, expect_failure=False, **params):
    return Job(
        job_id=job_id,
        kind=kind,
        system=system,
        params=params,
        expect_failure=expect_failure,
        chaos=chaos,
    )


FAST_RETRY = dict(max_retries=2, base=0.01, cap=0.05, jitter=0.1)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base=0.1, cap=0.3, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.3)  # capped

    def test_jitter_is_seeded_and_bounded(self):
        a = [RetryPolicy(base=0.1, jitter=0.5, seed=7).delay(0) for _ in range(3)]
        b = [RetryPolicy(base=0.1, jitter=0.5, seed=7).delay(0) for _ in range(3)]
        assert a == b  # reproducible
        assert all(0.1 <= d <= 0.15 for d in a)

    def test_rejects_negative_settings(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base=-0.1)


class TestValidation:
    def test_chaos_requires_isolation(self):
        with pytest.raises(ReproError, match="chaos needs isolated workers"):
            Supervisor([], workers=0, chaos=True)

    def test_chaos_assignment_covers_all_three_modes(self):
        jobs = [_job("lint:%d" % i, "lint", "chain") for i in range(5)]
        sup = Supervisor(jobs, chaos=True)
        assigned = [job.chaos for job in sup.jobs]
        assert assigned[:3] == list(CHAOS_MODES)
        assert assigned[3:] == [None, None]


class TestChaosRecovery:
    """One spawned campaign proves every recovery path at once: a
    crash, a hang (watchdog), a malformed result — each retried to
    success — plus a deterministic verdict failure quarantined without
    retries and an expected failure counted as success."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        jobs = [
            _job("lint:chain", "lint", "chain", chaos="crash"),
            _job("lint:relay", "lint", "relay", chaos="hang"),
            _job("lint:rm", "lint", "rm", chaos="malformed"),
            _job("check:fischer-tight", "check", "fischer-tight",
                 seeds=1, steps=10, epsilon="0"),
            _job("check:expected", "check", "fischer-tight",
                 expect_failure=True, seeds=1, steps=10, epsilon="0"),
        ]
        sup = Supervisor(
            jobs,
            workers=2,
            timeout=4.0,
            retry=RetryPolicy(**FAST_RETRY),
        )
        return sup.run()

    def _outcome(self, report, job_id):
        return next(o for o in report.outcomes if o.job_id == job_id)

    def test_report_is_complete(self, report):
        assert len(report.outcomes) == 5
        assert not report.interrupted

    def test_crash_is_retried_to_success(self, report):
        outcome = self._outcome(report, "lint:chain")
        assert outcome.classifications == ["crash", "ok"]
        assert outcome.ok and outcome.retries == 1

    def test_hang_trips_watchdog_then_recovers(self, report):
        outcome = self._outcome(report, "lint:relay")
        assert outcome.classifications == ["timeout", "ok"]
        assert outcome.ok and outcome.retries == 1

    def test_malformed_result_is_retried(self, report):
        outcome = self._outcome(report, "lint:rm")
        assert outcome.classifications == ["malformed", "ok"]
        assert outcome.ok and outcome.retries == 1

    def test_verdict_failure_quarantined_without_retry(self, report):
        outcome = self._outcome(report, "check:fischer-tight")
        assert outcome.classifications == ["verdict"]
        assert outcome.status == "verdict"
        assert not outcome.ok and outcome.retries == 0

    def test_expected_failure_counts_as_success(self, report):
        outcome = self._outcome(report, "check:expected")
        assert outcome.status == "expected-failure"
        assert outcome.ok

    def test_campaign_verdict_reflects_the_quarantine(self, report):
        assert not report.ok  # the unexpected verdict failure

    def test_runner_telemetry_counts_recoveries(self, report):
        counters = report.telemetry["counters"]
        assert counters["runner.crashes"] == 1
        assert counters["runner.timeouts"] == 1
        assert counters["runner.malformed"] == 1
        assert counters["runner.retries"] == 3
        assert counters["runner.quarantined"] == 1
        assert counters["runner.jobs"] == 5

    def test_per_job_timers_are_recorded(self, report):
        timers = report.telemetry["timers"]
        for job_id in ("lint:chain", "lint:relay", "check:fischer-tight"):
            assert timers["runner.job." + job_id]["calls"] == 1

    def test_worker_telemetry_is_merged_across_processes(self, report):
        # check.steps can only come from worker processes: the
        # supervisor itself never runs a mapping check.
        assert report.telemetry["counters"].get("check.steps", 0) > 0


class TestInlineMode:
    def test_inline_campaign_settles_without_processes(self):
        jobs = [_job("lint:chain", "lint", "chain")]
        report = Supervisor(jobs, workers=0).run()
        assert report.ok and report.outcomes[0].status == "ok"

    def test_unexpected_pass_fails_the_campaign(self):
        jobs = [_job("lint:chain", "lint", "chain", expect_failure=True)]
        report = Supervisor(jobs, workers=0).run()
        outcome = report.outcomes[0]
        assert outcome.status == "unexpected-pass"
        assert not outcome.ok and not report.ok

    def test_error_payload_is_quarantined_with_structure(self):
        jobs = [_job("check:nope", "check", "no-such-system")]
        report = Supervisor(jobs, workers=0).run()
        outcome = report.outcomes[0]
        assert outcome.status == "error"
        assert outcome.error["type"] == "ReproError"
        assert outcome.retries == 0

    def test_transient_classes_match_the_documented_taxonomy(self):
        assert TRANSIENT_CLASSES == {"crash", "timeout", "malformed", "budget"}
