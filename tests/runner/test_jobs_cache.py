"""Verdict-cache integration of :func:`repro.runner.jobs.execute_job`."""

import pytest

from repro.cache.fingerprint import dependency_closure
from repro.runner.jobs import Job, _job_cache, execute_job


@pytest.fixture
def warm_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _lint_job(job_id="lint:chain"):
    return Job(
        job_id=job_id,
        kind="lint",
        system="chain",
        params={"strict": False, "max_states": 500},
    )


class TestJobCachePolicy:
    def test_chaos_jobs_never_cache(self, warm_cache_env):
        job = _lint_job().with_chaos("crash")
        assert _job_cache(job) == (None, None)

    def test_explicit_cache_false_param(self, warm_cache_env):
        job = Job(
            job_id="lint:chain",
            kind="lint",
            system="chain",
            params={"strict": False, "cache": False},
        )
        assert _job_cache(job) == (None, None)

    def test_disabled_by_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert _job_cache(_lint_job()) == (None, None)

    def test_engine_params_excluded_from_key(self, warm_cache_env):
        # The watchdog timeout shapes how a job runs, not its verdict.
        job = Job(
            job_id="lint:chain",
            kind="lint",
            system="chain",
            params={"strict": False, "timeout": 30},
        )
        cache, parts = _job_cache(job)
        assert cache is not None
        assert parts == {"strict": False}

    def test_rule_backed_kinds_key_on_ruleset_version(self, warm_cache_env):
        # Growing the rule set must invalidate lint/analyze verdicts.
        # The key needs no part for it: the modules that register rules
        # are in the kinds' closure fingerprints, so the job's own
        # params are the whole of its parts.
        for kind in ("lint", "analyze"):
            _, parts = _job_cache(
                Job(
                    job_id="{}:chain".format(kind),
                    kind=kind,
                    system="chain",
                    params={"strict": False},
                )
            )
            assert parts == {"strict": False}
            closure = dependency_closure(kind, "chain")
            assert "repro.lint.rules" in closure
            assert "repro.analyze.interference" in closure


class TestExecuteJobCaching:
    def test_warm_rerun_is_served_from_cache(self, warm_cache_env):
        job = _lint_job()
        cold = execute_job(job)
        assert cold["error"] is None
        assert "cached" not in cold
        warm = execute_job(job)
        assert warm["cached"] is True
        assert warm["ok"] == cold["ok"]
        assert warm["detail"] == cold["detail"]
        # The hit's telemetry records the hit, not the original work.
        assert warm["telemetry"]["counters"] == {"cache.hits": 1}

    def test_hit_requires_matching_job_id(self, warm_cache_env):
        execute_job(_lint_job())
        other = execute_job(_lint_job(job_id="lint:chain:again"))
        assert "cached" not in other

    def test_inconclusive_verdicts_are_not_stored(self, warm_cache_env):
        job = Job(
            job_id="check:chain",
            kind="check",
            system="chain",
            params={
                "seeds": 1,
                "steps": 5,
                "seed": 0,
                "epsilon": "0",
                "max_steps": 1,
            },
        )
        cut = execute_job(job)
        assert cut["exhausted_budget"]
        again = execute_job(job)
        assert "cached" not in again

    def test_disabled_cache_runs_fresh_every_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        job = _lint_job()
        first = execute_job(job)
        second = execute_job(job)
        assert "cached" not in first
        assert "cached" not in second
