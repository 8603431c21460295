"""Job catalog and in-process execution."""

import pytest

from repro.errors import ReproError
from repro.runner import JOB_KINDS, Job, default_jobs, execute_job
from repro.runner.jobs import RESULT_SCHEMA_VERSION


class TestCatalog:
    def test_all_kinds_cover_every_registered_system(self):
        from repro.catalog import LINT_SYSTEMS, SURFACE_SYSTEMS

        jobs = default_jobs()
        ids = {job.job_id for job in jobs}
        for name in LINT_SYSTEMS:
            assert "lint:" + name in ids
        for name in SURFACE_SYSTEMS:
            assert "analyze:" + name in ids
            assert "check:" + name in ids
            assert "perturb:" + name in ids
        assert len(ids) == len(jobs)  # job ids are unique

    def test_system_filter_intersects_each_registry(self):
        jobs = default_jobs(systems=["chain"])
        assert {job.job_id for job in jobs} == {
            "lint:chain", "analyze:chain", "check:chain",
            "perturb:chain",
        }

    def test_all_keyword_means_everything(self):
        assert len(default_jobs(systems=["all"])) == len(default_jobs())

    def test_unknown_system_rejected(self):
        with pytest.raises(ReproError, match="unknown system"):
            default_jobs(systems=["no-such-system"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="no job kinds"):
            default_jobs(kinds=["frobnicate"])

    def test_fischer_tight_checks_expect_failure(self):
        jobs = {job.job_id: job for job in default_jobs(systems=["fischer-tight"])}
        assert jobs["analyze:fischer-tight"].expect_failure
        assert jobs["check:fischer-tight"].expect_failure
        assert jobs["perturb:fischer-tight"].expect_failure

    def test_round_trips_through_plain_dicts(self):
        for job in default_jobs(systems=["rm"]):
            body = job.to_dict()
            import json

            json.dumps(body)  # plain JSON, no tagged values
            assert Job.from_dict(body) == job

    def test_bad_kind_rejected_eagerly(self):
        with pytest.raises(ReproError, match="unknown job kind"):
            Job(job_id="x", kind="nope", system="rm")

    def test_kind_order_is_cheap_first(self):
        kinds = [job.kind for job in default_jobs(systems=["chain"])]
        # Fuzz shards run against the synthetic "gen" system only, so a
        # single-system campaign covers every other kind, in order.
        assert kinds == [k for k in JOB_KINDS if k != "fuzz"]

    def test_fuzz_shards_partition_the_campaign(self):
        from repro.runner.jobs import FUZZ_SYSTEM, fuzz_shards

        shards = fuzz_shards(seed=3, count=120, shard=50)
        assert [job.params["count"] for job in shards] == [50, 50, 20]
        assert [job.params["start"] for job in shards] == [0, 50, 100]
        assert all(job.params["seed"] == 3 for job in shards)
        assert all(job.system == FUZZ_SYSTEM for job in shards)
        assert len({job.job_id for job in shards}) == 3

    def test_gen_names_join_every_applicable_registry(self):
        jobs = default_jobs(systems=["gen:relay_ring-4"])
        assert {job.job_id for job in jobs} == {
            "lint:gen:relay_ring-4", "analyze:gen:relay_ring-4",
            "check:gen:relay_ring-4", "perturb:gen:relay_ring-4",
        }


class TestExecuteJob:
    def test_lint_job_payload_shape(self):
        job = Job(job_id="lint:chain", kind="lint", system="chain")
        payload = execute_job(job)
        assert payload["schema"] == RESULT_SCHEMA_VERSION
        assert payload["job_id"] == "lint:chain"
        assert payload["ok"] and payload["conclusive"]
        assert payload["error"] is None
        assert isinstance(payload["telemetry"], dict)

    def test_check_job_carries_telemetry_counters(self):
        job = Job(
            job_id="check:chain",
            kind="check",
            system="chain",
            params={"seeds": 1, "steps": 15, "epsilon": "0"},
        )
        payload = execute_job(job)
        assert payload["ok"]
        assert payload["telemetry"]["counters"].get("check.steps", 0) > 0

    def test_verdict_failure_is_a_payload_not_an_exception(self):
        job = Job(
            job_id="check:fischer-tight",
            kind="check",
            system="fischer-tight",
            params={"seeds": 1, "steps": 10, "epsilon": "0"},
            expect_failure=True,
        )
        payload = execute_job(job)
        assert not payload["ok"]
        assert "mutual exclusion" in payload["detail"]

    def test_unknown_system_becomes_error_payload(self):
        job = Job(job_id="check:nope", kind="check", system="nope")
        payload = execute_job(job)
        assert not payload["ok"]
        assert payload["error"]["type"] == "ReproError"
        assert "unknown perturbation target" in payload["error"]["message"]
