"""One declaration per job kind: ``repro run``'s campaign jobs and
``repro serve``'s admitted jobs carry exactly the params
:data:`repro.catalog.KIND_SPECS` declares, under one cache key, and
every spelling of the same work lands on that one key."""

import pytest

from repro import catalog
from repro.runner.jobs import default_jobs, job_cache_parts
from repro.serve.app import ServeConfig, VerificationService

#: One shipped system per kind.
SYSTEMS = {"lint": "rm", "analyze": "rm", "check": "rm", "perturb": "rm", "fuzz": "gen"}


@pytest.fixture
def service(tmp_path):
    return VerificationService(
        ServeConfig(
            journal_path=str(tmp_path / "journal.jsonl"),
            backend="dir:" + str(tmp_path / "pool"),
        )
    )


def _served(service, body):
    job, _envelope = service._build_job(body)
    return job


@pytest.mark.parametrize("kind", catalog.JOB_KINDS)
def test_campaign_and_served_jobs_carry_the_spec_defaults(service, kind):
    spec = catalog.KIND_SPECS[kind]
    defaults = {name: default for name, (default, _) in spec.params.items()}
    system = SYSTEMS[kind]
    # One fuzz shard of the default campaign size is one served request.
    (campaign,) = default_jobs(
        systems=[system], kinds=[kind], fuzz_shard=defaults.get("count", 50)
    )
    served = _served(service, {"kind": kind, "system": system})
    assert campaign.params == defaults
    assert {k: v for k, v in served.params.items() if k != "cache"} == defaults
    assert campaign.system == served.system == system
    assert job_cache_parts(campaign) == job_cache_parts(served)


@pytest.mark.parametrize(
    "first, second",
    [
        (
            {"kind": "check", "system": "gen:relay_line-01",
             "params": {"wall_time": 60.0, "seeds": "2"}},
            {"kind": "check", "system": "gen:relay_line-1",
             "params": {"wall_time": "120/2", "seeds": 2.0}},
        ),
        (
            {"kind": "perturb", "system": "rm", "params": {"epsilon": 0}},
            {"kind": "perturb", "system": "rm", "params": {"epsilon": "0/1"}},
        ),
        (
            {"kind": "fuzz", "system": "gen", "params": {"count": 4, "start": "0"}},
            {"kind": "fuzz", "system": "gen", "params": {"count": "8/2"}},
        ),
    ],
)
def test_two_spellings_of_one_job_share_a_key(service, first, second):
    a, b = _served(service, first), _served(service, second)
    assert a.system == b.system
    assert job_cache_parts(a) == job_cache_parts(b)


def test_campaign_gen_names_are_canonical(service):
    (job,) = default_jobs(systems=["gen:relay_line-01"], kinds=["lint"])
    served = _served(service, {"kind": "lint", "system": "gen:relay_line-001"})
    assert job.system == served.system == "gen:relay_line-1"
    assert job.job_id == "lint:gen:relay_line-1"
    assert job_cache_parts(job) == job_cache_parts(served)
    # Two spellings in one request are one system, hence one job.
    assert len(default_jobs(systems=["gen:relay_line-1", "gen:relay_line-01"],
                            kinds=["lint"])) == 1


def test_campaign_overrides_reach_every_kind_declaring_them():
    jobs = default_jobs(systems=["rm", "gen"], seeds=3, epsilon=0, wall_time=30.0)
    by_kind = {job.kind: job.params for job in jobs}
    assert by_kind["check"]["seeds"] == by_kind["perturb"]["seeds"] == 3
    assert by_kind["perturb"]["epsilon"] == "0"
    assert by_kind["check"]["wall_time"] == "30"
    assert "epsilon" not in by_kind["check"]
    assert by_kind["lint"] == catalog.KIND_SPECS["lint"].admit({})


def test_static_kinds_and_fuzz_keep_their_own_defaults():
    # ``--max-states`` is the battery's per-job budget, not lint's
    # exploration cap; the fuzz campaign total is not the per-job count.
    jobs = default_jobs(systems=["rm", "gen"], max_states=500_000)
    by_kind = {job.kind: job.params for job in jobs}
    assert by_kind["check"]["max_states"] == 500_000
    assert by_kind["lint"]["max_states"] == catalog.LINT_MAX_STATES
    fuzz = [job for job in jobs if job.kind == "fuzz"]
    assert sum(job.params["count"] for job in fuzz) == catalog.FUZZ_CAMPAIGN


def test_cli_gen_system_argument_is_canonical():
    from repro.cli import build_parser

    args = build_parser().parse_args(["lint", "gen:relay_line-01"])
    assert args.system == "gen:relay_line-1"


@pytest.mark.parametrize("scale", [1, 4])
def test_campaign_attempts_key_like_their_job(scale):
    # A campaign stores each verdict from inside the attempt, whose
    # params also carry the watchdog and the retry's budget scale; a
    # served request for the same work must find that entry.
    from repro.runner.attempts import attempt_body
    from repro.runner.jobs import Job

    (job,) = default_jobs(systems=["chain"], kinds=["check"])
    attempt = Job.from_dict(attempt_body(job, scale, 30.0))
    assert job_cache_parts(attempt) == job_cache_parts(job)
