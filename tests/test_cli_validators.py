"""CLI argument validation: nonsense numerics must exit 2, up front.

A typo'd ``--timeout -5`` used to sail into the machinery and fail (or
worse, "work") somewhere deep; argparse type validators now reject
nonpositive and non-numeric values at parse time with the usage exit
code, before any engine spins up.
"""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv",
    [
        # run: workers/timeout/retries
        ["run", "rm", "--workers", "-1"],
        ["run", "rm", "--workers", "two"],
        ["run", "rm", "--timeout", "0"],
        ["run", "rm", "--timeout", "-3"],
        ["run", "rm", "--timeout", "soon"],
        ["run", "rm", "--max-retries", "-1"],
        # bench: the retired perf-trajectory runner is no command at all
        ["bench"],
        ["bench", "rm"],
        ["bench", "rm", "--iterations", "3"],
        # serve: every numeric knob
        ["serve", "--port", "-1"],
        ["serve", "--workers", "0"],
        ["serve", "--queue-depth", "0"],
        ["serve", "--timeout", "0"],
        ["serve", "--timeout", "nope"],
        ["serve", "--max-retries", "-1"],
        ["serve", "--breaker-threshold", "0"],
        ["serve", "--breaker-cooldown", "0"],
        ["serve", "--drain-grace", "-1"],
        # dist: lease/heartbeat intervals and the worker port
        ["run", "rm", "--lease-ms", "0"],
        ["run", "rm", "--lease-ms", "-5"],
        ["run", "rm", "--lease-ms", "soon"],
        ["run", "rm", "--heartbeat-ms", "0"],
        ["run", "rm", "--heartbeat-ms", "-100"],
        ["dist", "worker", "--port", "-1"],
        ["dist", "worker", "--port", "http"],
        # the proof battery's sampling and budget, typed by the spec
        ["check", "fischer", "--seeds", "-2", "--steps", "-5"],
        ["check", "fischer", "--seeds", "0"],
        ["check", "fischer", "--steps", "1.5"],
        ["check", "fischer", "--max-states", "0"],
        ["check", "fischer", "--max-steps", "many"],
        ["check", "fischer", "--wall-time", "0"],
        ["perturb", "rm", "--seeds", "-1"],
        ["perturb", "rm", "--steps", "0"],
        ["perturb", "rm", "--max-states", "-1"],
        ["perturb", "rm", "--epsilon", "-1/8"],
        ["perturb", "rm", "--epsilon", "banana"],
        ["run", "rm", "--seeds", "-2"],
        ["run", "rm", "--steps", "-5"],
        ["run", "rm", "--max-states", "0"],
        ["run", "rm", "--max-steps", "x"],
        ["run", "rm", "--wall-time", "soon"],
        ["run", "rm", "--epsilon", "-1"],
        ["run", "rm", "--fuzz-count", "0"],
        ["lint", "rm", "--max-states", "-1"],
        # the retired seed-era per-system commands are no commands at all
        ["rm"],
        ["relay"],
        ["zones", "rm"],
        ["zones", "relay", "--n", "0"],
        ["verify", "rm", "5", "3"],
        ["timeline", "rm"],
        ["fischer", "--n", "0"],
        ["peterson"],
    ],
)
def test_nonsense_numerics_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        # A heartbeat that cannot beat inside the lease reclaims healthy
        # jobs; refused before any socket is dialed.
        (
            ["run", "rm", "--dist", "127.0.0.1:1", "--lease-ms", "100",
             "--heartbeat-ms", "100"],
            "heartbeat_ms",
        ),
        # Malformed worker address lists must not silently shrink the fleet.
        (["run", "rm", "--dist", "nonsense"], "host:port"),
        (["run", "rm", "--dist", "host:notaport"], "not an integer"),
        (["run", "rm", "--dist", "host:99999"], "out of range"),
        # The local chaos self-test and network chaos are different knobs.
        (["run", "rm", "--chaos", "--dist", "127.0.0.1:1"], "--chaos"),
        # A typo'd chaos plan must fail the worker loudly, not test nothing.
        (["dist", "worker", "--chaos", "bogus"], "op@kind:N"),
        (["dist", "worker", "--chaos", "melt@result:1"], "unknown fault op"),
    ],
)
def test_dist_semantic_validation_exits_2(capsys, argv, fragment):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_valid_values_still_parse(capsys):
    # Sanity: the validators must not reject the documented defaults.
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "rm", "--workers", "0", "--timeout", "3/2"])
    assert args.workers == 0
    assert float(args.timeout) == 1.5
    args = parser.parse_args(["serve", "--port", "0", "--timeout", "0.5"])
    assert args.port == 0
    assert float(args.timeout) == 0.5
