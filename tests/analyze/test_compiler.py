"""The obligation compiler on a mapping no shipped system declares: the
pulse system's fire-to-fire gap (tests/core/test_checker.py)."""

from repro.analyze.compiler import compile_steps, mapping_obligations
from repro.analyze.obligations import Verdict
from repro.core.mappings import InequalityMapping
from repro.core.time_automaton import time_of_conditions
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval

from tests.core.test_checker import pulse_setup


def _steps(mapping, max_states=4_000):
    return compile_steps("pulse", "gap", mapping, max_states)


def test_declared_mapping_is_proved_from_its_zone_graph():
    _timed, _algorithm, _requirements, mapping = pulse_setup()
    verdicts = [o.verdict for o in mapping_obligations("pulse", [("gap", mapping)], "", 4_000)]
    assert verdicts == [Verdict.PROVED] * 3
    steps = _steps(mapping)
    assert "zone graph" in steps.detail
    # Every action of every reachable configuration is a case.
    assert steps.cases == ("False -'fire'-> True", "True -'arm'-> False")


def test_untimed_reachability_alone_also_proves_it():
    _timed, algorithm, _requirements, mapping = pulse_setup()
    algorithm.timed = None  # as for a B_k source
    steps = _steps(mapping)
    assert steps.verdict is Verdict.PROVED
    assert "zone graph" not in steps.detail


def test_a_wrong_requirement_is_never_proved():
    timed, algorithm, _requirements, mapping = pulse_setup()
    gap = TimingCondition.after_action("GAP", Interval(1, 3), "fire", {"fire"})
    tight = time_of_conditions(timed.automaton, [gap], name="req")
    bad = InequalityMapping(algorithm, tight, mapping.cases, case_of=mapping.case_of)
    steps = _steps(bad)
    assert steps.verdict is Verdict.UNKNOWN
    assert steps.detail.startswith("case ")


def test_the_trivial_declaration_is_unknown_not_refuted():
    # With no inequality nothing bounds the target's deadline: the
    # compiler cannot prove the step, and a failed entailment is never
    # a refutation.
    _timed, algorithm, requirements, _mapping = pulse_setup()
    steps = _steps(InequalityMapping(algorithm, requirements, ()))
    assert steps.verdict is Verdict.UNKNOWN


def test_past_the_configuration_cap_is_unknown():
    _timed, _algorithm, _requirements, mapping = pulse_setup()
    steps = _steps(mapping, max_states=2)
    assert steps.verdict is Verdict.UNKNOWN
    assert "past 2" in steps.detail


def test_only_a_time_of_boundmap_source_loads_the_zone_engine():
    # rm's source is time(A, b): its steps read rm's zone graph.  The
    # relay's and the chain's levels have B_k sources: untimed only.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; from repro.analyze import discharge_system; "
        "discharge_system(sys.argv[1]); "
        "print(any(m.startswith('repro.zones') for m in sys.modules))"
    )
    loaded = {}
    for name in ("rm", "relay", "chain"):
        proc = subprocess.run(
            [sys.executable, "-c", code, name],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120, check=True,
        )
        loaded[name] = proc.stdout.strip()
    assert loaded == {"rm": "True", "relay": "False", "chain": "False"}
