import json

import answers
import cli_oneshot
import inproc
import serve_mixed


def test_table_covers_every_cli_op():
    for kind, system in cli_oneshot.OPS:
        assert (kind, system) in answers.ANSWERS


def test_table_covers_every_served_op():
    for kind, system in serve_mixed.WARM_OPS:
        assert (kind, system) in answers.ANSWERS
    for system in cli_oneshot.SHIPPED:  # cold ops: check on a shipped system
        assert ("check", system) in answers.ANSWERS


def test_the_paper_answers_stand():
    # Theorem 4.4: rm is correct, even though `check rm` says otherwise
    # at this commit; fischer-tight is the one system shipped broken.
    assert answers.ANSWERS[("check", "rm")] is True
    broken = {system for (_kind, system), holds in answers.ANSWERS.items() if not holds}
    assert broken == {"fischer-tight"}


def test_table_covers_every_deep_problem():
    names = [name for name, _run in inproc.deep_problems(smoke=False)]
    assert sorted(names) == sorted(answers.DEEP_ANSWERS)


def test_fuzz_truth_matches_how_each_instance_was_built():
    from repro.gen.fuzzer import build_instance

    with open(inproc.POOL_PATH) as fh:
        pool = json.load(fh)
    assert len(pool) == 55
    for entry in pool:
        _system, _claim, expected = build_instance(entry["recipe"])
        assert answers.fuzz_truth(entry["recipe"]) == expected
