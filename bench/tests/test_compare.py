import json

import compare


def test_regression_is_a_median_worse_by_more_than_the_bound():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(parent, [1.3] * 5, "lower", 0.25) == "regression"
    assert compare.verdict(parent, [1.2] * 5, "lower", 0.25) == "no change"
    assert compare.verdict(parent, [0.7] * 5, "higher", 0.25) == "regression"


def test_a_win_needs_ten_pairs_nine_of_them_won_and_a_gap_beyond_the_iqr():
    parent = [1.0 + 0.01 * (i % 3) for i in range(10)]
    change = [0.8] * 10
    assert compare.verdict(parent, change, "lower", 0.25) == "win"
    assert compare.verdict(parent[:9], change[:9], "lower", 0.25) == "no change"
    mixed = [0.8] * 8 + [1.1, 1.1]
    assert compare.verdict(parent, mixed, "lower", 0.25) == "no change"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    noisy = [0.6, 1.0, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, [1.0] * 10, "lower", 0.25) == "unresolved"
    assert compare.verdict(noisy, [0.5] * 10, "lower", 0.25) == "win"


def test_compare_reads_run_records(tmp_path):
    def record(path, warm):
        payload = {"meta": {}, "records": [{
            "workload": "deep-verify",
            "metrics": {"warm_p50_s": {"value": warm, "unit": "s"}},
        }]}
        path.write_text(json.dumps(payload))
        return str(path)

    parents = [record(tmp_path / "p{}.json".format(i), 2.0) for i in range(3)]
    changes = [record(tmp_path / "c{}.json".format(i), 3.0) for i in range(3)]
    lines, regressed = compare.compare(parents, changes)
    assert regressed
    assert "deep-verify" in lines[1] and lines[1].endswith("regression")
