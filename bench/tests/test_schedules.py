import itertools

import cli_oneshot
import serve_mixed


def test_serve_arrivals_are_seeded():
    first = serve_mixed.arrivals(3, "nominal", 8.0, count=100)
    assert first == serve_mixed.arrivals(3, "nominal", 8.0, count=100)
    assert first != serve_mixed.arrivals(4, "nominal", 8.0, count=100)
    assert len(first) == 100 and first == sorted(first)
    step = serve_mixed.arrivals(3, "16.0", 16.0, duration=3.0)
    assert step == serve_mixed.arrivals(3, "16.0", 16.0, duration=3.0)
    assert all(0.0 < t < 3.0 for t in step)


def test_serve_op_stream_is_seeded_and_balanced():
    ops = list(itertools.islice(serve_mixed.op_stream(5), 200))
    assert ops == list(itertools.islice(serve_mixed.op_stream(5), 200))
    assert ops != list(itertools.islice(serve_mixed.op_stream(6), 200))
    for start in range(0, 200, serve_mixed.BLOCK):
        block = ops[start:start + serve_mixed.BLOCK]
        assert sum(op["cold"] for op in block) == 1
    cold_seeds = [op["params"]["seed"] for op in ops if op["cold"]]
    assert len(cold_seeds) == len(set(cold_seeds)), "a cold op repeated its seed"
    warm = [(op["kind"], op["system"]) for op in ops if not op["cold"]]
    assert sorted(warm[:len(serve_mixed.WARM_OPS)]) == sorted(serve_mixed.WARM_OPS)


def test_cli_op_order_is_seeded():
    orders = cli_oneshot.round_orders(7, 0)
    assert orders == cli_oneshot.round_orders(7, 0)
    assert orders != cli_oneshot.round_orders(8, 0)
    (cold_name, cold), (warm_name, warm) = orders
    assert (cold_name, warm_name) == ("cold", "warm")
    assert sorted(cold) == sorted(warm) == sorted(cli_oneshot.OPS)
    kinds = [kind for kind, _system in cold]
    assert kinds == sorted(kinds, key=["lint", "analyze", "check"].index)


def test_cli_smoke_round_warms_what_it_cooled():
    (_, cold), (_, warm) = cli_oneshot.round_orders(7, 0, smoke=True)
    assert len(cold) == 3 and sorted(cold) == sorted(warm)
