import json
import os
import threading

import tracing


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer(op="op1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("outer"):
            pass
    by_layer = {}
    for span in tracer.spans:
        by_layer.setdefault(span["layer"], []).append(span)
    outer = [s for s in by_layer["outer"] if not s["nested"]][0]
    children = sum(s["t1"] - s["t0"] for s in tracer.spans if s is not outer)
    assert abs(outer["self_s"] - (outer["t1"] - outer["t0"] - children)) < 1e-9
    assert [s["nested"] for s in by_layer["outer"]].count(True) == 1
    assert {s["op"] for s in tracer.spans} == {"op1"}


def test_op_set_inside_a_span_keys_everything_it_encloses():
    tracer = tracing.Tracer(op="default")

    def request():
        with tracer.span("serve.http"):
            with tracer.span("serve.journal"):
                pass
            tracer.set_op("job-7")

    thread = threading.Thread(target=request)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert {s["op"] for s in tracer.spans} == {"job-7"}


def test_wrappers_reach_callers_and_come_off_again():
    import repro.analyze.obligations as obligations
    from repro.analyze import fourier_motzkin
    from repro.analyze.constraints import ge, var

    original = fourier_motzkin.decide
    tracer = tracing.Tracer(op="t")
    installation = tracing.install(tracer)
    try:
        # The caller's own `from ... import decide` copy is wrapped too.
        assert obligations.decide is fourier_motzkin.decide is not original
        assert fourier_motzkin.decide([ge(var("x"), 1)]).feasible
        assert [s["layer"] for s in tracer.spans] == ["analyze.fm"]
    finally:
        installation.remove()
    assert obligations.decide is fourier_motzkin.decide is original
    fourier_motzkin.decide([ge(var("x"), 1)])
    assert len(tracer.spans) == 1


def test_unattributed_is_op_time_no_span_covers():
    spans = [
        tracing.span_record("a", "op1", 0.0, 1.0),
        tracing.span_record("b", "op1", 0.5, 2.0),
        tracing.span_record("a", "op2", 0.0, 10.0),
    ]
    assert tracing.unattributed_s([("op1", 0.0, 3.0)], spans) == 1.0
    assert tracing.unattributed_s([("op2", 2.0, 3.0)], spans) == 0.0


def test_coverage_names_layers_that_recorded_nothing():
    metrics = {layer.name + ".calls": 1 for layer in tracing.LAYERS}
    assert tracing.coverage_problems(tracing.FUZZ, metrics) == []
    metrics["core.inclusion.calls"] = 0
    assert tracing.coverage_problems(tracing.FUZZ, metrics) == [
        "core.inclusion recorded 0 calls on fuzz-sweep"
    ]
    assert tracing.coverage_problems(tracing.DEEP, metrics) == []


def test_every_layer_metric_is_declared():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(tracing.layer_metrics([], 1.0))
    assert produced <= declared
