"""Layer spans for the traced runs (``--trace 1``).

The benchmark records spans from its own files, around the calls into
each layer: :func:`install` replaces every public entry point listed in
:data:`LAYERS` with a wrapper, at the name its callers look up at call
time.  A module already imported is patched at once (together with any
``from module import name`` copies in loaded ``repro`` modules); one
imported later is patched the moment it finishes executing, by an
import hook, so tracing changes no import order.

Spans stay in memory, keyed by an op id (a CLI process, a pass problem,
a served job id), and are written as JSONL when the process ends.  All
timestamps are ``time.monotonic()``, one clock for every process on the
host, so server and client spans line up.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Layer:
    """One layer: its span name, the workloads whose traced run must
    record at least one call (the coverage self-check), and the
    ``module:qualname`` entry points wrapped for it."""

    name: str
    serves: Tuple[str, ...]
    targets: Tuple[str, ...] = ()


CLI, DEEP, FUZZ, SERVE = "cli-oneshot", "deep-verify", "fuzz-sweep", "serve-mixed"

LAYERS: Tuple[Layer, ...] = (
    # Recorded by the benchmark itself: interpreter start-up before the
    # shim's first line, the import of repro.cli, and process exit.
    Layer("python.startup", (CLI,)),
    Layer("cli.import", (CLI,)),
    Layer("python.shutdown", (CLI,)),
    Layer("cli.parser", (CLI,), ("repro.cli:build_parser",)),
    Layer("cli.main", (CLI,), ("repro.cli:main",)),
    Layer("cache.verdict_key", (CLI, SERVE), ("repro.cache.fingerprint:verdict_key",)),
    Layer("cache.lookup", (CLI, SERVE), ("repro.cache.store:VerdictCache.lookup",)),
    Layer("cache.store", (CLI, SERVE), ("repro.cache.store:VerdictCache.store",)),
    Layer("lint.system", (CLI, FUZZ), ("repro.lint.driver:lint_system",)),
    Layer("analyze.system", (CLI, DEEP), ("repro.analyze.driver:analyze_system",)),
    Layer("analyze.fm", (CLI, DEEP, FUZZ), ("repro.analyze.fourier_motzkin:decide",)),
    Layer("zones.search", (DEEP,), ("repro.zones.analysis:search_reachable_state",)),
    Layer("zones.verify", (FUZZ,), ("repro.zones.verify:verify_event_condition",)),
    Layer("zones.graph", (DEEP, FUZZ), ("repro.zones.zone_graph:explore_zone_graph",)),
    Layer("core.mapping", (DEEP, FUZZ), ("repro.core.checker:check_mapping_exhaustive",)),
    Layer("core.inclusion", (FUZZ,), ("repro.core.inclusion:check_semantic_inclusion",)),
    Layer("ioa.explore", (CLI, DEEP), ("repro.ioa.explorer:explore",)),
    # PerturbTarget.evaluate is a dataclass field: the factory is
    # wrapped so every target it returns carries a spanned evaluate.
    Layer("faults.battery", (CLI, DEEP), ("repro.faults.targets:build_perturb_target",)),
    Layer("sim.run", (CLI, DEEP), ("repro.sim.scheduler:Simulator.run",)),
    Layer("gen.build_instance", (FUZZ,), ("repro.gen.fuzzer:build_instance",)),
    Layer(
        "serve.http",
        (SERVE,),
        ("repro.serve.app:_Handler.do_POST", "repro.serve.app:_Handler.do_GET"),
    ),
    Layer("serve.submit", (SERVE,), ("repro.serve.app:VerificationService.submit",)),
    Layer(
        "serve.journal",
        (SERVE,),
        ("repro.serve.journal:Journal.job", "repro.serve.journal:Journal.done"),
    ),
)


class Tracer:
    """Spans and counts of one process, kept in memory.

    Each thread keeps its own span stack, so self time is exact: a
    span's duration minus the durations of the spans it directly
    encloses.  A span nested inside a span of the same layer is marked
    ``nested`` so busy time counts the outermost one only.  Spans are
    published when their thread's outermost span ends, taking the op id
    set during it (a served job id is only known once admitted), else
    :attr:`op`.
    """

    def __init__(self, op: Optional[str] = None):
        self.op = op
        self.spans: List[Dict[str, Any]] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.pending, local.op = [], [], None
        return local

    def set_op(self, op: Optional[str]) -> None:
        """Key the current thread's outermost span (and what it
        encloses) by ``op``."""
        if op is not None:
            self._thread().op = op

    def begin(self, layer: str) -> list:
        local = self._thread()
        if not local.stack:
            local.op = None
        nested = any(frame[0] == layer for frame in local.stack)
        frame = [layer, time.monotonic(), 0.0, nested]
        local.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        t1 = time.monotonic()
        local = self._thread()
        local.stack.pop()
        layer, t0, child_s, nested = frame
        if local.stack:
            local.stack[-1][2] += t1 - t0
        local.pending.append(
            {
                "layer": layer,
                "op": None,
                "t0": t0,
                "t1": t1,
                "self_s": t1 - t0 - child_s,
                "nested": nested,
                "pid": os.getpid(),
            }
        )
        if local.stack:
            return
        op = local.op if local.op is not None else self.op
        for span in local.pending:
            span["op"] = op
        with self._lock:
            self.spans.extend(local.pending)
        local.pending = []

    @contextlib.contextmanager
    def span(self, layer: str):
        frame = self.begin(layer)
        try:
            yield
        finally:
            self.end(frame)

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def dump(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write every span as one JSON line, then one ``meta`` line
        holding the counts."""
        with self._lock:
            lines = [json.dumps(span, sort_keys=True) for span in self.spans]
            tail = {"meta": dict(meta or {}), "counts": dict(self.counts)}
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.write(json.dumps(tail, sort_keys=True) + "\n")


def span_record(layer: str, op: Optional[str], t0: float, t1: float) -> Dict[str, Any]:
    """A span measured outside any wrapper (a whole process's start-up,
    a client's send lag), with no children."""
    return {"layer": layer, "op": op, "t0": t0, "t1": t1, "self_s": t1 - t0,
            "nested": False, "pid": None}


def load_spans(path: str) -> Tuple[List[Dict[str, Any]], Dict[str, Any], Dict[str, float]]:
    """``(spans, meta, counts)`` from a file written by :meth:`Tracer.dump`."""
    spans: List[Dict[str, Any]] = []
    meta: Dict[str, Any] = {}
    counts: Dict[str, float] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if "meta" in record:
                meta, counts = record["meta"], record["counts"]
            else:
                spans.append(record)
    return spans, meta, counts


# ----------------------------------------------------------------------
# What a wrapper records beyond its span
# ----------------------------------------------------------------------


def _op_from_job_body(args, result):
    return args[1].get("job_id") if isinstance(args[1], dict) else None


def _op_from_submit(args, result):
    return result[1].get("job_id") if isinstance(result, tuple) else None


def _op_from_get(args, result):
    path = getattr(args[0], "path", "")
    return path.rsplit("/", 1)[-1] if path.startswith("/v1/jobs/") else None


#: target -> op id from ``(args, result)``.
_OP_OF: Dict[str, Callable] = {
    "repro.serve.app:VerificationService.submit": _op_from_submit,
    "repro.serve.app:_Handler.do_GET": _op_from_get,
    "repro.serve.journal:Journal.job": _op_from_job_body,
    "repro.serve.journal:Journal.done": lambda args, result: args[1],
}


def _count_lookup(tracer, result):
    tracer.add("cache.misses" if result is None else "cache.hits")


def _count_inclusion(tracer, result):
    tracer.add("core.inclusion.executions", result.executions_checked)
    tracer.add("core.inclusion.truncated", int(result.truncated))


#: target -> work counted from the result.
_COUNT_OF: Dict[str, Callable] = {
    "repro.cache.store:VerdictCache.lookup": _count_lookup,
    "repro.zones.zone_graph:explore_zone_graph": lambda t, r: t.add("zones.nodes", r.nodes),
    "repro.core.checker:check_mapping_exhaustive": lambda t, r: t.add(
        "core.mapping.steps", r.steps_checked
    ),
    "repro.core.inclusion:check_semantic_inclusion": _count_inclusion,
    "repro.ioa.explorer:explore": lambda t, r: t.add("ioa.states", len(r.reachable)),
    "repro.sim.scheduler:Simulator.run": lambda t, r: t.add("sim.steps", len(r.events)),
}

#: Targets wrapped without a span of their own: the factory hands back
#: a target whose ``evaluate`` is spanned instead.
_TRANSFORM_ONLY = frozenset({"repro.faults.targets:build_perturb_target"})


def _wrap(tracer: Tracer, layer: str, target: str, fn: Callable) -> Callable:
    op_of = _OP_OF.get(target)
    count_of = _COUNT_OF.get(target)

    if target in _TRANSFORM_ONLY:

        @functools.wraps(fn)
        def build(*args, **kwargs):
            built = fn(*args, **kwargs)
            evaluate = built.evaluate

            def spanned(*eargs, **ekwargs):
                with tracer.span(layer):
                    return evaluate(*eargs, **ekwargs)

            return dataclasses.replace(built, evaluate=spanned)

        build.__bench_original__ = fn
        return build

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
            if op_of is not None:
                tracer.set_op(op_of(args, result))
            if count_of is not None:
                count_of(tracer, result)
            return result
        finally:
            tracer.end(frame)

    wrapper.__bench_original__ = fn
    return wrapper


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs ``on_load(module)`` right after one of ``names`` executes."""

    def __init__(self, names: Iterable[str], on_load: Callable):
        self.names = frozenset(names)
        self.on_load = on_load

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module
        on_load = self.on_load

        def exec_then_patch(module):
            exec_module(module)
            on_load(module)

        spec.loader.exec_module = exec_then_patch
        return spec


class Installation:
    """The wrappers of one :class:`Tracer`; :meth:`remove` restores
    every original, including copies made by later imports."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.by_module: Dict[str, List[Tuple[str, str, str]]] = collections.defaultdict(list)
        for layer in LAYERS:
            for target in layer.targets:
                module, qualname = target.split(":")
                self.by_module[module].append((layer.name, qualname, target))
        self.wrappers: Dict[Callable, Callable] = {}
        self.finder = _AfterImport(self.by_module, self._patch_module)

    def apply(self) -> "Installation":
        for name in self.by_module:
            module = sys.modules.get(name)
            if module is not None:
                self._patch_module(module)
        if self.finder not in sys.meta_path:
            sys.meta_path.insert(0, self.finder)
        return self

    @staticmethod
    def _lookup(module, qualname: str):
        """``(owner, attribute, value)`` of ``qualname`` in ``module``;
        the value is None when the name no longer exists (the coverage
        self-check then reports the layer)."""
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
        return owner, attr, getattr(owner, attr, None)

    def _patch_module(self, module) -> None:
        for layer, qualname, target in self.by_module[module.__name__]:
            owner, attr, fn = self._lookup(module, qualname)
            if fn is None or hasattr(fn, "__bench_original__"):
                continue
            wrapper = _wrap(self.tracer, layer, target, fn)
            setattr(owner, attr, wrapper)
            self.wrappers[fn] = wrapper
        self._rebind(self.wrappers)

    @staticmethod
    def _rebind(mapping: Dict[Callable, Callable]) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                try:
                    replacement = mapping.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if replacement is not None:
                    setattr(module, attr, replacement)

    def remove(self) -> None:
        if self.finder in sys.meta_path:
            sys.meta_path.remove(self.finder)
        originals = {wrapper: fn for fn, wrapper in self.wrappers.items()}
        for name, entries in self.by_module.items():
            module = sys.modules.get(name)
            if module is None:
                continue
            for _layer, qualname, _target in entries:
                owner, attr, value = self._lookup(module, qualname)
                if value in originals:
                    setattr(owner, attr, originals[value])
        self._rebind(originals)
        self.wrappers = {}


def install(tracer: Tracer) -> Installation:
    return Installation(tracer).apply()


# ----------------------------------------------------------------------
# From spans to per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(spans: Sequence[Dict[str, Any]], wall_s: float) -> Dict[str, float]:
    """``<layer>.calls``, ``.busy_frac`` and ``.self_frac`` for every
    layer: busy and self time as shares of ``wall_s``, the measured
    wall time the spans were recorded in."""
    calls: Dict[str, int] = collections.Counter()
    busy: Dict[str, float] = collections.Counter()
    own: Dict[str, float] = collections.Counter()
    for span in spans:
        calls[span["layer"]] += 1
        own[span["layer"]] += span["self_s"]
        if not span["nested"]:
            busy[span["layer"]] += span["t1"] - span["t0"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[layer.name + ".calls"] = calls[layer.name]
        out[layer.name + ".busy_frac"] = busy[layer.name] / wall_s if wall_s else 0.0
        out[layer.name + ".self_frac"] = own[layer.name] / wall_s if wall_s else 0.0
    return out


def unattributed_s(
    ops: Sequence[Tuple[str, float, float]], spans: Sequence[Dict[str, Any]]
) -> float:
    """Wall time of ``(op, t0, t1)`` ops that no span of the same op
    covers."""
    import stats  # not at module level: shims import this module before repro

    by_op: Dict[Any, List[Tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        by_op[span["op"]].append((span["t0"], span["t1"]))
    total = 0.0
    for op, t0, t1 in ops:
        clipped = [(max(a, t0), min(b, t1)) for a, b in by_op.get(op, ())]
        total += (t1 - t0) - stats.union_length(clipped)
    return total


def coverage_problems(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Layers this workload's traced run must reach but recorded no
    call for — usually a wrapper patched at a name nobody calls."""
    return [
        "{} recorded 0 calls on {}".format(layer.name, workload)
        for layer in LAYERS
        if workload in layer.serves and not metrics.get(layer.name + ".calls")
    ]
