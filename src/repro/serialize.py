"""JSON (de)serialisation of runs, timed sequences, and telemetry.

Lets users persist a failing counterexample run and reload it later —
exactness included: fractions round-trip as ``"p/q"`` strings, ``∞`` as
a tagged object, and the structured state types (:class:`Act` actions,
tuples, :class:`TimeState` with its predictions) as tagged JSON
objects.  :class:`~repro.obs.instrument.TraceEvent` telemetry records
round-trip the same way, and :func:`events_to_jsonl` /
:func:`events_from_jsonl` wrap whole traces in a *versioned* JSONL
container (``python -m repro trace`` output) whose unknown versions are
rejected rather than misread.

Only the value shapes the library itself produces are supported; an
unknown type raises :class:`SerializationError` rather than degrading
silently.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, List

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.obs.instrument import TraceEvent
    from repro.timed.timed_sequence import TimedSequence

__all__ = [
    "SerializationError",
    "TRACE_SCHEMA_VERSION",
    "LEDGER_SCHEMA_VERSION",
    "encode_value",
    "decode_value",
    "run_to_json",
    "run_from_json",
    "events_to_jsonl",
    "events_from_jsonl",
    "LEDGER_SCHEMAS_READABLE",
    "ledger_entry_to_line",
    "ledger_entries_from_jsonl",
    "CACHE_SCHEMA_VERSION",
    "cache_entry_to_json",
    "cache_entry_from_json",
]

#: Version of the JSONL trace container written by
#: :func:`events_to_jsonl`; bumped whenever the event shape changes.
TRACE_SCHEMA_VERSION = 1

#: Version of the JSONL campaign-ledger entries written by
#: :mod:`repro.runner.ledger`; bumped whenever the entry shape changes.
#: Version 2 added writer-identity stamping (``host``/``pid`` on every
#: entry) for cross-host audit of distributed campaigns.
LEDGER_SCHEMA_VERSION = 2

#: Ledger schema versions the reader accepts.  Version 1 entries are a
#: strict subset of version 2 (no ``host``/``pid``), so old ledgers
#: stay resumable; genuinely unknown shapes are still rejected.
LEDGER_SCHEMAS_READABLE = frozenset({1, 2})

#: Version of on-disk verdict-cache entries written by
#: :mod:`repro.cache.store`; bumped whenever the entry shape changes.
CACHE_SCHEMA_VERSION = 1


class SerializationError(ReproError):
    """A value outside the supported shapes was (de)serialised."""


@functools.lru_cache(maxsize=None)
def _tagged_types():
    """``(Act, Prediction, TimeState, TraceEvent)``, imported on first
    use: the verdict cache reads and writes plain JSON through this
    module, and must not pull the automaton model in with it."""
    from repro.core.time_state import Prediction, TimeState
    from repro.ioa.actions import Act
    from repro.obs.instrument import TraceEvent

    return Act, Prediction, TimeState, TraceEvent


def encode_value(value: Any) -> Any:
    """Encode a state/time value into JSON-able form."""
    if value is None or isinstance(value, (str, int)) and not isinstance(value, bool):
        return value
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return {"__frac__": "{}/{}".format(value.numerator, value.denominator)}
    if isinstance(value, float):
        if math.isinf(value):
            return {"__inf__": 1 if value > 0 else -1}
        return {"__float__": repr(value)}
    Act, Prediction, TimeState, TraceEvent = _tagged_types()
    if isinstance(value, Act):
        return {"__act__": value.name, "args": [encode_value(a) for a in value.args]}
    if isinstance(value, Prediction):
        return {"__pred__": [encode_value(value.ft), encode_value(value.lt)]}
    if isinstance(value, TimeState):
        return {
            "__tstate__": {
                "astate": encode_value(value.astate),
                "now": encode_value(value.now),
                "preds": [encode_value(p) for p in value.preds],
            }
        }
    if isinstance(value, TraceEvent):
        return {
            "__trace__": {
                "seq": value.seq,
                "name": value.name,
                "wall": encode_value(value.wall),
                "fields": {k: encode_value(v) for k, v in value.fields.items()},
            }
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    raise SerializationError(
        "cannot serialise value of type {}: {!r}".format(type(value).__name__, value)
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if not isinstance(value, dict):
        return value
    if "__frac__" in value:
        numerator, denominator = value["__frac__"].split("/")
        return Fraction(int(numerator), int(denominator))
    if "__inf__" in value:
        return math.inf if value["__inf__"] > 0 else -math.inf
    if "__float__" in value:
        return float(value["__float__"])
    Act, Prediction, TimeState, TraceEvent = _tagged_types()
    if "__act__" in value:
        return Act(value["__act__"], tuple(decode_value(a) for a in value["args"]))
    if "__pred__" in value:
        ft, lt = value["__pred__"]
        return Prediction(decode_value(ft), decode_value(lt))
    if "__tstate__" in value:
        body = value["__tstate__"]
        return TimeState(
            decode_value(body["astate"]),
            decode_value(body["now"]),
            tuple(decode_value(p) for p in body["preds"]),
        )
    if "__trace__" in value:
        body = value["__trace__"]
        return TraceEvent(
            seq=body["seq"],
            name=body["name"],
            wall=decode_value(body["wall"]),
            fields={k: decode_value(v) for k, v in body["fields"].items()},
        )
    if "__tuple__" in value:
        return tuple(decode_value(v) for v in value["__tuple__"])
    raise SerializationError("unknown tagged object: {!r}".format(sorted(value)))


def run_to_json(run: TimedSequence, indent: int = None) -> str:
    """Serialise a run (or any timed sequence) to a JSON string."""
    payload = {
        "states": [encode_value(s) for s in run.states],
        "events": [
            {"action": encode_value(ev.action), "time": encode_value(ev.time)}
            for ev in run.events
        ],
    }
    return json.dumps(payload, indent=indent)


def run_from_json(text: str) -> TimedSequence:
    """Reconstruct a timed sequence from :func:`run_to_json` output."""
    from repro.timed.timed_sequence import TimedEvent, TimedSequence

    payload = json.loads(text)
    states = tuple(decode_value(s) for s in payload["states"])
    events = tuple(
        TimedEvent(decode_value(ev["action"]), decode_value(ev["time"]))
        for ev in payload["events"]
    )
    return TimedSequence(states, events)


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialise a trace to JSONL: one header line carrying the schema
    version, then one encoded :class:`TraceEvent` per line."""
    from repro.obs.instrument import TraceEvent

    lines = [json.dumps({"__trace_jsonl__": TRACE_SCHEMA_VERSION})]
    for ev in events:
        if not isinstance(ev, TraceEvent):
            raise SerializationError(
                "events_to_jsonl expects TraceEvent values, got {!r}".format(ev)
            )
        lines.append(json.dumps(encode_value(ev)))
    return "\n".join(lines) + "\n"


def events_from_jsonl(text: str) -> List[TraceEvent]:
    """Inverse of :func:`events_to_jsonl`.

    Rejects traces without a header or with an unknown schema version —
    silently misreading a future trace shape would be worse than
    failing.
    """
    from repro.obs.instrument import TraceEvent

    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SerializationError("empty trace: missing schema header")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or "__trace_jsonl__" not in header:
        raise SerializationError(
            "trace does not start with a __trace_jsonl__ schema header"
        )
    version = header["__trace_jsonl__"]
    if version != TRACE_SCHEMA_VERSION:
        raise SerializationError(
            "unsupported trace schema version {!r} (supported: {})".format(
                version, TRACE_SCHEMA_VERSION
            )
        )
    events = []
    for line in lines[1:]:
        value = decode_value(json.loads(line))
        if not isinstance(value, TraceEvent):
            raise SerializationError(
                "trace line is not a TraceEvent: {!r}".format(value)
            )
        events.append(value)
    return events


def ledger_entry_to_line(entry: dict) -> str:
    """Serialise one campaign-ledger entry to a self-describing JSONL
    line: every line carries the schema version and a ``kind``, so a
    ledger survives truncation anywhere (each line is independently
    meaningful) and future shapes are rejected rather than misread."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise SerializationError(
            "a ledger entry must be a dict with a 'kind', got {!r}".format(entry)
        )
    body = dict(entry)
    body["schema"] = LEDGER_SCHEMA_VERSION
    try:
        return json.dumps(body, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            "ledger entry is not JSON-serialisable: {}".format(exc)
        )


def ledger_entries_from_jsonl(text: str, tolerate_torn_tail: bool = True) -> List[dict]:
    """Parse ledger JSONL back into entry dicts.

    A campaign killed mid-write (SIGKILL, power loss) may leave a torn
    final line; with ``tolerate_torn_tail`` that one line is dropped —
    the per-line schema makes every *complete* line usable.  Torn or
    unknown-schema lines anywhere else raise
    :class:`SerializationError`.
    """
    raw_lines = [line for line in text.splitlines() if line.strip()]
    entries: List[dict] = []
    for index, line in enumerate(raw_lines):
        try:
            body = json.loads(line)
        except ValueError:
            if tolerate_torn_tail and index == len(raw_lines) - 1:
                break
            raise SerializationError(
                "ledger line {} is not valid JSON: {!r}".format(index + 1, line[:80])
            )
        if not isinstance(body, dict) or "kind" not in body:
            raise SerializationError(
                "ledger line {} is not an entry dict: {!r}".format(index + 1, line[:80])
            )
        if body.get("schema") not in LEDGER_SCHEMAS_READABLE:
            raise SerializationError(
                "unsupported ledger schema {!r} on line {} (supported: {})".format(
                    body.get("schema"),
                    index + 1,
                    ", ".join(str(v) for v in sorted(LEDGER_SCHEMAS_READABLE)),
                )
            )
        entries.append(body)
    return entries


def cache_entry_to_json(key: str, payload: dict, meta: dict) -> str:
    """Serialise one verdict-cache entry.

    The entry is self-describing: it carries the schema version, its own
    content-address ``key`` (so a file moved or copied to the wrong slot
    is detected on read), free-form plain-JSON ``payload`` (the cached
    verdict) and ``meta`` (fingerprint/engine provenance for humans and
    invalidation audits).
    """
    body = {
        "schema": CACHE_SCHEMA_VERSION,
        "key": key,
        "payload": payload,
        "meta": meta,
    }
    try:
        return json.dumps(body, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            "cache entry is not JSON-serialisable: {}".format(exc)
        )


def cache_entry_from_json(text: str, expected_key: str) -> dict:
    """Parse a verdict-cache entry back to its ``payload`` dict.

    Raises :class:`SerializationError` on torn/invalid JSON, an
    unsupported schema version, or a key mismatch — callers treat all
    three as a cache miss and recompute.
    """
    try:
        body = json.loads(text)
    except ValueError as exc:
        raise SerializationError("torn cache entry: {}".format(exc))
    if not isinstance(body, dict) or body.get("schema") != CACHE_SCHEMA_VERSION:
        raise SerializationError(
            "unsupported cache entry schema {!r} (supported: {})".format(
                body.get("schema") if isinstance(body, dict) else None,
                CACHE_SCHEMA_VERSION,
            )
        )
    if body.get("key") != expected_key:
        raise SerializationError(
            "cache entry key mismatch: stored {!r}, expected {!r}".format(
                body.get("key"), expected_key
            )
        )
    payload = body.get("payload")
    if not isinstance(payload, dict):
        raise SerializationError("cache entry payload is not a dict")
    return payload
