"""Structured tracing: spans, counters, and gauges for per-phase metrics.

The paper's evaluation (§6) is an argument about *where* time goes —
which lattice levels are visited, how many candidates each level
generates/prunes/validates, how much of a run is PLI intersection work —
yet wall-clock totals alone cannot regenerate those breakdowns.  This
module is the process-local event layer that makes them observable:

* :class:`Tracer` collects a flat list of JSON-ready event dicts;
* ``tracer.span(name, **attrs)`` opens a nested, monotonic-clock-timed
  span (one per lattice level, algorithm phase, or framework execution);
* ``tracer.count(name, n)`` accumulates cheap high-frequency counters
  into the innermost open span (rolled up to the parent on exit);
* ``tracer.counter/gauge/event(...)`` emit standalone typed events.

Tracing is **off by default** and built for near-zero disabled overhead:
the whole layer hangs off the module global :data:`ACTIVE` (``None``
when disabled), so instrumented hot paths pay one global read and one
``is None`` branch — the same pattern the execution guard uses — and
must not build attribute dicts or f-strings before that check.

Events are deterministic modulo timestamps: every wall-clock value lives
under the ``"seconds"`` key, which :func:`structural` strips, and span
ids can be rebased per captured slice (:class:`capture`), so the traces
of a serial sweep and of a ``jobs=N`` sweep compare structurally equal.

Like :mod:`repro.guard`, this is a leaf module (the standard library
plus :mod:`repro.durable`) so the PLI kernel and the algorithms can hook
in without importing the harness;
:mod:`repro.harness` re-exports ``Tracer`` and ``trace_summary`` for
harness users.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterable, Mapping, Sequence

from .durable import write_atomic

__all__ = [
    "Tracer",
    "Span",
    "NULL_SPAN",
    "ACTIVE",
    "enable",
    "disable",
    "active",
    "span",
    "count",
    "event",
    "capture",
    "rebase",
    "structural",
    "write_jsonl",
    "read_jsonl",
    "trace_summary",
    "summary_total_seconds",
    "DEFAULT_SCHEMA",
    "validate_events",
    "validate_trace_file",
    "env_trace_path",
]


class Span:
    """One timed, attributed, counter-carrying section of a trace.

    Created by :meth:`Tracer.span` and registered lazily on ``__enter__``
    (so an unentered span costs nothing): the begin event captures the
    nesting position, the end event the monotonic duration, the final
    attributes (initial ones merged with :meth:`set` updates), and the
    counters accumulated while the span was innermost.  On exit the
    counters are rolled up into the parent span, so outer spans report
    inclusive totals.
    """

    __slots__ = ("tracer", "name", "attrs", "counters", "span_id", "_started")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, int | float] = {}
        self.span_id: int | None = None
        self._started = 0.0

    def set(self, **attrs: Any) -> None:
        """Merge attributes into the span (reported in the end event)."""
        self.attrs.update(attrs)

    def count(self, name: str, value: int | float = 1) -> None:
        """Accumulate a counter on this span directly."""
        self.counters[name] = self.counters.get(name, 0) + value

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        parent = stack[-1].span_id if stack else None
        stack.append(self)
        tracer.events.append(
            {
                "type": "begin",
                "span": self.span_id,
                "parent": parent,
                "name": self.name,
                "attrs": dict(self.attrs),
            }
        )
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        seconds = time.perf_counter() - self._started
        tracer = self.tracer
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # tolerate mis-nested exits; never corrupt
            stack.remove(self)
        if stack and self.counters:
            parent = stack[-1]
            for name, value in self.counters.items():
                parent.counters[name] = parent.counters.get(name, 0) + value
        tracer.events.append(
            {
                "type": "end",
                "span": self.span_id,
                "name": self.name,
                "seconds": seconds,
                "attrs": dict(self.attrs),
                "counters": dict(self.counters),
            }
        )
        return False


class _NullSpan:
    """The disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def count(self, name: str, value: int | float = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: Shared no-op span returned by the module helpers while disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Process-local collector of structured trace events.

    ``events`` is a flat list of plain dicts (JSON-ready; see
    :data:`DEFAULT_SCHEMA`), appended in emission order: begin events
    give the nesting structure, end events the timings and counters.
    ``counters`` holds :meth:`count` increments that occur outside any
    open span (rare; surfaced programmatically, not as events, so a hot
    loop outside a span cannot flood the buffer).
    """

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        self.counters: dict[str, int | float] = {}
        self._stack: list[Span] = []
        self._next_id = 0

    # -- spans ------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A new (unentered) span; use as ``with tracer.span(...) as s:``."""
        return Span(self, name, attrs)

    @property
    def current_span_id(self) -> int | None:
        """Id of the innermost open span (``None`` at top level)."""
        return self._stack[-1].span_id if self._stack else None

    # -- high-frequency counters ------------------------------------------

    def count(self, name: str, value: int | float = 1) -> None:
        """Accumulate a counter on the innermost open span.

        The cheap path for per-operation instrumentation (PLI
        intersections, cache hits): a dict upsert, no event emitted.
        Outside any span the increment lands in :attr:`counters`.
        """
        stack = self._stack
        if stack:
            counters = stack[-1].counters
        else:
            counters = self.counters
        counters[name] = counters.get(name, 0) + value

    # -- standalone typed events -------------------------------------------

    def counter(self, name: str, value: int | float, **attrs: Any) -> None:
        """Emit a standalone counter event (a point-in-time increment)."""
        record: dict[str, Any] = {
            "type": "counter",
            "name": name,
            "value": value,
            "span": self.current_span_id,
        }
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    def gauge(self, name: str, value: int | float, **attrs: Any) -> None:
        """Emit a gauge event (a sampled absolute value)."""
        record: dict[str, Any] = {
            "type": "gauge",
            "name": name,
            "value": value,
            "span": self.current_span_id,
        }
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a generic named event (e.g. ``cache.hit``)."""
        self.events.append(
            {
                "type": "event",
                "name": name,
                "attrs": attrs,
                "span": self.current_span_id,
            }
        )

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self.events)} events, depth={len(self._stack)})"
        )


#: The process-local tracer, or ``None`` when tracing is disabled.
#: Hot paths read this exactly once and branch on ``is None`` — do not
#: build attributes or format strings before that check.
ACTIVE: Tracer | None = None


def enable() -> Tracer:
    """Turn tracing on with a fresh tracer (discarding any prior one)."""
    global ACTIVE
    ACTIVE = Tracer()
    return ACTIVE


def disable() -> None:
    """Turn tracing off (instrumented sites become near-free again)."""
    global ACTIVE
    ACTIVE = None


def active() -> Tracer | None:
    """The active tracer, or ``None`` when disabled."""
    return ACTIVE


# -- module-level conveniences (cold call sites only) ----------------------


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """Open-a-span helper for cold call sites.

    Hot loops must guard with ``if trace.ACTIVE is not None:`` *before*
    building attributes; this helper constructs its kwargs dict
    unconditionally and is therefore only for code that runs a handful
    of times per profile.
    """
    tracer = ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def count(name: str, value: int | float = 1) -> None:
    """Counter helper for cold call sites (see :func:`span` caveat)."""
    tracer = ACTIVE
    if tracer is not None:
        tracer.count(name, value)


def event(name: str, **attrs: Any) -> None:
    """Standalone-event helper for cold call sites."""
    tracer = ACTIVE
    if tracer is not None:
        tracer.event(name, **attrs)


# -- capture (per-sweep-point trace slices) --------------------------------


def rebase(events: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Renumber span ids to 0..n in first-appearance order.

    Parents outside the slice map to ``None``.  This is what makes a
    captured slice independent of everything traced before it — the
    point traces of a serial sweep and of pool workers (whose tracers
    carry different histories) become structurally comparable.
    """
    mapping: dict[int, int] = {}
    rebased: list[dict[str, Any]] = []
    for record in events:
        record = dict(record)
        span_id = record.get("span")
        if span_id is not None:
            if span_id not in mapping:
                mapping[span_id] = len(mapping)
            record["span"] = mapping[span_id]
        if "parent" in record and record["parent"] is not None:
            record["parent"] = mapping.get(record["parent"])
        rebased.append(record)
    return rebased


class capture:
    """Collect the events emitted while the context is active.

    ``events`` holds the rebased slice after exit (``[]`` when tracing
    is disabled).  With ``drain=True`` the collected events are removed
    from the tracer's buffer — the mode the sweep runner uses so a
    long-lived process does not accumulate every point's trace twice
    (once in the buffer, once on the :class:`SweepPoint`).
    """

    def __init__(self, drain: bool = False):
        self.drain = drain
        self.events: list[dict[str, Any]] = []
        self._tracer: Tracer | None = None
        self._mark = 0

    def __enter__(self) -> "capture":
        tracer = ACTIVE
        self._tracer = tracer
        self._mark = len(tracer.events) if tracer is not None else 0
        return self

    def __exit__(self, *exc_info: object) -> bool:
        tracer = self._tracer
        if tracer is not None:
            self.events = rebase(tracer.events[self._mark:])
            if self.drain:
                del tracer.events[self._mark:]
        return False


def structural(events: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Deep-copied events with every volatile field stripped.

    Timings all live under the ``"seconds"`` key by convention, so
    removing it (and normalizing through JSON, which also maps tuples to
    lists exactly like a journal round-trip does) leaves the
    deterministic skeleton: names, nesting, attributes, counters.  Two
    runs of the same work — serial vs. pooled, traced now vs. replayed
    from a journal — compare equal on this form.
    """
    stripped: list[dict[str, Any]] = []
    for record in events:
        record = json.loads(json.dumps(record, sort_keys=True, default=str))
        record.pop("seconds", None)
        stripped.append(record)
    return stripped


# -- JSONL sink -------------------------------------------------------------


def write_jsonl(
    events: Iterable[Mapping[str, Any]], path: str | os.PathLike[str]
) -> int:
    """Write events one JSON object per line, replacing ``path``
    atomically; returns the event count."""
    lines = [json.dumps(event, sort_keys=True, default=str) + "\n" for event in events]
    write_atomic(path, lines)
    return len(lines)


def read_jsonl(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Read a JSONL trace back into a list of event dicts."""
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def env_trace_path() -> str | None:
    """Trace output path requested via ``$REPRO_TRACE``, if any.

    ``REPRO_TRACE`` enables tracing when set to anything but ``""``/``0``;
    a value that is not a plain boolean token is additionally treated as
    the JSONL output path (the CLI's ``--trace`` default).
    """
    value = os.environ.get("REPRO_TRACE", "")
    if value in ("", "0") or value.lower() in ("1", "true", "yes", "on"):
        return None
    return value


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "") not in ("", "0")


# -- aggregation ------------------------------------------------------------


def trace_summary(
    events: Iterable[Mapping[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Aggregate a trace into per-phase rows (the Fig. 8-style table).

    Spans aggregate by name — split per lattice level when a ``level``
    attribute is present (``"tane.level[3]"``) — into rows with
    ``count``, inclusive ``seconds``, exclusive ``self_seconds``
    (inclusive minus direct children), and summed ``counters``.
    Standalone counter/gauge/event records aggregate by name with their
    occurrence count (and summed ``value`` for counters).

    Because self-seconds partition each root span's duration exactly,
    ``sum(row["self_seconds"])`` over all rows reconstructs the traced
    wall time — the invariant the harness tests pin to within 10 % of
    the reported runtime.
    """
    events = list(events)
    parent_of: dict[int, int | None] = {}
    for record in events:
        if record.get("type") == "begin":
            parent_of[record["span"]] = record.get("parent")

    child_seconds: dict[int, float] = {}
    for record in events:
        if record.get("type") != "end":
            continue
        parent = parent_of.get(record["span"])
        if parent is not None:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + record.get(
                "seconds", 0.0
            )

    summary: dict[str, dict[str, Any]] = {}

    def row(key: str) -> dict[str, Any]:
        entry = summary.get(key)
        if entry is None:
            entry = summary[key] = {
                "count": 0,
                "seconds": 0.0,
                "self_seconds": 0.0,
                "counters": {},
            }
        return entry

    for record in events:
        kind = record.get("type")
        if kind == "end":
            attrs = record.get("attrs") or {}
            key = record["name"]
            if "level" in attrs:
                key = f"{key}[{attrs['level']}]"
            entry = row(key)
            seconds = record.get("seconds", 0.0)
            entry["count"] += 1
            entry["seconds"] += seconds
            entry["self_seconds"] += seconds - child_seconds.get(
                record["span"], 0.0
            )
            for name, value in (record.get("counters") or {}).items():
                entry["counters"][name] = entry["counters"].get(name, 0) + value
        elif kind in ("counter", "gauge", "event"):
            entry = row(record["name"])
            entry["count"] += 1
            if kind == "counter":
                entry["counters"]["value"] = (
                    entry["counters"].get("value", 0) + record.get("value", 0)
                )
    return summary


def summary_total_seconds(summary: Mapping[str, Mapping[str, Any]]) -> float:
    """Total traced wall time: the sum of every row's self-seconds."""
    return sum(entry.get("self_seconds", 0.0) for entry in summary.values())


# -- schema validation -------------------------------------------------------

#: The trace wire format, mirrored by ``docs/trace_schema.json`` (CI
#: validates emitted JSONL against the checked-in copy; a test keeps the
#: two in sync).  Field types use a compact union notation
#: (``"int|null"``); ``optional`` fields may be absent, unknown fields
#: are rejected so drift surfaces immediately.
DEFAULT_SCHEMA: dict[str, Any] = {
    "description": (
        "repro structured trace, one JSON event object per line; every "
        "wall-clock value lives under the 'seconds' key so consumers can "
        "strip timings for structural comparison"
    ),
    "event_types": {
        "begin": {
            "required": {
                "span": "int",
                "parent": "int|null",
                "name": "str",
                "attrs": "object",
            },
            "optional": {},
        },
        "end": {
            "required": {
                "span": "int",
                "name": "str",
                "seconds": "float",
                "attrs": "object",
                "counters": "object",
            },
            "optional": {},
        },
        "counter": {
            "required": {"name": "str", "value": "int|float"},
            "optional": {"span": "int|null", "attrs": "object"},
        },
        "gauge": {
            "required": {"name": "str", "value": "int|float"},
            "optional": {"span": "int|null", "attrs": "object"},
        },
        "event": {
            "required": {"name": "str", "attrs": "object"},
            "optional": {"span": "int|null", "seconds": "float"},
        },
    },
    # Informative registry of well-known event names (not exhaustive —
    # validation keys off event_types only, so unknown names still pass).
    "names": {
        "pli": {
            "spans": ["pli.build_index"],
            "counters": [
                "pli.intersections",
                "pli.clustered_rows",
                "pli.probe_builds",
                "pli.probe_reuses",
                "pli.store_reuses",
                "pli.delta_merges",
                "pli.delta_reclustered_rows",
            ],
            "events": [],
        },
        "incremental": {
            "spans": [
                "incremental.append",
                "incremental.maintain",
                "incremental.revalidate_uccs",
                "incremental.revalidate_fds",
                "incremental.revalidate_inds",
            ],
            "counters": [
                "incremental.appended_rows",
                "incremental.partner_rows",
                "incremental.refuted_uccs",
                "incremental.refuted_fds",
                "incremental.ind_rechecks",
                "incremental.composites_kept",
                "incremental.composites_deferred",
            ],
            "events": ["incremental.watch_update"],
        },
        "sampling": {
            "spans": ["sampling.harvest", "sampling.ind_prefilter"],
            "counters": [
                "sampling.harvest_rows",
                "sampling.fd_refuted",
                "sampling.ucc_refuted",
                "sampling.ind_refuted",
                "sampling.exact_avoided",
            ],
            "events": ["sampling.bypass"],
        },
        "cache": {
            "spans": [],
            "counters": ["cache.corrupt"],
            "events": ["cache.hit", "cache.corrupt", "cache.put_failed"],
        },
        "checkpoint": {
            "spans": [],
            "counters": ["checkpoint.saves", "checkpoint.loads"],
            "events": [
                "checkpoint.save",
                "checkpoint.save_failed",
                "checkpoint.load",
                "checkpoint.complete",
            ],
        },
        "retry": {
            "spans": [],
            "counters": [
                "retry.retries",
                "retry.recovered",
                "retry.exhausted",
            ],
            "events": ["retry.backoff"],
        },
        "watchdog": {
            "spans": [],
            "counters": ["watchdog.kills"],
            "events": ["watchdog.kill"],
        },
        "storage": {
            "spans": ["storage.encode"],
            "counters": [
                "storage.encoded_columns",
                "storage.dictionary_entries",
                "storage.spilled_bytes",
            ],
            "events": [],
        },
        "schema": {
            "spans": [
                "schema.job",
                "schema.load",
                "schema.profile",
                "schema.cross_inds",
                "schema.rank_fks",
            ],
            "counters": [
                "schema.tables",
                "schema.dedup_hits",
                "schema.inds_across",
                "schema.fk_candidates",
            ],
            "events": ["schema.dedup", "schema.load_failed"],
        },
    },
}

_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "null": lambda v: v is None,
}


def _matches(value: Any, spec: str) -> bool:
    return any(_TYPE_CHECKS[name](value) for name in spec.split("|"))


def validate_events(
    events: Sequence[Mapping[str, Any]],
    schema: Mapping[str, Any] | None = None,
) -> int:
    """Validate events against the trace schema; returns the event count.

    Raises :class:`ValueError` naming the first offending event, its
    index, and what was wrong — a malformed trace must fail loudly, not
    render a silently wrong per-phase table.
    """
    schema = schema or DEFAULT_SCHEMA
    event_types = schema["event_types"]
    for index, record in enumerate(events):
        if not isinstance(record, Mapping):
            raise ValueError(f"event {index}: not an object: {record!r}")
        kind = record.get("type")
        if kind not in event_types:
            raise ValueError(
                f"event {index}: unknown type {kind!r} "
                f"(expected one of {sorted(event_types)})"
            )
        shape = event_types[kind]
        required, optional = shape["required"], shape["optional"]
        for field, spec in required.items():
            if field not in record:
                raise ValueError(
                    f"event {index} ({kind}): missing field {field!r}"
                )
            if not _matches(record[field], spec):
                raise ValueError(
                    f"event {index} ({kind}): field {field!r} is "
                    f"{record[field]!r}, expected {spec}"
                )
        for field, value in record.items():
            if field == "type" or field in required:
                continue
            if field not in optional:
                raise ValueError(
                    f"event {index} ({kind}): unexpected field {field!r}"
                )
            if not _matches(value, optional[field]):
                raise ValueError(
                    f"event {index} ({kind}): field {field!r} is "
                    f"{value!r}, expected {optional[field]}"
                )
    return len(events)


def validate_trace_file(
    path: str | os.PathLike[str],
    schema_path: str | os.PathLike[str] | None = None,
) -> int:
    """Parse and validate a JSONL trace file; returns the event count.

    ``schema_path`` points at a checked-in schema document (CI uses
    ``docs/trace_schema.json``); ``None`` validates against the built-in
    :data:`DEFAULT_SCHEMA`.
    """
    schema = None
    if schema_path is not None:
        with open(schema_path, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
    return validate_events(read_jsonl(path), schema)


# Opt-in via environment: workers spawned with REPRO_TRACE set come up
# tracing without any in-band coordination.
if _env_enabled():  # pragma: no cover - exercised via subprocess tests
    ACTIVE = Tracer()
