"""Tests for the structured-tracing layer (repro.trace and its harness
re-exports).

Workload builders live at module level: the jobs=2 structural-equality
test pickles them by reference into worker processes.
"""

import json
import time

import pytest

from repro import trace
from repro.harness import (
    ExperimentRunner,
    FrameworkSpec,
    WorkloadSpec,
    default_framework,
    render_profile_report,
    trace_summary,
)
from repro.trace import (
    capture,
    rebase,
    structural,
    summary_total_seconds,
    validate_events,
    validate_trace_file,
    write_jsonl,
)
from repro.pli.pli import pli_from_column
from repro.relation.relation import Relation

ALGORITHMS = ("baseline", "hfun")

FRAMEWORK_SPEC = FrameworkSpec(default_framework, {"seed": 0})


def toy_workload(n_rows):
    """Deterministic little relation with real FD/UCC/IND structure."""
    return Relation.from_rows(
        ["A", "B", "C"],
        [(i, i % 3, (i * 7) % 5) for i in range(int(n_rows))],
        name=f"toy[{n_rows}]",
    )


def _ends(events, name):
    return [e for e in events if e["type"] == "end" and e["name"] == name]


# -- spans: nesting, ordering, attributes ----------------------------------


def test_span_nesting_and_ordering():
    tracer = trace.enable()
    with tracer.span("outer", kind="test"):
        with tracer.span("inner.a"):
            pass
        with tracer.span("inner.b") as b:
            b.set(extra=1)
    events = tracer.events
    assert [e["type"] for e in events] == ["begin", "begin", "end", "begin", "end", "end"]
    begin_outer, begin_a, end_a, begin_b, end_b, end_outer = events
    assert begin_outer["parent"] is None
    assert begin_a["parent"] == begin_outer["span"]
    assert begin_b["parent"] == begin_outer["span"]
    assert end_a["span"] == begin_a["span"]
    assert end_outer["span"] == begin_outer["span"]
    assert begin_outer["attrs"] == {"kind": "test"}
    assert end_b["attrs"] == {"extra": 1}
    assert all(e["seconds"] >= 0.0 for e in (end_a, end_b, end_outer))


def test_counter_aggregation_rolls_up_to_parent():
    tracer = trace.enable()
    with tracer.span("outer"):
        tracer.count("work", 2)
        with tracer.span("inner"):
            tracer.count("work", 5)
            tracer.count("other")
    inner_end = _ends(tracer.events, "inner")[0]
    outer_end = _ends(tracer.events, "outer")[0]
    assert inner_end["counters"] == {"work": 5, "other": 1}
    # Outer reports inclusive totals: its own counts plus the rolled-up
    # child counters.
    assert outer_end["counters"] == {"work": 7, "other": 1}


def test_count_outside_any_span_lands_on_tracer():
    tracer = trace.enable()
    tracer.count("loose", 3)
    assert tracer.events == []
    assert tracer.counters == {"loose": 3}


def test_standalone_events_record_current_span():
    tracer = trace.enable()
    tracer.event("before")
    with tracer.span("s"):
        tracer.counter("c", 2)
        tracer.gauge("g", 7, unit="rows")
    kinds = [(e["type"], e.get("name")) for e in tracer.events]
    assert ("event", "before") in kinds
    counter = next(e for e in tracer.events if e["type"] == "counter")
    gauge = next(e for e in tracer.events if e["type"] == "gauge")
    span_id = tracer.events[1]["span"]
    assert counter["span"] == span_id and counter["value"] == 2
    assert gauge["span"] == span_id and gauge["attrs"] == {"unit": "rows"}
    assert tracer.events[0]["span"] is None


# -- disabled mode ----------------------------------------------------------


def test_disabled_mode_produces_zero_events():
    assert trace.ACTIVE is None  # conftest fixture guarantees this
    framework = default_framework(seed=0)
    framework.run("hfun", toy_workload(30))
    assert trace.ACTIVE is None
    # Module helpers are no-ops while disabled.
    assert trace.span("x") is trace.NULL_SPAN
    trace.count("x")
    trace.event("x")


def test_disabled_overhead_is_bounded():
    """The disabled hot path (one global read + is-None branch) must not
    cost more than the enabled path that does real event work."""
    left = pli_from_column([i % 7 for i in range(400)])
    right = pli_from_column([i % 11 for i in range(400)])

    def loop():
        started = time.perf_counter()
        for _ in range(300):
            left.intersect(right)
        return time.perf_counter() - started

    loop()  # warm up (probe vectors, caches)
    disabled = min(loop() for _ in range(5))
    trace.enable()
    with trace.span("bench"):
        enabled = min(loop() for _ in range(5))
    trace.disable()
    assert disabled <= enabled * 1.5


# -- capture / rebase / structural ------------------------------------------


def test_capture_rebases_and_drains():
    tracer = trace.enable()
    with tracer.span("history"):
        pass
    with capture(drain=True) as captured:
        with tracer.span("fresh"):
            tracer.count("n", 1)
    assert [e["name"] for e in captured.events] == ["fresh", "fresh"]
    # Ids rebased to start at 0 regardless of prior history.
    assert captured.events[0]["span"] == 0
    assert captured.events[0]["parent"] is None
    # Drained: the tracer's buffer holds only the pre-capture history.
    assert [e["name"] for e in tracer.events] == ["history", "history"]


def test_capture_disabled_yields_empty():
    with capture(drain=True) as captured:
        pass
    assert captured.events == []


def test_rebase_maps_unknown_parent_to_none():
    events = [{"type": "begin", "span": 7, "parent": 3, "name": "x", "attrs": {}}]
    assert rebase(events)[0] == {
        "type": "begin",
        "span": 0,
        "parent": None,
        "name": "x",
        "attrs": {},
    }


def test_structural_strips_seconds_and_normalizes():
    tracer = trace.enable()
    with tracer.span("s", n=1):
        pass
    stripped = structural(tracer.events)
    assert all("seconds" not in e for e in stripped)
    assert stripped[0]["name"] == "s"
    # Idempotent under a JSON round-trip (journal parity).
    assert structural(json.loads(json.dumps(stripped))) == stripped


# -- JSONL sink -------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = trace.enable()
    with tracer.span("root", label="x"):
        tracer.count("n", 2)
        tracer.event("marker", why="because")
    path = tmp_path / "trace.jsonl"
    written = write_jsonl(tracer.events, path)
    assert written == len(tracer.events)
    loaded = trace.read_jsonl(path)
    assert loaded == json.loads(json.dumps(tracer.events))
    assert validate_trace_file(path) == written


# -- schema -----------------------------------------------------------------


def test_checked_in_schema_matches_builtin():
    with open("docs/trace_schema.json", "r", encoding="utf-8") as handle:
        assert json.load(handle) == trace.DEFAULT_SCHEMA


def test_schema_registers_sampling_names():
    names = trace.DEFAULT_SCHEMA["names"]["sampling"]
    assert names["spans"] == ["sampling.harvest", "sampling.ind_prefilter"]
    assert names["counters"] == [
        "sampling.harvest_rows",
        "sampling.fd_refuted",
        "sampling.ucc_refuted",
        "sampling.ind_refuted",
        "sampling.exact_avoided",
    ]
    assert names["events"] == ["sampling.bypass"]


def test_sampling_events_validate_and_surface_in_trace():
    """A sampled profile emits the registered sampling.* events and the
    full trace still validates against the default schema."""
    from repro.core.profiler import profile
    from repro.datasets.generators import uniprot_like

    tracer = trace.enable()
    try:
        profile(uniprot_like(200, seed=1), algorithm="muds", sampling=True)
    finally:
        trace.disable()
    validate_events(tracer.events)
    names = {record["name"] for record in tracer.events}
    assert "sampling.harvest" in names
    assert "sampling.ind_prefilter" in names
    # count() upserts into span counters (no standalone event), so the
    # counter names surface on the enclosing end records.
    counter_names = {
        name
        for record in tracer.events
        if record["type"] == "end"
        for name in record["counters"]
    }
    assert "sampling.harvest_rows" in counter_names
    assert "sampling.exact_avoided" in counter_names


def test_validate_rejects_malformed_events():
    with pytest.raises(ValueError, match="unknown type"):
        validate_events([{"type": "bogus"}])
    with pytest.raises(ValueError, match="missing field"):
        validate_events([{"type": "begin", "span": 0}])
    with pytest.raises(ValueError, match="unexpected field"):
        validate_events(
            [
                {
                    "type": "begin",
                    "span": 0,
                    "parent": None,
                    "name": "x",
                    "attrs": {},
                    "wall_clock": 1.0,
                }
            ]
        )
    with pytest.raises(ValueError, match="expected float"):
        validate_events(
            [
                {
                    "type": "end",
                    "span": 0,
                    "name": "x",
                    "seconds": "fast",
                    "attrs": {},
                    "counters": {},
                }
            ]
        )


# -- framework integration ---------------------------------------------------


def test_framework_run_emits_run_span():
    tracer = trace.enable()
    framework = default_framework(seed=0)
    execution = framework.run("hfun", toy_workload(30))
    assert execution.ok
    runs = _ends(tracer.events, "run")
    assert len(runs) == 1
    assert runs[0]["attrs"]["algorithm"] == "hfun"
    assert runs[0]["attrs"]["status"] == "ok"
    # Phases nest under the run span.
    run_begin = next(
        e for e in tracer.events if e["type"] == "begin" and e["name"] == "run"
    )
    phase_begin = next(
        e
        for e in tracer.events
        if e["type"] == "begin" and e["name"] == "hfun.spider"
    )
    assert phase_begin["parent"] == run_begin["span"]
    validate_events(tracer.events)


def test_cached_run_emits_cache_hit_event_and_no_spans(tmp_path):
    from repro.harness import ResultCache

    relation = toy_workload(25)
    cache = ResultCache(tmp_path / "cache")
    framework = default_framework(seed=0)
    first = framework.run("hfun", relation, cache=cache, cache_config="t")
    assert first.ok and not first.cached

    tracer = trace.enable()
    second = framework.run("hfun", relation, cache=cache, cache_config="t")
    assert second.cached
    hits = [
        e
        for e in tracer.events
        if e["type"] == "event" and e["name"] == "cache.hit"
    ]
    assert len(hits) == 1
    assert hits[0]["attrs"]["algorithm"] == "hfun"
    # A served run performs no algorithm work: no run span, no phase spans.
    assert not [e for e in tracer.events if e["type"] in ("begin", "end")]

    # The computed path, by contrast, emits the run span (both paths pinned).
    trace.enable()
    third = framework.run(
        "hfun", toy_workload(26), cache=cache, cache_config="t"
    )
    assert third.ok and not third.cached
    assert len(_ends(trace.ACTIVE.events, "run")) == 1


# -- sweeps: serial point traces, jobs=1 vs jobs=2 ---------------------------


def _sweep(jobs, labels=(20, 30)):
    runner = ExperimentRunner(default_framework(seed=0), algorithms=ALGORITHMS)
    return runner.sweep(
        list(labels),
        WorkloadSpec(toy_workload),
        jobs=jobs,
        framework_spec=FRAMEWORK_SPEC,
    )


def test_serial_sweep_attaches_point_traces():
    trace.enable()
    points = _sweep(jobs=1)
    for point in points:
        assert point.trace, f"point {point.label} has no trace"
        roots = _ends(point.trace, "sweep.point")
        assert len(roots) == 1
        assert roots[0]["attrs"]["label"] == str(point.label)
        assert len(_ends(point.trace, "run")) == len(ALGORITHMS)
        validate_events(point.trace)
    # Drained per point: the live buffer did not keep a second copy.
    assert _ends(trace.ACTIVE.events, "sweep.point") == []


def test_untraced_sweep_points_have_empty_trace_and_old_wire_format():
    points = _sweep(jobs=1)
    assert all(point.trace == [] for point in points)
    assert all("trace" not in point.to_record() for point in points)


def test_parallel_trace_structurally_equals_serial():
    trace.enable()
    serial = _sweep(jobs=1)
    trace.enable()  # fresh tracer for the parallel pass
    parallel = _sweep(jobs=2)
    assert [p.label for p in serial] == [p.label for p in parallel]
    for left, right in zip(serial, parallel):
        assert structural(left.trace) == structural(right.trace), (
            f"trace structure diverged at point {left.label}"
        )


# -- aggregation -------------------------------------------------------------


def test_summary_self_seconds_partition_root_time():
    tracer = trace.enable()
    framework = default_framework(seed=0)
    for name in ("baseline", "hfun", "muds"):
        framework.run(name, toy_workload(40))
    summary = trace_summary(tracer.events)
    self_total = summary_total_seconds(summary)
    root_total = sum(e["seconds"] for e in _ends(tracer.events, "run"))
    # Self-seconds partition each root span exactly (float-sum tolerance).
    assert self_total == pytest.approx(root_total, rel=1e-9)
    run_row = summary["run"]
    assert run_row["count"] == 3
    assert run_row["counters"]["pli.intersections"] >= 1


def test_summary_splits_levels_and_counts_events():
    tracer = trace.enable()
    with tracer.span("alg.level", level=1):
        pass
    with tracer.span("alg.level", level=1):
        pass
    with tracer.span("alg.level", level=2):
        pass
    tracer.event("cache.hit", algorithm="x")
    summary = trace_summary(tracer.events)
    assert summary["alg.level[1]"]["count"] == 2
    assert summary["alg.level[2]"]["count"] == 1
    assert summary["cache.hit"]["count"] == 1


# -- report integration ------------------------------------------------------


def test_profile_report_renders_per_phase_table():
    from repro.core.muds import Muds

    relation = toy_workload(40)
    tracer = trace.enable()
    result = Muds(seed=0).profile(relation)
    report = render_profile_report(relation, result, trace=tracer.events)
    assert "## Per-phase trace" in report
    assert "muds.ducc" in report
    assert "self seconds" in report
    # Untraced reports keep the old shape.
    assert "## Per-phase trace" not in render_profile_report(relation, result)


# -- CLI ---------------------------------------------------------------------


def test_cli_trace_flag_writes_validating_jsonl(tmp_path, capsys):
    from repro.cli import main

    csv = tmp_path / "data.csv"
    csv.write_text(
        "A,B,C\n" + "\n".join(f"{i},{i % 3},{(i * 7) % 5}" for i in range(30))
    )
    out = tmp_path / "out.jsonl"
    assert main([str(csv), "--no-result-cache", "--trace", str(out)]) == 0
    events = trace.read_jsonl(out)
    assert validate_trace_file(out, "docs/trace_schema.json") == len(events)
    assert _ends(events, "profile")
    captured = capsys.readouterr()
    assert "per-phase trace summary" in captured.out
    assert "trace written" in captured.err


def test_cli_cache_hit_appears_in_trace(tmp_path):
    from repro.cli import main

    csv = tmp_path / "data.csv"
    csv.write_text(
        "A,B,C\n" + "\n".join(f"{i},{i % 3},{(i * 7) % 5}" for i in range(30))
    )
    cache_dir = tmp_path / "cache"
    out = tmp_path / "out.jsonl"
    assert main([str(csv), "--result-cache", str(cache_dir)]) == 0
    assert (
        main(
            [
                str(csv),
                "--result-cache",
                str(cache_dir),
                "--trace",
                str(out),
            ]
        )
        == 0
    )
    events = trace.read_jsonl(out)
    hits = [
        e
        for e in events
        if e["type"] == "event" and e["name"] == "cache.hit"
    ]
    assert len(hits) == 1
    assert not _ends(events, "profile")  # no algorithm ran
