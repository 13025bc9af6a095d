"""Tests for the process-parallel sweep layer (repro.harness.parallel).

Workload builders live at module level on purpose: parallel sweeps pickle
them by reference into worker processes.
"""

import json
import os
import signal
import time

import pytest

from repro.guard import Budget
from repro.harness import (
    ExperimentRunner,
    FrameworkSpec,
    SweepJournal,
    WorkloadSpec,
    default_framework,
    sweep_table,
)
from repro.harness.parallel import PointTask, run_sweep_points
from repro.metadata.serialize import canonical_metadata_dumps
from repro.relation import Relation

ALGORITHMS = ("baseline", "hfun")

FRAMEWORK_SPEC = FrameworkSpec(default_framework, {"seed": 0})


def toy_workload(n_rows):
    """Deterministic little relation with real FD/UCC/IND structure."""
    return Relation.from_rows(
        ["A", "B", "C"],
        [(i, i % 3, (i * 7) % 5) for i in range(int(n_rows))],
        name=f"toy[{n_rows}]",
    )


def killer_workload(label):
    """Builder that kills its own worker process for one specific label."""
    if label == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return toy_workload(12)


def crashing_workload(label):
    """Builder that raises (a contained, point-level failure) for one label."""
    if label == "bad":
        raise OSError("disk on fire")
    return toy_workload(12)


def logging_workload(label, log_path):
    """Builder that appends its label to a file (O_APPEND: safe across
    concurrent workers) so tests can observe which points actually ran."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{label}\n")
    return toy_workload(10 + int(label))


def sleepy_workload(label):
    """Builder whose first label is much slower than the rest, forcing
    out-of-order completion under a multi-worker pool."""
    if label == "slow":
        time.sleep(0.75)
    return toy_workload(10)


def _runner() -> ExperimentRunner:
    return ExperimentRunner(default_framework(seed=0), algorithms=ALGORITHMS)


def _journal_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _strip_timing(record):
    """Drop wall-clock-dependent fields from a journal point record."""
    record = json.loads(json.dumps(record))  # deep copy via JSON
    for execution in record["executions"]:
        execution.pop("seconds", None)
        execution.pop("kernel", None)
        execution["result"].pop("phase_seconds", None)
    return record


class TestDeterminism:
    def test_parallel_equals_serial_metadata_and_journal(self, tmp_path):
        labels = [8, 12, 16]
        workload = WorkloadSpec(toy_workload)
        serial_journal = SweepJournal(tmp_path / "serial.jsonl")
        parallel_journal = SweepJournal(tmp_path / "parallel.jsonl")

        serial = _runner().sweep(labels, workload, journal=serial_journal)
        parallel = _runner().sweep(
            labels,
            workload,
            journal=parallel_journal,
            jobs=2,
            framework_spec=FRAMEWORK_SPEC,
        )

        for serial_point, parallel_point in zip(serial, parallel):
            assert serial_point.label == parallel_point.label
            assert serial_point.error is None and parallel_point.error is None
            for serial_execution, parallel_execution in zip(
                serial_point.executions, parallel_point.executions
            ):
                assert serial_execution.algorithm == parallel_execution.algorithm
                assert canonical_metadata_dumps(
                    serial_execution.result
                ) == canonical_metadata_dumps(parallel_execution.result)

        # Journal contents are identical modulo timing fields, once both
        # are keyed by label (the parallel journal may be appended in
        # completion order).
        serial_records = {
            record["label"]: _strip_timing(record)
            for record in _journal_lines(serial_journal.path)
        }
        parallel_records = {
            record["label"]: _strip_timing(record)
            for record in _journal_lines(parallel_journal.path)
        }
        assert serial_records == parallel_records

    def test_budget_markers_match_inline_semantics(self):
        """A TL cell produced inside a worker looks exactly like one
        produced inline: status/marker on the execution, no point error."""
        budget = {"hfun": Budget(deadline_seconds=0.0, checkpoint_stride=1)}
        points = _runner().sweep(
            [16],
            WorkloadSpec(toy_workload),
            budget=budget,
            jobs=2,
            framework_spec=FRAMEWORK_SPEC,
            check_agreement=False,
        )
        by_name = {e.algorithm: e for e in points[0].executions}
        assert by_name["hfun"].status == "timeout"
        assert by_name["hfun"].marker == "TL"
        assert by_name["baseline"].status == "ok"
        assert points[0].error is None

    def test_workload_crash_is_a_point_error_not_an_exception(self):
        points = _runner().sweep(
            ["ok", "bad", "ok2"],
            WorkloadSpec(crashing_workload),
            jobs=2,
            framework_spec=FRAMEWORK_SPEC,
        )
        assert [p.label for p in points] == ["ok", "bad", "ok2"]
        assert points[1].error is not None and "disk on fire" in points[1].error
        assert points[0].error is None and points[2].error is None


class TestWorkerDeath:
    def test_killed_worker_maps_to_point_error(self, tmp_path):
        """Regression: a worker SIGKILLed mid-point must surface as that
        point's ``error`` — same semantics as a crashing workload builder —
        while every other point completes, and nothing raises."""
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        points = _runner().sweep(
            [4, "die", 8, 12],
            WorkloadSpec(killer_workload),
            jobs=2,
            framework_spec=FRAMEWORK_SPEC,
            journal=journal,
        )
        assert [p.label for p in points] == [4, "die", 8, 12]
        dead = points[1]
        assert dead.error is not None
        assert "worker failed" in dead.error
        assert "BrokenProcessPool" in dead.error
        assert dead.executions == []
        for survivor in (points[0], points[2], points[3]):
            assert survivor.error is None
            assert [e.status for e in survivor.executions] == ["ok", "ok"]
        # The dead point is journaled as an error; a resumed sweep does
        # not silently retry it forever.
        assert len(journal.load()) == 4
        assert "error" in sweep_table(points)

    def test_raw_broken_pool_never_escapes_run_sweep_points(self):
        tasks = [
            PointTask(
                label=label,
                workload=WorkloadSpec(killer_workload),
                algorithms=("hfun",),
                framework=FRAMEWORK_SPEC,
            )
            for label in ("die", "live")
        ]
        records = dict(run_sweep_points(tasks, jobs=2))
        assert set(records) == {"die", "live"}
        assert records["live"]["error"] is None
        assert "worker failed" in records["die"]["error"]


class TestResumeAndOrdering:
    def test_resume_runs_only_unjournaled_points(self, tmp_path):
        log_path = tmp_path / "built.log"
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        workload = WorkloadSpec(logging_workload, {"log_path": str(log_path)})

        _runner().sweep(
            [1, 2], workload, journal=journal, jobs=4,
            framework_spec=FRAMEWORK_SPEC,
        )
        first_runs = sorted(log_path.read_text().split())
        assert first_runs == ["1", "2"]

        # "Killed and restarted with two more points": only the
        # unjournaled points execute, even at a different jobs count.
        points = _runner().sweep(
            [1, 2, 3, 4], workload, journal=journal, jobs=4,
            framework_spec=FRAMEWORK_SPEC,
        )
        assert sorted(log_path.read_text().split()) == ["1", "2", "3", "4"]
        assert [p.label for p in points] == [1, 2, 3, 4]
        assert all(p.error is None for p in points)

    def test_out_of_order_completion_preserves_point_order(self, tmp_path):
        """The slow first point finishes last under jobs=2, yet results,
        sweep_table rows, and the journal all stay label-complete and the
        returned list follows the requested order."""
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        labels = ["slow", "fast1", "fast2", "fast3"]
        points = _runner().sweep(
            labels,
            WorkloadSpec(sleepy_workload),
            journal=journal,
            jobs=2,
            framework_spec=FRAMEWORK_SPEC,
        )
        assert [p.label for p in points] == labels
        table = sweep_table(points)
        rows = [line.split()[0] for line in table.splitlines()[2:]]
        assert rows == labels
        journaled = _journal_lines(journal.path)
        assert sorted(str(r["label"]) for r in journaled) == sorted(labels)
        # Journal append order is completion order — the slow point was
        # appended after at least one fast point, proving the parent
        # journaled out-of-order completions without corruption.
        assert [r["label"] for r in journaled][0] != "slow"


class TestValidation:
    def test_lambda_workload_rejected_for_parallel_sweep(self):
        with pytest.raises(TypeError, match="WorkloadSpec"):
            _runner().sweep(
                [4], lambda label: toy_workload(label), jobs=2,
                framework_spec=FRAMEWORK_SPEC,
            )

    def test_unpicklable_task_rejected_early(self):
        spec = WorkloadSpec(toy_workload, {"extra": lambda: None})
        with pytest.raises(TypeError, match="picklable"):
            _runner().sweep(
                [4], spec, jobs=2, framework_spec=FRAMEWORK_SPEC
            )

    def test_bad_jobs_count_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep_points([], jobs=0).__next__()

    def test_workload_spec_is_callable_for_serial_sweeps(self):
        spec = WorkloadSpec(toy_workload)
        points = _runner().sweep([6], spec)  # jobs=1: plain callable path
        assert points[0].executions[0].n_rows == 6
