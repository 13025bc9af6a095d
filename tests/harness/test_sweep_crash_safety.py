"""Tests for crash-safe sweeps: JSONL journaling, resume, containment."""

import json

import pytest

from repro.core.holistic_fun import HolisticFun
from repro.guard import Budget
from repro.harness import (
    Execution,
    ExperimentRunner,
    Framework,
    SweepJournal,
    default_framework,
    sweep_table,
)
from repro.harness.runner import SweepPoint
from repro.relation import Relation


def workload(n_rows):
    return Relation.from_rows(
        ["A", "B"],
        [(i, i % 2) for i in range(int(n_rows))],
        name=f"toy[{n_rows}]",
    )


class _CountingProfiler:
    """HolisticFun wrapper counting how many times profiling actually ran."""

    calls = 0

    def profile(self, relation):
        type(self).calls += 1
        return HolisticFun().profile(relation)


@pytest.fixture
def counting_runner() -> ExperimentRunner:
    _CountingProfiler.calls = 0
    framework = Framework()
    framework.register("hfun", _CountingProfiler)
    return ExperimentRunner(framework)


class TestExecutionRoundTrip:
    def test_to_record_from_record_is_lossless(self):
        framework = default_framework()
        original = framework.run("hfun", workload(6))
        restored = Execution.from_record(
            json.loads(json.dumps(original.to_record()))
        )
        assert restored.algorithm == original.algorithm
        assert restored.status == original.status
        assert restored.seconds == original.seconds
        assert restored.kernel == original.kernel
        assert restored.result.same_metadata(original.result)
        assert restored.result.phase_seconds == original.result.phase_seconds

    def test_failed_execution_round_trips(self):
        framework = default_framework()
        original = framework.run(
            "muds",
            workload(6),
            budget=Budget(deadline_seconds=0.0, checkpoint_stride=1),
        )
        restored = Execution.from_record(
            json.loads(json.dumps(original.to_record()))
        )
        assert restored.status == "timeout"
        assert restored.marker == "TL"
        assert restored.error == original.error


class TestJournal:
    def test_append_then_load(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        point = SweepPoint(label=4)
        point.executions.append(default_framework().run("hfun", workload(4)))
        journal.append(point)
        loaded = journal.load()
        assert len(loaded) == 1
        (restored,) = loaded.values()
        assert restored.label == 4
        assert restored.executions[0].algorithm == "hfun"

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").load() == {}

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        point = SweepPoint(label=4)
        journal.append(point)
        # Simulate a crash mid-append: a truncated JSON line at the end.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"label": 8, "executions": [{"alg')
        loaded = journal.load()
        assert len(loaded) == 1  # the torn point is simply absent


class TestJournalLongevity:
    """Long-lived journals: torn-line healing, duplicates."""

    def test_append_heals_a_torn_final_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.append(SweepPoint(label=1))
        # A crash mid-append leaves a fragment without a newline; the next
        # append must not concatenate onto it and corrupt a good record.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"label": 2, "executions": [{"alg')
        journal.append(SweepPoint(label=3))
        loaded = journal.load()
        assert sorted(point.label for point in loaded.values()) == [1, 3]
        # The fragment stayed an isolated line, the new record is intact.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_duplicate_records_resolve_last_write_wins(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        first = SweepPoint(label=7, error="stale attempt")
        journal.append(first)
        journal.append(SweepPoint(label=7))  # re-run superseding it
        loaded = journal.load()
        assert len(loaded) == 1
        (restored,) = loaded.values()
        assert restored.error is None


class TestResume:
    def test_resume_reruns_only_missing_points(self, tmp_path, counting_runner):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        counting_runner.sweep([4, 8], workload, journal=journal)
        assert _CountingProfiler.calls == 2
        # "Killed after two points, restarted with a third": only the new
        # point executes; the finished ones are restored from disk.
        points = counting_runner.sweep([4, 8, 12], workload, journal=journal)
        assert _CountingProfiler.calls == 3
        assert [p.label for p in points] == [4, 8, 12]
        assert all(p.executions[0].status == "ok" for p in points)

    def test_resume_disabled_reruns_everything(self, tmp_path, counting_runner):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        counting_runner.sweep([4], workload, journal=journal)
        counting_runner.sweep([4], workload, journal=journal, resume=False)
        assert _CountingProfiler.calls == 2

    def test_restored_points_preserve_metadata(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        runner = ExperimentRunner(default_framework(), algorithms=("hfun",))
        first = runner.sweep([6], workload, journal=journal)
        second = runner.sweep([6], workload, journal=journal)
        assert second[0].executions[0].result.same_metadata(
            first[0].executions[0].result
        )


class TestSweepContainment:
    def test_workload_crash_is_recorded_not_raised(self, counting_runner):
        def exploding(label):
            if label == "bad":
                raise OSError("disk on fire")
            return workload(4)

        points = counting_runner.sweep(["ok", "bad", "ok2"], exploding)
        assert [p.label for p in points] == ["ok", "bad", "ok2"]
        assert points[1].error is not None
        assert "disk on fire" in points[1].error
        assert points[0].error is None and points[2].error is None

    def test_acceptance_scenario(self, tmp_path):
        """One algorithm over-budgeted, the rest healthy: the sweep
        completes end to end with correct statuses, partial results for
        the stopped contender, unchanged metadata for the others."""
        relation = Relation.from_rows(
            ["A", "B", "C", "D"],
            [(i, i % 3, i % 2, (i * 7) % 5) for i in range(30)],
            name="acceptance",
        ).deduplicated()
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        runner = ExperimentRunner(
            default_framework(), algorithms=("hfun", "muds", "baseline")
        )
        points = runner.sweep(
            ["only"],
            lambda label: relation,
            budget={"muds": Budget(max_intersections=1)},
            journal=journal,
        )
        by_name = {e.algorithm: e for e in points[0].executions}
        assert by_name["muds"].status == "timeout"
        assert len(by_name["muds"].result.inds) > 0  # partial kept
        assert by_name["hfun"].status == "ok"
        assert by_name["baseline"].status == "ok"
        assert by_name["hfun"].result.same_metadata(by_name["baseline"].result)
        assert points[0].error is None  # TL cell is not a disagreement
        # The journaled point restores with identical statuses.
        (restored,) = journal.load().values()
        assert {e.algorithm: e.status for e in restored.executions} == {
            "muds": "timeout",
            "hfun": "ok",
            "baseline": "ok",
        }


class TestSweepTable:
    def test_markers_rendered(self, tmp_path):
        runner = ExperimentRunner(
            default_framework(), algorithms=("hfun", "muds")
        )
        points = runner.sweep(
            [4, 8],
            workload,
            budget={
                "muds": Budget(deadline_seconds=0.0, checkpoint_stride=1)
            },
        )
        table = sweep_table(points)
        assert "TL" in table
        assert "hfun" in table and "muds" in table

    def test_point_error_flagged(self):
        runner = ExperimentRunner(default_framework(), algorithms=("hfun",))

        def exploding(label):
            raise RuntimeError("boom")

        points = runner.sweep(["x"], exploding)
        assert "error" in sweep_table(points)
