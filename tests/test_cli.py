"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.relation import Relation, write_csv


@pytest.fixture
def csv_path(tmp_path, employees):
    path = tmp_path / "employees.csv"
    write_csv(employees, path)
    return path


class TestParser:
    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_csv_and_dataset_are_exclusive(self, csv_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args([str(csv_path), "--dataset", "iris"])


class TestTextOutput:
    def test_profile_csv(self, csv_path, capsys):
        assert main([str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "minimal functional dependencies" in out
        assert "employee_id" in out
        assert "phase seconds" in out

    def test_builtin_dataset(self, capsys):
        assert main(["--dataset", "iris", "--max-rows", "60"]) == 0
        out = capsys.readouterr().out
        assert "minimal unique column combinations" in out

    def test_stats_flag(self, csv_path, capsys):
        assert main([str(csv_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "per-column statistics" in out
        assert "distinct=" in out

    def test_algorithm_choice(self, csv_path, capsys):
        assert main([str(csv_path), "--algorithm", "baseline"]) == 0

    def test_as_published_flag(self, csv_path, capsys):
        assert main([str(csv_path), "--algorithm", "muds", "--as-published"]) == 0

    def test_max_rows(self, csv_path, capsys):
        assert main([str(csv_path), "--max-rows", "2"]) == 0


class TestJsonOutput:
    def test_json_to_stdout(self, csv_path, capsys):
        assert main([str(csv_path), "--json", "-"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format_version"] == 1
        assert "employee_id" in document["columns"]

    def test_json_to_file_roundtrips(self, csv_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main([str(csv_path), "--json", str(out_path)]) == 0
        from repro.metadata import loads

        result = loads(out_path.read_text())
        assert result.fds


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["/does/not/exist.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_dataset(self, capsys):
        assert main(["--dataset", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_objects_storage_mode_is_rejected(self, csv_path, capsys):
        # "encoded" and "mmap" are the storage modes; "objects" is an
        # unknown choice, which argparse rejects with exit status 2.
        with pytest.raises(SystemExit) as exit_info:
            main([str(csv_path), "--storage", "objects"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'objects'" in capsys.readouterr().err


class TestDuplicateHandling:
    def test_deduplicates_by_default(self, tmp_path, capsys):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)])
        path = tmp_path / "dups.csv"
        write_csv(rel, path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "UCCs" in out

    def test_keep_duplicates_flag(self, tmp_path, capsys):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)])
        path = tmp_path / "dups.csv"
        write_csv(rel, path)
        assert main([str(path), "--keep-duplicates"]) == 0
        out = capsys.readouterr().out
        assert "duplicate rows" in out  # the no-UCCs hint


class TestResultCacheFlags:
    def test_second_invocation_hits_the_cache(self, csv_path, capsys):
        assert main([str(csv_path), "--algorithm", "muds"]) == 0
        capsys.readouterr()
        assert main([str(csv_path), "--algorithm", "muds"]) == 0
        captured = capsys.readouterr()
        assert "result cache hit for muds" in captured.err
        # The cached profile prints the same report a computed one does.
        assert "minimal functional dependencies" in captured.out

    def test_no_result_cache_always_recomputes(self, csv_path, capsys):
        assert main([str(csv_path), "--no-result-cache"]) == 0
        capsys.readouterr()
        assert main([str(csv_path), "--no-result-cache"]) == 0
        assert "result cache hit" not in capsys.readouterr().err

    def test_explicit_cache_dir(self, csv_path, tmp_path, capsys):
        cache_dir = tmp_path / "explicit-cache"
        argv = [str(csv_path), "--result-cache", str(cache_dir)]
        assert main(argv) == 0
        assert any(cache_dir.rglob("*.json"))
        capsys.readouterr()
        assert main(argv) == 0
        assert "result cache hit" in capsys.readouterr().err

    def test_budgeted_runs_bypass_the_cache(self, csv_path, capsys):
        assert main([str(csv_path)]) == 0  # populate
        capsys.readouterr()
        # Even a generous deadline disables the cache: partials are a
        # property of the budget, not the input.
        assert main([str(csv_path), "--deadline", "60"]) == 0
        assert "result cache hit" not in capsys.readouterr().err

    def test_cached_and_computed_json_are_identical(self, csv_path, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main([str(csv_path), "--json", str(first)]) == 0
        assert main([str(csv_path), "--json", str(second)]) == 0
        computed = json.loads(first.read_text())
        cached = json.loads(second.read_text())
        for volatile in ("phase_seconds",):
            computed.pop(volatile, None)
            cached.pop(volatile, None)
        assert computed == cached


class TestJobsFlag:
    def test_jobs_zero_rejected(self, csv_path, capsys):
        assert main([str(csv_path), "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_baseline_with_jobs(self, csv_path, capsys):
        argv = [str(csv_path), "--algorithm", "baseline", "--jobs", "2",
                "--no-result-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "minimal functional dependencies" in out
