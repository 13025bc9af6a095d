"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.relation import Relation, read_csv, write_csv
from repro.relation.encoded import CODE_BYTES
from repro.trace import read_jsonl


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

    @pytest.mark.parametrize(
        "options, message",
        [
            # "encoded" and "mmap" are the storage modes.
            (["--storage", "objects"], "invalid choice: 'objects'"),
            # Sampling is part of the PLI substrate, not a setting, and
            # the baseline runs its three tasks in this process.
            (["--no-sampling"], "unrecognized arguments: --no-sampling"),
            (["--jobs", "2"], "unrecognized arguments: --jobs 2"),
        ],
        ids=["objects", "no-sampling", "jobs"],
    )
    def test_unknown_option_or_choice_is_rejected(
        self, csv_path, capsys, options, message
    ):
        # argparse rejects them with exit status 2.
        with pytest.raises(SystemExit) as exit_info:
            main([str(csv_path), *options])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


def spilled_bytes(trace_path) -> int:
    """Total ``storage.spilled_bytes`` of a trace file: its counter events
    plus the counters of its root spans (child spans roll up into them)."""
    events = read_jsonl(trace_path)
    roots = {e["span"] for e in events if e["type"] == "begin" and e["parent"] is None}
    total = 0
    for event in events:
        if event["type"] == "counter" and event["name"] == "storage.spilled_bytes":
            total += event["value"]
        elif event["type"] == "end" and event["span"] in roots:
            total += event["counters"].get("storage.spilled_bytes", 0)
    return total


class TestStorageFlag:
    """``--storage mmap`` reaches the profiled relation's columns, also
    when the rows come from a built-in dataset or a row cut."""

    @pytest.fixture(autouse=True)
    def _spill_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))

    def test_max_rows_profiles_mmap_columns(self, tmp_path, capsys):
        rows, columns, kept = 50, 3, 20
        path = tmp_path / "wide.csv"
        path.write_text(
            "a,b,c\n" + "".join(f"{i},{i % 4},{i % 3}\n" for i in range(rows))
        )
        trace = tmp_path / "trace.jsonl"
        argv = [str(path), "--storage", "mmap", "--max-rows", str(kept)]
        assert main([*argv, "--trace", str(trace)]) == 0
        # The read stops after the rows it keeps: only they are spilled.
        assert spilled_bytes(trace) == kept * columns * CODE_BYTES
        # The cut read is keyed like the whole file's head, so result-cache
        # entries of earlier --max-rows runs keep hitting.
        cut = read_csv(path, storage="mmap", max_rows=kept)
        assert cut.fingerprint() == read_csv(path).head(kept).fingerprint()
        assert cut.fingerprint() == (
            "f2c89740d9eaf3867ffa2e514f3e2bdc0367d21cff06778fa22708d2f3988641"
        )

    def test_dataset_profiles_mmap_columns(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        argv = ["--dataset", "iris", "--storage", "mmap"]
        assert main([*argv, "--trace", str(trace)]) == 0
        assert spilled_bytes(trace) > 0

    def test_watch_reads_mmap_columns(self, tmp_path, csv_path, capsys):
        directory = tmp_path / "watched"
        directory.mkdir()
        (directory / "0000.csv").write_text(csv_path.read_text())
        trace = tmp_path / "trace.jsonl"
        argv = ["watch", str(directory), "--once", "--storage", "mmap"]
        assert main([*argv, "--trace", str(trace)]) == 0
        assert spilled_bytes(trace) > 0

    def test_default_storage_spills_nothing(self, tmp_path, csv_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([str(csv_path), "--max-rows", "3", "--trace", str(trace)]) == 0
        assert spilled_bytes(trace) == 0


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

    def test_budgeted_runs_bypass_the_cache(self, csv_path, tmp_path, capsys):
        assert main([str(csv_path)]) == 0  # populate
        capsys.readouterr()
        # Even a generous deadline disables the cache: partials are a
        # property of the budget, not the input.
        assert main([str(csv_path), "--deadline", "60"]) == 0
        assert "result cache hit" not in capsys.readouterr().err
        # --append batches obey the same rule: nothing is written.
        batch = tmp_path / "batch.csv"
        batch.write_text(
            "employee_id,city,zip,state,work_state\nE6,Eugene,97401,OR,OR\n"
        )
        cache_dir = tmp_path / "budgeted-cache"
        assert main(
            [str(csv_path), "--append", str(batch), "--deadline", "60",
             "--result-cache", str(cache_dir)]
        ) == 0
        assert "appended" in capsys.readouterr().err
        assert not list(cache_dir.rglob("*.json"))

    def test_bare_result_entries_miss_once_then_hit(
        self, csv_path, tmp_path, capsys
    ):
        # The CLI stores execution records, as every other caller of the
        # cache does; an entry holding a bare result document, as earlier
        # versions of the CLI wrote, misses once and is rewritten.
        cache_dir = tmp_path / "cache"
        argv = [str(csv_path), "--result-cache", str(cache_dir)]
        assert main(argv) == 0
        (entry,) = cache_dir.rglob("*.json")
        envelope = json.loads(entry.read_text())
        envelope["payload"] = envelope["payload"]["result"]
        entry.write_text(json.dumps(envelope))
        capsys.readouterr()
        assert main(argv) == 0
        assert "result cache hit" not in capsys.readouterr().err
        assert main(argv) == 0
        assert "result cache hit" in capsys.readouterr().err

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


class TestNumericFlags:
    """Every numeric flag is range-checked before any input is read: exit
    status 2 and an ``error:`` line naming the flag, nothing profiled."""

    @pytest.fixture
    def inputs(self, csv_path, tmp_path):
        directory = tmp_path / "tables"
        directory.mkdir()
        for name in ("0000.csv", "0001.csv"):
            (directory / name).write_text(csv_path.read_text())
        return {"csv": [str(csv_path)], "directory": [str(directory)]}

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("csv", "--deadline", "-1"),
            ("csv", "--max-intersections", "-1"),
            ("csv", "--max-cluster-bytes", "-1"),
            ("csv", "--max-rows", "-5"),
            ("dataset", "--max-rows", "-5"),
            ("profile-schema", "--deadline", "-1"),
            ("profile-schema", "--max-intersections", "-1"),
            ("profile-schema", "--max-cluster-bytes", "-1"),
            ("profile-schema", "--max-fk", "-1"),
            ("profile-schema", "--jobs", "0"),
            ("watch", "--max-batches", "0"),
            ("watch", "--interval", "-1"),
        ],
    )
    def test_out_of_range_value_is_rejected_up_front(
        self, inputs, command, flag, value, capsys
    ):
        argv = {
            "csv": inputs["csv"],
            "dataset": ["--dataset", "iris"],
            "profile-schema": ["profile-schema", *inputs["directory"]],
            # --once keeps a watch that ignored --max-batches 0 from
            # polling forever; --interval matters only between polls.
            "watch": ["watch", *inputs["directory"]]
            + (["--once"] if flag == "--max-batches" else []),
        }[command]
        assert main([*argv, flag, value]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} must be >= " in captured.err
        assert captured.out == ""
