"""The incremental CLI surface: ``--append``, ``repro watch``, and
``repro cache ls`` fingerprint chains."""

from __future__ import annotations

import json

import pytest

from repro.cli import cache_main, main, watch_main
from repro.relation import Relation, write_csv

BASE_ROWS = [
    ("E1", "Portland", "OR"),
    ("E2", "Salem", "OR"),
    ("E3", "Seattle", "WA"),
]
BATCH_ROWS = [
    ("E4", "Spokane", "WA"),
    ("E5", "Olympia", "WA"),
]
NAMES = ["id", "city", "state"]


def _write(path, rows):
    write_csv(Relation.from_rows(NAMES, rows, name=path.stem), path)
    return path


@pytest.fixture
def base_csv(tmp_path):
    return _write(tmp_path / "base.csv", BASE_ROWS)


@pytest.fixture
def batch_csv(tmp_path):
    return _write(tmp_path / "batch.csv", BATCH_ROWS)


@pytest.fixture
def combined_csv(tmp_path):
    return _write(tmp_path / "combined.csv", BASE_ROWS + BATCH_ROWS)


class TestAppendFlag:
    def test_appended_result_matches_from_scratch(
        self, base_csv, batch_csv, combined_csv, tmp_path, capsys
    ):
        maintained = tmp_path / "maintained.json"
        fresh = tmp_path / "fresh.json"
        assert main(
            [str(base_csv), "--append", str(batch_csv), "--algorithm", "muds",
             "--json", str(maintained)]
        ) == 0
        assert "appended" in capsys.readouterr().err
        assert main(
            [str(combined_csv), "--algorithm", "muds", "--no-result-cache",
             "--json", str(fresh)]
        ) == 0
        left = json.loads(maintained.read_text())
        right = json.loads(fresh.read_text())
        for document in (left, right):
            document.pop("phase_seconds", None)
            document.pop("counters", None)
            document.pop("relation", None)
        assert left == right

    def test_append_populates_the_grown_fingerprint(
        self, base_csv, batch_csv, combined_csv, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        argv_tail = ["--algorithm", "muds", "--result-cache", str(cache_dir)]
        assert main(
            [str(base_csv), "--append", str(batch_csv), *argv_tail]
        ) == 0
        capsys.readouterr()
        # A later plain run on the combined CSV is answered from cache:
        # the maintained entry lives under the grown fingerprint.
        assert main([str(combined_csv), *argv_tail]) == 0
        assert "result cache hit" in capsys.readouterr().err

    def test_repeated_batches_apply_in_order(
        self, base_csv, tmp_path, capsys
    ):
        first = _write(tmp_path / "b1.csv", BATCH_ROWS[:1])
        second = _write(tmp_path / "b2.csv", BATCH_ROWS[1:])
        assert main(
            [str(base_csv), "--append", str(first), "--append", str(second),
             "--algorithm", "muds"]
        ) == 0
        err = capsys.readouterr().err
        assert err.index("b1.csv") < err.index("b2.csv")

    @pytest.mark.parametrize("keep", [[], ["--keep-duplicates"]])
    def test_batch_duplicates_follow_the_base_rule(self, tmp_path, keep, capsys):
        names = ["a", "b", "c"]
        base = [("1", "x", "p"), ("2", "y", "q"), ("3", "z", "p")]
        # Repeats a base row and one of its own rows.
        batch = [("1", "x", "p"), ("4", "w", "q"), ("4", "w", "q")]
        paths = {}
        for name, rows in (("base", base), ("batch", batch), ("combined", base + batch)):
            paths[name] = tmp_path / f"{name}.csv"
            write_csv(Relation.from_rows(names, rows), paths[name])
        cache = ["--result-cache", str(tmp_path / "cache"), *keep]
        maintained, fresh = tmp_path / "maintained.json", tmp_path / "fresh.json"
        assert main(
            [str(paths["base"]), "--append", str(paths["batch"]),
             "--json", str(maintained), *cache]
        ) == 0
        kept = 3 if keep else 1
        assert f"({kept} rows)" in capsys.readouterr().err
        assert main(
            [str(paths["combined"]), "--no-result-cache", "--json", str(fresh), *keep]
        ) == 0
        left = json.loads(maintained.read_text())
        right = json.loads(fresh.read_text())
        for document in (left, right):
            for key in ("phase_seconds", "counters", "relation"):
                document.pop(key, None)
        assert left == right
        capsys.readouterr()
        assert main([str(paths["combined"]), *cache]) == 0
        assert "result cache hit" in capsys.readouterr().err

    def test_schema_mismatch_is_an_error(self, base_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert main(
            [str(base_csv), "--append", str(bad), "--algorithm", "muds"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_batch_is_an_error(self, base_csv, tmp_path, capsys):
        assert main(
            [str(base_csv), "--append", str(tmp_path / "nope.csv"),
             "--algorithm", "muds"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestCacheLs:
    def _populate(self, base_csv, batch_csv, cache_dir):
        assert main(
            [str(base_csv), "--append", str(batch_csv), "--algorithm", "muds",
             "--result-cache", str(cache_dir)]
        ) == 0

    def test_ls_shows_the_chain(self, base_csv, batch_csv, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(base_csv, batch_csv, cache_dir)
        capsys.readouterr()
        assert cache_main(["ls", "--result-cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "<-" in out
        assert "(missing)" not in out

    def test_missing_parent_degrades_to_marker(
        self, base_csv, batch_csv, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        self._populate(base_csv, batch_csv, cache_dir)
        # Corrupt every entry that is NOT chained (the base): its child's
        # provenance display degrades, nothing errors.
        for path in cache_dir.rglob("*.json"):
            envelope = json.loads(path.read_text())
            if "parent_fingerprint" not in envelope:
                path.write_text("{ not json")
        capsys.readouterr()
        assert cache_main(["ls", "--result-cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "(missing)" in out

    def test_empty_cache_lists_cleanly(self, tmp_path, capsys):
        assert cache_main(
            ["ls", "--result-cache", str(tmp_path / "empty")]
        ) == 0
        assert "no entries" in capsys.readouterr().out


class TestWatch:
    def _directory(self, tmp_path):
        watched = tmp_path / "watched"
        watched.mkdir()
        _write(watched / "0000.csv", BASE_ROWS)
        _write(watched / "0001.csv", BATCH_ROWS[:1])
        _write(watched / "0002.csv", BATCH_ROWS[1:])
        return watched

    def test_watch_once_consumes_all_files(self, tmp_path, capsys):
        watched = self._directory(tmp_path)
        assert main(
            ["watch", str(watched), "--once", "--algorithm", "muds"]
        ) == 0
        out = capsys.readouterr().out
        for name in ("0000.csv", "0001.csv", "0002.csv"):
            assert name in out

    def test_watch_json_holds_the_latest_result(self, tmp_path, capsys):
        watched = self._directory(tmp_path)
        latest = tmp_path / "latest.json"
        combined = tmp_path / "combined.csv"
        _write(combined, BASE_ROWS + BATCH_ROWS)
        fresh = tmp_path / "fresh.json"
        assert main(
            ["watch", str(watched), "--once", "--algorithm", "muds",
             "--json", str(latest)]
        ) == 0
        assert main(
            [str(combined), "--algorithm", "muds", "--no-result-cache",
             "--json", str(fresh)]
        ) == 0
        left = json.loads(latest.read_text())
        right = json.loads(fresh.read_text())
        for document in (left, right):
            document.pop("phase_seconds", None)
            document.pop("counters", None)
            document.pop("relation", None)
        assert left == right

    def test_watch_json_is_replaced_never_truncated(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        watched = self._directory(tmp_path)
        latest = tmp_path / "latest.json"
        documents = []
        serialize = repro.cli.dumps

        def dumps_then_fail(result):
            if documents:
                raise ValueError("serialization failed")
            documents.append(serialize(result))
            return documents[-1]

        monkeypatch.setattr(repro.cli, "dumps", dumps_then_fail)
        assert watch_main(
            [str(watched), "--once", "--algorithm", "muds",
             "--json", str(latest)]
        ) == 2
        assert "serialization failed" in capsys.readouterr().err
        # The first update's complete document survives the failed second.
        assert json.loads(latest.read_text()) == json.loads(documents[0])
        assert [p.name for p in tmp_path.iterdir() if ".tmp" in p.name] == []

    def test_watch_missing_directory_errors(self, tmp_path, capsys):
        assert watch_main([str(tmp_path / "gone"), "--once"]) == 2
        assert "error" in capsys.readouterr().err

    def test_watch_schema_mismatch_errors(self, tmp_path, capsys):
        watched = tmp_path / "watched"
        watched.mkdir()
        _write(watched / "0000.csv", BASE_ROWS)
        (watched / "0001.csv").write_text("x,y\n1,2\n")
        assert main(["watch", str(watched), "--once"]) == 2
        assert "do not match" in capsys.readouterr().err
