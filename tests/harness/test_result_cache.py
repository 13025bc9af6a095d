"""Tests for the fingerprint-keyed result cache and Framework integration."""

import errno
import json
import os
from pathlib import Path, PurePosixPath, PureWindowsPath

import pytest

from repro.guard import Budget
from repro.harness import ResultCache, RetryPolicy, default_framework
from repro.harness.result_cache import CACHE_FORMAT_VERSION, config_key
from repro.relation import Relation


@pytest.fixture
def toy() -> Relation:
    return Relation.from_rows(
        ["A", "B", "C"],
        [(1, 1, 2), (2, 1, 2), (3, 2, 4), (4, 2, 4)],
        name="toy",
    )


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


class TestFingerprint:
    def test_name_independent_content_addressed(self, toy):
        """The same data under a different relation name has the same
        fingerprint — content addressing, not name addressing."""
        renamed = Relation.from_rows(
            ["A", "B", "C"], list(toy.iter_rows()), name="completely-different"
        )
        assert toy.fingerprint() == renamed.fingerprint()

    def test_sensitive_to_values_schema_and_order(self, toy):
        base = toy.fingerprint()
        tweaked_value = Relation.from_rows(
            ["A", "B", "C"], [(1, 1, 2), (2, 1, 2), (3, 2, 4), (4, 2, 5)]
        )
        renamed_column = Relation.from_rows(
            ["A", "B", "D"], list(toy.iter_rows())
        )
        reordered = Relation.from_rows(
            ["A", "B", "C"], list(toy.iter_rows())[::-1]
        )
        fingerprints = {
            base,
            tweaked_value.fingerprint(),
            renamed_column.fingerprint(),
            reordered.fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_value_types_not_conflated(self):
        """1, "1", 1.0, and True are different cell values and must hash
        differently (bool is checked before int on purpose)."""
        variants = [
            Relation.from_rows(["A"], [(value,)])
            for value in (1, "1", 1.0, True, None)
        ]
        assert len({r.fingerprint() for r in variants}) == len(variants)

    def test_value_boundaries_are_unambiguous(self):
        """Adjacent cells must not be collapsible into one another: the
        encoding length-prefixes every token."""
        split = Relation.from_rows(["A", "B"], [("a", "b")])
        joined = Relation.from_rows(["A", "B"], [("ab", "")])
        assert split.fingerprint() != joined.fingerprint()

    def test_fingerprint_is_memoized_and_stable(self, toy):
        first = toy.fingerprint()
        assert toy.fingerprint() is first
        rebuilt = Relation.from_rows(
            list(toy.column_names), list(toy.iter_rows()), name=toy.name
        )
        assert rebuilt.fingerprint() == first


class TestResultCache:
    def test_put_get_round_trip(self, cache):
        payload = {"algorithm": "x", "numbers": [1, 2, 3]}
        cache.put("ab" * 32, "muds", payload, {"seed": 0})
        assert cache.get("ab" * 32, "muds", {"seed": 0}) == payload
        assert cache.stats() == {"hits": 1, "misses": 0, "puts": 1, "corrupt": 0}

    def test_cells_are_separated_by_all_key_parts(self, cache):
        fingerprint = "cd" * 32
        cache.put(fingerprint, "muds", {"v": 1}, {"seed": 0})
        assert cache.get("ef" * 32, "muds", {"seed": 0}) is None
        assert cache.get(fingerprint, "hfun", {"seed": 0}) is None
        assert cache.get(fingerprint, "muds", {"seed": 1}) is None
        assert cache.get(fingerprint, "muds", {"seed": 0}) == {"v": 1}

    def test_config_key_canonicalizes_mapping_order(self, cache):
        assert config_key({"b": 1, "a": 2}) == config_key({"a": 2, "b": 1})
        fingerprint = "12" * 32
        cache.put(fingerprint, "muds", {"v": 1}, {"b": 1, "a": 2})
        assert cache.get(fingerprint, "muds", {"a": 2, "b": 1}) == {"v": 1}


class TestConfigKeyStability:
    """Equal configurations must produce equal keys however they are
    spelled; values with no canonical form must fail loudly instead of
    silently splitting the cache (the old ``default=str`` behaviour)."""

    def test_sets_are_order_insensitive(self):
        # Set iteration order depends on insertion history and hash
        # randomization — the key must not.
        assert config_key({"cols": {"b", "a", "c"}}) == config_key(
            {"cols": {"c", "a", "b"}}
        )
        assert config_key({"cols": frozenset({"a", "b"})}) == config_key(
            {"cols": {"b", "a"}}
        )

    def test_mixed_orderable_set_elements_sort_canonically(self):
        assert config_key({"s": {2, 1, 3}}) == config_key({"s": {3, 2, 1}})

    def test_paths_use_posix_form(self):
        assert config_key({"root": PurePosixPath("a/b")}) == config_key(
            {"root": PureWindowsPath("a\\b")}
        )
        # A Path canonicalizes to the same key as its posix string form.
        assert config_key({"root": Path("x") / "y"}) == config_key(
            {"root": "x/y"}
        )

    def test_tuple_and_list_are_the_same_sequence(self):
        assert config_key({"dims": (1, 2)}) == config_key({"dims": [1, 2]})

    def test_nested_structures_canonicalize_recursively(self):
        left = {"outer": {"z": [{"b", "a"}], "a": 1}}
        right = {"outer": {"a": 1, "z": [{"a", "b"}]}}
        assert config_key(left) == config_key(right)

    def test_unorderable_set_elements_rejected(self):
        with pytest.raises(TypeError, match="unorderable|no canonical"):
            config_key({"s": {1, (2, 3)}})

    def test_arbitrary_object_rejected(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="no canonical form"):
            config_key({"x": Opaque()})

    def test_non_string_mapping_key_rejected(self):
        with pytest.raises(TypeError, match="must be a string"):
            config_key({"outer": {1: "a"}})

    def test_non_finite_float_rejected(self):
        with pytest.raises(TypeError, match="non-finite"):
            config_key({"x": float("nan")})

    def test_scalars_and_none_pass_through(self):
        key = config_key(
            {"i": 1, "f": 1.5, "b": True, "s": "x", "n": None}
        )
        assert json.loads(key) == {
            "i": 1,
            "f": 1.5,
            "b": True,
            "s": "x",
            "n": None,
        }

    def test_corrupt_entry_is_a_miss_not_an_error(self, cache):
        fingerprint = "34" * 32
        cache.put(fingerprint, "muds", {"v": 1})
        path = cache.entry_path(fingerprint, "muds")
        path.write_text("{ torn json", encoding="utf-8")
        assert cache.get(fingerprint, "muds") is None
        # Tampered envelope (wrong version) is also a miss.
        cache.put(fingerprint, "muds", {"v": 1})
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.get(fingerprint, "muds") is None

    def test_no_temp_files_left_behind(self, cache, monkeypatch):
        cache.put("56" * 32, "muds", {"v": 1})
        # A write whose fsync keeps failing raises and cleans up too.
        def disk_full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        cache.retry = RetryPolicy(sleep=lambda _: None)
        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            cache.put("78" * 32, "muds", {"v": 2})
        leftovers = [
            p for p in cache.root.rglob("*") if p.is_file() and "tmp" in p.name
        ]
        assert leftovers == []


class TestQuarantine:
    def test_corrupt_entry_is_quarantined_exactly_once(self, cache):
        fingerprint = "78" * 32
        cache.put(fingerprint, "muds", {"v": 1})
        path = cache.entry_path(fingerprint, "muds")
        path.write_text("{ unparseable", encoding="utf-8")

        assert cache.get(fingerprint, "muds") is None
        assert cache.stats()["corrupt"] == 1
        assert not path.exists()  # moved, not re-read forever
        quarantined = list((cache.root / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        assert quarantined[0].read_text(encoding="utf-8") == "{ unparseable"

        # Second lookup of the healed cell: a plain missing-file miss.
        assert cache.get(fingerprint, "muds") is None
        assert cache.stats()["corrupt"] == 1
        assert len(list((cache.root / "quarantine").iterdir())) == 1

    def test_quarantine_name_collisions_get_suffixes(self, cache):
        fingerprint = "9a" * 32
        path = cache.entry_path(fingerprint, "muds")
        for _ in range(3):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{ corrupt again", encoding="utf-8")
            assert cache.get(fingerprint, "muds") is None
        names = sorted(p.name for p in (cache.root / "quarantine").iterdir())
        assert names == [path.name, f"{path.name}.1", f"{path.name}.2"]
        assert cache.stats()["corrupt"] == 3

    def test_structural_envelope_mismatch_is_not_quarantined(self, cache):
        # Valid JSON with the wrong envelope (e.g. version bump) is a
        # plain miss: the entry is stale, not corrupt evidence.
        fingerprint = "bc" * 32
        cache.put(fingerprint, "muds", {"v": 1})
        path = cache.entry_path(fingerprint, "muds")
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.get(fingerprint, "muds") is None
        assert cache.stats()["corrupt"] == 0
        assert path.exists()
        assert not (cache.root / "quarantine").exists()

    def test_corruption_traces_event_and_counter(self, cache):
        from repro import trace

        tracer = trace.enable()
        fingerprint = "de" * 32
        cache.put(fingerprint, "muds", {"v": 1})
        path = cache.entry_path(fingerprint, "muds")
        path.write_text("{ torn", encoding="utf-8")
        assert cache.get(fingerprint, "muds") is None
        assert tracer.counters["cache.corrupt"] == 1
        event = next(
            e for e in tracer.events if e["name"] == "cache.corrupt"
        )
        assert event["attrs"]["entry"] == path.name
        assert event["attrs"]["quarantined"] is True


class TestFrameworkIntegration:
    def test_second_run_is_served_from_cache(self, toy, cache):
        framework = default_framework()
        first = framework.run("hfun", toy, cache=cache)
        second = framework.run("hfun", toy, cache=cache)
        assert first.cached is False
        assert second.cached is True
        assert second.counts == first.counts
        assert cache.stats()["hits"] == 1

    def test_budgeted_runs_bypass_the_cache(self, toy, cache):
        framework = default_framework()
        framework.run("hfun", toy, cache=cache)  # populates
        budget = Budget(deadline_seconds=0.0, checkpoint_stride=1)
        execution = framework.run("hfun", toy, budget=budget, cache=cache)
        assert execution.status == "timeout"  # computed, not served
        assert execution.cached is False
        # And the TL cell was not stored over the good entry.
        replay = default_framework().run("hfun", toy, cache=cache)
        assert replay.cached is True and replay.status == "ok"

    def test_failed_runs_are_not_cached(self, toy, cache):
        framework = default_framework()

        class Boom:
            def profile(self, relation):
                raise RuntimeError("no")

        framework.register("boom", lambda: Boom())
        execution = framework.run("boom", toy, cache=cache)
        assert execution.status == "error"
        assert cache.stats()["puts"] == 0
        assert default_framework().run("hfun", toy, cache=cache).cached is False

    def test_config_separates_cache_cells(self, toy, cache):
        framework = default_framework()
        framework.run("muds", toy, cache=cache, cache_config="seed=0")
        miss = framework.run("muds", toy, cache=cache, cache_config="seed=1")
        assert miss.cached is False
        hit = framework.run("muds", toy, cache=cache, cache_config="seed=0")
        assert hit.cached is True
