"""Tests for the bounded-retry policy and its integration with the
fault-injection points it is meant to absorb.

The retry-absorbed fault points (``result_cache.*``, ``checkpoint.*``)
fire *inside* the retried functions, so a fault armed at its first hit is
recovered by the second attempt — the harness contract these tests pin
down is "one transient fault costs one backoff, never an error".
"""

import pytest

from repro import trace
from repro.faults import (
    CHECKPOINT_LOAD,
    CHECKPOINT_SAVE,
    RESULT_CACHE_GET,
    RESULT_CACHE_PUT,
    FAULTS,
    FaultInjected,
)
from repro.datasets import load
from repro.harness import default_framework
from repro.harness.checkpoint import CheckpointSession, CheckpointStore
from repro.harness.result_cache import ResultCache
from repro.harness.retry import RetryPolicy, default_classify


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    FAULTS.disarm()


def quiet_policy(**kwargs):
    """A policy whose backoff never actually sleeps."""
    return RetryPolicy(sleep=lambda _: None, **kwargs)


class TestClassification:
    def test_transient_errors(self):
        assert default_classify(FaultInjected("x", 1))
        assert default_classify(OSError("disk momentarily full"))
        assert default_classify(TimeoutError("nfs hiccup"))

    def test_permanent_errors(self):
        assert not default_classify(FileNotFoundError("gone"))
        assert not default_classify(PermissionError("wall"))
        assert not default_classify(IsADirectoryError("shape"))
        assert not default_classify(NotADirectoryError("shape"))
        assert not default_classify(ValueError("corrupt json"))
        assert not default_classify(RuntimeError("programming error"))


class TestBackoff:
    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy()
        assert policy.delay("k", 1) == policy.delay("k", 1)
        assert policy.delay("k", 1) != policy.delay("other", 1)
        assert policy.delay("k", 1) != policy.delay("k", 2)

    def test_delay_grows_exponentially_within_jitter_band(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.25)
        for attempt in (1, 2, 3):
            raw = 0.1 * 2 ** (attempt - 1)
            assert raw * 0.75 <= policy.delay("k", attempt) <= raw * 1.25

    def test_delay_caps_at_max(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=2.0, jitter=0.0)
        assert policy.delay("k", 10) == 2.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCall:
    def test_recovers_after_transient_failures(self):
        sleeps: list[float] = []
        policy = RetryPolicy(attempts=3, sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky, key="op") == "ok"
        assert calls["n"] == 3
        assert sleeps == [policy.delay("op", 1), policy.delay("op", 2)]

    def test_permanent_error_raises_immediately(self):
        policy = quiet_policy(attempts=5)
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("corrupt")

        with pytest.raises(ValueError):
            policy.call(broken, key="op")
        assert calls["n"] == 1

    def test_exhausted_attempts_reraise_last_error(self):
        policy = quiet_policy(attempts=2)
        calls = {"n": 0}

        def hopeless():
            calls["n"] += 1
            raise OSError(f"still down ({calls['n']})")

        with pytest.raises(OSError, match=r"still down \(2\)"):
            policy.call(hopeless, key="op")
        assert calls["n"] == 2

    def test_counters_and_backoff_events_are_traced(self):
        tracer = trace.enable()
        policy = quiet_policy(attempts=3)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise OSError("transient")
            return "ok"

        policy.call(flaky, key="op")
        with pytest.raises(OSError):
            policy.call(lambda: (_ for _ in ()).throw(OSError("x")), key="op")
        assert tracer.counters["retry.retries"] == 3  # 1 + 2 backoffs
        assert tracer.counters["retry.recovered"] == 1
        assert tracer.counters["retry.exhausted"] == 1
        backoff = next(e for e in tracer.events if e["name"] == "retry.backoff")
        assert backoff["attrs"]["key"] == "op"
        assert backoff["attrs"]["error"] == "OSError"


class TestFaultPointAbsorption:
    """One injected fault at a retried I/O site is invisible to callers."""

    def test_result_cache_get_recovers(self, tmp_path):
        cache = ResultCache(tmp_path, retry=quiet_policy())
        cache.put("ab" * 32, "muds", {"x": 1}, {"seed": 0})
        FAULTS.arm(RESULT_CACHE_GET, at=1)
        assert cache.get("ab" * 32, "muds", {"seed": 0}) == {"x": 1}
        assert FAULTS.fired(RESULT_CACHE_GET) == 1
        assert cache.stats()["hits"] == 1

    def test_result_cache_put_recovers(self, tmp_path):
        cache = ResultCache(tmp_path, retry=quiet_policy())
        FAULTS.arm(RESULT_CACHE_PUT, at=1)
        cache.put("ab" * 32, "muds", {"x": 1}, {"seed": 0})
        assert FAULTS.fired(RESULT_CACHE_PUT) == 1
        FAULTS.disarm()
        assert cache.get("ab" * 32, "muds", {"seed": 0}) == {"x": 1}

    def test_result_cache_get_exhaustion_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path, retry=quiet_policy(attempts=2))
        cache.put("ab" * 32, "muds", {"x": 1}, {"seed": 0})
        FAULTS.arm_seeded(RESULT_CACHE_GET, probability=1.0)
        # Every attempt faults: the module contract says miss, not raise.
        assert cache.get("ab" * 32, "muds", {"seed": 0}) is None
        assert cache.stats()["misses"] == 1

    @pytest.mark.parametrize("point", [CHECKPOINT_LOAD, RESULT_CACHE_PUT])
    def test_exhausted_store_fault_is_contained_by_the_run(
        self, point, tmp_path
    ):
        # Every attempt faults: an unreadable checkpoint is absent and a
        # failed cache store is traced, but the run itself completes.
        relation = load("iris", n_rows=40)
        reference = default_framework().run("hfun", relation)
        stores = {
            CHECKPOINT_LOAD: {
                "checkpoints": CheckpointStore(tmp_path, retry=quiet_policy())
            },
            RESULT_CACHE_PUT: {
                "cache": ResultCache(tmp_path, retry=quiet_policy())
            },
        }
        FAULTS.arm_seeded(point, probability=1.0)
        execution = default_framework().run("hfun", relation, **stores[point])
        assert FAULTS.fired(point) == 3
        assert execution.ok
        assert execution.result.same_metadata(reference.result)

    def test_checkpoint_save_recovers(self, tmp_path):
        session = CheckpointSession(
            tmp_path / "c.ckpt.json", retry=quiet_policy()
        )
        FAULTS.arm(CHECKPOINT_SAVE, at=1)
        session.boundary("stage", {"done": 1})
        assert FAULTS.fired(CHECKPOINT_SAVE) == 1
        assert session.boundaries == 1
        assert (tmp_path / "c.ckpt.json").exists()

    def test_checkpoint_load_recovers(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        writer = CheckpointSession(path, retry=quiet_policy())
        writer.boundary("stage", {"done": 2})
        FAULTS.arm(CHECKPOINT_LOAD, at=1)
        reader = CheckpointSession(path, retry=quiet_policy())
        assert reader.load()
        assert FAULTS.fired(CHECKPOINT_LOAD) == 1
        assert reader.resume("stage") == {"done": 2}
