"""Kill-at-every-boundary differential matrix for checkpoint/restart.

The contract under test: a run killed right after *any* checkpoint
boundary and resumed from the surviving file produces final results —
discovered metadata AND algorithm counters — bit-identical to an
undisturbed run.  Every matrix below runs the reference first, counts the
boundaries with an undisturbed checkpointed run, then replays the
traversal once per boundary with ``kill_after=k`` (a
:class:`SimulatedCrash` raised right after the k-th durable write) and a
resume, comparing the resumed output against the reference each time.
"""

import errno
import os
import random

import pytest

from repro.algorithms.ducc import ducc
from repro.algorithms.fun import fun
from repro.algorithms.spider import spider
from repro.algorithms.tane import tane
from repro.checkpointing import SimulatedCrash, active_session
from repro.guard import Budget
from repro.harness import RetryPolicy, default_framework
from repro.harness.checkpoint import CheckpointSession, CheckpointStore
from repro.pli.store import PliStore

from ..conftest import random_relation

#: Small stride so SPIDER's merge cursor produces several boundaries even
#: on the tiny matrix relations.
STRIDE = 3


def relation_for(seed: int, tag: str):
    return random_relation(
        random.Random(seed), tag, max_columns=5, max_rows=12
    )


# -- function-level matrices -------------------------------------------------
#
# Each traversal closure builds a *fresh* substrate (PliStore → index) per
# call: a resumed run starts with cold PLI caches, which is exactly the
# condition the substrate-state round-trip inside the snapshots must
# compensate for.


def run_matrix(tmp_path, run, reference):
    """Kill at every boundary of ``run`` and require resume parity."""
    path = tmp_path / "matrix.ckpt.json"
    probe = CheckpointSession(path, merge_stride=STRIDE)
    probe.load()
    with active_session(probe):
        assert run() == reference
    boundaries = probe.boundaries
    assert boundaries > 0, "traversal saved no boundaries; matrix is vacuous"
    probe.complete()
    assert not path.exists()

    for k in range(1, boundaries + 1):
        crash = CheckpointSession(path, kill_after=k, merge_stride=STRIDE)
        crash.load()
        with pytest.raises(SimulatedCrash):
            with active_session(crash):
                run()
        assert path.exists(), "crash must leave a durable checkpoint"
        resumed = CheckpointSession(path, merge_stride=STRIDE)
        assert resumed.load()
        with active_session(resumed):
            assert run() == reference
        resumed.complete()
    return boundaries


class TestAlgorithmKillMatrix:
    @pytest.mark.parametrize("seed", [7, 21])
    def test_tane(self, tmp_path, seed):
        relation = relation_for(seed, f"tane-{seed}")

        def run():
            return tane(PliStore().index_for(relation))

        run_matrix(tmp_path, run, run())

    @pytest.mark.parametrize("seed", [9, 33])
    def test_fun(self, tmp_path, seed):
        relation = relation_for(seed, f"fun-{seed}")

        def run():
            return fun(PliStore().index_for(relation))

        run_matrix(tmp_path, run, run())

    @pytest.mark.parametrize("seed", [11, 40])
    def test_spider(self, tmp_path, seed):
        relation = relation_for(seed, f"spider-{seed}")

        def run():
            return spider(PliStore().index_for(relation))

        run_matrix(tmp_path, run, run())

    @pytest.mark.parametrize("seed", [13, 52])
    def test_ducc(self, tmp_path, seed):
        relation = relation_for(seed, f"ducc-{seed}")

        def run():
            result = ducc(PliStore().index_for(relation), random.Random(5))
            return (
                result.minimal_uccs,
                result.maximal_non_uccs,
                result.checks,
                result.hole_rounds,
            )

        run_matrix(tmp_path, run, run())


# -- profiler-level matrices through the framework ---------------------------


def assert_same_outcome(execution, reference):
    """Full parity: metadata and every algorithm counter.

    Deliberately excluded: ``seconds`` / ``phase_seconds`` (wall clock)
    and ``kernel`` (process-global kernel-stat deltas cover only the
    resumed portion).  Everything semantic must match exactly.
    """
    assert execution.result.inds == reference.result.inds
    assert execution.result.uccs == reference.result.uccs
    assert execution.result.fds == reference.result.fds
    assert execution.result.counters == reference.result.counters


def framework_matrix(tmp_path, framework, algorithm, relation):
    reference = framework.run(algorithm, relation)
    assert reference.ok

    root = tmp_path / "ckpt"
    store = CheckpointStore(root, merge_stride=STRIDE)
    probe = framework.run(algorithm, relation, checkpoints=store)
    assert probe.ok and not probe.resumed
    assert_same_outcome(probe, reference)
    boundaries = store.last_session.boundaries
    assert boundaries > 0
    assert not store.last_session.path.exists()  # completed → deleted

    for k in range(1, boundaries + 1):
        crash = CheckpointStore(root, kill_after=k, merge_stride=STRIDE)
        with pytest.raises(SimulatedCrash):
            framework.run(algorithm, relation, checkpoints=crash)
        assert crash.last_session.path.exists()
        resume = CheckpointStore(root, merge_stride=STRIDE)
        execution = framework.run(algorithm, relation, checkpoints=resume)
        assert execution.ok and execution.resumed
        assert_same_outcome(execution, reference)
        assert not resume.last_session.path.exists()
    return boundaries


class TestProfilerKillMatrix:
    def test_muds_with_completeness_walk(self, tmp_path):
        framework = default_framework(faithful_muds=False)
        framework_matrix(tmp_path, framework, "muds", relation_for(42, "m"))

    def test_muds_as_published(self, tmp_path):
        framework = default_framework(faithful_muds=True)
        framework_matrix(tmp_path, framework, "muds", relation_for(42, "mf"))

    def test_hfun(self, tmp_path):
        framework = default_framework()
        framework_matrix(tmp_path, framework, "hfun", relation_for(42, "h"))

    def test_baseline(self, tmp_path):
        framework = default_framework()
        framework_matrix(
            tmp_path, framework, "baseline", relation_for(42, "b")
        )

    def test_tane(self, tmp_path):
        framework = default_framework()
        framework_matrix(tmp_path, framework, "tane", relation_for(42, "t"))


# -- restart composition scenarios -------------------------------------------


class TestRestartScenarios:
    def test_chained_kills_always_make_progress(self, tmp_path):
        """Killing after every 2 boundaries, over and over, still
        terminates with the reference result: each resume strictly
        advances past the restored boundary."""
        framework = default_framework(faithful_muds=False)
        relation = relation_for(42, "chain")
        reference = framework.run("muds", relation)
        root = tmp_path / "ckpt"
        execution = None
        for _ in range(200):
            store = CheckpointStore(root, kill_after=2, merge_stride=STRIDE)
            try:
                execution = framework.run("muds", relation, checkpoints=store)
                break
            except SimulatedCrash:
                continue
        assert execution is not None, "chained kills never terminated"
        assert execution.ok and execution.resumed
        assert_same_outcome(execution, reference)

    def test_budget_stop_keeps_checkpoint_and_resumes(self, tmp_path):
        """A TL cell keeps its snapshot; an unbudgeted re-run continues
        from it instead of starting over, with full parity."""
        framework = default_framework(faithful_muds=False)
        relation = relation_for(17, "budget")
        reference = framework.run("muds", relation)
        assert reference.ok
        spent = reference.result.counters["pli_intersections"]
        assert spent >= 4, "pick a seed whose run does real PLI work"

        root = tmp_path / "ckpt"
        store = CheckpointStore(root, merge_stride=STRIDE)
        stopped = framework.run(
            "muds",
            relation,
            budget=Budget(max_intersections=max(1, spent // 2)),
            checkpoints=store,
        )
        assert stopped.status == "timeout"
        assert store.last_session.path.exists()  # kept for the resume

        resume = CheckpointStore(root, merge_stride=STRIDE)
        execution = framework.run("muds", relation, checkpoints=resume)
        assert execution.ok and execution.resumed
        assert_same_outcome(execution, reference)

    def test_resume_false_discards_prior_state(self, tmp_path):
        framework = default_framework(faithful_muds=False)
        relation = relation_for(42, "fresh")
        root = tmp_path / "ckpt"
        crash = CheckpointStore(root, kill_after=2, merge_stride=STRIDE)
        with pytest.raises(SimulatedCrash):
            framework.run("muds", relation, checkpoints=crash)
        assert crash.last_session.path.exists()

        fresh = CheckpointStore(root, merge_stride=STRIDE)
        execution = framework.run(
            "muds", relation, checkpoints=fresh, resume=False
        )
        assert execution.ok
        assert not execution.resumed  # prior state was discarded, not used

    def test_checkpoints_key_by_relation_and_config(self, tmp_path):
        """A snapshot from one cell never leaks into another: different
        relations (and different config keys) use different files."""
        store = CheckpointStore(tmp_path / "ckpt")
        a = store.path_for("ab" * 32, "muds", {"seed": 0})
        b = store.path_for("cd" * 32, "muds", {"seed": 0})
        c = store.path_for("ab" * 32, "hfun", {"seed": 0})
        d = store.path_for("ab" * 32, "muds", {"seed": 1})
        assert len({a, b, c, d}) == 4

    def test_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt.json"
        session = CheckpointSession(path, retry=RetryPolicy(sleep=lambda _: None))
        session.boundary("stage", {"done": 1})

        def disk_full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            session.boundary("stage", {"done": 2})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt.json"]
        monkeypatch.undo()
        reader = CheckpointSession(path)
        assert reader.load()
        assert reader.resume("stage") == {"done": 1}

    def test_corrupt_checkpoint_file_starts_fresh(self, tmp_path):
        framework = default_framework(faithful_muds=False)
        relation = relation_for(42, "corrupt")
        reference = framework.run("muds", relation)
        store = CheckpointStore(tmp_path / "ckpt", merge_stride=STRIDE)
        path = store.path_for(relation.fingerprint(), "muds", None)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ torn mid-wri")
        execution = framework.run("muds", relation, checkpoints=store)
        assert execution.ok
        assert not execution.resumed  # unreadable file == absent file
        assert_same_outcome(execution, reference)
