"""Chaos campaign (opt-in: set ``REPRO_CHAOS=1``).

Composes the failure modes the robustness layer is built for — simulated
process kills at checkpoint boundaries, seeded transient I/O faults at
the retried sites, and hung workers — into randomized but fully seeded
scenarios, and asserts the strongest contract each time: the run
eventually completes with metadata *and counters* identical to a run
that was never disturbed.

Every scenario derives all randomness from an explicit seed, so a CI
failure replays locally with the same schedule.  The scenario count can
be scaled with ``REPRO_CHAOS_SCENARIOS`` (default 6).  CI executes this
as a dedicated step; the default test run skips it because each scenario
repeats full profiling runs many times over.
"""

import os
import random
import time
from pathlib import Path

import pytest

from repro.checkpointing import SimulatedCrash
from repro.faults import (
    CHECKPOINT_LOAD,
    CHECKPOINT_SAVE,
    RESULT_CACHE_GET,
    RESULT_CACHE_PUT,
    FAULTS,
    chaos_suite_enabled,
)
from repro.harness import (
    CheckpointStore,
    ExperimentRunner,
    ResultCache,
    SweepJournal,
    default_framework,
)
from repro.harness.parallel import (
    FrameworkSpec,
    PointTask,
    WorkloadSpec,
    run_sweep_points,
)
from repro.harness.runner import SweepPoint
from repro.relation import Relation

pytestmark = pytest.mark.skipif(
    not chaos_suite_enabled(),
    reason="chaos campaign is opt-in: set REPRO_CHAOS=1",
)

SCENARIOS = int(os.environ.get("REPRO_CHAOS_SCENARIOS", "6"))
ALGORITHMS = ("hfun", "muds", "tane", "baseline")
RETRY_ABSORBED = (
    CHECKPOINT_LOAD,
    CHECKPOINT_SAVE,
    RESULT_CACHE_GET,
    RESULT_CACHE_PUT,
)


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    FAULTS.disarm()


def chaos_relation(rng: random.Random, tag: str) -> Relation:
    n_columns = rng.randint(4, 6)
    n_rows = rng.randint(20, 60)
    cardinality = rng.randint(2, 4)
    rows = [
        tuple(rng.randrange(cardinality) for _ in range(n_columns))
        for _ in range(n_rows)
    ]
    return Relation.from_rows(
        [f"c{i}" for i in range(n_columns)], rows, name=tag
    ).deduplicated()


def assert_same_outcome(execution, reference) -> None:
    """Bit-identical up to the documented exclusions (wall clock)."""
    assert execution.ok, execution.error
    assert execution.result.same_metadata(reference.result)
    assert execution.result.counters == reference.result.counters


class TestKillStorm:
    """Random kill schedules: crash after a random number of durable
    checkpoint writes, restart, repeat until the run completes."""

    @pytest.mark.parametrize("seed", range(SCENARIOS))
    def test_random_kill_schedule_converges_with_parity(self, seed, tmp_path):
        rng = random.Random(1000 + seed)
        relation = chaos_relation(rng, f"kill-storm-{seed}")
        algorithm = ALGORITHMS[seed % len(ALGORITHMS)]
        reference = default_framework().run(algorithm, relation)

        crashes = 0
        execution = None
        # Each crash happens AFTER a durable write, so every attempt makes
        # at least one boundary of progress: the loop must terminate.
        for _ in range(200):
            store = CheckpointStore(
                tmp_path / "ckpt",
                kill_after=rng.randint(1, 4),
                merge_stride=rng.choice([1, 2, 3]),
            )
            try:
                execution = default_framework().run(
                    algorithm, relation, checkpoints=store
                )
                break
            except SimulatedCrash:
                crashes += 1
        assert execution is not None, "kill schedule never converged"
        assert_same_outcome(execution, reference)
        if crashes:
            assert execution.resumed
        # Completion cleans up: nothing left to resume from.
        assert not store.last_session.path.exists()


class TestFaultStorm:
    """Seeded transient faults raining on every retried I/O site during a
    cached + checkpointed sweep: cells stay contained, and once the storm
    stops a re-run has exact parity."""

    @pytest.mark.parametrize("seed", range(SCENARIOS))
    def test_seeded_io_faults_stay_contained(self, seed, tmp_path):
        rng = random.Random(2000 + seed)
        relation = chaos_relation(rng, f"fault-storm-{seed}")
        reference = default_framework().run("hfun", relation)

        # verify_completeness=True so hfun/muds agreement is exact and any
        # disagreement the sweep reports is genuinely fault-induced.
        runner = ExperimentRunner(
            default_framework(faithful_muds=False),
            algorithms=("hfun", "muds"),
        )
        for point in RETRY_ABSORBED:
            FAULTS.arm_seeded(point, probability=0.1, seed=seed)
        points = runner.sweep(
            ["stormy"],
            lambda label: relation,
            journal=SweepJournal(tmp_path / "storm.jsonl"),
            result_cache=ResultCache(tmp_path / "cache"),
            checkpoints=CheckpointStore(tmp_path / "ckpt"),
        )
        FAULTS.disarm()

        # Contained: the sweep finished, no fault escaped as an exception.
        assert [p.label for p in points] == ["stormy"]
        assert points[0].error is None
        for execution in points[0].executions:
            assert execution.status in ("ok", "error"), execution.status
            if execution.algorithm == "hfun" and execution.ok:
                assert_same_outcome(execution, reference)

        # Calm after the storm: a fresh sweep over the same state reaches
        # full parity (quarantine/retry left nothing poisoned behind).
        calm = runner.sweep(
            ["calm"],
            lambda label: relation,
            journal=SweepJournal(tmp_path / "calm.jsonl"),
            result_cache=ResultCache(tmp_path / "cache"),
            checkpoints=CheckpointStore(tmp_path / "ckpt"),
        )
        assert calm[0].error is None
        assert all(e.ok for e in calm[0].executions)
        assert_same_outcome(calm[0].executions[0], reference)


class TestComposedChaos:
    """Kills *and* transient faults in the same run: the checkpoint loop
    crashes on a random schedule while retried I/O is also faulting."""

    @pytest.mark.parametrize("seed", range(min(SCENARIOS, 3)))
    def test_kills_and_faults_compose(self, seed, tmp_path):
        rng = random.Random(3000 + seed)
        relation = chaos_relation(rng, f"composed-{seed}")
        reference = default_framework().run("muds", relation)

        crashes = 0
        execution = None
        for attempt in range(200):
            store = CheckpointStore(
                tmp_path / "ckpt", kill_after=rng.randint(1, 3), merge_stride=1
            )
            FAULTS.arm_seeded(
                CHECKPOINT_SAVE, probability=0.1, seed=seed * 1000 + attempt
            )
            try:
                execution = default_framework().run(
                    "muds", relation, checkpoints=store
                )
            except SimulatedCrash:
                crashes += 1
                continue
            finally:
                FAULTS.disarm()
            if execution.ok:
                break
            execution = None  # ERR cell from an exhausted retry: retry run
        assert execution is not None, "composed chaos never converged"
        assert_same_outcome(execution, reference)


# -- hang chaos ---------------------------------------------------------------
#
# Module-level workloads (worker processes import them by qualified name).
# Each hangs uncooperatively — a plain sleep, no guard checkpoints, so the
# heartbeat goes silent — only on attempts recorded in the flag directory.


def chaos_hang_workload(label, flag_dir: str = "") -> Relation:
    flag = Path(flag_dir) / f"hung-{label}"
    if not flag.exists():
        flag.touch()
        time.sleep(600)
    rng = random.Random(int(str(label).split("-")[-1]))
    return chaos_relation(rng, f"hang-{label}")


class TestHangChaos:
    def test_hung_workers_are_killed_and_points_complete(self, tmp_path):
        seeds = list(range(min(SCENARIOS, 3)))
        references = {}
        for seed in seeds:
            rng = random.Random(seed)
            relation = chaos_relation(rng, f"hang-p-{seed}")
            references[seed] = default_framework().run("hfun", relation)

        tasks = [
            PointTask(
                label=f"p-{seed}",
                workload=WorkloadSpec(
                    chaos_hang_workload, kwargs={"flag_dir": str(tmp_path)}
                ),
                algorithms=("hfun",),
                framework=FrameworkSpec(),
            )
            for seed in seeds
        ]
        # One worker per task: every task's FIRST attempt is the hanging
        # one, so the single isolation retry each point gets is spent on
        # the clean re-build, not on collateral pool breakage.
        results = dict(
            run_sweep_points(tasks, jobs=len(tasks), watchdog_grace=1.0)
        )
        assert sorted(results) == sorted(f"p-{seed}" for seed in seeds)
        for seed in seeds:
            point = SweepPoint.from_record(results[f"p-{seed}"])
            assert point.error is None
            (execution,) = point.executions
            assert_same_outcome(execution, references[seed])
            assert (tmp_path / f"hung-p-{seed}").exists()
