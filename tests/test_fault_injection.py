"""Fault-injection campaign (opt-in: set ``REPRO_FAULTS=1``).

Arms every registered fault point against full end-to-end profiling runs
and asserts the harness contract each time: the failure is recorded (ERR
cell or point-level error), the sweep keeps running, and once the fault is
disarmed a re-run produces metadata identical to a never-faulted run.  CI
executes this as a dedicated step; the default test run skips it because
probabilistic campaigns repeat full profiling many times over.
"""

import random

import pytest

from repro.faults import (
    CACHE_PUT,
    CHECKPOINT_LOAD,
    CHECKPOINT_SAVE,
    CSV_READ,
    FAULT_POINTS,
    INCREMENTAL_APPEND,
    PROFILER_STEP,
    RESULT_CACHE_GET,
    RESULT_CACHE_PUT,
    SCHEMA_LOAD,
    STORAGE_SPILL,
    FAULTS,
    fault_suite_enabled,
)
from repro.harness import (
    CheckpointStore,
    ExperimentRunner,
    ResultCache,
    SweepJournal,
    default_framework,
)
from repro.relation import Relation, read_csv

#: Points that trip inside retried I/O: the retry policy absorbs a single
#: fault, so the sweep must stay entirely green rather than show an ERR
#: cell.
RETRY_ABSORBED = {
    CHECKPOINT_LOAD,
    CHECKPOINT_SAVE,
    RESULT_CACHE_GET,
    RESULT_CACHE_PUT,
    # Spill-file chunk writes only happen under ``--storage mmap``; in the
    # default encoded mode the point never trips (fired == 0), and the
    # dedicated mmap campaign below exercises the armed path.
    STORAGE_SPILL,
    # Schema-sweep table loads only happen inside SchemaJob; a
    # single-relation sweep never trips the point (fired == 0), and the
    # dedicated schema campaign below exercises the armed path.
    SCHEMA_LOAD,
    # Append batches only flow through PliStore.append_rows; the generic
    # sweep never appends (fired == 0), and the dedicated incremental
    # campaign below exercises the armed path.
    INCREMENTAL_APPEND,
}

pytestmark = pytest.mark.skipif(
    not fault_suite_enabled(),
    reason="fault-injection campaign is opt-in: set REPRO_FAULTS=1",
)


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    FAULTS.disarm()


@pytest.fixture
def csv_path(tmp_path):
    rng = random.Random(5)
    lines = ["a,b,c,d"]
    lines += [
        ",".join(str(rng.randrange(3)) for _ in range(4)) for _ in range(40)
    ]
    path = tmp_path / "campaign.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_metadata(csv_path):
    relation = read_csv(csv_path).deduplicated()
    return default_framework().run("hfun", relation).result


class TestEveryPointContained:
    @pytest.mark.parametrize("point", FAULT_POINTS)
    @pytest.mark.parametrize("at", [1, 3])
    def test_sweep_survives_and_recovers(self, point, at, csv_path, tmp_path):
        reference = reference_metadata(csv_path)
        journal = SweepJournal(tmp_path / f"{point}.{at}.jsonl")
        runner = ExperimentRunner(default_framework(), algorithms=("hfun", "muds"))
        # Cache and checkpoints are wired in so the retried I/O points
        # (``result_cache.*``, ``checkpoint.*``) actually get exercised.
        result_cache = ResultCache(tmp_path / f"{point}.{at}.cache")
        checkpoints = CheckpointStore(tmp_path / f"{point}.{at}.ckpt")

        FAULTS.arm(point, at=at)
        points = runner.sweep(
            ["faulted", "clean"],
            lambda label: read_csv(csv_path).deduplicated(),
            journal=journal,
            result_cache=result_cache,
            checkpoints=checkpoints,
        )
        FAULTS.disarm()

        assert [p.label for p in points] == ["faulted", "clean"]
        if point == CSV_READ:
            # Fires while the workload builder reads the input.
            assert "injected fault" in points[0].error
            assert points[0].executions == []
        elif point in RETRY_ABSORBED:
            # One transient fault at a retried I/O site costs a backoff,
            # never an error: every cell stays green.
            assert points[0].error is None
            assert all(e.status == "ok" for e in points[0].executions)
            assert points[0].executions[0].result.same_metadata(reference)
            assert FAULTS.fired(point) in (0, 1)
        else:
            # Fires inside the first algorithm: ERR cell, sweep continues.
            assert points[0].error is None
            statuses = [e.status for e in points[0].executions]
            assert "error" in statuses
        # The fault fired at most once; the second point is untouched.
        clean = points[1]
        assert clean.error is None
        assert all(e.status == "ok" for e in clean.executions)
        assert clean.executions[0].result.same_metadata(reference)

        # Resume after the campaign re-runs nothing and loses nothing.
        resumed = runner.sweep(
            ["faulted", "clean"],
            lambda label: read_csv(csv_path).deduplicated(),
            journal=journal,
            result_cache=result_cache,
            checkpoints=checkpoints,
        )
        assert resumed[1].executions[0].result.same_metadata(reference)


class TestSeededCampaign:
    def test_probabilistic_faults_never_propagate(self, csv_path):
        reference = reference_metadata(csv_path)
        framework = default_framework()
        relation = read_csv(csv_path).deduplicated()
        outcomes = []
        for seed in range(8):
            FAULTS.arm_seeded(PROFILER_STEP, probability=0.001, seed=seed)
            execution = framework.run("muds", relation)
            FAULTS.disarm()
            outcomes.append(execution.status)
            if execution.status == "ok":
                assert execution.result.same_metadata(reference)
            else:
                assert execution.status == "error"
                assert "injected fault" in execution.error
        # Determinism: replaying one seed reproduces its outcome.
        FAULTS.arm_seeded(PROFILER_STEP, probability=0.001, seed=0)
        replay = framework.run("muds", relation)
        FAULTS.disarm()
        assert replay.status == outcomes[0]

    def test_spill_fault_absorbed_under_mmap_storage(self, csv_path):
        """A transient spill-write fault under ``mmap`` storage costs one
        retry, never a failed read or a wrong profile."""
        from repro.faults import FaultInjected

        reference = reference_metadata(csv_path)
        FAULTS.arm(STORAGE_SPILL, at=1)
        relation = read_csv(csv_path, storage="mmap").deduplicated()
        fired = FAULTS.fired(STORAGE_SPILL)
        FAULTS.disarm()
        assert fired == 1  # the point genuinely tripped and was absorbed
        # Dropping duplicate rows keeps the codes in mmap: the profile
        # below reads them from the spill files.
        assert all(
            relation.encoding(i).storage == "mmap"
            for i in range(relation.n_columns)
        )
        execution = default_framework().run("hfun", relation)
        assert execution.status == "ok"
        assert execution.result.same_metadata(reference)

        # A *permanent* spill failure exhausts the bounded retries and
        # surfaces as the injected error instead of corrupting the column.
        FAULTS.arm_seeded(STORAGE_SPILL, probability=1.0, seed=0)
        with pytest.raises(FaultInjected):
            read_csv(csv_path, storage="mmap")
        FAULTS.disarm()

    def test_cache_fault_mid_campaign_recovers(self, csv_path):
        reference = reference_metadata(csv_path)
        framework = default_framework()
        relation = read_csv(csv_path).deduplicated()
        FAULTS.arm(CACHE_PUT, at=2)
        faulted = framework.run("hfun", relation)
        FAULTS.disarm()
        assert faulted.status == "error"
        recovered = framework.run("hfun", relation)
        assert recovered.status == "ok"
        assert recovered.result.same_metadata(reference)


class TestSchemaLoadCampaign:
    """The ``schema.load`` point: a table that fails to load becomes an
    error entry in the catalog, never an aborted schema sweep."""

    @pytest.fixture
    def schema_root(self, tmp_path):
        rng = random.Random(11)
        root = tmp_path / "schema"
        root.mkdir()
        for name in ("alpha", "beta", "gamma"):
            lines = ["k,v"]
            lines += [
                f"{i},{rng.randrange(4)}" for i in range(12)
            ]
            (root / f"{name}.csv").write_text("\n".join(lines) + "\n")
        return root

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_load_fault_contained_per_table(self, schema_root, at):
        from repro.schema import profile_schema

        reference = profile_schema(schema_root, seed=0)
        FAULTS.arm(SCHEMA_LOAD, at=at)
        catalog = profile_schema(schema_root, seed=0)
        fired = FAULTS.fired(SCHEMA_LOAD)
        FAULTS.disarm()
        assert fired == 1
        failed = [t for t in catalog.tables if t.status != "ok"]
        assert len(failed) == 1
        assert "injected fault" in failed[0].error
        assert failed[0].fingerprint is None and failed[0].result is None
        # Every other table profiled normally, and the cross phase ran
        # over the survivors only.
        for table in catalog.tables:
            if table is not failed[0]:
                assert table.status == "ok"
                assert table.result.same_metadata(
                    reference.table(table.name).result
                )
        survivor_names = {
            t.name for t in catalog.tables if t.status == "ok"
        }
        assert catalog.cross_inds == [
            ind
            for ind in reference.cross_inds
            if ind.dependent_table in survivor_names
            and ind.referenced_table in survivor_names
        ]
        # Disarmed re-run recovers the full reference catalog.
        from repro.metadata.serialize import canonical_catalog_dumps

        recovered = profile_schema(schema_root, seed=0)
        assert canonical_catalog_dumps(recovered) == canonical_catalog_dumps(
            reference
        )


class TestIncrementalAppendCampaign:
    """The ``incremental.append`` point: a fault mid-append leaves the
    relation, its substrate, and the prior profile fully recoverable —
    the batch retries to exact results, never a torn append."""

    @pytest.mark.parametrize("at", [1, 2])
    def test_append_fault_contained_per_batch(self, csv_path, at):
        from repro.incremental import IncrementalProfiler

        whole = read_csv(csv_path).deduplicated()
        rows = list(whole.iter_rows())
        names = list(whole.column_names)
        batches = [rows[20:30], rows[30:]]
        base = Relation.from_rows(names, rows[:20], name=whole.name)
        profiler = IncrementalProfiler(algorithm="muds", seed=0)
        result = profiler.profile_base(base)

        from repro.faults import FaultInjected

        FAULTS.arm(INCREMENTAL_APPEND, at=at)
        survived = []
        for batch in batches:
            fingerprint = base.fingerprint()
            n_rows = base.n_rows
            try:
                result = profiler.maintain(base, batch, result)
            except FaultInjected:
                # Containment: the refused batch mutated nothing.
                assert base.n_rows == n_rows
                assert base.fingerprint() == fingerprint
                result = profiler.maintain(base, batch, result)
            survived.append(result)
        fired = FAULTS.fired(INCREMENTAL_APPEND)
        FAULTS.disarm()
        assert fired == 1
        reference = IncrementalProfiler(
            algorithm="muds", seed=0
        ).profile_base(Relation.from_rows(names, rows, name=whole.name))
        assert survived[-1].same_metadata(reference)


def test_campaign_gate_reflects_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "1")
    assert fault_suite_enabled()
    monkeypatch.delenv("REPRO_FAULTS")
    assert not fault_suite_enabled()
