"""Dictionary-encoded columnar storage: round-trips, spill lifecycle,
fingerprint streaming equality, and the bounded-memory property of
``mmap`` mode."""

import gc
import io
import os
import pickle
import tracemalloc
from array import array

import pytest

from repro import profile
from repro.guard import Budget, guarded
from repro.relation import Relation, read_csv, read_csv_text
from repro.relation import encoded as storage
from repro.relation.encoded import (
    CODE_BYTES,
    STORAGE_MODES,
    EncodedColumn,
    StorageUnavailable,
    encode_column,
    resolve_storage,
    spill_directory,
)

ENCODING_MODES = ("encoded", "mmap")


@pytest.fixture
def spill_dir(tmp_path, monkeypatch):
    """Point mmap spills at a private directory so the tests can watch
    spill files appear and disappear."""
    directory = tmp_path / "spill"
    monkeypatch.setenv(storage.SPILL_DIR_ENV, str(directory))
    return directory


def spill_files(directory):
    if not directory.exists():
        return []
    return sorted(p for p in directory.iterdir() if p.suffix == ".i32")


class TestEncodeRoundTrip:
    VALUES = ("b", "a", None, "b", "c", "a", None, "b")

    @pytest.mark.parametrize("mode", ENCODING_MODES)
    def test_decoded_view_equals_source(self, mode, spill_dir):
        column = encode_column(self.VALUES, storage=mode)
        assert len(column) == len(self.VALUES)
        assert tuple(column) == self.VALUES
        assert column == self.VALUES
        assert column[2] is None
        assert column[1:4] == self.VALUES[1:4]
        assert hash(column) == hash(self.VALUES)
        for value in (*self.VALUES, "absent"):
            assert column.count(value) == self.VALUES.count(value)
            if value in self.VALUES:
                assert column.index(value) == self.VALUES.index(value)
            else:
                with pytest.raises(ValueError):
                    column.index(value)

    @pytest.mark.parametrize("mode", ENCODING_MODES)
    def test_dictionary_is_first_seen_order(self, mode, spill_dir):
        column = encode_column(self.VALUES, storage=mode)
        assert column.dictionary == ["b", "a", None, "c"]
        assert list(column.codes) == [0, 1, 2, 0, 3, 1, 2, 0]
        assert column.n_codes == 4

    @pytest.mark.parametrize("mode", ENCODING_MODES)
    def test_code_buffer_is_int32_little_endian_agnostic(self, mode, spill_dir):
        column = encode_column(self.VALUES, storage=mode)
        buffer = column.code_buffer()
        assert len(bytes(buffer)) == len(self.VALUES) * CODE_BYTES
        assert bytes(buffer) == array("i", [0, 1, 2, 0, 3, 1, 2, 0]).tobytes()

    def test_encoded_and_mmap_agree_bit_for_bit(self, spill_dir):
        in_memory = encode_column(self.VALUES, storage="encoded")
        spilled = encode_column(self.VALUES, storage="mmap")
        assert in_memory.dictionary == spilled.dictionary
        assert bytes(in_memory.code_buffer()) == bytes(spilled.code_buffer())
        assert in_memory == spilled

    def test_empty_column_degrades_to_in_memory(self, spill_dir):
        column = encode_column((), storage="mmap")
        assert column.storage == "encoded"  # empty mmap is invalid
        assert len(column) == 0
        assert spill_files(spill_dir) == []


class TestSpillLifecycle:
    def test_spill_file_lives_and_dies_with_the_column(self, spill_dir):
        column = encode_column(("x", "y", "x"), storage="mmap")
        files = spill_files(spill_dir)
        assert len(files) == 1
        assert column.spill_path == str(files[0])
        assert os.path.getsize(files[0]) == 3 * CODE_BYTES
        del column
        gc.collect()
        assert spill_files(spill_dir) == []

    def test_abort_unlinks_a_half_built_spill(self, spill_dir):
        class Boom(RuntimeError):
            pass

        def values():
            # Enough to force at least one chunk flush, then explode.
            yield from range(storage.SPILL_CHUNK_CODES + 5)
            raise Boom

        with pytest.raises(Boom):
            encode_column(values(), storage="mmap")
        assert spill_files(spill_dir) == []

    def test_pickle_rebuilds_as_in_memory_column(self, spill_dir):
        column = encode_column(("x", "y", "x", None), storage="mmap")
        clone = pickle.loads(pickle.dumps(column))
        assert clone.storage == "encoded"
        assert clone.spill_path is None
        assert clone == column
        assert clone.dictionary == column.dictionary

    def test_spill_directory_precedence(self, tmp_path, monkeypatch):
        override = tmp_path / "explicit"
        via_env = tmp_path / "env"
        monkeypatch.setenv(storage.SPILL_DIR_ENV, str(via_env))
        assert spill_directory(str(override)) == str(override)
        assert override.is_dir()  # created on resolution
        assert spill_directory() == str(via_env)
        monkeypatch.delenv(storage.SPILL_DIR_ENV)
        assert os.path.isdir(spill_directory())  # system temp fallback


class TestModeSelection:
    def test_resolve_rejects_unknown_modes(self):
        # "objects" was a storage mode once; it is an unknown name now.
        for unknown in ("parquet", "objects"):
            with pytest.raises(StorageUnavailable):
                resolve_storage(unknown)
        assert resolve_storage(None) == "encoded"
        assert resolve_storage("  MMAP ") == "mmap"

    def test_budget_accounting_follows_storage(self, spill_dir):
        # Both modes feed the kernel the same dense row ids, so a budget
        # charges the same 8 B per clustered row whichever mode holds the
        # codes.
        text = "a,b,c,d\n" + "".join(
            f"{i % 4},{i % 3},{i % 5},{i % 2}\n" for i in range(60)
        )
        charged = set()
        for mode in STORAGE_MODES:
            budget = Budget()
            with guarded(budget):
                profile(read_csv(io.StringIO(text), storage=mode))
            assert budget.bytes_per_clustered_row == 8, mode
            charged.add(budget.cluster_bytes)
        assert len(charged) == 1 and charged.pop() > 0


CSV = "a,b\n" + "".join(f"{i % 4},{i % 3}\n" for i in range(50))


class TestFingerprintStreaming:
    """Satellite regression: the fingerprint computed *during* the
    streaming read must equal the post-hoc path byte for byte, in every
    storage mode."""

    @pytest.mark.parametrize("mode", STORAGE_MODES)
    def test_streamed_equals_post_hoc(self, mode, spill_dir):
        relation = read_csv(io.StringIO(CSV), storage=mode)
        assert relation._fingerprint is not None  # streamed, not lazy
        streamed = relation.fingerprint()
        # Post-hoc: a fresh Relation over the same boxed values, hashed
        # from scratch by Relation.fingerprint itself.
        rebuilt = Relation(
            relation.column_names,
            [tuple(relation.column(i)) for i in range(relation.n_columns)],
            name=relation.name,
        )
        assert rebuilt._fingerprint is None
        assert rebuilt.fingerprint() == streamed

    def test_all_modes_agree(self, spill_dir):
        prints = set()
        for mode in STORAGE_MODES:
            prints.add(read_csv(io.StringIO(CSV), storage=mode).fingerprint())
        assert len(prints) == 1

    def test_distinct_relations_get_distinct_fingerprints(self):
        base = read_csv_text(CSV).fingerprint()
        assert read_csv_text(CSV.replace("3", "5")).fingerprint() != base
        # Same cells, different column names: still a different relation.
        assert read_csv_text(CSV.replace("a,b", "a,c")).fingerprint() != base


class TestEncodeRelation:
    def test_values_become_their_encoding_on_first_request(self):
        relation = Relation.from_dict(
            {"a": ["x", None, "x", "y"], "b": [1, True, 2, 2.0]}
        )
        assert relation.column("a") == ("x", None, "x", "y")
        encoding = relation.encoding("a")
        # One representation: the encoding takes the values' place.
        assert relation.column("a") is encoding
        assert relation.encoding("a") is encoding
        assert encoding.storage == "encoded"
        assert encoding.dictionary == ["x", None, "y"]
        # Values are identified by equality and shown as first seen.
        assert relation.encoding("b").dictionary == [1, 2]
        assert relation.column("b") == (1, 1, 2, 2)

    def test_projection_carries_encodings(self):
        relation = read_csv_text(CSV)
        projected = relation.project([1, 0])
        assert projected.encoding(0) is relation.encoding(1)
        assert tuple(projected.encoding(0)) == relation.column(1)


class TestBoundedMemory:
    """Satellite regression gating the mmap path: peak traced memory of a
    streaming read is bounded by dictionaries + chunk buffer, not rows."""

    ROWS = 120_000

    def _csv(self, tmp_path):
        path = tmp_path / "wide.csv"
        with open(path, "w") as handle:
            handle.write("a,b\n")
            for i in range(self.ROWS):
                handle.write(f"{i % 16},{i % 7}\n")
        return path

    def test_mmap_read_peak_is_below_the_encoded_payload(
        self, tmp_path, spill_dir
    ):
        path = self._csv(tmp_path)
        payload = self.ROWS * 2 * CODE_BYTES  # in-memory encoded code bytes

        gc.collect()
        tracemalloc.start()
        relation = read_csv(path, storage="mmap")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert relation.n_rows == self.ROWS
        assert relation.encoding(0).storage == "mmap"
        # The full code payload never sits in the heap: resident cost is
        # the two 16/7-entry dictionaries plus one bounded chunk buffer.
        assert peak < payload, (
            f"mmap read peaked at {peak} B, >= the {payload} B payload"
        )

    def test_encoded_read_materializes_the_payload(self, tmp_path):
        # Control: the in-memory mode must hold the code arrays, so its
        # peak sits at or above the payload — proving the mmap assertion
        # above measures the right thing.
        path = self._csv(tmp_path)
        payload = self.ROWS * 2 * CODE_BYTES
        gc.collect()
        tracemalloc.start()
        relation = read_csv(path, storage="encoded")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert relation.n_rows == self.ROWS
        assert peak >= payload
