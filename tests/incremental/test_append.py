"""``Relation.append_rows``: in-place growth with a verifiable
fingerprint chain, on every column-storage substrate.

The chain property under test everywhere: appending ``batch`` to a
relation built from ``base`` yields *exactly* the fingerprint of a
relation built from ``base + batch`` in one shot.  The streamed v2
hashers make that hold without ever re-reading the old rows.
"""

from __future__ import annotations

import pickle

import pytest

from repro.pli import PliStore, RelationIndex
from repro.relation import Relation, read_csv, write_csv
from repro.relation.encoded import _BLOCK_ROWS, STORAGE_MODES
from repro.relation.relation import SchemaError

from ..conftest import encoded_in

BASE = [
    ("E1", "Portland", "OR"),
    ("E2", "Salem", "OR"),
    ("E3", "Seattle", "WA"),
]
BATCH = [
    ("E4", "Spokane", "WA"),
    ("E5", "Portland", "OR"),
]
NAMES = ["id", "city", "state"]

#: The columns ``append_rows`` grows: values (encoded in memory on the
#: first append), and columns encoded up front in either storage mode.
SUBSTRATES = ("objects", *STORAGE_MODES)

#: A base and batch whose ``x`` values are equal across types (``1`` and
#: ``True``, ``2`` and ``2.0``): the column holds two values, not four.
MIXED_NAMES = ["x", "y"]
MIXED_BASE = [(1, "p"), (2, "q"), (3, "p")]
MIXED_BATCH = [(True, "q"), (2.0, "p")]


def _fresh(rows, name="t", substrate="objects", names=NAMES):
    relation = Relation.from_rows(names, rows, name=name)
    if substrate != "objects":
        relation = encoded_in(relation, substrate)
    return relation


@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestFingerprintChain:
    def test_append_matches_from_scratch(self, substrate, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        grown = _fresh(BASE, substrate=substrate)
        base_fingerprint = grown.fingerprint()
        appended = grown.append_rows(BATCH)
        whole = _fresh(BASE + BATCH)
        assert appended == len(BATCH)
        assert grown.n_rows == len(BASE) + len(BATCH)
        assert list(grown.iter_rows()) == list(whole.iter_rows())
        assert grown.fingerprint() == whole.fingerprint()
        assert grown.fingerprint() != base_fingerprint
        assert grown.parent_fingerprint == base_fingerprint

        # Mixed types, appended through an indexed store: the chain still
        # ends at the from-scratch fingerprint of all rows.
        mixed = _fresh(MIXED_BASE, substrate=substrate, names=MIXED_NAMES)
        store = PliStore()
        store.index_for(mixed)
        store.append_rows(mixed, MIXED_BATCH)
        assert mixed.fingerprint() == _fresh(
            MIXED_BASE + MIXED_BATCH, names=MIXED_NAMES
        ).fingerprint()
        # Fingerprinting before or after indexing gives one fingerprint.
        rows = MIXED_BASE + MIXED_BATCH
        before = _fresh(rows, substrate=substrate, names=MIXED_NAMES)
        after = _fresh(rows, substrate=substrate, names=MIXED_NAMES)
        RelationIndex(after)
        assert before.fingerprint() == after.fingerprint() == mixed.fingerprint()

    def test_chain_over_multiple_batches(self, substrate, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        grown = _fresh(BASE, substrate=substrate)
        fingerprints = [grown.fingerprint()]
        for row in BATCH:
            grown.append_rows([row])
            # Each link's parent is the previous link's fingerprint.
            assert grown.parent_fingerprint == fingerprints[-1]
            fingerprints.append(grown.fingerprint())
        whole = _fresh(BASE + BATCH)
        assert fingerprints[-1] == whole.fingerprint()
        assert len(set(fingerprints)) == len(fingerprints)

    def test_empty_batch_is_identity(self, substrate, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        grown = _fresh(BASE, substrate=substrate)
        before = grown.fingerprint()
        assert grown.append_rows([]) == 0
        assert grown.fingerprint() == before
        assert grown.parent_fingerprint is None

    def test_width_mismatch_rejected_before_mutation(
        self, substrate, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        grown = _fresh(BASE, substrate=substrate)
        before = grown.fingerprint()
        with pytest.raises(SchemaError):
            grown.append_rows([("E4", "Spokane")])
        assert grown.n_rows == len(BASE)
        assert grown.fingerprint() == before

    def test_batches_spanning_hash_blocks(self, substrate, tmp_path, monkeypatch):
        # Batches longer than one hash block that repeat earlier values,
        # add new ones and carry NULLs: hashing from the appended codes
        # through the token memo must reproduce the from-scratch bytes.
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        rows = [
            (f"E{i}", f"c{i % 37}", None if i % 5 == 0 else f"s{i % 3}")
            for i in range(3 * _BLOCK_ROWS)
        ]
        if substrate == "objects":
            grown = _fresh(rows[:100])
        else:
            path = tmp_path / "base.csv"
            write_csv(_fresh(rows[:100]), path)
            grown = read_csv(path, storage=substrate)
        grown.append_rows(rows[100 : 2 * _BLOCK_ROWS])
        grown.append_rows(rows[2 * _BLOCK_ROWS :])
        whole = Relation.from_rows(NAMES, rows, name=grown.name)
        assert list(grown.iter_rows()) == list(whole.iter_rows())
        assert grown.fingerprint() == whole.fingerprint()


class TestHasherLifecycle:
    def test_pickle_roundtrip_then_append(self):
        # Live hashlib objects cannot pickle; the relation drops them and
        # rebuilds by re-streaming on the next append.
        grown = _fresh(BASE)
        grown.fingerprint()
        revived = pickle.loads(pickle.dumps(grown))
        assert revived.fingerprint() == grown.fingerprint()
        revived.append_rows(BATCH)
        assert revived.fingerprint() == _fresh(BASE + BATCH).fingerprint()

    def test_append_before_first_fingerprint(self):
        grown = _fresh(BASE)
        grown.append_rows(BATCH)  # no fingerprint() call beforehand
        assert grown.fingerprint() == _fresh(BASE + BATCH).fingerprint()

    def test_csv_read_relation_appends_cheaply(self, tmp_path):
        # read_csv donates its streaming hashers, so the chain holds for
        # CSV-sourced bases too (the values are all strings there).
        path = tmp_path / "base.csv"
        write_csv(_fresh(BASE), path)
        grown = read_csv(path)
        grown.append_rows(BATCH)
        whole = Relation.from_rows(NAMES, BASE + BATCH, name=grown.name)
        assert grown.fingerprint() == whole.fingerprint()
