"""Dictionary-encoded columnar storage (with an out-of-core spill path).

The profiling substrate never needs the *values* of a column on its hot
path — it needs to know which rows share a value.  This module therefore
stores each column as

* a **dictionary**: the distinct values in first-seen order, and
* a dense **code array**: one ``int32`` per row, the row's value's index
  in the dictionary.

Codes are assigned in first-seen order, which makes them exactly the
dense value ids :func:`repro.pli.pli.value_vector` would produce — so an
encoded column *is* the probe vector of FD refinement checks, and its
single-column PLI falls out of one grouping pass over integer codes with
no per-value hashing at all (:class:`repro.pli.index.RelationIndex`).

Every column reaches the PLI substrate as codes.  Two **storage modes**
decide where the codes live.  The mode is a property of each column,
chosen where the column is built: ``read_csv(storage=)`` (and the CLI's
``--storage``, which passes it there), or :func:`encode_column` /
:class:`ColumnEncoder`.  A column built from in-memory values is encoded
in memory the first time something needs its codes
(:meth:`~repro.relation.relation.Relation.encoding`).

* ``encoded`` — the default: code arrays live in ``array('i')`` buffers
  (stdlib only, the zero-dependency promise).
* ``mmap`` — the out-of-core mode: code arrays are spilled to
  memory-mapped files under a spill directory
  (``$REPRO_SPILL_DIR`` or the system temp dir), so the resident cost of
  a relation is its dictionaries plus a bounded chunk buffer — relations
  far larger than RAM profile without thrashing.  Spill files are
  process-private temporaries: each is created with an unpredictable
  name, unlinked by a finalizer when its column is garbage collected,
  and never reused across runs.

Spill-file writes trip the :data:`~repro.faults.STORAGE_SPILL` fault
point and are retried under the harness retry policy (transient I/O is
absorbed exactly like cache/checkpoint writes).

Exactness: encoding is a bijective re-labelling per column, so PLIs,
value vectors, and distinct-value lists derived from codes are
bit-identical to grouping the values themselves — the differential
suite pins both modes against the value-grouping reference
(:func:`repro.pli.pli.pli_from_column` /
:func:`~repro.pli.pli.value_vector`).  Values are identified by
equality, as the PLIs identify them: a column holding ``1`` and ``True``
holds one value, and its encoding shows the first one seen.
"""

from __future__ import annotations

import io
import mmap
import operator
import os
import tempfile
import weakref
from array import array
from itertools import filterfalse, islice
from typing import Any, Iterable, Iterator, Sequence

from .. import trace as _trace
from ..faults import FAULTS, STORAGE_SPILL

__all__ = [
    "SPILL_DIR_ENV",
    "STORAGE_MODES",
    "CODE_BYTES",
    "SPILL_CHUNK_CODES",
    "ColumnEncoder",
    "EncodedColumn",
    "StorageUnavailable",
    "encode_column",
    "resolve_storage",
    "spill_directory",
]

#: Environment variable overriding the spill directory for ``mmap`` mode.
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

#: Valid storage modes, in "most resident" to "least resident" order.
STORAGE_MODES = ("encoded", "mmap")

#: Bytes per code: ``array('i')`` / little-endian ``int32`` on every
#: platform this package targets (dictionary sizes are bounded by the
#: row count, which is far below 2^31).
CODE_BYTES = 4

#: Codes buffered in memory per column before an ``mmap``-mode spill
#: flush; bounds the resident build cost of one column to
#: ``SPILL_CHUNK_CODES * CODE_BYTES`` bytes regardless of row count.
SPILL_CHUNK_CODES = 65_536

# Values per bulk pass: ``read_csv`` buffers this many rows before it
# encodes and fingerprints each column, and the fingerprint streams this
# many tokens per hash update.  Small on purpose: the block is resident
# next to the spill chunk, and larger blocks buy no further speed.
_BLOCK_ROWS = 1024


class StorageUnavailable(RuntimeError):
    """An explicitly requested storage mode cannot be used."""


def resolve_storage(choice: str | None) -> str:
    """Validate a storage-mode name (``None`` means ``encoded``)."""
    name = (choice or "encoded").strip().lower()
    if name not in STORAGE_MODES:
        raise StorageUnavailable(
            f"unknown storage mode {choice!r}; available: {STORAGE_MODES}"
        )
    return name


def spill_directory(override: str | None = None) -> str:
    """Resolve the spill directory for ``mmap``-mode code files.

    Precedence: explicit ``override``, ``$REPRO_SPILL_DIR``, the system
    temp dir.  The directory is created if missing.
    """
    root = override or os.environ.get(SPILL_DIR_ENV) or tempfile.gettempdir()
    os.makedirs(root, exist_ok=True)
    return root


class EncodedColumn:
    """One dictionary-encoded column: dense codes plus a dictionary.

    Behaves like the tuple of values it encodes — ``len``, indexing,
    slicing, iteration, ``count``, ``index``, equality, and hashing all
    see decoded values — so a :class:`~repro.relation.relation.Relation`
    can hold it in place of a tuple of values.  The profiling substrate
    bypasses the decoded view entirely and reads :attr:`codes` /
    :attr:`dictionary` directly.

    ``codes`` is an ``array('i')`` (``encoded`` mode) or a ``memoryview``
    over a memory-mapped spill file (``mmap`` mode); both subscript to
    plain ints.  Do not mutate either attribute.
    """

    __slots__ = (
        "codes",
        "dictionary",
        "storage",
        "spill_path",
        "_mmap",
        "_hash",
        "_finalizer",
        "_positions",
        "holders",
        "__weakref__",
    )

    def __init__(
        self,
        codes: "array | memoryview",
        dictionary: list[Any],
        storage: str = "encoded",
        spill_path: str | None = None,
        mapped: "mmap.mmap | None" = None,
    ):
        self.codes = codes
        self.dictionary = dictionary
        self.storage = storage
        self.spill_path = spill_path
        self._mmap = mapped
        self._hash: int | None = None
        self._positions: dict[Any, int] | None = None
        #: Relation columns holding this encoding.  Appends grow it in
        #: place, so a relation appending to an encoding with more than
        #: one holder copies it first (``Relation._unshare``).
        self.holders = 0
        # Spill-file lifecycle: the file exists exactly as long as some
        # column reads it; collection closes the map and unlinks.
        if spill_path is not None:
            self._finalizer = weakref.finalize(
                self, _release_spill, mapped, spill_path
            )
        else:
            self._finalizer = None

    # -- substrate views ---------------------------------------------------

    @property
    def n_codes(self) -> int:
        """Distinct values (the dictionary size)."""
        return len(self.dictionary)

    @property
    def encoded_bytes(self) -> int:
        """Estimated resident bytes of this column's encoded form."""
        return len(self.codes) * CODE_BYTES + 64 * len(self.dictionary)

    def python_vector(self) -> Sequence[int]:
        """Dense value vector in the PLI kernel's preferred form.

        In-memory codes convert to a flat list once (list subscripts do
        not box, the hot-loop property the kernel relies on); mmap-backed
        codes stay a memoryview so the resident footprint keeps its
        bound — the slower subscript is the price of out-of-core mode.
        """
        if self.storage == "mmap":
            return self.codes
        return self.codes.tolist()

    def _code_positions(self) -> dict[Any, int]:
        """Value -> code map of the dictionary, built on the first append
        and kept: appends repeat, and each looks up a whole batch."""
        if self._positions is None:
            self._positions = {
                value: code for code, value in enumerate(self.dictionary)
            }
        return self._positions

    def _code_of(self, value: Any) -> int | None:
        """Code of ``value``, or ``None`` when the column lacks it.

        A one-off lookup: it scans the dictionary and keeps nothing.
        """
        try:
            return self.dictionary.index(value)
        except ValueError:
            return None

    # -- appends -----------------------------------------------------------

    def append_values(self, values: Sequence[Any]) -> list[int]:
        """Append a batch of values in place; returns their codes.

        The dictionary grows with first-seen new values (so codes stay
        the dense first-seen ids the kernel relies on) and the code array
        is extended in place.  ``mmap`` columns append to their spill
        file and re-map it.  Previously exported buffer views keep seeing
        the pre-append codes; callers holding derived vectors refresh
        them through the PLI layer's append path.
        """
        codes = _encode_block(values, self._code_positions(), self.dictionary)
        if not codes:
            return codes
        batch = array("i", codes)
        if self.storage == "mmap":
            self._append_spill(batch)
        else:
            self.codes.extend(batch)
        self._hash = None
        return codes

    def _append_spill(self, batch: "array") -> None:
        """Append a code batch to the spill file and re-map it."""
        payload = batch.tobytes()

        def write() -> None:
            if FAULTS.armed:
                FAULTS.trip(STORAGE_SPILL)
            with open(self.spill_path, "ab") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())

        from ..harness.retry import RetryPolicy

        RetryPolicy().call(write, key=f"storage.spill:{self.spill_path}")
        _trace.count("storage.spilled_bytes", len(payload))
        # Re-map the grown file under the same path.  The old finalizer is
        # detached first so it cannot unlink the file we keep using; the
        # new one owns the (map, path) pair from here on.  Closing the old
        # map fails with BufferError while old memoryviews are alive — it
        # is then closed by its own deallocation once they go away.
        if self._finalizer is not None:
            self._finalizer.detach()
        old_map = self._mmap
        with open(self.spill_path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.codes = memoryview(mapped).cast("i")
        self._mmap = mapped
        self._finalizer = weakref.finalize(
            self, _release_spill, mapped, self.spill_path
        )
        if old_map is not None:
            try:
                old_map.close()
            except (BufferError, ValueError):
                pass

    # -- decoded tuple-like face -------------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key: int | slice) -> Any:
        if isinstance(key, slice):
            dictionary = self.dictionary
            return tuple(dictionary[code] for code in self.codes[key])
        return self.dictionary[self.codes[key]]

    def __iter__(self) -> Iterator[Any]:
        dictionary = self.dictionary
        for code in self.codes:
            yield dictionary[code]

    def count(self, value: Any) -> int:
        """Rows holding ``value`` (``tuple.count``)."""
        code = self._code_of(value)
        return 0 if code is None else operator.countOf(self.codes, code)

    def index(self, value: Any) -> int:
        """First row holding ``value`` (``tuple.index``)."""
        code = self._code_of(value)
        if code is not None:
            return operator.indexOf(self.codes, code)
        raise ValueError(f"{value!r} is not in the column")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EncodedColumn):
            if self.dictionary == other.dictionary:
                return _codes_equal(self.codes, other.codes)
            other = tuple(other)
        if isinstance(other, (tuple, list)):
            if len(other) != len(self.codes):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        # Must match the decoded tuple's hash so an encoded relation and
        # its object twin stay interchangeable as dict/set keys.
        if self._hash is None:
            self._hash = hash(tuple(self))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"EncodedColumn({len(self.codes)} rows, "
            f"{len(self.dictionary)} distinct, storage={self.storage!r})"
        )

    # -- process boundary --------------------------------------------------

    def __reduce__(self):
        # mmap views cannot travel; rebuild as an in-memory encoded
        # column on the far side (same codes, same dictionary).
        return (
            _rebuild_encoded_column,
            (array("i", self.codes), self.dictionary),
        )


def _rebuild_encoded_column(codes: "array", dictionary: list[Any]) -> EncodedColumn:
    return EncodedColumn(codes, dictionary, storage="encoded")


def _codes_equal(left, right) -> bool:
    if len(left) != len(right):
        return False
    return bytes(left) == bytes(right)


def _release_spill(mapped: "mmap.mmap | None", path: str) -> None:
    """Finalizer: close the map and delete the spill file (best effort)."""
    try:
        if mapped is not None:
            mapped.close()
    except (BufferError, ValueError, OSError):  # pragma: no cover - teardown
        pass
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - already gone / dir vanished
        pass


def _encode_block(
    values: Sequence[Any],
    positions: dict[Any, int],
    dictionary: list[Any],
    nulls: frozenset = frozenset(),
) -> list[int]:
    """Codes of one block of values, growing the dictionary in place.

    ``positions`` maps every value seen so far to its code.  The block's
    unseen values join ``dictionary`` in first-seen order, so codes stay
    the dense first-seen ids; every value in ``nulls`` is a NULL marker
    and maps to the one ``None`` code.  The per-value work happens in C
    (``dict.fromkeys``, ``map``); Python code runs once per *new* value
    only when the block holds a NULL marker.
    """
    new = list(filterfalse(positions.__contains__, dict.fromkeys(values)))
    if new:
        if nulls.isdisjoint(new):
            start = len(dictionary)
            positions.update(zip(new, range(start, start + len(new))))
            dictionary.extend(new)
        else:
            for value in new:
                if value in nulls:
                    code = positions.get(None)
                    if code is None:
                        code = positions[None] = len(dictionary)
                        dictionary.append(None)
                    positions[value] = code
                else:
                    positions[value] = len(dictionary)
                    dictionary.append(value)
    return list(map(positions.__getitem__, values))


class ColumnEncoder:
    """Streaming builder of one :class:`EncodedColumn`.

    Values arrive in blocks (:meth:`add_block`), each block is mapped to
    dictionary codes in bulk, and the codes land in a bounded chunk
    buffer.  In ``mmap`` mode a full buffer is spilled to the column's
    temp file (a retry-absorbed, fault-injectable write), so the resident
    build cost never scales with the row count.  Values in ``nulls`` are
    NULL markers: they all encode as ``None``.
    """

    __slots__ = (
        "storage",
        "_codes",
        "_chunk",
        "_dictionary",
        "_positions",
        "_nulls",
        "_spill_dir",
        "_path",
        "_handle",
        "_spilled",
    )

    def __init__(
        self,
        storage: str = "encoded",
        spill_dir: str | None = None,
        nulls: frozenset = frozenset(),
    ):
        self.storage = resolve_storage(storage)
        self._dictionary: list[Any] = []
        self._positions: dict[Any, int] = {}
        self._nulls = nulls
        self._spill_dir = spill_dir
        self._path: str | None = None
        self._handle: io.BufferedWriter | None = None
        self._spilled = 0
        if self.storage == "mmap":
            self._codes = None
            self._chunk = array("i")
        else:
            self._codes = array("i")
            self._chunk = None

    @property
    def dictionary(self) -> list[Any]:
        """The distinct values so far, in first-seen (code) order."""
        return self._dictionary

    def add_block(self, values: Sequence[Any]) -> list[int]:
        """Encode one block of values; returns their dictionary codes."""
        codes = _encode_block(values, self._positions, self._dictionary, self._nulls)
        if self._chunk is not None:
            self._chunk.extend(codes)
            if len(self._chunk) >= SPILL_CHUNK_CODES:
                self._flush()
        else:
            self._codes.extend(codes)
        return codes

    def extend(self, values: Iterable[Any]) -> None:
        """Encode a whole iterable of values, one bounded block at a time."""
        iterator = iter(values)
        while block := list(islice(iterator, _BLOCK_ROWS)):
            self.add_block(block)

    # -- spill path --------------------------------------------------------

    def _open_spill(self) -> None:
        handle, path = tempfile.mkstemp(
            prefix="repro-codes-", suffix=".i32", dir=spill_directory(self._spill_dir)
        )
        self._handle = os.fdopen(handle, "wb")
        self._path = path

    def _flush(self) -> None:
        """Spill the chunk buffer to the column's code file.

        The write trips the ``storage.spill`` fault point and runs under
        the bounded retry policy, so transient I/O (a briefly-full disk,
        an injected fault) is absorbed exactly like cache/checkpoint
        writes; permanent errors surface immediately.
        """
        if not self._chunk:
            return
        if self._handle is None:
            self._open_spill()
        # The chunk is written straight from its buffer: a tobytes() copy
        # would double the resident cost of the spill path.
        payload = self._chunk

        def write() -> None:
            if FAULTS.armed:
                FAULTS.trip(STORAGE_SPILL)
            self._handle.write(payload)

        # Deferred import: the harness layer imports the relation layer,
        # so the reverse edge must not run at module import time.
        from ..harness.retry import RetryPolicy

        RetryPolicy().call(write, key=f"storage.spill:{self._path}")
        spilled = len(payload) * CODE_BYTES
        self._spilled += spilled
        _trace.count("storage.spilled_bytes", spilled)
        del self._chunk[:]

    def finish(self) -> EncodedColumn:
        """Seal the column and return its :class:`EncodedColumn`."""
        if self.storage != "mmap":
            return EncodedColumn(self._codes, self._dictionary, storage="encoded")
        self._flush()
        if self._handle is None:
            # Zero rows: nothing was ever spilled; an empty mmap is
            # invalid, so degrade to an (empty) in-memory column.
            return EncodedColumn(array("i"), self._dictionary, storage="encoded")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        with open(self._path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        codes = memoryview(mapped).cast("i")
        return EncodedColumn(
            codes,
            self._dictionary,
            storage="mmap",
            spill_path=self._path,
            mapped=mapped,
        )

    def abort(self) -> None:
        """Discard a half-built column (close and unlink any spill file)."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None
        if self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:
                pass
            self._path = None


def encode_column(
    values: Sequence[Any],
    storage: str = "encoded",
    spill_dir: str | None = None,
) -> EncodedColumn:
    """Dictionary-encode one materialized column."""
    encoder = ColumnEncoder(storage=storage, spill_dir=spill_dir)
    try:
        encoder.extend(iter(values))
        return encoder.finish()
    except BaseException:
        encoder.abort()
        raise

