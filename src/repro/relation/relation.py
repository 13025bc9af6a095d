"""Column-oriented in-memory relation.

The profiling algorithms operate on a single relation instance.  Values are
arbitrary hashable Python objects; ``None`` denotes SQL NULL.  The relation
is column-oriented because every algorithm in this package consumes whole
columns (to build position list indexes or sorted distinct-value lists), not
whole rows.

The paper assumes the input is duplicate-free (§3): a relation with two
identical rows has no UCC at all and most inter-task pruning rules would not
apply.  :meth:`Relation.deduplicated` implements that preprocessing step.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from itertools import filterfalse, islice
from typing import Any

from .encoded import _BLOCK_ROWS, EncodedColumn, encode_column

Value = Any

__all__ = ["Relation", "SchemaError"]


class SchemaError(ValueError):
    """Raised for malformed schemas or ragged data."""


#: Type tags for :meth:`Relation.fingerprint` value encoding (``str``
#: has its own fast path, :func:`_str_token`).  ``bool`` must precede
#: ``int`` (it is a subclass) so True/1 get distinct tags.
_VALUE_TAGS: tuple[tuple[type, bytes], ...] = (
    (bool, b"\x00b"),
    (int, b"\x00i"),
    (float, b"\x00f"),
)


def _str_token(value: str) -> bytes:
    """Token of one ``str`` value, the type every CSV cell decodes to."""
    payload = value.encode("utf-8", "surrogatepass")
    return b"\x00s%d:%b" % (len(payload), payload)


def _value_token(value: Value) -> bytes:
    """Stable, process-independent byte encoding of one cell value.

    Every token is length-prefixed so values containing the tag bytes
    cannot recreate another value sequence's byte stream (no ambiguity
    between ``["a\\x00sb"]`` and ``["a", "b"]``).
    """
    if value is None:
        return b"\x00n0:"
    if type(value) is str:
        return _str_token(value)
    for kind, tag in _VALUE_TAGS:
        if type(value) is kind:
            payload = repr(value).encode()
            return tag + str(len(payload)).encode() + b":" + payload
    # Fallback for exotic hashables: type name + repr.  repr must be
    # deterministic for the fingerprint to be stable; the built-in scalar
    # types every loader in this package produces are all covered above.
    payload = type(value).__name__.encode() + b":" + repr(value).encode()
    return b"\x00o" + str(len(payload)).encode() + b":" + payload


def _hash_blocks(digest: "hashlib._Hash", tokens: Iterable[bytes]) -> None:
    """Stream value tokens through ``digest``, one update per block.

    SHA-256 over a concatenation equals the same bytes fed in several
    updates, so the block size never changes the digest; it only bounds
    the joined buffer, which keeps ``mmap`` columns out-of-core.
    """
    tokens = iter(tokens)
    # Tokens are never empty, so an empty join means the stream is done.
    while block := b"".join(islice(tokens, _BLOCK_ROWS)):
        digest.update(block)


def _memo_tokens(
    memo: dict[int, bytes], dictionary: list[Value], codes: Sequence[int]
) -> Iterator[bytes]:
    """Value tokens of ``codes``; ``memo`` caches one token per code."""
    missing = list(filterfalse(memo.__contains__, dict.fromkeys(codes)))
    memo.update(zip(missing, map(_value_token, map(dictionary.__getitem__, missing))))
    return map(memo.__getitem__, codes)


#: Domain separator of the fingerprint format.  v2 hashes each column
#: into its own SHA-256 digest and combines the per-column digests — the
#: shape that lets ``read_csv`` fold fingerprinting into its row-order
#: streaming pass (one hasher per column) while the post-hoc path walks
#: columns; both produce identical bytes per column, hence identical
#: fingerprints.
_FINGERPRINT_DOMAIN = b"repro-relation-v2\x00"


def _column_hasher(name: str) -> "hashlib._Hash":
    """Fresh per-column fingerprint hasher, seeded with the column name."""
    digest = hashlib.sha256()
    encoded = name.encode("utf-8", "surrogatepass")
    digest.update(b"\x00c" + str(len(encoded)).encode() + b":" + encoded)
    return digest


def _combine_column_digests(
    n_columns: int, n_rows: int, digests: Iterable[bytes]
) -> str:
    """Fold per-column digests plus the dimensions into the fingerprint."""
    final = hashlib.sha256()
    final.update(_FINGERPRINT_DOMAIN)
    final.update(f"{n_columns}x{n_rows}".encode())
    for digest in digests:
        final.update(digest)
    return final.hexdigest()


class Relation:
    """An immutable, column-oriented table.

    Parameters
    ----------
    column_names:
        Unique names, one per column.
    columns:
        One sequence of values per column; all must share the same length.
    name:
        Optional label used in reports (defaults to ``"relation"``).
    """

    __slots__ = (
        "_names",
        "_columns",
        "_n_rows",
        "_name",
        "_positions",
        "_fingerprint",
        "_encodings",
        "_hashers",
        "_token_memos",
        "_parent_fingerprint",
        "_shares_columns",
    )

    def __init__(
        self,
        column_names: Sequence[str],
        columns: Sequence[Sequence[Value]],
        name: str = "relation",
    ):
        names = tuple(str(n) for n in column_names)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names!r}")
        if len(columns) != len(names):
            raise SchemaError(
                f"{len(names)} column names but {len(columns)} columns of data"
            )
        # Dictionary-encoded columns are held as-is (they present the
        # decoded tuple interface); anything else is frozen into a tuple.
        cols = tuple(
            col if isinstance(col, EncodedColumn) else tuple(col)
            for col in columns
        )
        lengths = {len(col) for col in cols}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._names = names
        self._columns = cols
        self._n_rows = lengths.pop() if lengths else 0
        self._name = name
        self._positions = {n: i for i, n in enumerate(names)}
        self._fingerprint: str | None = None
        self._encodings: tuple[EncodedColumn | None, ...] | None = None
        # Live per-column fingerprint hashers (v2 is a running digest per
        # column, so appends can advance it instead of re-hashing from row
        # 0).  ``read_csv`` hands over its streaming hashers; in-memory
        # relations rebuild them lazily on the first append.
        self._hashers: list["hashlib._Hash"] | None = None
        # Per-column code -> token memos of encoded columns, filled by
        # append_rows with the tokens of the codes its batches touch.
        self._token_memos: list[dict[int, bytes]] | None = None
        self._parent_fingerprint: str | None = None
        # Set by project(): encoded columns may be held by another
        # relation too, so the first append copies them (_unshare).
        self._shares_columns = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        column_names: Sequence[str],
        rows: Iterable[Sequence[Value]],
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from an iterable of rows."""
        materialized = [tuple(row) for row in rows]
        width = len(column_names)
        for i, row in enumerate(materialized):
            if len(row) != width:
                raise SchemaError(
                    f"row {i} has {len(row)} values, expected {width}"
                )
        columns = (
            [list(col) for col in zip(*materialized)]
            if materialized
            else [[] for _ in range(width)]
        )
        return cls(column_names, columns, name=name)

    @classmethod
    def from_dict(
        cls, columns: dict[str, Sequence[Value]], name: str = "relation"
    ) -> "Relation":
        """Build a relation from a ``{name: values}`` mapping."""
        return cls(list(columns), list(columns.values()), name=name)

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        """Label of this relation."""
        return self._name

    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of all columns, in schema order."""
        return self._names

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._names)

    def column(self, key: int | str) -> tuple[Value, ...]:
        """Return one column's values, addressed by index or name."""
        return self._columns[self.column_index(key)]

    def column_index(self, key: int | str) -> int:
        """Resolve a column name (or pass through an index)."""
        if isinstance(key, str):
            try:
                return self._positions[key]
            except KeyError:
                raise KeyError(f"unknown column {key!r}") from None
        if not 0 <= key < len(self._names):
            raise IndexError(f"column index {key} out of range")
        return key

    def encoding(self, key: int | str) -> EncodedColumn | None:
        """This column's dictionary encoding, or ``None`` if it has none.

        An encoding exists either because the column *is* an
        :class:`~repro.relation.encoded.EncodedColumn` (the ``read_csv``
        path) or because :func:`~repro.relation.encoded.encode_relation`
        attached a sidecar (in-memory relations).  The PLI substrate
        attaches the sidecars before it reads the codes from here.
        """
        index = self.column_index(key)
        column = self._columns[index]
        if isinstance(column, EncodedColumn):
            return column
        if self._encodings is not None:
            return self._encodings[index]
        return None

    def row(self, index: int) -> tuple[Value, ...]:
        """Materialize row ``index`` as a tuple."""
        return tuple(col[index] for col in self._columns)

    def iter_rows(self) -> Iterator[tuple[Value, ...]]:
        """Iterate over all rows as tuples."""
        return zip(*self._columns) if self._columns else iter(())

    # -- content addressing ------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of this relation: hex SHA-256 over schema + rows.

        The fingerprint is *content-addressed*: it covers the column names
        (in schema order) and every cell value, but not :attr:`name` — two
        relations with identical schema and data share a fingerprint no
        matter what they are called, which is what lets a result cache
        recognize an already-profiled input.  Values are streamed column
        by column through the hash (no materialized row tuples), each
        encoded with a type tag so ``1``, ``1.0``, ``"1"``, and ``True``
        never collide.  Computed once and cached on the instance (the
        relation is immutable).
        """
        if self._fingerprint is None:
            self._fingerprint = _combine_column_digests(
                len(self._names),
                self._n_rows,
                (digest.digest() for digest in self._ensure_hashers()),
            )
        return self._fingerprint

    @property
    def parent_fingerprint(self) -> str | None:
        """Fingerprint of the relation before its most recent append.

        ``None`` for relations that were never appended to.  Together with
        :meth:`fingerprint` this forms the verifiable chain
        ``fingerprint(old) ⊕ batch → fingerprint(new)`` that the result
        cache records as entry lineage.
        """
        return self._parent_fingerprint

    # -- appends -----------------------------------------------------------

    def _ensure_hashers(self) -> list["hashlib._Hash"]:
        """Per-column running digests matching the bytes hashed so far.

        Rebuilding costs one pass over the data; relations built by
        ``read_csv`` never pay it because the reader donates its streaming
        hashers.  The hashers are kept: ``digest()`` does not consume
        them, and a later :meth:`append_rows` advances them at O(batch).
        """
        if self._hashers is None:
            hashers = []
            for index, (name, column) in enumerate(zip(self._names, self._columns)):
                digest = _column_hasher(name)
                encoding = self.encoding(index)
                if encoding is not None:
                    # Token per dictionary entry, streamed per code: the
                    # bytes of tokenizing every row, at dictionary cost.
                    tokens = list(map(_value_token, encoding.dictionary))
                    _hash_blocks(digest, map(tokens.__getitem__, encoding.codes))
                else:
                    _hash_blocks(digest, map(_value_token, column))
                hashers.append(digest)
            self._hashers = hashers
        return self._hashers

    def append_rows(self, rows: Iterable[Sequence[Value]]) -> int:
        """Append a batch of rows in place; returns the number appended.

        Works on both storage substrates: object-tuple columns are
        extended by concatenation, dictionary-encoded columns grow their
        code arrays (and dictionaries) in place — including the mmap
        spill files of out-of-core columns.  The cached v2 fingerprint is
        *advanced* by streaming only the batch's value tokens through the
        retained per-column hashers, so appending is O(batch), and the
        resulting fingerprint is byte-identical to hashing the combined
        relation from scratch.  The pre-append fingerprint is kept as
        :attr:`parent_fingerprint`.

        This is the one sanctioned mutation of a relation: any previously
        taken ``hash()``, row count, or derived index refers to the
        pre-append content (the PLI layer maintains its structures through
        :meth:`repro.pli.store.PliStore.append_rows`).
        """
        materialized = [tuple(row) for row in rows]
        width = len(self._names)
        for i, row in enumerate(materialized):
            if len(row) != width:
                raise SchemaError(
                    f"appended row {i} has {len(row)} values, expected {width}"
                )
        if not materialized:
            return 0
        if self._shares_columns:
            self._unshare()
        parent = self.fingerprint()
        hashers = self._ensure_hashers()
        memos = self._token_memos
        if memos is None:
            memos = self._token_memos = [{} for _ in self._names]
        columns = list(self._columns)
        for index, batch in enumerate(zip(*materialized)):
            # Hash from the encoding whenever there is one, exactly as
            # fingerprint() does, so the chain matches a from-scratch hash.
            encoding = self.encoding(index)
            if encoding is not None:
                codes = encoding.append_values(batch)
                tokens = _memo_tokens(memos[index], encoding.dictionary, codes)
            else:
                tokens = map(_value_token, batch)
            _hash_blocks(hashers[index], tokens)
            if not isinstance(columns[index], EncodedColumn):
                columns[index] = columns[index] + batch
        self._columns = tuple(columns)
        self._n_rows += len(materialized)
        self._parent_fingerprint = parent
        self._fingerprint = _combine_column_digests(
            width, self._n_rows, (digest.digest() for digest in hashers)
        )
        return len(materialized)

    def _unshare(self) -> None:
        """Re-encode this relation's encoded columns into private copies.

        ``append_rows`` grows encoded columns (and sidecar encodings) in
        place, so a relation holding column objects it shares with a
        projection copies them before its first append.  The copies have
        the same codes and dictionaries, in the same storage mode.
        """
        self._columns = tuple(
            encode_column(col, storage=col.storage)
            if isinstance(col, EncodedColumn)
            else col
            for col in self._columns
        )
        if self._encodings is not None:
            self._encodings = tuple(
                None if enc is None else encode_column(enc, storage=enc.storage)
                for enc in self._encodings
            )
        self._shares_columns = False

    # -- transformations ---------------------------------------------------

    def project(self, keys: Sequence[int | str], name: str | None = None) -> "Relation":
        """Return a new relation containing only the given columns."""
        indexes = [self.column_index(k) for k in keys]
        projected = Relation(
            [self._names[i] for i in indexes],
            [self._columns[i] for i in indexes],
            name=name or self._name,
        )
        if self._encodings is not None:
            projected._encodings = tuple(self._encodings[i] for i in indexes)
        # Both relations now hold the same encoded column objects; an
        # append to either must not grow the other's.
        self._shares_columns = projected._shares_columns = True
        return projected

    def head(self, n_rows: int, name: str | None = None) -> "Relation":
        """Return a new relation containing only the first ``n_rows`` rows."""
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        return Relation(
            self._names,
            [col[:n_rows] for col in self._columns],
            name=name or self._name,
        )

    def deduplicated(self, name: str | None = None) -> "Relation":
        """Drop duplicate rows, keeping first occurrences (paper §3).

        The holistic algorithms assume a duplicate-free input; a relation
        with two identical rows has no UCC at all.
        """
        seen: set[tuple[Value, ...]] = set()
        keep: list[int] = []
        # Rows are equal iff their per-column codes are equal (encoding is
        # a per-column bijection), so fully-encoded relations deduplicate
        # over int tuples — no value decoding or boxing.
        encodings = [self.encoding(i) for i in range(self.n_columns)]
        if self._columns and all(e is not None for e in encodings):
            rows: Iterable[tuple[Value, ...]] = zip(
                *(e.codes for e in encodings)
            )
        else:
            rows = self.iter_rows()
        for index, row in enumerate(rows):
            if row not in seen:
                seen.add(row)
                keep.append(index)
        if len(keep) == self._n_rows:
            return self
        return Relation(
            self._names,
            [[col[i] for i in keep] for col in self._columns],
            name=name or self._name,
        )

    def has_duplicate_rows(self) -> bool:
        """True iff at least two rows are identical."""
        seen: set[tuple[Value, ...]] = set()
        for row in self.iter_rows():
            if row in seen:
                return True
            seen.add(row)
        return False

    # -- dunder ------------------------------------------------------------

    def __getstate__(self):
        # Live hash objects cannot be pickled (worker processes receive
        # relations); drop them — the receiver rebuilds lazily on append.
        # The token memos are a cache, not worth shipping.
        state = {slot: getattr(self, slot) for slot in Relation.__slots__}
        state["_hashers"] = None
        state["_token_memos"] = None
        return state

    def __setstate__(self, state):
        self._token_memos = None  # absent from pickles of older releases
        for slot, value in state.items():
            setattr(self, slot, value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return self._names == other._names and self._columns == other._columns
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._names, self._columns))

    def __repr__(self) -> str:
        return (
            f"Relation({self._name!r}, {self.n_columns} columns x "
            f"{self._n_rows} rows)"
        )
