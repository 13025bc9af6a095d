"""CSV input/output for :class:`~repro.relation.relation.Relation`.

The Metanome framework (the paper's execution environment) feeds algorithms
from CSV files; this module is the equivalent file-input substrate.  Reading
is instrumented-friendly: :func:`read_csv` accepts an open text handle so the
harness can wrap it with a byte/row counter to account shared-I/O costs.

Empty fields (and any string listed in ``null_values``) are decoded to
``None``.  Values are kept as strings — type inference is irrelevant for
dependency discovery and would only blur NULL semantics.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import TextIO

from ..faults import CSV_READ, FAULTS
from .encoded import _BLOCK_ROWS, ColumnEncoder
from .relation import (
    Relation,
    SchemaError,
    _column_hasher,
    _combine_column_digests,
    _hash_blocks,
    _value_token,
)

__all__ = ["read_csv", "write_csv", "read_csv_text"]

DEFAULT_NULLS = frozenset({""})


def read_csv(
    source: str | Path | TextIO,
    delimiter: str = ",",
    has_header: bool = True,
    null_values: Iterable[str] = DEFAULT_NULLS,
    name: str | None = None,
) -> Relation:
    """Read a CSV file (or open handle) into a :class:`Relation`.

    The read is a **single streaming pass** shared by two consumers
    (paper §3's "one shared I/O" argument, taken literally): the decoded
    values are (a) dictionary-encoded into the active storage mode's code
    arrays, whose :class:`~repro.relation.encoded.EncodedColumn` objects
    become the relation's columns, and (b) streamed through a per-column
    fingerprint hasher, so :meth:`Relation.fingerprint` — the
    result-cache key — is already computed when the function returns.
    The values themselves are never materialized per row: ``encoded``
    keeps the codes in memory, ``mmap`` spills them to memory-mapped
    files, and only the per-column dictionaries stay resident, so under
    ``mmap`` peak memory scales with distinct values, not rows.

    The pass is block-columnar.  Each row is width-checked (and trips
    the ``csv.read`` fault point) as it arrives, so a ragged line aborts
    the read at once with its line number.  Rows are buffered in small
    blocks; each column of a block is then encoded in bulk (its new
    values get codes in first-seen order, every NULL marker the one
    ``None`` code) and hashed with one update of its values' tokens,
    each token built once per dictionary entry.  SHA-256 over a
    concatenation equals the same bytes fed value by value, so codes,
    dictionaries and fingerprints are byte-identical to a per-value pass.

    Parameters
    ----------
    source:
        Path to a CSV file, or an already-open text handle.
    delimiter:
        Field separator.
    has_header:
        When true, the first row provides column names; otherwise columns
        are named ``column_0 .. column_{n-1}``.
    null_values:
        Strings decoded as SQL NULL (``None``).  Defaults to the empty
        string only.  A bare string is treated as *one* marker
        (``null_values="NA"`` means ``{"NA"}``), not iterated into its
        characters.
    name:
        Relation label; defaults to the file stem (or ``"relation"``).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        # utf-8-sig: a UTF-8 BOM (as written by Excel and many Windows
        # exports) is consumed instead of being glued onto the first
        # column name; BOM-less files decode identically.
        with path.open(newline="", encoding="utf-8-sig") as handle:
            return read_csv(
                handle,
                delimiter=delimiter,
                has_header=has_header,
                null_values=null_values,
                name=name or path.stem,
            )

    # A bare string is a single NULL marker, not an iterable of
    # characters — frozenset("NA") would silently null every 'N' and 'A'.
    if isinstance(null_values, str):
        null_values = (null_values,)
    nulls = frozenset(null_values)
    reader = csv.reader(source, delimiter=delimiter)
    # Stream row by row: decode and width-check incrementally instead of
    # materializing the raw rows first, so the input is never held twice.
    first = next(reader, None)
    if first is None:
        raise SchemaError("empty CSV input: no header and no data")

    rows: Iterator[tuple[int, list[str]]] = enumerate(reader, start=2)
    if has_header:
        header = first
        if len(set(header)) != len(header):
            # Fail before any data is read, encoded or spilled.
            raise SchemaError(f"duplicate column names in {tuple(header)!r}")
    else:
        header = [f"column_{i}" for i in range(len(first))]
        rows = chain([(1, first)], rows)  # the first data row was line 1
    width = len(header)

    hashers = [_column_hasher(str(column_name)) for column_name in header]
    encoders = [ColumnEncoder(nulls=nulls) for _ in range(width)]
    # One token per dictionary entry, built when the value is first seen.
    tokens: list[list[bytes]] = [[] for _ in range(width)]

    def encode(block: list[list[str]]) -> None:
        """Encode and hash each column of ``block``, then empty it."""
        columns = list(zip(*block))
        block.clear()  # free the row lists before the per-column passes
        for encoder, known, hasher, column in zip(encoders, tokens, hashers, columns):
            codes = encoder.add_block(column)
            dictionary = encoder.dictionary
            if len(known) < len(dictionary):
                known.extend(map(_value_token, dictionary[len(known):]))
            _hash_blocks(hasher, map(known.__getitem__, codes))

    n_rows = 0
    block: list[list[str]] = []
    try:
        for line_no, row in rows:
            if FAULTS.armed:
                FAULTS.trip(CSV_READ)  # deterministic I/O-failure injection
            if len(row) != width:
                raise SchemaError(
                    f"line {line_no}: expected {width} fields, found {len(row)}"
                )
            block.append(row)
            if len(block) == _BLOCK_ROWS:
                n_rows += _BLOCK_ROWS
                encode(block)
        n_rows += len(block)
        encode(block)
        built = [encoder.finish() for encoder in encoders]
    except BaseException:
        for encoder in encoders:
            encoder.abort()
        raise

    relation = Relation(header, built, name=name or "relation")
    relation._fingerprint = _combine_column_digests(
        width, n_rows, (hasher.digest() for hasher in hashers)
    )
    # Donate the streaming hashers: append_rows advances them in O(batch)
    # instead of re-hashing the relation from row 0.
    relation._hashers = hashers
    return relation


def read_csv_text(
    text: str,
    delimiter: str = ",",
    has_header: bool = True,
    null_values: Iterable[str] = DEFAULT_NULLS,
    name: str = "relation",
) -> Relation:
    """Parse CSV content given as a string (convenience for tests/examples)."""
    return read_csv(
        io.StringIO(text),
        delimiter=delimiter,
        has_header=has_header,
        null_values=null_values,
        name=name,
    )


def write_csv(
    relation: Relation,
    destination: str | Path | TextIO,
    delimiter: str = ",",
    null_repr: str = "",
) -> None:
    """Write a relation as CSV; ``None`` is encoded as ``null_repr``."""
    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", newline="", encoding="utf-8") as handle:
            write_csv(relation, handle, delimiter=delimiter, null_repr=null_repr)
        return

    writer = csv.writer(destination, delimiter=delimiter)
    writer.writerow(relation.column_names)
    for row in relation.iter_rows():
        writer.writerow([null_repr if v is None else v for v in row])
