"""Durable files: the one write, read and append protocol behind every
file that a restart or another program reads back (result-cache entries,
checkpoints, sweep journals, the CLI's ``--json`` and ``--trace``).

A write fsyncs a temporary sibling and then renames it over the target,
so a reader finds the old file or the whole new one, never a torn one.
No directory fsync follows the rename: a rename that a power loss undoes
leaves the old file, which every reader accepts.  The model and its
crash-state proof: ``docs/IMPLEMENTATION_NOTES.md`` ("Durable files") and
``tests/harness/test_durable.py``.

Only the standard library and :mod:`repro.faults` are imported, so
:mod:`repro.trace` can use this module; callers pass their retry policy
(an object with ``call(fn, *, key)``) and their fault point, which every
attempt trips first.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .faults import FAULTS, FaultInjected

__all__ = ["Journal", "read_json", "write_atomic"]


def _attempt(function: Callable[[], Any], path: Any, retry: Any, fault: Any) -> Any:
    """``function()`` under ``retry``, tripping ``fault`` before each attempt."""
    def attempt() -> Any:
        if fault is not None and FAULTS.armed:
            FAULTS.trip(fault)
        return function()

    if retry is None:
        return attempt()
    return retry.call(attempt, key=f"{fault}:{os.path.basename(path)}")


def write_atomic(
    path: str | os.PathLike[str],
    text_or_chunks: str | Iterable[str],
    *,
    retry: Any = None,
    fault: str | None = None,
) -> None:
    """Replace ``path`` with the UTF-8 text (or the concatenated chunks).

    A failure that outlasts ``retry`` raises :class:`OSError` and leaves
    ``path`` as it was, with no temporary file behind.
    """
    temporary = f"{os.fspath(path)}.tmp-{os.getpid()}"
    chunks = [text_or_chunks] if isinstance(text_or_chunks, str) else [*text_or_chunks]

    def write() -> None:
        try:
            with open(temporary, "w", encoding="utf-8") as handle:
                for chunk in chunks:
                    handle.write(chunk)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise

    try:
        _attempt(write, path, retry, fault)
    except FaultInjected as error:
        raise OSError(str(error)) from error


def read_json(
    path: str | os.PathLike[str], *, retry: Any = None, fault: str | None = None
) -> Any:
    """The JSON document at ``path``; ``None`` when the file is missing or
    still unreadable after ``retry``.  Unparseable content raises
    :class:`ValueError`: the caller decides what corruption means."""
    def read() -> Any:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    try:
        return _attempt(read, path, retry, fault)
    except (OSError, FaultInjected):
        return None


class Journal:
    """Append-only JSONL file.  A crash mid-append can tear the last line:
    the next append starts a fresh line instead of extending the fragment,
    and :meth:`records` skips every line that does not parse."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)

    def append(self, record: Any) -> None:
        """Append one JSON record and fsync it."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, default=str).encode("utf-8") + b"\n"
        with open(self.path, "a+b") as handle:
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> Iterator[Any]:
        """Every record that parses, in file order (none when missing)."""
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    yield json.loads(line)
                except ValueError:
                    continue
