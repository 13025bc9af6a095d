"""Crash-state enumeration for the durable-file module (ALICE-style).

Each case runs one store call on real files while recording its file
operations: the creates and writes made through ``open`` inside
:mod:`repro.durable`, and the ``os.fsync``, ``os.replace`` and
``os.unlink`` calls.  A crash may strike after any prefix of that record.
For each prefix the test builds every disk state this model allows:

* a file keeps its bytes up to its last fsync, plus some prefix of the
  bytes written after it (none, one byte, half, all but one, all);
* any subset of the creates, renames and unlinks may be lost, since no
  directory is fsynced.

Every state is written to a fresh directory and read back with the
store's own reader, and must read as exactly the state before the call or
the state after it.  A writer that renames without an fsync is the
negative control: the same enumeration must find a torn state for it.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Any, Callable

import pytest

from repro import durable, trace
from repro.cli import _write_json
from repro.harness.checkpoint import CheckpointSession
from repro.harness.result_cache import ResultCache
from repro.harness.runner import SweepJournal, SweepPoint

FINGERPRINT = "ab" * 32


class Recorder:
    """The file operations of one call, on inodes under ``root``.

    Names are paths relative to ``root``.  An inode is a small integer;
    files present before the call are inodes whose whole content is
    already fsynced.
    """

    def __init__(self, root: Path):
        self.root = root
        self.ops: list[tuple] = []
        self.initial_names: dict[str, int] = {}
        self.initial_content: dict[int, bytes] = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                inode = len(self.initial_content)
                self.initial_names[self._name(path)] = inode
                self.initial_content[inode] = path.read_bytes()
        self.names = dict(self.initial_names)
        self.next_inode = len(self.initial_content)
        self.inode_of_fd: dict[int, int] = {}

    def _name(self, path: Any) -> str:
        return os.path.relpath(os.path.abspath(os.fspath(path)), self.root)

    def install(self, monkeypatch: pytest.MonkeyPatch) -> None:
        real_open, real_fsync = open, os.fsync
        real_replace, real_unlink = os.replace, os.unlink
        recorder = self

        class RecordedFile:
            def __init__(self, handle, inode: int, binary: bool):
                self._handle, self._inode, self._binary = handle, inode, binary

            def write(self, data):
                raw = bytes(data) if self._binary else data.encode("utf-8")
                recorder.ops.append(("write", self._inode, raw))
                return self._handle.write(data)

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return self._handle.__exit__(*exc_info)

        def recorded_open(file, mode="r", *args, **kwargs):
            if not any(flag in mode for flag in "wax+"):
                return real_open(file, mode, *args, **kwargs)
            name = recorder._name(file)
            existed = os.path.exists(file)
            assert not (existed and "w" in mode), "truncation is not modelled"
            handle = real_open(file, mode, *args, **kwargs)
            if existed:
                inode = recorder.names[name]
            else:
                inode = recorder.next_inode
                recorder.next_inode += 1
                recorder.names[name] = inode
                recorder.ops.append(("create", name, inode))
            recorder.inode_of_fd[handle.fileno()] = inode
            return RecordedFile(handle, inode, "b" in mode)

        def recorded_fsync(fd):
            recorder.ops.append(("fsync", recorder.inode_of_fd[fd]))
            return real_fsync(fd)

        def recorded_replace(src, dst):
            real_replace(src, dst)
            inode = recorder.names.pop(recorder._name(src))
            recorder.names[recorder._name(dst)] = inode
            recorder.ops.append(
                ("rename", recorder._name(src), recorder._name(dst), inode)
            )

        def recorded_unlink(path):
            real_unlink(path)
            inode = recorder.names.pop(recorder._name(path))
            recorder.ops.append(("unlink", recorder._name(path), inode))

        monkeypatch.setattr(durable, "open", recorded_open, raising=False)
        monkeypatch.setattr(os, "fsync", recorded_fsync)
        monkeypatch.setattr(os, "replace", recorded_replace)
        monkeypatch.setattr(os, "unlink", recorded_unlink)

    def crash_states(self) -> list[dict[str, bytes]]:
        """Every distinct disk state (name -> bytes) a crash can leave."""
        states: dict[frozenset, dict[str, bytes]] = {}
        for length in range(len(self.ops) + 1):
            for state in self.states_after(self.ops[:length]):
                states.setdefault(frozenset(state.items()), state)
        return list(states.values())

    def states_after(self, prefix: list[tuple]) -> list[dict[str, bytes]]:
        """The disk states a crash right after ``prefix`` can leave."""
        states = []
        content = dict(self.initial_content)
        synced = dict(self.initial_content)
        for op in prefix:
            if op[0] == "create":
                content[op[2]] = synced[op[2]] = b""
            elif op[0] == "write":
                content[op[1]] += op[2]
            elif op[0] == "fsync":
                synced[op[1]] = content[op[1]]
        choices = {}
        for inode, data in content.items():
            later = data[len(synced[inode]):]
            cuts = {0, 1, len(later) // 2, len(later) - 1, len(later)}
            choices[inode] = sorted(
                {synced[inode] + later[:cut] for cut in cuts if 0 <= cut <= len(later)}
            )
        directory_ops = [
            op for op in prefix if op[0] in ("create", "rename", "unlink")
        ]
        for kept in itertools.product((False, True), repeat=len(directory_ops)):
            names = dict(self.initial_names)
            for op, keep in zip(directory_ops, kept):
                if not keep:
                    continue
                if op[0] == "create":
                    names[op[1]] = op[2]
                elif op[0] == "rename":
                    if names.get(op[1]) == op[3]:
                        del names[op[1]]
                    names[op[2]] = op[3]
                elif names.get(op[1]) == op[2]:  # unlink
                    del names[op[1]]
            live = sorted(set(names.values()))
            for picked in itertools.product(*(choices[inode] for inode in live)):
                data = dict(zip(live, picked))
                states.append({name: data[inode] for name, inode in names.items()})
        return states


def materialize(state: dict[str, bytes], root: Path) -> Path:
    root.mkdir(parents=True)
    for name, data in state.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def enumerate_crashes(
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
    setup: Callable[[Path], None],
    call: Callable[[Path], None],
    reader: Callable[[Path], Any],
) -> tuple[int, list[Any]]:
    """Record ``call`` on the state ``setup`` made; returns the number of
    crash states and the readings that were neither old nor new."""
    live = tmp_path / "live"
    live.mkdir()
    setup(live)
    recorder = Recorder(live)
    with monkeypatch.context() as patch:
        recorder.install(patch)
        call(live)
    assert recorder.ops, "the call recorded no file operation"

    def read(state: dict[str, bytes], label: str) -> Any:
        try:
            return reader(materialize(state, tmp_path / label))
        except Exception as error:  # a crash state the reader chokes on
            return f"raised {type(error).__name__}: {error}"

    (before,) = recorder.states_after([])
    old = read(before, "old")
    new = reader(live)
    assert old != new, "the call changed nothing a reader sees"
    states = recorder.crash_states()
    torn = [
        reading
        for index, state in enumerate(states)
        if (reading := read(state, f"crash-{index}")) not in (old, new)
    ]
    return len(states), torn


# -- the store operations -----------------------------------------------------


def _cache_put(value: int) -> Callable[[Path], None]:
    return lambda root: ResultCache(root).put(FINGERPRINT, "muds", {"v": value})


def _cache_get(root: Path) -> Any:
    return ResultCache(root).get(FINGERPRINT, "muds")


def _boundary(done: int) -> Callable[[Path], None]:
    return lambda root: CheckpointSession(root / "c.ckpt.json").boundary(
        "walk", {"done": done}
    )


def _checkpoint_resume(root: Path) -> Any:
    session = CheckpointSession(root / "c.ckpt.json")
    return session.load(), session.resume("walk")


def _journal_append(label: int) -> Callable[[Path], None]:
    return lambda root: SweepJournal(root / "sweep.jsonl").append(
        SweepPoint(label=label)
    )


def _journal_load(root: Path) -> Any:
    points = SweepJournal(root / "sweep.jsonl").load()
    return sorted(json.dumps(p.to_record(), sort_keys=True) for p in points.values())


def _json_document(version: int) -> Callable[[Path], None]:
    return lambda root: _write_json(
        str(root / "result.json"), json.dumps({"version": version, "fds": ["A->B"]})
    )


def _parse_json(root: Path) -> Any:
    return json.loads((root / "result.json").read_text(encoding="utf-8"))


def _trace_file(count: int) -> Callable[[Path], None]:
    events = [{"type": "event", "name": f"e{i}", "attrs": {}} for i in range(count)]
    return lambda root: trace.write_jsonl(events, root / "trace.jsonl")


def _read_trace(root: Path) -> Any:
    return trace.read_jsonl(root / "trace.jsonl")


def _nothing(root: Path) -> None:
    pass


CASES = {
    "cache put over an entry": (_cache_put(1), _cache_put(2), _cache_get),
    "cache put into an empty cache": (_nothing, _cache_put(1), _cache_get),
    "checkpoint boundary over a boundary": (
        _boundary(1),
        _boundary(2),
        _checkpoint_resume,
    ),
    "journal append onto a journal": (
        _journal_append(1),
        _journal_append(2),
        _journal_load,
    ),
    "journal append as the first record": (
        _nothing,
        _journal_append(1),
        _journal_load,
    ),
    "--json over a document": (_json_document(1), _json_document(2), _parse_json),
    "--trace over a trace": (_trace_file(2), _trace_file(3), _read_trace),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_crash_state_reads_old_or_new(case, tmp_path, monkeypatch):
    setup, call, reader = CASES[case]
    states, torn = enumerate_crashes(tmp_path, monkeypatch, setup, call, reader)
    assert states >= 3
    assert torn == []


def _rename_without_fsync(root: Path) -> None:
    """``--json`` as it was once written: temp file and rename, no fsync.
    It opens through ``durable.open``, the recorded ``open``."""
    path = root / "result.json"
    temporary = f"{path}.tmp-{os.getpid()}"
    with durable.open(temporary, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"version": 2, "fds": ["A->B"]}) + "\n")
    os.replace(temporary, path)


def test_negative_control_rename_without_fsync_tears(tmp_path, monkeypatch):
    states, torn = enumerate_crashes(
        tmp_path, monkeypatch, _json_document(1), _rename_without_fsync, _parse_json
    )
    assert states >= 3
    assert torn, "the enumeration cannot see a missing fsync"
