"""Content-addressed profiling-result cache.

The evaluation grid (Fig. 6/7/8, Table 3) re-profiles the same relations
over and over — across sweep re-runs, across benchmark drivers, and on
every CI bench-smoke execution.  Profiling is a pure function of
(relation content, algorithm, configuration), so its output can be cached
under a content address: :meth:`~repro.relation.relation.Relation.fingerprint`
(streamed hash of schema + rows) keys an on-disk store of serialized
execution records, and any sweep that meets an already-profiled
``(fingerprint, algorithm, config)`` cell skips the computation entirely.

The cache is a plain directory of JSON files (default:
``benchmarks/results/cache/``), safe to delete at any time and safe to
share between concurrent processes: entries are written atomically
(temp file + :func:`os.replace`) and a corrupt or torn entry is treated
as a miss, never an error.  Only *completed* executions are ever stored —
TL/ML/ERR cells depend on the budget that produced them, not just on the
input, and must be recomputed.

Robustness: reads and writes run under a bounded
:class:`~repro.harness.retry.RetryPolicy` (transient I/O errors are
retried with backoff, so a busy filesystem does not turn into a miss or a
lost store), and an entry that holds unparseable JSON is *quarantined* —
moved into a ``quarantine/`` sibling directory for post-mortem inspection
— exactly once, instead of being re-read and re-misclassified on every
sweep over the same cell.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path, PurePath
from typing import Any, Mapping

from .. import trace as _trace
from ..faults import FAULTS, RESULT_CACHE_GET, RESULT_CACHE_PUT
from .retry import RetryPolicy

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR", "config_key"]

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "results", "cache")

#: Envelope schema version; bump to invalidate every existing entry.
CACHE_FORMAT_VERSION = 1


def _canonicalize(value: Any, path: str) -> Any:
    """Recursively reduce a config value to a canonical JSON-ready form.

    Equal configurations must produce equal keys regardless of how they
    were spelled: mappings sort by key, sets sort their (canonicalized)
    elements, tuples and lists are the same sequence, and paths use POSIX
    separators.  Anything without a well-defined canonical form — an
    arbitrary object that ``str()`` would stringify differently across
    runs, or a set whose canonical elements cannot be ordered — is
    rejected loudly: a silently unstable key splits the cache, which is
    the bug this function exists to prevent.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise TypeError(
                f"config value at {path!r} is non-finite ({value!r}); "
                "non-finite floats have no canonical JSON form"
            )
        return value
    if isinstance(value, PurePath):
        return value.as_posix()
    if isinstance(value, Mapping):
        items = []
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"config mapping key at {path!r} must be a string, "
                    f"got {type(key).__name__}: {key!r}"
                )
            items.append((key, _canonicalize(value[key], f"{path}.{key}")))
        return dict(sorted(items))
    if isinstance(value, (set, frozenset)):
        elements = [
            _canonicalize(element, f"{path}{{}}") for element in value
        ]
        try:
            elements.sort()
        except TypeError as error:
            raise TypeError(
                f"config set at {path!r} has unorderable elements "
                f"(mixed types have no canonical order): {error}"
            ) from error
        return elements
    if isinstance(value, (list, tuple)):
        return [
            _canonicalize(element, f"{path}[{index}]")
            for index, element in enumerate(value)
        ]
    raise TypeError(
        f"config value at {path!r} has no canonical form: "
        f"{type(value).__name__}: {value!r}"
    )


def config_key(config: Mapping[str, Any] | str | None) -> str:
    """Canonical string form of an execution configuration.

    A configuration is whatever, besides the input relation and algorithm
    name, can change the discovered metadata: seeds, algorithm variants,
    preprocessing flags.  Mappings canonicalize recursively — sorted keys,
    sorted sets, POSIX path strings — to compact JSON, so spelling
    differences (key order, ``set`` iteration order, ``Path`` flavor,
    ``tuple`` vs ``list``) never split the cache.  Values with no
    well-defined canonical form raise :class:`TypeError` instead of being
    stringified unstably.
    """
    if config is None:
        return ""
    if isinstance(config, str):
        return config
    return json.dumps(
        _canonicalize(config, "$"), sort_keys=True, separators=(",", ":")
    )


class ResultCache:
    """Directory-backed ``(fingerprint, algorithm, config) -> payload`` map.

    Payloads are arbitrary JSON-ready dicts; the harness and the CLI store
    serialized :class:`~repro.harness.framework.Execution` records.
    ``hits`` / ``misses`` / ``puts`` count this instance's traffic.
    """

    def __init__(
        self,
        root: str | os.PathLike[str] = DEFAULT_CACHE_DIR,
        retry: RetryPolicy | None = None,
    ):
        self.root = Path(root)
        self.retry = retry or RetryPolicy()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    # -- addressing --------------------------------------------------------

    def entry_path(
        self,
        fingerprint: str,
        algorithm: str,
        config: Mapping[str, Any] | str | None = None,
    ) -> Path:
        """On-disk location of one cache cell (exists or not)."""
        key = config_key(config)
        tail = hashlib.sha256(
            f"{fingerprint}\x00{algorithm}\x00{key}".encode()
        ).hexdigest()[:24]
        # Two-level fan-out keeps directory listings usable on big caches.
        return self.root / fingerprint[:2] / f"{fingerprint[2:18]}-{tail}.json"

    # -- traffic -----------------------------------------------------------

    def get(
        self,
        fingerprint: str,
        algorithm: str,
        config: Mapping[str, Any] | str | None = None,
    ) -> dict[str, Any] | None:
        """The cached payload for one cell, or ``None`` on a miss.

        A corrupt entry, a torn write, or an envelope whose address fields
        do not match (hash-prefix collision) all count as misses — the
        cache must never turn disk state into an exception.  Transient
        read errors are retried; an entry with unparseable JSON is moved
        to the ``quarantine/`` sibling (exactly once — the next lookup of
        the same cell is a plain missing-file miss).
        """
        path = self.entry_path(fingerprint, algorithm, config)

        def _read() -> dict[str, Any]:
            if FAULTS.armed:
                FAULTS.trip(RESULT_CACHE_GET)
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)

        try:
            envelope = self.retry.call(_read, key=str(path))
        except ValueError:
            # Unparseable JSON: disk corruption or a torn write from a
            # crashed writer.  Quarantine the evidence so the cell heals.
            self._quarantine(path)
            self.misses += 1
            return None
        except Exception:
            # Missing file, exhausted transient I/O retries, injected
            # faults: all misses, never an exception (module contract).
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format_version") != CACHE_FORMAT_VERSION
            or envelope.get("fingerprint") != fingerprint
            or envelope.get("algorithm") != algorithm
            or envelope.get("config") != config_key(config)
            or not isinstance(envelope.get("payload"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(
        self,
        fingerprint: str,
        algorithm: str,
        payload: Mapping[str, Any],
        config: Mapping[str, Any] | str | None = None,
        parent_fingerprint: str | None = None,
    ) -> None:
        """Atomically store one cell (last concurrent writer wins).

        ``parent_fingerprint`` records provenance for incrementally
        maintained results: the fingerprint of the relation *before* the
        append batch whose maintenance produced this payload.  It is
        annotation only — lookups address cells by their own fingerprint,
        so a missing or corrupt parent entry can degrade ``cache ls``
        chain rendering but never a :meth:`get`.

        Transient write errors are retried with backoff; a persistent
        failure raises (callers that must not fail on a broken cache —
        the framework, the CLI — contain it and trace ``cache.put_failed``).
        """
        path = self.entry_path(fingerprint, algorithm, config)
        envelope = {
            "format_version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "algorithm": algorithm,
            "config": config_key(config),
            "payload": dict(payload),
        }
        if parent_fingerprint is not None:
            envelope["parent_fingerprint"] = parent_fingerprint
        temporary = path.with_name(f"{path.name}.tmp-{os.getpid()}")

        def _write() -> None:
            if FAULTS.armed:
                FAULTS.trip(RESULT_CACHE_PUT)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)

        self.retry.call(_write, key=str(path))
        self.puts += 1

    # -- enumeration ---------------------------------------------------------

    def entries(self) -> "list[dict[str, Any]]":
        """Every readable, well-formed envelope in the cache (sorted by
        fingerprint, then algorithm, then config key).

        For inspection tooling (``repro cache ls``): unparseable or
        mis-shaped files are silently skipped — enumeration must degrade
        on a damaged cache directory exactly like :meth:`get` does, never
        raise.  The ``quarantine/`` sibling is never descended into.
        """
        found: list[dict[str, Any]] = []
        if not self.root.is_dir():
            return found
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == "quarantine":
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        envelope = json.load(handle)
                except (OSError, ValueError):
                    continue
                if (
                    not isinstance(envelope, dict)
                    or envelope.get("format_version") != CACHE_FORMAT_VERSION
                    or not isinstance(envelope.get("fingerprint"), str)
                    or not isinstance(envelope.get("algorithm"), str)
                    or not isinstance(envelope.get("payload"), dict)
                ):
                    continue
                found.append(envelope)
        found.sort(
            key=lambda e: (e["fingerprint"], e["algorithm"], e.get("config", ""))
        )
        return found

    # -- corruption quarantine ---------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``root/quarantine/`` (collision-safe).

        Failing to move (e.g. the entry vanished between read and move, or
        the filesystem rejects the rename) still counts the corruption but
        leaves the file alone — quarantining is best-effort forensics, not
        a correctness requirement.
        """
        self.corrupt += 1
        _trace.count("cache.corrupt")
        destination_dir = self.root / "quarantine"
        try:
            destination_dir.mkdir(parents=True, exist_ok=True)
            destination = destination_dir / path.name
            suffix = 0
            while destination.exists():
                suffix += 1
                destination = destination_dir / f"{path.name}.{suffix}"
            os.replace(path, destination)
        except OSError:
            destination = None
        _trace.event(
            "cache.corrupt",
            entry=path.name,
            quarantined=destination is not None,
        )

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Traffic counters of this instance."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, puts={self.puts})"
        )
