"""One-call profiling facade with the paper's algorithm-selection heuristic.

§6.5 concludes that the column count is a simple and similarly-precise
proxy for choosing between the two holistic algorithms: Holistic FUN wins
on narrow relations (small minimal-FD left-hand sides, cheap level-wise
search), MUDS wins from about ten columns up (UCC-driven pruning and
depth-first descent pay off).  :func:`profile` applies exactly that rule;
callers can always pin an algorithm explicitly.
"""

from __future__ import annotations

from .. import trace as _trace
from ..metadata.results import ProfilingResult
from ..pli import backend as _backend
from ..relation import encoded as _encoded
from ..relation.relation import Relation
from ..sampling import SamplingConfig
from .baseline import BaselineProfiler
from .holistic_fun import HolisticFun
from .muds import Muds

__all__ = ["profile", "choose_algorithm", "ALGORITHMS", "MUDS_COLUMN_THRESHOLD"]

#: §6.3/§6.5: MUDS "usually performs best on datasets with ten or more
#: columns"; below that Holistic FUN's level-wise search is cheaper.
MUDS_COLUMN_THRESHOLD = 10

ALGORITHMS = ("auto", "muds", "holistic_fun", "baseline")


def choose_algorithm(relation: Relation) -> str:
    """Column-count heuristic of §6.5: MUDS for wide relations, Holistic
    FUN for narrow ones."""
    if relation.n_columns >= MUDS_COLUMN_THRESHOLD:
        return "muds"
    return "holistic_fun"


def profile(
    relation: Relation,
    algorithm: str = "auto",
    seed: int = 0,
    verify_completeness: bool = True,
    jobs: int | None = None,
    sampling: SamplingConfig | bool | None = None,
    pli_backend: str | None = None,
    storage: str | None = None,
) -> ProfilingResult:
    """Discover all unary INDs, minimal UCCs, and minimal FDs of a relation.

    Parameters
    ----------
    relation:
        Input relation.  The holistic pruning rules assume duplicate-free
        rows (§3); duplicates are handled correctly (the relation then
        simply has no UCCs) but consider :meth:`Relation.deduplicated`
        first if key discovery matters.
    algorithm:
        ``"auto"`` (§6.5 heuristic), ``"muds"``, ``"holistic_fun"``, or
        ``"baseline"``.
    seed:
        Random seed for walk-based algorithms (deterministic runs).
    verify_completeness:
        Forwarded to :class:`Muds`; certifies the FD set exact.
    jobs:
        Worker-process count for the ``"baseline"`` algorithm, whose
        three tasks (SPIDER, DUCC, FUN) are independent by definition;
        ``None``/``1`` keeps the paper's sequential execution.  The
        holistic algorithms are single search processes and ignore it.
    sampling:
        Sampling-driven refutation engine: ``None``/``True`` enables the
        default two-stage validation (row-sample refutation before exact
        PLI checks — results stay exact either way), ``False`` disables
        it, a :class:`~repro.sampling.SamplingConfig` tunes it.
    pli_backend:
        Kernel backend for this call's PLI operations (``"python"`` /
        ``"numpy"``); ``None`` keeps the process's armed backend.  The
        discovered metadata is bit-identical across backends — only the
        kernel's speed changes.  Scoped: the previous backend is restored
        on return.
    storage:
        Column-storage mode for this call's PLI substrate
        (``"encoded"`` keeps column codes in memory, ``"mmap"`` in spill
        files); ``None`` keeps the process's armed mode (default
        ``encoded``, or ``$REPRO_STORAGE``).  Metadata and counters are
        bit-identical across modes — only memory residency and speed
        change.  Scoped like ``pli_backend``.

    Returns
    -------
    ProfilingResult
        All three metadata sets plus phase timings and check counters.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    if algorithm == "auto":
        algorithm = choose_algorithm(relation)
    with _backend.use_backend(pli_backend), _encoded.use_storage(
        storage
    ), _trace.span(
        "profile",
        algorithm=algorithm,
        dataset=relation.name,
        columns=relation.n_columns,
        rows=relation.n_rows,
        pli_backend=_backend.ACTIVE.name,
        storage=_encoded.ACTIVE,
    ):
        if algorithm == "muds":
            return Muds(
                seed=seed,
                verify_completeness=verify_completeness,
                sampling=sampling,
            ).profile(relation)
        if algorithm == "holistic_fun":
            return HolisticFun(sampling=sampling).profile(relation)
        return BaselineProfiler(
            seed=seed, jobs=jobs, sampling=sampling
        ).profile(relation)
