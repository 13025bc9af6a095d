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
from ..pli.store import PliStore
from ..relation.relation import Relation
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

    The PLIs are built from the columns' codes wherever those live: a
    relation ``read_csv(storage="mmap")`` built keeps them in spill
    files, any other is encoded in memory.

    Returns
    -------
    ProfilingResult
        All three metadata sets plus phase timings and check counters.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    if algorithm == "auto":
        algorithm = choose_algorithm(relation)
    with _trace.span(
        "profile",
        algorithm=algorithm,
        dataset=relation.name,
        columns=relation.n_columns,
        rows=relation.n_rows,
    ):
        return _dispatch(
            relation,
            algorithm,
            seed=seed,
            verify_completeness=verify_completeness,
        )


def _dispatch(
    relation: Relation,
    algorithm: str,
    seed: int = 0,
    verify_completeness: bool = True,
    store: PliStore | None = None,
) -> ProfilingResult:
    """Run ``algorithm`` on ``relation`` (``"auto"``: the §6.5 rule).

    The one algorithm dispatch behind :func:`profile` and
    :meth:`repro.incremental.IncrementalProfiler.profile_base`; the
    latter passes its own ``store`` so the PLIs built here stay warm for
    delta maintenance.
    """
    if algorithm == "auto":
        algorithm = choose_algorithm(relation)
    if algorithm == "muds":
        return Muds(
            seed=seed, verify_completeness=verify_completeness, store=store
        ).profile(relation)
    if algorithm == "holistic_fun":
        return HolisticFun(store=store).profile(relation)
    return BaselineProfiler(seed=seed, store=store).profile(relation)
