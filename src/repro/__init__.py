"""repro — holistic data profiling.

A from-scratch reproduction of *Holistic Data Profiling: Simultaneous
Discovery of Various Metadata* (Ehrlich et al., EDBT 2016): the MUDS
algorithm, the Holistic FUN adaption, the sequential SPIDER/DUCC/FUN
baseline, and the TANE comparator, together with every substrate they
need (relations, PLIs, lattice search, prefix trees) and the paper's
benchmark suite.

Quickstart::

    from repro import Relation, profile

    relation = Relation.from_rows(
        ["city", "zip", "state"],
        [("Portland", "97201", "OR"), ("Salem", "97301", "OR")],
    )
    result = profile(relation)
    print(result.inds, result.uccs, result.fds)
"""

from .core.baseline import BaselineProfiler
from .core.holistic_fun import HolisticFun
from .core.muds import Muds
from .core.profiler import choose_algorithm, profile
from .core.statistics import ColumnStatistics, profile_statistics
from .guard import Budget, BudgetExceeded, guarded
from .metadata import FD, IND, UCC, ProfilingResult
from .relation import ColumnSet, Relation, read_csv, read_csv_text, write_csv

__version__ = "1.0.0"

__all__ = [
    "BaselineProfiler",
    "Budget",
    "BudgetExceeded",
    "ColumnSet",
    "ColumnStatistics",
    "FD",
    "HolisticFun",
    "IND",
    "Muds",
    "ProfilingResult",
    "Relation",
    "UCC",
    "choose_algorithm",
    "guarded",
    "profile",
    "profile_statistics",
    "read_csv",
    "read_csv_text",
    "write_csv",
    "__version__",
]
