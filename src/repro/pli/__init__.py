"""Position list index substrate (stripped partitions, cache, index, store)."""

from .backend import (
    BackendUnavailable,
    available_backends,
    numpy_available,
    set_backend,
    use_backend,
)
from .cache import PliCache
from .index import RelationIndex
from .pli import (
    KERNEL_STATS,
    KernelStats,
    PLI,
    pli_from_column,
    pli_from_vector,
    value_vector,
)
from .store import PliStore

__all__ = [
    "KERNEL_STATS",
    "BackendUnavailable",
    "KernelStats",
    "PLI",
    "PliCache",
    "PliStore",
    "RelationIndex",
    "available_backends",
    "numpy_available",
    "pli_from_column",
    "pli_from_vector",
    "set_backend",
    "use_backend",
    "value_vector",
]
