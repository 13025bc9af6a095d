"""Position list index substrate (stripped partitions, cache, index, store)."""

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
    "KernelStats",
    "PLI",
    "PliCache",
    "PliStore",
    "RelationIndex",
    "pli_from_column",
    "pli_from_vector",
    "value_vector",
]
