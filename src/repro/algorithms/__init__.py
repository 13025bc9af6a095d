"""State-of-the-art single-task discovery algorithms and naive oracles."""

from .ducc import DuccResult, ducc, ducc_on_relation
from .fun import FunResult, fun, fun_on_relation
from .naive import holds_fd, is_unique, naive_fds, naive_inds, naive_uccs
from .spider import spider, spider_across, spider_on_relation
from .tane import TaneResult, tane, tane_on_relation
from .values import canonical_value

__all__ = [
    "DuccResult",
    "FunResult",
    "TaneResult",
    "canonical_value",
    "ducc",
    "ducc_on_relation",
    "fun",
    "fun_on_relation",
    "holds_fd",
    "is_unique",
    "naive_fds",
    "naive_inds",
    "naive_uccs",
    "spider",
    "spider_across",
    "spider_on_relation",
    "tane",
    "tane_on_relation",
]
