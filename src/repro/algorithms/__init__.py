"""State-of-the-art single-task discovery algorithms."""

from .ducc import DuccResult, ducc, ducc_on_relation
from .fun import FunResult, fun, fun_on_relation
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
    "spider",
    "spider_across",
    "spider_on_relation",
    "tane",
    "tane_on_relation",
]
