"""Metadata domain model: INDs, UCCs, FDs, and the joint result container."""

from .cover import (
    attribute_closure,
    canonical_cover,
    equivalent,
    fds_to_pairs,
    implies,
    pairs_to_fds,
)
from .fd import FD
from .ind import IND
from .results import ProfilingResult, fd_signature, ucc_signature
from .serialize import dumps, loads, result_from_dict, result_to_dict
from .ucc import UCC

__all__ = [
    "FD",
    "IND",
    "UCC",
    "ProfilingResult",
    "attribute_closure",
    "canonical_cover",
    "dumps",
    "equivalent",
    "fds_to_pairs",
    "implies",
    "pairs_to_fds",
    "fd_signature",
    "loads",
    "result_from_dict",
    "result_to_dict",
    "ucc_signature",
]
