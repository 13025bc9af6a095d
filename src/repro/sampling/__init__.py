"""Sampling-driven refutation engine: two-stage validation, exact results.

Stage 1 harvests violations from a deterministic, size-capped row sample
(:mod:`~repro.sampling.harvester`) into a queryable
:class:`~repro.sampling.refutation.RefutationIndex`; stage 2 sends only
the sample-surviving candidates down the exact PLI path.  The
:class:`~repro.sampling.planner.ValidationPlanner` is the seam the PLI
substrate and the algorithms consult.

Exactness argument: a violation observed in a sample of the relation is a
violation in the relation, so the engine can *refute* candidates with
zero PLI work but never *accept* one — every surviving candidate is still
validated exactly.  Discovered metadata is therefore exact (the
differential suite checks every algorithm against brute-force oracles on
relations larger than the sample).  The engine is part of the PLI
substrate, not a setting: every index owns a planner, and its tuning
values are the constants of :mod:`~repro.sampling.harvester`.
"""

from .harvester import focused_sample
from .planner import ValidationPlanner
from .refutation import RefutationIndex

__all__ = ["RefutationIndex", "ValidationPlanner", "focused_sample"]
