"""Shared infrastructure for the reproduction benchmarks.

Every module regenerates one table or figure of the paper's evaluation
(§6).  Results are printed and also written to ``benchmarks/results/`` so
``pytest benchmarks/ --benchmark-only`` leaves a reviewable artifact.

Two workload profiles exist because a single-threaded pure-Python run
cannot chew the published dataset sizes in CI time:

* ``quick`` (default) — scaled-down rows/columns, same workloads, same
  series; finishes in minutes.
* ``paper`` — the published parameters (select with
  ``REPRO_BENCH_PROFILE=paper``); expect hours.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Sweep parameters per profile.
PROFILES = {
    "quick": {
        "fig6_rows": [1_000, 2_000, 3_000, 4_000],
        "fig7_columns": [8, 10, 12, 14],
        "fig8_rows": 1_500,
        "table3_max_rows": 2_000,
        # Datasets whose interesting regime needs more rows even in the
        # quick profile (sparse dependencies emerge only at scale).
        "table3_row_overrides": {"adult": 4_000, "letter": 2_500},
        "ablation_rows": 1_000,
    },
    "paper": {
        "fig6_rows": [50_000, 100_000, 150_000, 200_000, 250_000],
        "fig7_columns": [10, 15, 20, 21, 22, 23],
        "fig8_rows": 10_000,
        "table3_max_rows": None,  # published row counts
        "table3_row_overrides": {},
        "ablation_rows": 5_000,
    },
}


@pytest.fixture(scope="session")
def bench_profile() -> dict:
    """Resolve the active workload profile.

    ``REPRO_BENCH_SMOKE=1`` additionally truncates every sweep to its
    first (smallest) point — CI uses this to exercise the benchmark code
    paths end to end without paying for full sweeps.  Shape assertions
    that need the whole series should be skipped when ``profile["smoke"]``
    is set.
    """
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name not in PROFILES:
        raise ValueError(f"REPRO_BENCH_PROFILE must be one of {sorted(PROFILES)}")
    profile = dict(PROFILES[name])
    profile["name"] = name
    profile["smoke"] = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    if profile["smoke"]:
        for key, value in profile.items():
            if isinstance(value, list):
                profile[key] = value[:1]
    return profile


@pytest.fixture(scope="session")
def report_sink():
    """Write a named report to benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to {path}]")

    return write


def once(benchmark, fn):
    """Run a whole-experiment function exactly once under pytest-benchmark.

    The experiments are minutes-long sweeps; statistical repetition is
    neither affordable nor needed (the interesting numbers are the
    *per-point* timings the report prints).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
