"""Shared fixtures, hypothesis strategies, and helpers for the test suite."""

from __future__ import annotations

import random
from collections.abc import Iterable

import pytest
from hypothesis import strategies as st

from repro.relation.encoded import STORAGE_MODES, encode_column
from repro.relation.relation import Relation

# -- hypothesis strategies ----------------------------------------------------


def relations(
    max_columns: int = 5,
    max_rows: int = 12,
    max_domain: int = 4,
    min_columns: int = 1,
    allow_nulls: bool = False,
) -> st.SearchStrategy[Relation]:
    """Random small relations with controllable shape.

    Small domains on purpose: they maximize the density of UCC/FD/IND
    structure per table, which is what stresses the discovery algorithms.
    """

    def build(draw: st.DrawFn) -> Relation:
        n_columns = draw(st.integers(min_columns, max_columns))
        n_rows = draw(st.integers(0, max_rows))
        domain: st.SearchStrategy[object] = st.integers(0, max_domain)
        if allow_nulls:
            domain = st.one_of(st.none(), domain)
        rows = [
            tuple(draw(domain) for _ in range(n_columns)) for _ in range(n_rows)
        ]
        names = [chr(ord("A") + i) for i in range(n_columns)]
        return Relation.from_rows(names, rows)

    return st.composite(build)()


def column_masks(max_columns: int = 8) -> st.SearchStrategy[int]:
    """Random column bitmasks over up to ``max_columns`` columns."""
    return st.integers(0, (1 << max_columns) - 1)


# -- seeded random-relation generators ----------------------------------------
#
# Shared by the metamorphic and sampling-differential suites (stdlib
# ``random``; each case is tiny and its seed is printed in the test id, so
# hypothesis shrinking buys nothing here).


def random_relation(
    rng: random.Random,
    tag: str,
    max_columns: int = 5,
    max_rows: int = 12,
    max_domain: int = 4,
) -> Relation:
    """A small random relation with duplicate-free rows.

    Duplicate-free bases keep metamorphic transforms orthogonal: only
    explicit duplicate injection exercises multiplicity.  Small domains
    maximize FD/UCC/IND density per table.
    """
    n_columns = rng.randint(1, max_columns)
    n_rows = rng.randint(0, max_rows)
    seen: set[tuple[int, ...]] = set()
    rows: list[tuple[int, ...]] = []
    for _ in range(n_rows):
        row = tuple(rng.randint(0, max_domain) for _ in range(n_columns))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    names = [chr(ord("A") + i) for i in range(n_columns)]
    return Relation.from_rows(names, rows, name=tag)


def permute_rows(relation: Relation, rng: random.Random) -> Relation:
    rows = list(relation.iter_rows())
    rng.shuffle(rows)
    return Relation.from_rows(
        list(relation.column_names), rows, name=f"{relation.name}/rowperm"
    )


def permute_columns(relation: Relation, rng: random.Random) -> Relation:
    order = list(range(relation.n_columns))
    rng.shuffle(order)
    names = [relation.column_names[i] for i in order]
    rows = [tuple(row[i] for i in order) for row in relation.iter_rows()]
    return Relation.from_rows(names, rows, name=f"{relation.name}/colperm")


def inject_duplicates(relation: Relation, rng: random.Random) -> Relation:
    rows = list(relation.iter_rows())
    rows += [rows[rng.randrange(len(rows))] for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    return Relation.from_rows(
        list(relation.column_names), rows, name=f"{relation.name}/dup"
    )


# -- storage modes -------------------------------------------------------------


def encoded_in(relation: Relation, storage: str) -> Relation:
    """A twin of ``relation`` whose columns keep their codes in ``storage``."""
    return Relation(
        relation.column_names,
        [
            encode_column(relation.column(i), storage=storage)
            for i in range(relation.n_columns)
        ],
        name=relation.name,
    )


def storage_params(cases: Iterable[object]) -> list:
    """``(case, storage)`` parameters over every storage mode.

    Cases in the default mode keep their plain ids; the other modes
    prefix theirs with the mode (``3``, ``mmap-3``), so a test that gains
    the storage parameter keeps the ids it had.
    """
    default, *others = STORAGE_MODES
    cases = list(cases)
    return [pytest.param(case, default, id=str(case)) for case in cases] + [
        pytest.param(case, mode, id=f"{mode}-{case}")
        for mode in others
        for case in cases
    ]


# -- helpers ---------------------------------------------------------------


def fds_as_pairs(result, relation: Relation) -> list[tuple[int, int]]:
    """Convert a ProfilingResult's FDs to sorted (lhs_mask, rhs_index)."""
    names = relation.column_names
    position = {name: i for i, name in enumerate(names)}
    return sorted(
        (fd.lhs_mask(names), position[fd.rhs]) for fd in result.fds
    )


def uccs_as_masks(result, relation: Relation) -> list[int]:
    """Convert a ProfilingResult's UCCs to sorted bitmasks."""
    return sorted(u.mask(relation.column_names) for u in result.uccs)


def inds_as_pairs(result, relation: Relation) -> list[tuple[int, int]]:
    """Convert a ProfilingResult's INDs to sorted (dep, ref) index pairs."""
    position = {name: i for i, name in enumerate(relation.column_names)}
    return sorted(
        (position[ind.dependent], position[ind.referenced]) for ind in result.inds
    )


@pytest.fixture(autouse=True)
def _tracing_disabled():
    """Keep the structured tracer off between tests.

    Tests that enable tracing (or that inherit ``REPRO_TRACE`` from the
    environment) must not leak an active tracer — and its growing event
    buffer — into every later test in the process.
    """
    from repro import trace

    trace.disable()
    yield
    trace.disable()


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the CLI's default result cache at a per-test directory.

    Without this, every CLI invocation in the suite would populate (and
    read!) ``benchmarks/results/cache/`` relative to the repository root,
    leaking state between tests and dirtying the working tree.
    """
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for tests that need explicit randomness."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def employees() -> Relation:
    """The quickstart example relation (rich, tiny, hand-checkable)."""
    return Relation.from_rows(
        ["employee_id", "city", "zip", "state", "work_state"],
        [
            ("E1", "Portland", "97201", "OR", "OR"),
            ("E2", "Portland", "97201", "OR", "WA"),
            ("E3", "Salem", "97301", "OR", "OR"),
            ("E4", "Seattle", "98101", "WA", "WA"),
            ("E5", "Spokane", "99201", "WA", "OR"),
        ],
        name="employees",
    )
