"""N-ary inclusion dependency discovery (extension).

The paper restricts holistic discovery to *unary* INDs because only those
feed the UCC/FD pruning, noting that "without any loss of generality, we
could discover n-ary INDs as well" (§2.1).  This module supplies that
extension: level-wise candidate generation in the style of De Marchi et
al. [8] — an n-ary IND ``(X1..Xn) ⊆ (Y1..Yn)`` can only hold if every
(n−1)-ary projection holds — with validation by set containment over the
projected value tuples.

Candidates pair *distinct* attribute sequences position-wise; attribute
repetitions on either side are excluded, as are positions mapping an
attribute to itself (candidates compose non-trivial unary INDs only).
NULL-containing tuples are skipped, consistent with the unary semantics
of :mod:`repro.algorithms.spider`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..relation.relation import Relation
from .spider import spider_across, spider_on_relation
from .values import canonical_value

__all__ = [
    "NaryInd",
    "NaryIndAcross",
    "discover_nary_inds",
    "discover_nary_inds_across",
]


@dataclass(frozen=True, slots=True, order=True)
class NaryInd:
    """An n-ary inclusion dependency between attribute sequences.

    ``dependent`` and ``referenced`` are index tuples of equal length;
    position ``i`` of the dependent sequence maps to position ``i`` of the
    referenced one.
    """

    dependent: tuple[int, ...]
    referenced: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dependent) != len(self.referenced):
            raise ValueError("dependent and referenced arity differ")
        if not self.dependent:
            raise ValueError("empty IND")

    @property
    def arity(self) -> int:
        """Number of attribute pairs."""
        return len(self.dependent)

    def render(self, names) -> str:
        """Human-readable form under a schema."""
        left = ", ".join(names[i] for i in self.dependent)
        right = ", ".join(names[i] for i in self.referenced)
        return f"({left}) ⊆ ({right})"


def _projection(relation: Relation, attrs: tuple[int, ...]) -> set[tuple[str, ...]]:
    """Canonicalized, NULL-free value tuples of a projection."""
    columns = [relation.column(i) for i in attrs]
    result: set[tuple[str, ...]] = set()
    for row in zip(*columns):
        if any(value is None for value in row):
            continue
        result.add(tuple(canonical_value(value) for value in row))
    return result


def _holds(relation: Relation, candidate: NaryInd) -> bool:
    return _projection(relation, candidate.dependent) <= _projection(
        relation, candidate.referenced
    )


def discover_nary_inds(relation: Relation, max_arity: int = 3) -> list[NaryInd]:
    """Discover all n-ary INDs within one relation up to ``max_arity``.

    Returns INDs of every arity (unary included), sorted.  Following the
    usual convention, an IND and its position-permutations are considered
    equivalent; only the candidate whose dependent sequence is strictly
    ascending is reported.
    """
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    unary = [
        NaryInd((dep,), (ref,)) for dep, ref in spider_on_relation(relation)
    ]
    results = list(unary)
    current = unary
    arity = 1
    while current and arity < max_arity:
        arity += 1
        candidates = _generate(current, unary)
        survivors = [c for c in candidates if _holds(relation, c)]
        results.extend(survivors)
        current = survivors
    return sorted(results)


def _generate(previous: list[NaryInd], unary: list[NaryInd]) -> list[NaryInd]:
    """Extend every (n−1)-ary IND with a compatible unary IND.

    The dependent side stays strictly ascending (canonical representative
    of the permutation class) and neither side may repeat an attribute.
    A generated candidate is kept only if all of its (n−1)-ary
    sub-sequences are known to hold — the apriori condition.
    """
    known = {(ind.dependent, ind.referenced) for ind in previous}
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    candidates: list[NaryInd] = []
    for base in previous:
        for extension in unary:
            dep_col, ref_col = extension.dependent[0], extension.referenced[0]
            if dep_col <= base.dependent[-1]:
                continue  # keep the dependent side ascending
            if dep_col in base.dependent or ref_col in base.referenced:
                continue
            dependent = base.dependent + (dep_col,)
            referenced = base.referenced + (ref_col,)
            key = (dependent, referenced)
            if key in seen:
                continue
            seen.add(key)
            if _all_subinds_hold(dependent, referenced, known):
                candidates.append(NaryInd(dependent, referenced))
    return candidates


def _all_subinds_hold(
    dependent: tuple[int, ...],
    referenced: tuple[int, ...],
    known: set[tuple[tuple[int, ...], tuple[int, ...]]],
) -> bool:
    for drop in range(len(dependent) - 1):
        sub_dep = dependent[:drop] + dependent[drop + 1 :]
        sub_ref = referenced[:drop] + referenced[drop + 1 :]
        if (sub_dep, sub_ref) not in known:
            return False
    return True


# -- cross-relation extension -------------------------------------------------


@dataclass(frozen=True, slots=True, order=True)
class NaryIndAcross:
    """An n-ary IND whose sides may live in *different* relations.

    An n-ary candidate pairs value *tuples* position-wise, so each side
    must project a single relation's rows — but the two sides need not be
    the same relation, which is exactly the foreign-key shape
    ``orders.(customer, region) ⊆ customers.(id, region)``.
    """

    dependent_relation: int
    dependent: tuple[int, ...]
    referenced_relation: int
    referenced: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dependent) != len(self.referenced):
            raise ValueError("dependent and referenced arity differ")
        if not self.dependent:
            raise ValueError("empty IND")

    @property
    def arity(self) -> int:
        """Number of attribute pairs."""
        return len(self.dependent)

    def render(self, relations: Sequence[Relation]) -> str:
        """Human-readable form under a schema (relation-qualified)."""
        dep = relations[self.dependent_relation]
        ref = relations[self.referenced_relation]
        left = ", ".join(
            f"{dep.name}.{dep.column_names[i]}" for i in self.dependent
        )
        right = ", ".join(
            f"{ref.name}.{ref.column_names[i]}" for i in self.referenced
        )
        return f"({left}) ⊆ ({right})"


def discover_nary_inds_across(
    relations: Sequence[Relation],
    max_arity: int = 2,
    unary: (
        list[tuple[tuple[int, int], tuple[int, int]]] | None
    ) = None,
) -> list[NaryIndAcross]:
    """Level-wise n-ary IND discovery over the union of several relations.

    The unary level comes from :func:`~repro.algorithms.spider.spider_across`
    (every column of every relation in one merge, prefiltered by the
    sampling value probes); higher arities extend only candidates
    whose dependent positions share one relation and whose referenced
    positions share another (possibly the same), because position-wise
    tuple containment is only defined within a row.  INDs of every arity
    are returned, unary included, same-relation pairs included, sorted.

    ``unary`` short-circuits the merge when the caller already holds the
    cross-relation unary INDs (the schema job runs SPIDER once and feeds
    both the catalog and this generator from it).
    """
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    if unary is None:
        unary = spider_across(relations)
    unary_across = [
        NaryIndAcross(dep_rel, (dep_col,), ref_rel, (ref_col,))
        for (dep_rel, dep_col), (ref_rel, ref_col) in unary
    ]
    results = list(unary_across)
    # Group by (dependent relation, referenced relation): only same-pair
    # unary INDs can extend a candidate of that pair.
    by_pair: dict[tuple[int, int], list[NaryIndAcross]] = {}
    for ind in unary_across:
        by_pair.setdefault(
            (ind.dependent_relation, ind.referenced_relation), []
        ).append(ind)
    for (dep_rel, ref_rel), pair_unary in sorted(by_pair.items()):
        current = pair_unary
        arity = 1
        while current and arity < max_arity:
            arity += 1
            candidates = _generate_across(current, pair_unary)
            survivors = [
                c
                for c in candidates
                if _holds_across(relations[dep_rel], relations[ref_rel], c)
            ]
            results.extend(survivors)
            current = survivors
    return sorted(results)


def _holds_across(
    dependent_relation: Relation,
    referenced_relation: Relation,
    candidate: NaryIndAcross,
) -> bool:
    return _projection(dependent_relation, candidate.dependent) <= _projection(
        referenced_relation, candidate.referenced
    )


def _generate_across(
    previous: list[NaryIndAcross], unary: list[NaryIndAcross]
) -> list[NaryIndAcross]:
    """Extend every (n−1)-ary cross-relation IND with a compatible unary
    IND of the same relation pair (apriori over the pair's sub-INDs)."""
    known = {(ind.dependent, ind.referenced) for ind in previous}
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    candidates: list[NaryIndAcross] = []
    for base in previous:
        for extension in unary:
            dep_col, ref_col = extension.dependent[0], extension.referenced[0]
            if dep_col <= base.dependent[-1]:
                continue  # keep the dependent side ascending
            if dep_col in base.dependent or ref_col in base.referenced:
                continue
            dependent = base.dependent + (dep_col,)
            referenced = base.referenced + (ref_col,)
            key = (dependent, referenced)
            if key in seen:
                continue
            seen.add(key)
            if _all_subinds_hold(dependent, referenced, known):
                candidates.append(
                    NaryIndAcross(
                        base.dependent_relation,
                        dependent,
                        base.referenced_relation,
                        referenced,
                    )
                )
    return candidates
