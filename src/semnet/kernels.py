"""Join search over encoded networks, and the consumers of its rows.

The search goes over the sets in declaration order, one level per set,
assigning one value per level. A relation is checked at its trigger level,
the last set of its scope in declaration order (a nullary relation at the
first). Completions come as tuples of value indices, in lexicographic
order of (set declaration order, value declaration order), which the rest
of the package relies on for deterministic witnesses.

Checks are index lookups, not row scans. :func:`build_index` gives every
relation a dict from the key of its scope positions before the trigger
level to the ascending tuple of value indices that its rows admit at that
level. The candidates at a level are those tuples intersected across the
relations triggered there; they stay ascending, so completions come in
lexicographic order. The idea is the variable-at-a-time intersection of
Leapfrog Triejoin (Veldhuizen, ICDT 2014) and of the generic join (Ngo, Ré
& Rudra, SIGMOD Record 2013), over Python ints, since each search is too
small for array set-up costs to pay off.

:func:`table` builds the consistent completions of a partial one level at
a time: each level extends all the partial rows at once, in one list
comprehension, as Free Join (Wang, Willsey & Suciu, SIGMOD 2023) batches
its lookups to cut per-tuple interpretation. ``fixed`` is a list of value
indices per set, -1 where the partial leaves the set free. At a level the
partial fixes, the rows whose relations admit the fixed value are kept, as
the generic join takes a bound variable. The empty partial gives T, every
consistent full instance, which the property checkers read.

``budget``, ``Limits.max_enumerated``, bounds the work of each search: it
raises ``LimitExceededError`` once its search nodes (value assignments at
any level) pass ``budget``, however large its cartesian space. A free
level's nodes are counted from its candidates before its rows are built,
so a refusal holds no more rows than the budget, and it reports the nodes
through the level that passed the budget. A search needs at least one set;
the engine sends a network without sets to brute force, whose ``table``
takes the same arguments and yields the same tuples.

The four consumers read a search's rows, from either backend: they collect
or count its completions, or only the first completion of each distinct
projection onto ``target`` (set positions), up to ``k`` or ``cap``;
``None``, or a bound past ``sys.maxsize``, means no bound. A bound cuts
the result only: the search is built whole first, so whether a call is
decided depends on its partial's table under the budget alone. The
property checkers make one search, T's build, which collects every row of
:func:`table`; the other calls serve the engine's public calls.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import LimitExceededError

__all__ = [
    "JIT_ENABLED",
    "JoinIndex",
    "build_index",
    "collect_completions",
    "collect_distinct_reps",
    "count_completions",
    "count_distinct_capped",
    "table",
]

# The search is plain Python; no compiled variant exists.
JIT_ENABLED = False

# Per level: every value index of the set, and one (index, bound) pair per
# relation triggered there. ``bound`` lists the (set, stride) pairs whose
# dot product with the current assignment is the index key.
JoinIndex = tuple[tuple[tuple[int, ...], ...],
                  tuple[tuple[tuple[dict[int, tuple[int, ...]],
                                    tuple[tuple[int, int], ...]], ...], ...]]


def build_index(sizes: Sequence[int], relations) -> JoinIndex:
    """Index every relation at its trigger level, from the encoded
    network's ``(scope, strides, row keys)`` per relation."""
    checks: list[list] = [[] for _ in sizes]
    for scope, strides, keys in relations:
        if scope:
            level = max(scope)
            stride = strides[scope.index(level)]
            # Keys ascend, so within one bound key the values ascend too. A
            # key's first value makes its tuple; only a key with more values
            # gets a list, so a function of the bound sets builds none.
            admits: dict[int, tuple[int, ...]] = {}
            more: dict[int, list[int]] = {}
            for key in keys:
                value = key // stride % sizes[level]
                bound_key = key - value * stride
                if bound_key in admits:
                    more.setdefault(bound_key, []).append(value)
                else:
                    admits[bound_key] = (value,)
            for bound_key, values in more.items():
                admits[bound_key] += tuple(values)
        else:
            level = 0
            admits = {0: tuple(range(sizes[0]))} if keys else {}
        bound = tuple((s, st) for s, st in zip(scope, strides) if s != level)
        checks[level].append((admits, bound))
    return (tuple(tuple(range(size)) for size in sizes),
            tuple(tuple(level_checks) for level_checks in checks))


def _admitted(row: tuple[int, ...], level_checks, domain: Sequence[int]) -> Sequence[int]:
    """The values of ``domain`` that every relation of a level admits after
    ``row``, in ascending order."""
    cands = domain
    for admits, bound in level_checks:
        allowed = admits.get(sum([row[s] * stride for s, stride in bound]))
        if allowed is None:
            return ()
        cands = allowed if cands is domain else [v for v in cands if v in allowed]
    return cands


def table(index: JoinIndex, fixed: list[int], budget: int) -> Iterator[tuple[int, ...]]:
    """The consistent completions of ``fixed``, built one level at a time
    when the first is asked for, so a consumer builds them; see the module
    docstring."""
    # The list is read in C, not yielded row by row from Python.
    return chain.from_iterable(_levels(index, fixed, budget))


def _levels(index: JoinIndex, fixed: list[int],
            budget: int) -> Iterator[list[tuple[int, ...]]]:
    """The completions as one list, the one item this yields."""
    domains, checks = index
    rows: list[tuple[int, ...]] = [()]
    nodes = 0
    for domain, level_checks, value in zip(domains, checks, fixed):
        if value >= 0:
            # A fixed level holds at most the rows of the level before it.
            rows = [row + (value,) for row in rows
                    if value in _admitted(row, level_checks, domain)]
            nodes += len(rows)
            if nodes > budget:
                raise LimitExceededError(nodes, budget, "search nodes")
            continue
        if len(level_checks) == 1 and not level_checks[0][1]:
            # One relation with no bound set admits the same values after
            # every row.
            domain, level_checks = level_checks[0][0].get(0, ()), ()
        if len(rows) * len(domain) > budget - nodes:
            # The level may pass the budget: count it before building it.
            passed = nodes + (sum([len(_admitted(row, level_checks, domain)) for row in rows])
                              if level_checks else len(rows) * len(domain))
            if passed > budget:
                raise LimitExceededError(passed, budget, "search nodes")
        if not level_checks:
            rows = [row + (v,) for row in rows for v in domain]
        elif len(level_checks) == 1 and len(level_checks[0][1]) <= 3:
            # The index key written out for one to three bound sets, which
            # every benchmark relation has: a generic key was twice as slow.
            (admits, bound), = level_checks
            get = admits.get
            if len(bound) == 1:
                (a, sa), = bound
                rows = [row + (v,) for row in rows for v in get(row[a] * sa, ())]
            elif len(bound) == 2:
                (a, sa), (b, sb) = bound
                rows = [row + (v,) for row in rows
                        for v in get(row[a] * sa + row[b] * sb, ())]
            else:
                (a, sa), (b, sb), (c, sc) = bound
                rows = [row + (v,) for row in rows
                        for v in get(row[a] * sa + row[b] * sb + row[c] * sc, ())]
        else:
            # Two relations end here, or one with four or more bound sets.
            rows = [row + (v,) for row in rows for v in _admitted(row, level_checks, domain)]
        nodes += len(rows)
    yield rows


def _take(rows: Iterable[tuple[int, ...]], bound: int | None) -> Iterable[tuple[int, ...]]:
    """The first ``bound`` rows: all when ``bound`` is None or past
    ``sys.maxsize``, which ``islice`` refuses, and none below 1."""
    if bound is None or bound > sys.maxsize:
        return rows
    return islice(rows, max(bound, 0))


def _first_per_projection(rows: Iterable[tuple[int, ...]],
                          target: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each row whose projection onto ``target`` no earlier row has."""
    project = itemgetter(*target) if target else lambda row: ()
    seen: set = set()
    for row in rows:
        key = project(row)
        if key not in seen:
            seen.add(key)
            yield row


def collect_completions(rows: Iterable[tuple[int, ...]],
                        k: int | None) -> list[tuple[int, ...]]:
    """The first ``k`` completions of a search."""
    return list(_take(rows, k))


def count_completions(rows: Iterable[tuple[int, ...]], cap: int | None) -> int:
    """Count the completions of a search, up to ``cap``."""
    return sum(1 for _ in _take(rows, cap))


def count_distinct_capped(rows: Iterable[tuple[int, ...]], target: Sequence[int],
                          cap: int | None) -> int:
    """Count the distinct projections of a search's completions onto the
    ``target`` sets, up to ``cap``."""
    return sum(1 for _ in _take(_first_per_projection(rows, target), cap))


def collect_distinct_reps(rows: Iterable[tuple[int, ...]], target: Sequence[int],
                          k: int | None) -> list[tuple[int, ...]]:
    """The first completion for each of the first ``k`` distinct target
    projections, in order of first appearance."""
    return list(_take(_first_per_projection(rows, target), k))
