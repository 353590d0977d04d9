"""Brute-force engine: chunked full-space enumeration.

Independent of the join search by design, so the two routes can
cross-check each other, and yet called the same way: ``build_index`` and
the four entry points carry the join kernels' names, take the same
arguments (this module's index where the kernels take theirs) and return
the same int tuples. Only this module of the package imports numpy.
Candidates are ranked lexicographically by (set declaration order, value
declaration order), the order the join search produces, and materialised
chunk by chunk as value-index matrices; consistency is a vectorised
membership test of each relation's sorted int64 row keys.
A network without sets has one candidate, the empty instance, which this
walk handles like any other.

:func:`_walk` keeps the join search's leaf contract on the consistent
candidates of each chunk, in rank order: it counts them (with a ``target``,
only those whose projection onto the target sets has not been met), keeps
the first ``keep`` counted as tuples of value indices, and stops once
``cap`` are counted (no cap when ``cap`` is 0 or less). Every entry point
takes a trailing ``budget``, ``Limits.max_enumerated``, which bounds the
work of each search, as the search nodes the join visits or the candidate
space brute force walks; the build of the consistent table is one such
search. A candidate space larger than the budget is refused before the
walk.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import LimitExceededError

__all__ = [
    "build_index",
    "collect_completions",
    "collect_distinct_reps",
    "count_completions",
    "count_distinct_capped",
]

_CHUNK = 1 << 18

# Set sizes; per relation, scope positions, int64 strides and sorted row keys.
BruteForceIndex = tuple[tuple[int, ...], tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]


def build_index(sizes: Sequence[int], relations) -> BruteForceIndex:
    """The encoding's ``(scope, strides, row keys)`` as arrays."""
    return tuple(sizes), tuple((np.array(scope, dtype=np.intp),
                                np.array(strides, dtype=np.int64),
                                np.array(keys, dtype=np.int64))
                               for scope, strides, keys in relations)


def _chunks(index: BruteForceIndex, fixed: list[int],
            budget: int) -> Iterator[np.ndarray]:
    """Consistent completions of ``fixed`` as value-index matrices, in rank
    order; the first declared free set varies slowest."""
    sizes, relations = index
    free = [i for i, value in enumerate(fixed) if value < 0]
    divs = {}
    div = 1
    for i in reversed(free):
        divs[i] = div
        div *= sizes[i]
    if div > budget:
        raise LimitExceededError(div, budget)
    for lo in range(0, div, _CHUNK):
        rank = np.arange(lo, min(lo + _CHUNK, div), dtype=np.int64)
        vals = np.empty((rank.size, len(sizes)), dtype=np.int64)
        for i, size in enumerate(sizes):
            vals[:, i] = fixed[i] if i not in divs else rank // divs[i] % size
        for scope, strides, keys in relations:
            if not keys.size:
                return  # an empty relation admits no candidate
            key = vals[:, scope] @ strides
            # A key past the last row key is clipped onto it and differs.
            vals = vals[keys.take(keys.searchsorted(key), mode="clip") == key]
            if not len(vals):
                break
        if len(vals):
            yield vals


def _walk(index: BruteForceIndex, fixed: list[int], target: Sequence[int] | None,
          cap: int, keep: int, budget: int) -> tuple[int, list[tuple[int, ...]]]:
    """Walk the completions of ``fixed``; see the module docstring.

    Returns the count and the kept completions.
    """
    cap = cap if cap > 0 else math.inf
    count = 0
    rows: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for vals in _chunks(index, fixed, budget):
        if target is not None:
            # Mixed-radix projection keys; ``target_positions`` keeps them in int64.
            keys = np.zeros(len(vals), dtype=np.int64)
            for i in target:
                keys = keys * index[0][i] + vals[:, i]
            _, first = np.unique(keys, return_index=True)
            first.sort()
            new = [i for i, key in zip(first.tolist(), keys[first].tolist())
                   if key not in seen]
            seen.update(keys[new].tolist())
            vals = vals[new]
        take = min(len(vals), cap - count)
        rows += map(tuple, vals[:min(take, keep - len(rows))].tolist())
        count += take
        if count >= cap:
            break
    return count, rows


def count_completions(index: BruteForceIndex, fixed: list[int], cap: int,
                      budget: int) -> int:
    """Count consistent completions of ``fixed``, up to ``cap``."""
    return _walk(index, fixed, None, cap, 0, budget)[0]


def collect_completions(index: BruteForceIndex, fixed: list[int], k: int,
                        budget: int) -> list[tuple[int, ...]]:
    """The first ``k`` consistent completions of ``fixed``."""
    return _walk(index, fixed, None, k, k, budget)[1] if k > 0 else []


def count_distinct_capped(index: BruteForceIndex, fixed: list[int],
                          target: Sequence[int], cap: int, budget: int) -> int:
    """Count distinct projections of completions onto the ``target`` sets,
    up to ``cap``."""
    return _walk(index, fixed, target, cap, 0, budget)[0]


def collect_distinct_reps(index: BruteForceIndex, fixed: list[int],
                          target: Sequence[int], k: int,
                          budget: int) -> list[tuple[int, ...]]:
    """The first completion for each of the first ``k`` distinct target
    projections, in order of first appearance."""
    return _walk(index, fixed, target, k, k, budget)[1] if k > 0 else []
