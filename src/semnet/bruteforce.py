"""Brute-force engine: chunked full-space enumeration.

Independent of the join search by design, so the two routes can
cross-check each other, and yet called the same way: the four entry
points carry the join kernels' names, take the same arguments (with the
encoded network where the kernels take their index) and return the same
int tuples. Candidate instances are ranked lexicographically by (set
declaration order, value declaration order), the order the join search
produces, and materialised chunk by chunk as value-index matrices;
consistency is a vectorised membership test of each relation's row keys.
A network without sets has one candidate, the empty instance, which this
walk handles like any other.

:func:`_walk` keeps the join search's leaf contract on the consistent
candidates of each chunk, in rank order: it counts them (with a
``target``, only those whose projection onto the target sets has not been
met), keeps the first ``keep`` counted as tuples of value indices, and
stops once ``cap`` are counted (no cap when ``cap`` is 0 or less).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .encode import EncodedNetwork

__all__ = [
    "collect_completions",
    "collect_distinct_reps",
    "count_completions",
    "count_distinct_capped",
]

_CHUNK = 1 << 18


def _chunks(enc: EncodedNetwork, fixed: list[int]) -> Iterator[np.ndarray]:
    """Consistent completions of ``fixed`` as value-index matrices, in rank
    order; the first declared free set varies slowest."""
    free = [i for i in range(enc.n_sets) if fixed[i] < 0]
    divs = {}
    div = 1
    for i in reversed(free):
        divs[i] = div
        div *= enc.sizes[i]
    for lo in range(0, div, _CHUNK):
        rank = np.arange(lo, min(lo + _CHUNK, div), dtype=np.int64)
        vals = np.empty((rank.size, enc.n_sets), dtype=np.int64)
        for i in range(enc.n_sets):
            vals[:, i] = fixed[i] if i not in divs else rank // divs[i] % enc.sizes[i]
        for scope, strides, keys in enc.relations:
            key = np.zeros(len(vals), dtype=np.int64)
            for s, stride in zip(scope, strides):
                key += vals[:, s] * stride
            pos = np.searchsorted(keys, key)
            hit = pos < keys.size
            hit[hit] = keys[pos[hit]] == key[hit]
            vals = vals[hit]
            if not len(vals):
                break
        if len(vals):
            yield vals


def _projection_keys(enc: EncodedNetwork, vals: np.ndarray,
                     target: Sequence[int]) -> np.ndarray:
    """Mixed-radix key of each row's projection onto the target positions;
    ``EncodedNetwork.target_positions`` keeps the keys within int64."""
    keys = np.zeros(len(vals), dtype=np.int64)
    for i in target:
        keys = keys * enc.sizes[i] + vals[:, i]
    return keys


def _walk(enc: EncodedNetwork, fixed: list[int], target: Sequence[int] | None,
          cap: int, keep: int) -> tuple[int, list[tuple[int, ...]]]:
    """Walk the completions of ``fixed``; see the module docstring.

    Returns the count and the kept completions.
    """
    cap = cap if cap > 0 else math.inf
    count = 0
    rows: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for vals in _chunks(enc, fixed):
        if target is not None:
            keys = _projection_keys(enc, vals, target)
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


def count_completions(enc: EncodedNetwork, fixed: list[int], cap: int) -> int:
    """Count consistent completions of ``fixed``, up to ``cap``."""
    return _walk(enc, fixed, None, cap, 0)[0]


def collect_completions(enc: EncodedNetwork, fixed: list[int],
                        k: int) -> list[tuple[int, ...]]:
    """The first ``k`` consistent completions of ``fixed``."""
    return _walk(enc, fixed, None, k, k)[1] if k > 0 else []


def count_distinct_capped(enc: EncodedNetwork, fixed: list[int],
                          target: Sequence[int], cap: int) -> int:
    """Count distinct projections of completions onto the ``target`` sets,
    up to ``cap``."""
    return _walk(enc, fixed, target, cap, 0)[0]


def collect_distinct_reps(enc: EncodedNetwork, fixed: list[int],
                          target: Sequence[int],
                          k: int) -> list[tuple[int, ...]]:
    """The first completion for each of the first ``k`` distinct target
    projections, in order of first appearance."""
    return _walk(enc, fixed, target, k, k)[1] if k > 0 else []
