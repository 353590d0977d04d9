"""Brute-force engine: chunked full-space enumeration.

Independent of the join search by design, so the two routes can
cross-check each other, and yet called the same way: ``build_index`` and
``table`` carry the join's names, take the same arguments (this module's
index where the join takes its own, and the relation ids as well for
``build_index``'s refusal below) and yield the same int tuples, which
the engine reads through the same consumers (``kernels``); this module
imports nothing from ``kernels``. Only this module of the package imports
numpy. Candidates are ranked lexicographically by (set declaration order,
value declaration order), the order the join search produces, and
materialised chunk by chunk as value-index matrices; consistency is a
vectorised membership test of each relation's sorted row keys, and
:func:`table` yields each chunk's consistent rows in rank order. A network
without sets has one candidate, the empty instance, which this search
handles like any other.

Row keys are int64, so :func:`build_index` refuses a relation whose scope
space passes 2^62 (``KeyOverflowError``); the join keys rows with Python
ints and has no such limit. ``budget``, ``Limits.max_enumerated``, bounds
the work of each search, as the candidate space brute force enumerates; the
build of the consistent table is one such search. A candidate space larger
than the budget is refused before the first chunk.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import KeyOverflowError, LimitExceededError

__all__ = ["build_index", "table"]

_CHUNK = 1 << 18
# int64 row keys: a scope space up to this cannot wrap.
_KEY_LIMIT = 2**62

# Set sizes; per relation, scope positions, int64 strides and sorted row keys.
BruteForceIndex = tuple[tuple[int, ...], tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]


def build_index(sizes: Sequence[int], relations, names: Sequence[str]) -> BruteForceIndex:
    """The encoding's ``(scope, strides, row keys)`` as arrays; ``names``
    are the relation ids, for the refusal of a scope too wide for int64."""
    for name, (scope, strides, _) in zip(names, relations):
        space = strides[0] * sizes[scope[0]] if scope else 1
        if space > _KEY_LIMIT:
            raise KeyOverflowError(
                f"relation {name!r} scope space of {space} value combinations "
                "exceeds the engine's 2^62 key limit")
    return tuple(sizes), tuple((np.array(scope, dtype=np.intp),
                                np.array(strides, dtype=np.int64),
                                np.array(keys, dtype=np.int64))
                               for scope, strides, keys in relations)


def table(index: BruteForceIndex, fixed: list[int],
          budget: int) -> Iterator[tuple[int, ...]]:
    """The consistent completions of ``fixed`` as tuples of value indices,
    in rank order; the first declared free set varies slowest."""
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
        yield from map(tuple, vals.tolist())
