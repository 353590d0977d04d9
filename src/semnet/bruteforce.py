"""Brute-force engine: chunked full-space enumeration in plain Python.

Independent of the join search by design, so the two routes can
cross-check each other, and yet called the same way: ``build_index`` and
``table`` carry the join's names, take the same arguments (this module's
index where the join takes its own) and yield the same int tuples, which
the engine reads through the same consumers (``kernels``); this module
imports nothing from ``kernels``. :func:`build_index` decodes each
relation's row keys into the set of value-index tuples its rows hold over
its scope (plain value indices for a one-set scope). Candidates are ranked
lexicographically by (set declaration order, value declaration order), the
order the join search produces, and drawn from ``itertools.product`` chunk
by chunk; each relation keeps the candidates whose projection onto its
scope is one of its rows, and :func:`table` yields each chunk's survivors
in rank order. Nothing is pruned before a candidate is whole. A network
without sets has one candidate, the empty instance, which this search
handles like any other.

``budget``, ``Limits.max_enumerated``, bounds the work of each search, as
the candidate space brute force enumerates; the build of the consistent
table is one such search. A candidate space larger than the budget is
refused before the first candidate.
"""

from __future__ import annotations

from itertools import compress, islice, product
from math import prod
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import LimitExceededError

__all__ = ["build_index", "table"]

_CHUNK = 1 << 18

# Set sizes; per relation, its scope positions and the rows it holds there.
BruteForceIndex = tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], frozenset], ...]]


def build_index(sizes: Sequence[int], relations) -> BruteForceIndex:
    """Each relation's rows as value indices over its scope, decoded column
    by column from the encoding's ``(scope, strides, row keys)``."""
    index = []
    for scope, strides, keys in relations:
        columns = [[key // stride % sizes[s] for key in keys]
                   for s, stride in zip(scope, strides)]
        if len(columns) == 1:
            rows = frozenset(columns[0])
        elif columns:
            rows = frozenset(zip(*columns))
        else:  # a nullary relation admits all or nothing
            rows = frozenset([()] if keys else [])
        index.append((scope, rows))
    return tuple(sizes), tuple(index)


def table(index: BruteForceIndex, fixed: list[int],
          budget: int) -> Iterator[tuple[int, ...]]:
    """The consistent completions of ``fixed`` as tuples of value indices,
    in rank order; the first declared free set varies slowest."""
    sizes, relations = index
    ranges = [range(size) if value < 0 else (value,) for size, value in zip(sizes, fixed)]
    space = prod(map(len, ranges))
    if space > budget:
        raise LimitExceededError(space, budget)
    if not all(rows for _, rows in relations):
        return  # a relation without rows admits no candidate
    # A nullary relation that holds its row admits every candidate.
    checks = [(itemgetter(*scope), rows.__contains__) for scope, rows in relations if scope]
    candidates = product(*ranges)
    while chunk := list(islice(candidates, _CHUNK)):
        for project, holds in checks:
            chunk = list(compress(chunk, map(holds, map(project, chunk))))
        yield from chunk
