"""Backtracking join search over encoded networks.

``_search`` runs one depth-first walk over the sets in declaration order,
assigning one value per level. A relation is checked at its trigger level,
the last set of its scope in declaration order (a nullary relation at the
first). Enumeration order is lexicographic in (set declaration order, value
declaration order), which the rest of the package relies on for
deterministic witnesses.

Checks are index lookups, not row scans. :func:`build_index` gives every
relation a dict from the key of its scope positions before the trigger
level to the ascending tuple of value indices that its rows admit at that
level. The candidates at a level are those tuples intersected across the
relations triggered there, then with the partial's fixed value; they stay
ascending, so the walk meets completions in lexicographic order. The idea
is the variable-at-a-time intersection of Leapfrog Triejoin (Veldhuizen,
ICDT 2014), over Python ints, since each search is too small for array
set-up costs to pay off.

At each consistent completion (a leaf) the walk does three things:

- it counts the completion; with a ``target`` (set positions), only a
  completion whose projection onto the target has not been met counts;
- it keeps a counted completion as a tuple of value indices while fewer
  than ``keep`` are kept;
- it stops once ``cap`` completions have been counted.

The four entry points are single calls into ``_search`` that pick the leaf
behaviour through ``target`` and ``keep``. ``fixed`` is a list of value
indices per set, -1 where the partial leaves the set free; a ``cap`` of 0
or less means no cap. Each takes a trailing ``budget``,
``Limits.max_enumerated``, which bounds the work of each search, as the
search nodes the join visits or the candidate space brute force walks.
The property checkers make one search, the uncapped
``collect_completions`` that builds the consistent table; the other entry
points serve the engine's public calls. This walk raises
``LimitExceededError`` once it has visited more than ``budget`` search
nodes (value assignments at any level), however large its cartesian
space. ``bruteforce`` exports the same four names with the same
arguments and results, so the engine calls either through one contract.
The walk needs at least one set; the engine sends a network without sets
to brute force.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter, mul
from typing import Sequence

from .errors import LimitExceededError

__all__ = [
    "JIT_ENABLED",
    "JoinIndex",
    "build_index",
    "collect_completions",
    "collect_distinct_reps",
    "count_completions",
    "count_distinct_capped",
]

# The search is plain Python; no compiled variant exists.
JIT_ENABLED = False

# Per level: every value index of the set, and one (index, bound) pair per
# relation triggered there. ``bound`` lists the (set, stride) pairs whose
# dot product with the current assignment is the index key. Last, the most
# search nodes a walk can visit: every prefix of the cartesian space.
JoinIndex = tuple[tuple[tuple[int, ...], ...],
                  tuple[tuple[tuple[dict[int, tuple[int, ...]],
                                    tuple[tuple[int, int], ...]], ...], ...], int]


def build_index(sizes: Sequence[int], relations) -> JoinIndex:
    """Index every relation at its trigger level, from the encoded
    network's ``(scope, strides, row keys)`` per relation."""
    checks: list[list] = [[] for _ in sizes]
    for scope, strides, keys in relations:
        admits: dict[int, list[int]] = {}
        if scope:
            level = max(scope)
            stride = strides[scope.index(level)]
            # Keys ascend, so within one bound key the values ascend too.
            for key in keys:
                value = key // stride % sizes[level]
                admits.setdefault(key - value * stride, []).append(value)
        else:
            level = 0
            if keys:
                admits[0] = list(range(sizes[0]))
        bound = tuple((s, st) for s, st in zip(scope, strides) if s != level)
        checks[level].append(
            ({key: tuple(values) for key, values in admits.items()}, bound))
    return (tuple(tuple(range(size)) for size in sizes),
            tuple(tuple(level_checks) for level_checks in checks),
            sum(accumulate(sizes, mul)))


def _search(index: JoinIndex, fixed: list[int], target: Sequence[int] | None,
            cap: int, keep: int, budget: int) -> tuple[int, list[tuple[int, ...]]]:
    """Walk the completions of ``fixed``; see the module docstring.

    Returns the count and the kept completions.
    """
    domains, checks, most = index
    counting = most > budget  # else no walk of this index can pass the budget
    last = len(domains) - 1
    cur = [0] * len(domains)
    rows: list[tuple[int, ...]] = []
    seen: set = set()
    if target is None:
        project = None
    elif target:
        project = itemgetter(*target)
    else:
        project = lambda cur: ()  # every completion projects alike
    cap = cap if cap > 0 else float("inf")
    count = nodes = 0

    def walk(level: int) -> bool:
        nonlocal count, nodes
        domain = domains[level]
        cands = domain if fixed[level] < 0 else (fixed[level],)
        for admits, bound in checks[level]:
            key = 0
            for s, stride in bound:
                key += cur[s] * stride
            allowed = admits.get(key)
            if allowed is None:
                return False
            cands = allowed if cands is domain else [v for v in cands if v in allowed]
        if counting:
            nodes += len(cands)
            if nodes > budget:
                raise LimitExceededError(nodes, budget, "search nodes")
        if level < last:
            for v in cands:
                cur[level] = v
                if walk(level + 1):
                    return True
            return False
        for v in cands:
            cur[level] = v
            if project is not None:
                key = project(cur)
                if key in seen:
                    continue
                seen.add(key)
            if len(rows) < keep:
                rows.append(tuple(cur))
            count += 1
            if count >= cap:
                return True
        return False

    try:
        walk(0)
    finally:
        # ``walk`` reaches itself through its closure. Clearing the name frees
        # the call's state now; left to the cycle collector, it piles up and
        # fragments memory.
        walk = None  # noqa: F841
    return count, rows


def count_completions(index: JoinIndex, fixed: list[int], cap: int,
                      budget: int) -> int:
    """Count consistent completions of ``fixed``, up to ``cap``."""
    return _search(index, fixed, None, cap, 0, budget)[0]


def collect_completions(index: JoinIndex, fixed: list[int], k: int,
                        budget: int) -> list[tuple[int, ...]]:
    """The first ``k`` consistent completions of ``fixed``."""
    return _search(index, fixed, None, k, k, budget)[1] if k > 0 else []


def count_distinct_capped(index: JoinIndex, fixed: list[int],
                          target: Sequence[int], cap: int, budget: int) -> int:
    """Count distinct projections of completions onto the ``target`` sets,
    up to ``cap``."""
    return _search(index, fixed, target, cap, 0, budget)[0]


def collect_distinct_reps(index: JoinIndex, fixed: list[int],
                          target: Sequence[int], k: int,
                          budget: int) -> list[tuple[int, ...]]:
    """The first completion for each of the first ``k`` distinct target
    projections, in order of first appearance."""
    return _search(index, fixed, target, k, k, budget)[1] if k > 0 else []
