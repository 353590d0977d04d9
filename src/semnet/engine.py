"""Instance-space operations: enumeration, consistency, completions, counting.

Two interchangeable engines back the heavy operations: JOIN, a backtracking
natural join that checks each relation as soon as its scope is assigned,
and BRUTEFORCE, a chunked enumeration of the whole candidate space. They
implement the same contracts with the same deterministic order and exist to
cross-validate each other; callers choose per call and must get identical
results either way.

Enumeration order everywhere is lexicographic in (set declaration order,
value declaration order). All operations that materialise or walk a
candidate space first check it against ``Limits.max_enumerated`` and raise
``LimitExceededError`` rather than truncate silently. ``Limits.cap`` is an
early-stop for counting: results are then ``min(true count, cap)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from . import bruteforce, kernels
from .encode import EncodedNetwork, encode
from .errors import LimitExceededError, ScopeMismatchError
from .model import Instance, Network

__all__ = [
    "CountMode",
    "Engine",
    "Limits",
    "completions",
    "count_distinct",
    "distinct_representatives",
    "enumerate_instances",
    "first_completions",
    "full_space_size",
    "is_consistent",
    "project",
]

class CountMode(Enum):
    """FULL counts consistent full instances; PROJECTED counts their
    distinct projections onto the target scope."""

    FULL = "full"
    PROJECTED = "projected"


class Engine(Enum):
    JOIN = "join"
    BRUTEFORCE = "bruteforce"


@dataclass(frozen=True)
class Limits:
    max_enumerated: int = 10_000_000
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.max_enumerated < 1:
            raise ValueError("max_enumerated must be >= 1")
        if self.cap is not None and self.cap < 1:
            raise ValueError("cap must be >= 1 when set")


_DEFAULT_LIMITS = Limits()


def project(instance: Instance, scope: Iterable[str]) -> Instance:
    """Restrict an instance to the given scope."""
    wanted = frozenset(scope)
    missing = wanted - instance.scope
    if missing:
        raise ScopeMismatchError(
            f"cannot project onto sets outside the instance scope: {sorted(missing)}"
        )
    return Instance((k, v) for k, v in instance.assignment if k in wanted)


def is_consistent(network: Network, full: Instance) -> bool:
    """Whether a full instance projects to a row of every relation."""
    all_ids = frozenset(vs.id for vs in network.sets)
    if full.scope != all_ids:
        raise ScopeMismatchError("consistency is defined for full instances only")
    values = full.as_dict()
    for rel in network.relations:
        if tuple(values[sid] for sid in rel.scope) not in rel.rows:
            return False
    return True


def enumerate_instances(network: Network, scope: Iterable[str],
                        limits: Limits = _DEFAULT_LIMITS) -> Iterator[Instance]:
    """All instances over the scope, in lexicographic declaration order."""
    wanted = frozenset(scope)
    all_ids = frozenset(vs.id for vs in network.sets)
    unknown = wanted - all_ids
    if unknown:
        raise ScopeMismatchError(f"unknown sets in scope: {sorted(unknown)}")
    ordered = network.set_order(wanted)
    space = 1
    for sid in ordered:
        space *= len(network.value_set(sid).values)
    if space > limits.max_enumerated:
        raise LimitExceededError(space, limits.max_enumerated)

    def _generate() -> Iterator[Instance]:
        value_lists = [network.value_set(sid).values for sid in ordered]
        for combo in itertools.product(*value_lists):
            yield Instance(zip(ordered, combo))

    return _generate()


def full_space_size(network: Network) -> int:
    """Product of all set sizes: the candidate space of full instances."""
    space = 1
    for vs in network.sets:
        space *= len(vs.values)
    return space


def _prepare(network: Network, partial: Instance,
             limits: Limits) -> tuple[EncodedNetwork, list[int]]:
    enc = encode(network)
    fixed = enc.fixed_from(partial)
    space = enc.space_size(fixed)
    if space > limits.max_enumerated:
        raise LimitExceededError(space, limits.max_enumerated)
    return enc, fixed


def _positions(tstrides: list[int]) -> list[int]:
    """The set positions that a target's projection-key strides cover."""
    return [i for i, stride in enumerate(tstrides) if stride]


def _empty_network_count(network: Network) -> int:
    """Completion count for the degenerate zero-set network."""
    return 1 if is_consistent(network, Instance()) else 0


def completions(network: Network, partial: Instance,
                limits: Limits = _DEFAULT_LIMITS,
                engine: Engine = Engine.JOIN) -> list[Instance]:
    """All consistent full instances extending the partial, in order."""
    enc, fixed = _prepare(network, partial, limits)
    if enc.n_sets == 0:
        return [Instance()] if _empty_network_count(network) else []
    space = enc.space_size(fixed)
    if engine is Engine.JOIN:
        out = kernels.collect_completions(enc.join_index, fixed, space)
    else:
        out = bruteforce.bf_collect(enc, fixed, space)
    return [enc.instance_from_row(row) for row in out]


def first_completions(network: Network, partial: Instance, k: int,
                      limits: Limits = _DEFAULT_LIMITS,
                      engine: Engine = Engine.JOIN) -> list[Instance]:
    """The first k consistent full instances extending the partial."""
    enc, fixed = _prepare(network, partial, limits)
    if k <= 0:
        return []
    if enc.n_sets == 0:
        return [Instance()] if _empty_network_count(network) else []
    if engine is Engine.JOIN:
        out = kernels.collect_completions(enc.join_index, fixed, k)
    else:
        out = bruteforce.bf_collect(enc, fixed, k)
    return [enc.instance_from_row(row) for row in out]


def count_distinct(network: Network, partial: Instance, target: Iterable[str],
                   mode: CountMode = CountMode.PROJECTED,
                   limits: Limits = _DEFAULT_LIMITS,
                   engine: Engine = Engine.JOIN) -> int:
    """Count completions (FULL) or their distinct target projections
    (PROJECTED); with ``limits.cap`` set, stop early at the cap."""
    wanted = frozenset(target)
    all_ids = frozenset(vs.id for vs in network.sets)
    unknown = wanted - all_ids
    if unknown:
        raise ScopeMismatchError(f"unknown sets in target: {sorted(unknown)}")
    enc, fixed = _prepare(network, partial, limits)
    cap = limits.cap or 0
    if enc.n_sets == 0:
        n = _empty_network_count(network)
        return min(n, cap) if cap else n

    if mode is CountMode.FULL:
        if engine is Engine.JOIN:
            return kernels.count_completions(enc.join_index, fixed, cap)
        return bruteforce.bf_count(enc, fixed, cap)

    tstrides, _ = enc.target_strides(wanted)
    if engine is Engine.JOIN:
        return kernels.count_distinct_capped(
            enc.join_index, fixed, _positions(tstrides), cap)
    return bruteforce.bf_count_distinct(
        enc, fixed, np.array(tstrides, dtype=np.int64), cap)


def distinct_representatives(network: Network, partial: Instance,
                             target: Iterable[str], k: int,
                             limits: Limits = _DEFAULT_LIMITS,
                             engine: Engine = Engine.JOIN) -> list[Instance]:
    """First completion for each of the first k distinct target projections."""
    wanted = frozenset(target)
    all_ids = frozenset(vs.id for vs in network.sets)
    unknown = wanted - all_ids
    if unknown:
        raise ScopeMismatchError(f"unknown sets in target: {sorted(unknown)}")
    enc, fixed = _prepare(network, partial, limits)
    if k <= 0:
        return []
    if enc.n_sets == 0:
        return [Instance()] if _empty_network_count(network) else []
    tstrides, _ = enc.target_strides(wanted)
    if engine is Engine.JOIN:
        reps = kernels.collect_distinct_reps(
            enc.join_index, fixed, _positions(tstrides), k)
    else:
        reps = bruteforce.bf_collect_distinct_reps(
            enc, fixed, np.array(tstrides, dtype=np.int64), k)
    return [enc.instance_from_row(row) for row in reps]
