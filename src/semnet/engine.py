"""Instance-space operations: enumeration, consistency, completions, counting.

Two interchangeable engines back the heavy operations: JOIN, a backtracking
natural join that checks each relation as soon as its scope is assigned
(``kernels``), and BRUTEFORCE, a chunked enumeration of the whole candidate
space (``bruteforce``). They share no code but one call contract: the same
four entry points, each taking its engine's index of the encoding, with the
same results and deterministic order, so they cross-validate each other and
:func:`_backend` is the only place that tells them apart. Callers choose per
call and must get identical results either way. A network without sets
always goes to brute force, whose walk covers its one candidate, the empty
instance.

Enumeration order everywhere is lexicographic in (set declaration order,
value declaration order). ``Limits.max_enumerated`` bounds the work of
each search, as the search nodes the join visits or the candidate space
brute force walks, :func:`consistent_table`'s build among them. Every
backend call takes it and raises ``LimitExceededError`` rather than
truncate silently. Only :func:`enumerate_instances`, which walks a
cartesian space itself, checks that space here. ``Limits.cap`` is an
early-stop for :func:`count_distinct`, the one reader of it: its result is
then ``min(true count, cap)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from . import kernels
from .encode import EncodedNetwork, encode
from .errors import LimitExceededError, ScopeMismatchError
from .model import Instance, Network

__all__ = [
    "CountMode",
    "Engine",
    "Limits",
    "completions",
    "consistent_table",
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


# Read twice per plan: a member read through its class runs Enum's lookup.
_JOIN = Engine.JOIN


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


def known_sets(network: Network, ids: Iterable[str], what: str) -> frozenset[str]:
    """The ids as a set, refused when the network lacks one of them."""
    wanted = frozenset(ids)
    unknown = wanted - frozenset(vs.id for vs in network.sets)
    if unknown:
        raise ScopeMismatchError(f"unknown sets in {what}: {sorted(unknown)}")
    return wanted


def enumerate_instances(network: Network, scope: Iterable[str],
                        limits: Limits = _DEFAULT_LIMITS) -> Iterator[Instance]:
    """All instances over the scope, in lexicographic declaration order."""
    ordered = network.set_order(known_sets(network, scope, "scope"))
    values = [network.value_set(sid).values for sid in ordered]
    space = math.prod(map(len, values))
    if space > limits.max_enumerated:
        raise LimitExceededError(space, limits.max_enumerated)
    return (Instance(zip(ordered, combo)) for combo in itertools.product(*values))


def full_space_size(network: Network) -> int:
    """Product of all set sizes: the candidate space of full instances."""
    return math.prod(len(vs.values) for vs in network.sets)


def _backend(enc: EncodedNetwork, engine: Engine) -> tuple[object, object]:
    """The module whose entry points serve ``engine`` and the index they
    take. The join search walks one level per set, so a network without
    sets goes to brute force, which is imported on its first use."""
    if engine is _JOIN and enc.n_sets:
        return kernels, enc.join_index
    from . import bruteforce
    return bruteforce, enc.bruteforce_index


def completions(network: Network, partial: Instance,
                limits: Limits = _DEFAULT_LIMITS,
                engine: Engine = Engine.JOIN) -> list[Instance]:
    """All consistent full instances extending the partial, in order."""
    return first_completions(network, partial, full_space_size(network), limits, engine)


def first_completions(network: Network, partial: Instance, k: int,
                      limits: Limits = _DEFAULT_LIMITS,
                      engine: Engine = Engine.JOIN) -> list[Instance]:
    """The first k consistent full instances extending the partial."""
    enc = encode(network)
    fixed = enc.fixed_from(partial)
    backend, data = _backend(enc, engine)
    return [enc.instance_from_row(row) for row in
            backend.collect_completions(data, fixed, k, limits.max_enumerated)]


def consistent_table(network: Network, limits: Limits = _DEFAULT_LIMITS,
                     engine: Engine = Engine.JOIN) -> list[tuple[int, ...]]:
    """T: every consistent full instance as value indices, in order.

    The engine's uncapped ``collect_completions`` builds T once per
    encoding and keeps it there. A T kept from a larger budget is walked
    again under a smaller one, so whether a budget refuses T does not
    depend on the cache.
    """
    enc = encode(network)
    backend, data = _backend(enc, engine)
    budget = limits.max_enumerated
    known = enc.tables.get(backend)
    if known is None or budget < known[0]:
        known = enc.tables[backend] = (budget, backend.collect_completions(
            data, [-1] * enc.n_sets, full_space_size(network), budget))
    return known[1]


def count_distinct(network: Network, partial: Instance, target: Iterable[str],
                   mode: CountMode = CountMode.PROJECTED,
                   limits: Limits = _DEFAULT_LIMITS,
                   engine: Engine = Engine.JOIN) -> int:
    """Count completions (FULL) or their distinct target projections
    (PROJECTED); with ``limits.cap`` set, stop early at the cap."""
    wanted = known_sets(network, target, "target")
    enc = encode(network)
    fixed = enc.fixed_from(partial)
    cap, budget = limits.cap or 0, limits.max_enumerated
    backend, data = _backend(enc, engine)
    if mode is CountMode.FULL:
        return backend.count_completions(data, fixed, cap, budget)
    return backend.count_distinct_capped(data, fixed, enc.target_positions(wanted),
                                         cap, budget)


def distinct_representatives(network: Network, partial: Instance,
                             target: Iterable[str], k: int,
                             limits: Limits = _DEFAULT_LIMITS,
                             engine: Engine = Engine.JOIN) -> list[Instance]:
    """First completion for each of the first k distinct target projections."""
    wanted = known_sets(network, target, "target")
    enc = encode(network)
    fixed = enc.fixed_from(partial)
    positions = enc.target_positions(wanted)
    backend, data = _backend(enc, engine)
    return [enc.instance_from_row(row) for row in backend.collect_distinct_reps(
        data, fixed, positions, k, limits.max_enumerated)]
