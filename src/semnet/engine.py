"""Instance-space operations: enumeration, consistency, completions, counting.

Two interchangeable engines back the heavy operations: JOIN, a natural
join that checks each relation as soon as its scope is assigned
(``kernels``), and BRUTEFORCE, a chunked enumeration of the whole candidate
space (``bruteforce``). They share no code but one call contract: a
``build_index`` from the encoding, kept on it, and
``table(index, fixed, budget)``, the consistent completions of a partial
as tuples of value indices in one deterministic order, so they
cross-validate each other. :func:`_backend` is the one place that picks an
engine. :func:`consistent_table` builds T as the table of the empty
partial, and every call here reads a table through the same consumers in
``kernels``. Callers choose per call and must get identical results
either way. A network without sets always goes to brute force, whose
table covers its one candidate, the empty instance.

Enumeration order everywhere is lexicographic in (set declaration order,
value declaration order). ``Limits.max_enumerated`` bounds the work of
each search, as the search nodes the join visits or the candidate space
brute force enumerates, :func:`consistent_table`'s build among them. Every
search takes it and raises ``LimitExceededError`` rather than truncate
silently. The join builds a table a level at a time and counts each
level's nodes before it builds the level, so a refusal reports the nodes
through the first level that passes the budget. Only
:func:`enumerate_instances`, which walks a cartesian space itself, checks
that space here. ``Limits.cap`` bounds the result of
:func:`count_distinct`, the one reader of it, to ``min(true count, cap)``,
as ``k`` bounds the instances a call returns; neither stops a search
early, so whether a call is decided depends only on its partial's table
under the budget, the rule the checkers follow for T. A projection target
is a list of set positions, and projections are tuples of value indices,
so no target is refused for the size of its value space.
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
    """The module whose ``table`` serves ``engine`` and the index it takes.
    The join search builds one level per set, so a network without sets
    goes to brute force, which is imported on its first use."""
    if engine is _JOIN and enc.n_sets:
        return kernels, enc.join_index
    from . import bruteforce
    return bruteforce, enc.bruteforce_index


def _table(network: Network, partial: Instance, limits: Limits,
           engine: Engine) -> tuple[EncodedNetwork, Iterator[tuple[int, ...]]]:
    """The encoding, and the engine's table of the partial's completions."""
    enc = encode(network)
    fixed = enc.fixed_from(partial)
    backend, data = _backend(enc, engine)
    return enc, backend.table(data, fixed, limits.max_enumerated)


def completions(network: Network, partial: Instance,
                limits: Limits = _DEFAULT_LIMITS,
                engine: Engine = Engine.JOIN) -> list[Instance]:
    """All consistent full instances extending the partial, in order."""
    enc, rows = _table(network, partial, limits, engine)
    return [enc.instance_from_row(row) for row in kernels.collect_completions(rows, None)]


def first_completions(network: Network, partial: Instance, k: int,
                      limits: Limits = _DEFAULT_LIMITS,
                      engine: Engine = Engine.JOIN) -> list[Instance]:
    """The first k consistent full instances extending the partial; all
    of them when k is past ``sys.maxsize``, none when k < 1."""
    enc, rows = _table(network, partial, limits, engine)
    return [enc.instance_from_row(row) for row in kernels.collect_completions(rows, k)]


def consistent_table(network: Network, limits: Limits = _DEFAULT_LIMITS,
                     engine: Engine = Engine.JOIN) -> list[tuple[int, ...]]:
    """T: every consistent full instance as value indices, in order.

    T is the engine's table of the empty partial, built once per encoding
    and kept there. A T kept from a larger budget is built again under a
    smaller one, so whether a budget refuses T does not depend on the
    cache.
    """
    enc = encode(network)
    backend, data = _backend(enc, engine)
    budget = limits.max_enumerated
    known = enc.tables.get(backend)
    if known is None or budget < known[0]:
        rows = backend.table(data, [-1] * enc.n_sets, budget)
        known = enc.tables[backend] = (budget, kernels.collect_completions(rows, None))
    return known[1]


def count_distinct(network: Network, partial: Instance, target: Iterable[str],
                   mode: CountMode = CountMode.PROJECTED,
                   limits: Limits = _DEFAULT_LIMITS,
                   engine: Engine = Engine.JOIN) -> int:
    """Count completions (FULL) or their distinct target projections
    (PROJECTED); with ``limits.cap`` set, at most the cap."""
    wanted = known_sets(network, target, "target")
    enc, rows = _table(network, partial, limits, engine)
    if mode is CountMode.FULL:
        return kernels.count_completions(rows, limits.cap)
    positions = [enc.set_index[sid] for sid in network.set_order(wanted)]
    return kernels.count_distinct_capped(rows, positions, limits.cap)


def distinct_representatives(network: Network, partial: Instance,
                             target: Iterable[str], k: int,
                             limits: Limits = _DEFAULT_LIMITS,
                             engine: Engine = Engine.JOIN) -> list[Instance]:
    """First completion for each of the first k distinct target projections."""
    wanted = known_sets(network, target, "target")
    enc, rows = _table(network, partial, limits, engine)
    positions = [enc.set_index[sid] for sid in network.set_order(wanted)]
    return [enc.instance_from_row(row) for row in
            kernels.collect_distinct_reps(rows, positions, k)]
