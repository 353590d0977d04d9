"""Integer encoding of networks for the search engines.

Sets become contiguous indices in declaration order, values become indices
into their set. Each relation is encoded on its own, as its scope's set
positions, a mixed-radix stride per position and the sorted tuple of its
row keys, where a row key is the stride-weighted sum of the row's value
indices. The keys are the ones the network memoises (``model.row_keys``,
computed while ``parse`` or :func:`validate` checked the rows, with the
same strides), so encoding only sorts them. Each engine builds its own
index from these tuples on its first search of a network and keeps it on
the encoding: the join search's per-relation dicts
(``kernels.build_index``) and brute force's key arrays
(``bruteforce.build_index``). The consistent table T that each engine
builds for the property checkers is kept there too, and so is T's
layout by each anchor scope a checker reads, with the decisions made
from it, so all are freed with the cache entry. What the engine prepares
per call (fixed value indices, target positions) stays in plain Python
ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import kernels
from .errors import InvalidNetworkError, KeyOverflowError, ScopeMismatchError
from .model import Instance, Network, mixed_radix, validate

__all__ = ["EncodedNetwork", "encode"]

# Brute force's keys are int64; both engines refuse scopes whose product could wrap.
_KEY_LIMIT = 2**62


@dataclass(frozen=True)
class EncodedNetwork:
    network: Network
    set_ids: tuple[str, ...]
    set_index: dict[str, int]
    sizes: tuple[int, ...]      # (n_sets,) domain size per set
    value_index: tuple[dict[str, int], ...]
    # Per relation: scope set positions, their strides, sorted row keys.
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    # Per engine module: the smallest budget known to admit the walk of the
    # consistent table T, and T (``engine.consistent_table``).
    tables: dict = field(default_factory=dict, compare=False, repr=False)
    # Per (engine module, anchor scope): T's whole layout by that scope,
    # with each group's outcomes per target columns and the verdict
    # decisions made from it, each kept once a checker reads it
    # (``properties._Layout``); it refers to no encoding.
    groups: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_sets(self) -> int:
        return len(self.set_ids)

    @cached_property
    def join_index(self) -> kernels.JoinIndex:
        """The join search's relation indexes, built on first use."""
        return kernels.build_index(self.sizes, self.relations)

    @cached_property
    def bruteforce_index(self):
        """Brute force's key arrays, built (and its module imported) on first use."""
        from . import bruteforce
        return bruteforce.build_index(self.sizes, self.relations)

    def fixed_from(self, partial: Instance) -> list[int]:
        """Value index per set, -1 where the partial leaves the set free."""
        fixed = [-1] * self.n_sets
        for sid, value in partial.assignment:
            if sid not in self.set_index:
                raise ScopeMismatchError(f"instance assigns unknown set {sid!r}")
            i = self.set_index[sid]
            vi = self.value_index[i].get(value)
            if vi is None:
                raise ScopeMismatchError(f"value {value!r} not in set {sid!r}")
            fixed[i] = vi
        return fixed

    def instance_from_row(self, row: tuple[int, ...]) -> Instance:
        return Instance({
            sid: vs.values[v] for sid, vs, v in zip(self.set_ids, self.network.sets, row)
        })

    def target_positions(self, target: frozenset[str]) -> list[int]:
        """Set positions of the target, ascending; refused when the target's
        value space would overflow an int64 projection key."""
        ordered = self.network.set_order(target)
        positions = [self.set_index[sid] for sid in ordered]
        space = 1
        for i in reversed(positions):
            space *= self.sizes[i]
            if space > _KEY_LIMIT:
                raise KeyOverflowError(
                    f"projection target {{{','.join(ordered)}}} "
                    "space exceeds the engine's 2^62 key limit")
        return positions


@lru_cache(maxsize=64)
def encode(network: Network) -> EncodedNetwork:
    """Encode a network, validating it first."""
    report = validate(network)
    if not report.ok:
        raise InvalidNetworkError(report.errors)

    set_ids = tuple(vs.id for vs in network.sets)
    set_index = {sid: i for i, sid in enumerate(set_ids)}
    sizes = tuple(len(vs.values) for vs in network.sets)
    value_index = tuple({v: i for i, v in enumerate(vs.values)} for vs in network.sets)

    values = [vs.values for vs in network.sets]
    relations = []
    for rel, keys in zip(network.relations, network._row_keys):
        scope = [set_index[sid] for sid in rel.scope]
        strides, space = mixed_radix(scope, values)
        if space > _KEY_LIMIT:
            raise KeyOverflowError(
                f"relation {rel.id!r} scope space of {space} value combinations "
                "exceeds the engine's 2^62 key limit")
        relations.append((tuple(scope), tuple(strides), tuple(sorted(keys))))

    return EncodedNetwork(
        network=network,
        set_ids=set_ids,
        set_index=set_index,
        sizes=sizes,
        value_index=value_index,
        relations=tuple(relations),
    )
