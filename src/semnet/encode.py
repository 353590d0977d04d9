"""Integer encoding of networks for the search engines.

Sets become contiguous indices in declaration order, values become indices
into their set. Each relation is encoded on its own, as its scope's set
positions, a mixed-radix stride per position and the sorted tuple of its
row keys, where a row key is the stride-weighted sum of the row's value
indices. The keys and strides are the ones the network memoises
(``model.row_keys``, computed while ``parse`` or :func:`validate` checked
the rows), so encoding only sorts the keys. Each engine builds its own
index from these tuples on its first search of a network and keeps it on
the encoding: the join search's per-relation dicts
(``kernels.build_index``) and brute force's key arrays
(``bruteforce.build_index``). The consistent table T that each engine
builds for the property checkers is kept there too, and so is T's
layout by each anchor scope a checker reads, with the decisions made
from it, and the one ``Instance`` of each row of T that a decision holds
as evidence (:meth:`EncodedNetwork.kept_instance`) and of each anchor
that it holds as a witness (:meth:`EncodedNetwork.kept_anchor`), so
every decision and report of the encoding shares it, with its rendered
text, and all are freed with the cache entry. The engine's own
completions build fresh instances and keep none. What the engine
prepares per call (fixed value indices, target positions) stays in plain
Python ints, and a projection onto a target is a tuple of value indices,
so only a relation scope whose value space passes 2^62 is refused
(``KeyOverflowError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import kernels
from .errors import InvalidNetworkError, KeyOverflowError, ScopeMismatchError
from .model import Instance, Network, validate

__all__ = ["EncodedNetwork", "encode"]

# Brute force's row keys are int64; both engines refuse relation scopes
# whose product could wrap.
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
    # Per engine module: the smallest budget known to admit the build of
    # the consistent table T, and T (``engine.consistent_table``).
    tables: dict = field(default_factory=dict, compare=False, repr=False)
    # Per (engine module, anchor scope): T's whole layout by that scope,
    # with each group's outcomes per target columns and the verdict
    # decisions made from it, each kept once a checker reads it
    # (``properties._Layout``); it refers to no encoding.
    groups: dict = field(default_factory=dict, compare=False, repr=False)
    # Per row of T (value indices) that a decision holds as evidence, its
    # one Instance (``kept_instance``), shared by every decision and report.
    instances: dict = field(default_factory=dict, compare=False, repr=False)
    # Per (anchor scope, value indices) that a decision holds as its
    # witness anchor, its one Instance (``kept_anchor``), shared alike.
    anchors: dict = field(default_factory=dict, compare=False, repr=False)

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

    @cached_property
    def by_id(self) -> tuple[int, ...]:
        """The set positions in set-id order, the order of an instance's
        pairs; computed once, when the first instance is built."""
        return tuple(sorted(range(self.n_sets), key=self.set_ids.__getitem__))

    def instance_from_row(self, row: tuple[int, ...]) -> Instance:
        """The full instance at value indices ``row``, its pairs built in
        set-id order (``by_id``)."""
        ids, sets = self.set_ids, self.network.sets
        return Instance._sorted(tuple([(ids[i], sets[i].values[row[i]]) for i in self.by_id]))

    def kept_instance(self, row: tuple[int, ...]) -> Instance:
        """``instance_from_row(row)``, built once per encoding and kept in
        ``instances``: the property checkers' evidence rows."""
        instance = self.instances.get(row)
        if instance is None:
            instance = self.instances[row] = self.instance_from_row(row)
        return instance

    def kept_anchor(self, scope: tuple[str, ...], key: tuple[int, ...]) -> Instance:
        """The instance over ``scope``, set ids each named once, at value
        indices ``key``, built once per encoding and kept in ``anchors``:
        the property checkers' witness anchors."""
        instance = self.anchors.get((scope, key))
        if instance is None:
            sets, index = self.network.sets, self.set_index
            instance = self.anchors[scope, key] = Instance._sorted(tuple(sorted(
                [(sid, sets[index[sid]].values[k]) for sid, k in zip(scope, key)])))
        return instance


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

    relations = []
    for rel, keys, strides in zip(network.relations, network._row_keys, network._strides):
        scope = tuple(map(set_index.__getitem__, rel.scope))
        space = strides[0] * sizes[scope[0]] if scope else 1
        if space > _KEY_LIMIT:
            raise KeyOverflowError(
                f"relation {rel.id!r} scope space of {space} value combinations "
                "exceeds the engine's 2^62 key limit")
        relations.append((scope, strides, tuple(sorted(keys))))

    return EncodedNetwork(
        network=network,
        set_ids=set_ids,
        set_index=set_index,
        sizes=sizes,
        value_index=value_index,
        relations=tuple(relations),
    )
