"""Integer encoding of networks for the array-based engines.

Sets become contiguous indices in declaration order, values become indices
into their set. Each relation is stored as a sorted array of row keys,
where a row key is the mixed-radix encoding of the row's value indices
over the relation's scope. The join search's per-relation indexes
(``kernels.build_index``) are built from these arrays on a network's first
search and kept on its encoding. What the engine prepares per call (set
sizes, fixed value indices, projection strides) stays in plain Python
ints, since one call's search is too small to repay numpy's fixed costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import InvalidNetworkError, KeyOverflowError, ScopeMismatchError
from .model import Instance, Network, validate

__all__ = ["EncodedNetwork", "encode"]

# Row keys and space sizes are int64; reject scopes whose product could wrap.
_KEY_LIMIT = 2**62


@dataclass(frozen=True)
class EncodedNetwork:
    network: Network
    set_ids: tuple[str, ...]
    set_index: dict[str, int]
    sizes: tuple[int, ...]      # (n_sets,) domain size per set
    value_index: tuple[dict[str, int], ...]
    scope_flat: np.ndarray      # set indices, all relation scopes concatenated
    scope_strides: np.ndarray   # mixed-radix stride per scope position
    scope_start: np.ndarray     # (n_rels + 1,) slice bounds into scope_flat
    rowkeys_flat: np.ndarray    # sorted row keys, all relations concatenated
    rowkeys_start: np.ndarray   # (n_rels + 1,) slice bounds into rowkeys_flat

    @property
    def n_sets(self) -> int:
        return len(self.set_ids)

    @cached_property
    def join_index(self) -> kernels.JoinIndex:
        """The join search's relation indexes, built on first use."""
        return kernels.build_index(self.sizes, self.scope_flat, self.scope_strides,
                                   self.scope_start, self.rowkeys_flat,
                                   self.rowkeys_start)

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

    def space_size(self, fixed: list[int]) -> int:
        """Number of candidate full instances extending the fixed value
        indices (a :meth:`fixed_from` list)."""
        return math.prod(size for size, value in zip(self.sizes, fixed) if value < 0)

    def instance_from_row(self, row: np.ndarray) -> Instance:
        return Instance({
            sid: self.network.sets[i].values[int(row[i])]
            for i, sid in enumerate(self.set_ids)
        })

    def target_strides(self, target: frozenset[str]) -> tuple[list[int], int]:
        """Projection-key strides over the target sets; 0 elsewhere.

        Returns the stride per set as a list and the size of the target
        value space.
        """
        strides = [0] * self.n_sets
        stride = 1
        for sid in reversed(self.network.set_order(target)):
            i = self.set_index[sid]
            strides[i] = stride
            stride *= self.sizes[i]
            if stride > _KEY_LIMIT:
                raise KeyOverflowError(
                    f"projection target {{{','.join(self.network.set_order(target))}}} "
                    "space exceeds the engine's 2^62 key limit")
        return strides, stride


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

    scope_flat: list[int] = []
    scope_strides: list[int] = []
    scope_start = [0]
    rowkeys_flat: list[int] = []
    rowkeys_start = [0]

    for r, rel in enumerate(network.relations):
        scope = [set_index[sid] for sid in rel.scope]
        strides = [0] * len(scope)
        stride = 1
        for j in range(len(scope) - 1, -1, -1):
            strides[j] = stride
            stride *= sizes[scope[j]]
        if stride > _KEY_LIMIT:
            raise KeyOverflowError(
                f"relation {rel.id!r} scope space of {stride} value combinations "
                "exceeds the engine's 2^62 key limit")
        scope_flat.extend(scope)
        scope_strides.extend(strides)
        scope_start.append(len(scope_flat))
        keys = [0] * len(rel.rows)
        for s, st, column in zip(scope, strides, zip(*rel.rows)):
            index = value_index[s]
            keys = [key + st * index[v] for key, v in zip(keys, column)]
        keys.sort()
        rowkeys_flat.extend(keys)
        rowkeys_start.append(len(rowkeys_flat))

    return EncodedNetwork(
        network=network,
        set_ids=set_ids,
        set_index=set_index,
        sizes=sizes,
        value_index=value_index,
        scope_flat=np.array(scope_flat, dtype=np.int64),
        scope_strides=np.array(scope_strides, dtype=np.int64),
        scope_start=np.array(scope_start, dtype=np.int64),
        rowkeys_flat=np.array(rowkeys_flat, dtype=np.int64),
        rowkeys_start=np.array(rowkeys_start, dtype=np.int64),
    )
