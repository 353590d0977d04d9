"""Core data model: networks of finite value sets joined by extensional relations.

A network is a bipartite graph. Value-set nodes carry a finite, ordered list
of symbolic values. Relation nodes consume values from their ``in_sets`` and
emit values to their ``out_sets``; a relation's meaning is exactly its row
list, one row per admitted combination. A full instance assigns one value to
every set; it is consistent when its projection onto every relation's scope
is a row of that relation. The ``data_selection`` marks the sets that play
the role of stored data when properties are checked.

All types are immutable and hashable; all operations are pure. A
``Network`` memoises per instance, on first use, its hash (the same value
as the hash of its fields), its :func:`validate` report, its
relations' row keys (:func:`row_keys`) and their strides, both handed
over by ``netdef.parse``, and the checkers' resolved scopes. It never
pickles or copies the memos, since str hashes differ between processes.
Constructors accept structurally broken input (dangling references,
cycles, duplicate rows): :func:`validate` reports such defects instead of
raising, so parsed files can be diagnosed in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add

__all__ = [
    "ValueSet",
    "Relation",
    "Network",
    "Instance",
    "ValidationIssue",
    "ValidationReport",
    "StructuralFlags",
    "validate",
    "sources",
    "sinks",
    "structural_flags",
]


@dataclass(frozen=True)
class ValueSet:
    """A named, ordered, finite domain of symbolic values."""

    id: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class Relation:
    """An extensional relation between value sets.

    ``rows`` are tuples over ``in_sets + out_sets`` in that order. Scope
    lists keep declaration order; the set of rows is the whole semantics.
    """

    id: str
    in_sets: tuple[str, ...]
    out_sets: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "in_sets", tuple(self.in_sets))
        object.__setattr__(self, "out_sets", tuple(self.out_sets))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))

    @property
    def scope(self) -> tuple[str, ...]:
        return self.in_sets + self.out_sets


@dataclass(frozen=True)
class Network:
    """A named collection of value sets, relations and a data selection."""

    name: str
    sets: tuple[ValueSet, ...]
    relations: tuple[Relation, ...]
    data_selection: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "data_selection", frozenset(self.data_selection))

    def value_set(self, set_id: str) -> ValueSet:
        for vs in self.sets:
            if vs.id == set_id:
                return vs
        raise KeyError(set_id)

    def set_order(self, set_ids) -> tuple[str, ...]:
        """The given set-ids in declaration order."""
        wanted = set(set_ids)
        return tuple(vs.id for vs in self.sets if vs.id in wanted)

    @cached_property
    def _validation(self) -> ValidationReport:
        """This instance's :func:`validate` report, computed on first use."""
        return _validate(self)

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, computed on first use."""
        return hash((self.name, self.sets, self.relations, self.data_selection))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _row_keys(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per relation, :func:`row_keys` of its rows at its ``_strides``,
        or None when a scope set is undeclared; computed on first use
        unless ``parse`` set it."""
        values = {vs.id: vs.values for vs in reversed(self.sets)}  # first declaration wins
        memo: dict = {}
        return tuple(None if strides is None else row_keys(
            row_columns(rel.rows, len(rel.scope)), scope_weights(rel.scope, values, memo, strides),
            len(rel.rows)) for rel, strides in zip(self.relations, self._strides))

    @cached_property
    def _strides(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per relation, its scope's :func:`mixed_radix` strides, the layout
        of its row keys, or None when a scope set is undeclared; computed
        on first use unless ``parse`` set them beside the keys."""
        values = {vs.id: vs.values for vs in reversed(self.sets)}
        return tuple(tuple(mixed_radix(rel.scope, values)[0])
                     if values.keys() >= set(rel.scope) else None for rel in self.relations)

    @cached_property
    def _scopes(self) -> dict:
        """Scopes resolved by ``properties._scope``, in declaration order,
        keyed by their set ids, only resolutions that succeeded; and the
        :func:`sinks` and :func:`sources`, keyed by those functions."""
        return {}

    def __getstate__(self) -> dict:
        # Pickles and copies carry the fields only, never the memos.
        state = dict(self.__dict__)
        for memo in ("_validation", "_hash", "_row_keys", "_strides", "_scopes"):
            state.pop(memo, None)
        return state


@dataclass(frozen=True)
class Instance:
    """A partial assignment of values to sets; the scope is the key set.

    ``assignment`` holds the ``(set id, value)`` pairs sorted by set id;
    a repeated set id is refused with ``ValueError``."""

    assignment: tuple[tuple[str, str], ...]

    def __init__(self, assignment=()) -> None:
        if isinstance(assignment, dict):
            items = tuple(sorted(assignment.items()))
        else:
            items = tuple(sorted(tuple(p) for p in assignment))
            if len({k for k, _ in items}) != len(items):
                raise ValueError(f"an instance repeats a set id: {items}")
        object.__setattr__(self, "assignment", items)

    @classmethod
    def _sorted(cls, items: tuple[tuple[str, str], ...]) -> Instance:
        """The instance of ``items``, pairs already sorted by set id and
        each id once, taken as they are."""
        instance = object.__new__(cls)
        object.__setattr__(instance, "assignment", items)
        return instance

    @property
    def scope(self) -> frozenset[str]:
        return frozenset(k for k, _ in self.assignment)

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)

    def __getitem__(self, set_id: str) -> str:
        for k, v in self.assignment:
            if k == set_id:
                return v
        raise KeyError(set_id)

    def __contains__(self, set_id: str) -> bool:
        return any(k == set_id for k, _ in self.assignment)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    location: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...] = field(default=())
    warnings: tuple[ValidationIssue, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class StructuralFlags:
    is_acyclic: bool
    is_contiguous: bool


def validate(network: Network) -> ValidationReport:
    """Check a raw network; empty ``errors`` means the engine can use it.

    The report is memoised on the ``Network`` instance, so validating the
    same instance again (as :func:`semnet.encode` does after a caller has
    validated) costs nothing. The memo lives and dies with the instance:
    an equal network parsed or built anew is validated afresh, and pickles
    and copies do not carry it.
    """
    return network._validation


def _validate(network: Network) -> ValidationReport:
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    seen_sets: dict[str, ValueSet] = {}
    domains: dict[str, frozenset[str]] = {}
    for vs in network.sets:
        loc = f"set {vs.id}"
        if vs.id in seen_sets:
            errors.append(ValidationIssue("DUPLICATE_ID", f"set id {vs.id!r} declared twice", loc))
            continue
        seen_sets[vs.id] = vs
        domains[vs.id] = frozenset(vs.values)
        if not vs.values:
            errors.append(ValidationIssue("EMPTY_SET", f"set {vs.id!r} has no values", loc))
        dup = _first_duplicate(vs.values)
        if dup is not None:
            errors.append(ValidationIssue("DUPLICATE_VALUE", f"value {dup!r} repeated in set {vs.id!r}", loc))

    seen_rels: set[str] = set()
    for rel, keys in zip(network.relations, network._row_keys):
        loc = f"rel {rel.id}"
        if rel.id in seen_rels:
            errors.append(ValidationIssue("DUPLICATE_ID", f"relation id {rel.id!r} declared twice", loc))
            continue
        seen_rels.add(rel.id)
        dangling = False
        for sid in rel.scope:
            if sid not in seen_sets:
                errors.append(ValidationIssue("UNKNOWN_SET", f"relation {rel.id!r} references unknown set {sid!r}", loc))
                dangling = True
        for part, ids in (("in", rel.in_sets), ("out", rel.out_sets)):
            dup = _first_duplicate(ids)
            if dup is not None:
                errors.append(ValidationIssue(
                    "DUPLICATE_SCOPE_SET", f"set {dup!r} repeated in {part}-scope of relation {rel.id!r}", loc))
                dangling = True
        overlap = set(rel.in_sets) & set(rel.out_sets)
        if overlap:
            errors.append(ValidationIssue(
                "IN_OUT_OVERLAP",
                f"sets {sorted(overlap)} appear on both sides of relation {rel.id!r}", loc))
        if not rel.rows:
            warnings.append(ValidationIssue("EMPTY_RELATION", f"relation {rel.id!r} admits no rows", loc))
        if dangling or keys is not None:
            continue  # row checks need resolvable scope sets; keys mean no defect
        scope = rel.scope
        arity = len(scope)
        scope_domains = [domains[sid] for sid in scope]
        seen_rows: set[tuple[str, ...]] = set()
        for i, row in enumerate(rel.rows):
            if len(row) != arity:
                errors.append(ValidationIssue(
                    "MALFORMED_ROW", f"row has {len(row)} values, scope needs {arity}",
                    f"rel {rel.id} row {i + 1}"))
                continue
            bad = None
            for sid, domain, v in zip(scope, scope_domains, row):
                if v not in domain:
                    bad = f"{v!r} not in set {sid!r}"
                    break
            if bad is not None:
                errors.append(ValidationIssue("MALFORMED_ROW", bad, f"rel {rel.id} row {i + 1}"))
                continue
            if row in seen_rows:
                errors.append(ValidationIssue(
                    "DUPLICATE_ROW", f"row {row!r} repeated", f"rel {rel.id} row {i + 1}"))
            seen_rows.add(row)

    for sid in sorted(network.data_selection):
        if sid not in seen_sets:
            errors.append(ValidationIssue(
                "DATA_UNKNOWN_SET", f"data selection references unknown set {sid!r}", "data"))
    if not network.data_selection:
        warnings.append(ValidationIssue("EMPTY_DATA", "data selection is empty", "data"))

    cycle = _find_cycle(network)
    if cycle is not None:
        errors.append(ValidationIssue(
            "CYCLE", "cyclic dependency: " + " -> ".join(cycle), "network"))

    if not _is_contiguous(network):
        warnings.append(ValidationIssue(
            "NOT_CONTIGUOUS", "network splits into disconnected components", "network"))

    return ValidationReport(tuple(errors), tuple(warnings))


def sources(network: Network) -> frozenset[str]:
    """Sets no relation writes to."""
    written = {sid for rel in network.relations for sid in rel.out_sets}
    return frozenset(vs.id for vs in network.sets if vs.id not in written)


def sinks(network: Network) -> frozenset[str]:
    """Sets no relation reads from."""
    read = {sid for rel in network.relations for sid in rel.in_sets}
    return frozenset(vs.id for vs in network.sets if vs.id not in read)


def structural_flags(network: Network) -> StructuralFlags:
    return StructuralFlags(
        is_acyclic=_find_cycle(network) is None,
        is_contiguous=_is_contiguous(network),
    )


def mixed_radix(scope, values) -> tuple[list[int], int]:
    """The mixed-radix stride of each set of ``scope``, whose values
    ``values[set]`` lists, the last set varying fastest, and the scope's
    value space: the layout of every row key."""
    strides = []
    space = 1
    for s in reversed(scope):
        strides.append(space)
        space *= len(values[s])
    strides.reverse()
    return strides, space


def scope_weights(scope, values, memo, strides) -> list[dict[str, int]]:
    """Per set id of ``scope``, each of its ``values[sid]`` to its index
    times the set's stride in the scope, from ``strides`` (the scope's
    :func:`mixed_radix` strides). ``memo`` keeps each (set id, stride)
    dict, built once for every scope that needs it."""
    weights = []
    for sid, stride in zip(scope, strides):
        weight = memo.get((sid, stride))
        if weight is None:
            domain = values[sid]
            weight = memo[sid, stride] = dict(zip(domain, range(0, len(domain) * stride, stride)))
        weights.append(weight)
    return weights


def row_columns(rows, arity) -> list | None:
    """``rows`` as ``arity`` columns, each holding one scope set's values in
    row order, or None if a row has another arity."""
    if set(map(len, rows)) - {arity}:
        return None
    return list(zip(*rows)) or [()] * arity


def row_keys(columns, weights, count) -> tuple[int, ...] | None:
    """The key of each of ``count`` rows given as :func:`row_columns`: the
    sum of its values' :func:`scope_weights`. None if ``columns`` is None
    (a row of the wrong arity), a value is outside its column's set, or a
    row repeats, which shows as a repeated key. The walk is C-level, one
    ``map`` per column, so a clean relation costs no per-row Python work;
    :func:`validate` and ``netdef.parse`` walk the rows of a None one by
    one, to report each defect in order."""
    if columns is None:
        return None
    if weights:
        key = map(weights[0].__getitem__, columns[0])
        for weight, column in zip(weights[1:], columns[1:]):
            key = map(add, key, map(weight.__getitem__, column))
        try:
            keys = tuple(key)
        except KeyError:
            return None
    else:
        keys = (0,) * count
    return keys if len(set(keys)) == len(keys) else None


def with_row_keys(network: Network, keys, strides) -> Network:
    """``network`` with its row-key memo set to ``keys`` and its stride memo
    to ``strides``, one of each per relation."""
    network.__dict__.update(_row_keys=tuple(keys), _strides=tuple(strides))
    return network


def _first_duplicate(items) -> str | None:
    seen: set[str] = set()
    for it in items:
        if it in seen:
            return it
        seen.add(it)
    return None


def _find_cycle(network: Network) -> list[str] | None:
    """Return a closed node path (sets and relations alternating) or None.

    Edges run set -> relation for inputs and relation -> set for outputs.
    """
    # Nodes are ints: one per relation id and one per set id, numbered as
    # first met. ``roots`` lists the nodes with out-edges in the order they
    # got their first, the order the walk starts from.
    names: list[str] = []
    edges: list[list[int]] = []
    rels: dict[str, int] = {}
    sets: dict[str, int] = {}
    roots: dict[int, None] = {}
    for rel in network.relations:
        r = rels.get(rel.id)
        if r is None:
            r = rels[rel.id] = len(names)
            names.append(rel.id)
            edges.append([])
        for sid in rel.in_sets:
            s = sets.get(sid)
            if s is None:
                s = sets[sid] = len(names)
                names.append(sid)
                edges.append([r])
            else:
                edges[s].append(r)
            roots[s] = None
        roots[r] = None
        out = edges[r]
        for sid in rel.out_sets:
            s = sets.get(sid)
            if s is None:
                s = sets[sid] = len(names)
                names.append(sid)
                edges.append([])
            out.append(s)

    # Depth-first with an explicit path and one edge iterator per path node,
    # so a long chain does not recurse. A node's state is 1 on the path,
    # 2 once done.
    state = bytearray(len(names))
    for root in roots:
        if state[root]:
            continue
        path, todo = [root], [iter(edges[root])]
        state[root] = 1
        while todo:
            nxt = next(todo[-1], None)
            if nxt is None:
                state[path.pop()] = 2
                todo.pop()
            elif state[nxt] == 1:
                return [names[n] for n in path[path.index(nxt):] + [nxt]]
            elif not state[nxt]:
                state[nxt] = 1
                path.append(nxt)
                todo.append(iter(edges[nxt]))
    return None


def _is_contiguous(network: Network) -> bool:
    """Weak connectivity; isolated sets count only if selected as data."""
    declared = {vs.id for vs in network.sets}
    # Nodes are ints: one per relation id and one per declared set in a
    # relation's scope, each set joined to the relations that hold it.
    neighbours: list[list[int]] = []
    rels: dict[str, int] = {}
    sets: dict[str, int] = {}
    for rel in network.relations:
        r = rels.get(rel.id)
        if r is None:
            r = rels[rel.id] = len(neighbours)
            neighbours.append([])
        for sid in rel.scope:
            if sid in declared:
                s = sets.get(sid)
                if s is None:
                    s = sets[sid] = len(neighbours)
                    neighbours.append([])
                neighbours[r].append(s)
                neighbours[s].append(r)
    isolated = len(network.data_selection & declared - sets.keys())
    if len(neighbours) + isolated <= 1:
        return True
    if isolated:
        return False
    seen = bytearray(len(neighbours))
    seen[0] = 1
    todo = [0]
    while todo:
        for nxt in neighbours[todo.pop()]:
            if not seen[nxt]:
                seen[nxt] = 1
                todo.append(nxt)
    return all(seen)
