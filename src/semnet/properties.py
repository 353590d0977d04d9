"""Property checkers: functional, total, injective, surjective (plain and
per-value), and minimal data selections — with witness extraction.

Every checker quantifies over instances of an anchor scope and counts
consistent completions (FULL mode) or their distinct projections onto a
target scope (PROJECTED mode). Verdicts are deterministic, including
witness content and order: the witness is always the first counterexample
in lexicographic declaration order; minimality instead names every
redundant set. Evidence instances are always consistent full instances.

Each kind has one slot in :data:`_SLOTS`: the question that decides it
(``"distinct"``, ``"covered"`` or ``"minimal"``) and the function that
decides that question, its anchor scope and target (from/to, to/from or
``(param,)``), and its witness note. :func:`_verdict` turns a query into
its verdict through its slot; a public checker makes one such call, and
``check_suite`` one per verdict, so there is one decision path.

A public checker resolves its scopes in :func:`_query`, through
:func:`_scope`, which keeps each resolution on the network, as
:func:`_boundary` keeps the sinks and sources; ``check_suite`` resolves
its from and to scopes once and builds every query itself. Each verdict
reads one :class:`_Plan`: the encoding, whose lookup validates the
network; the consistent table T, built once per encoding and engine under
the budget (``engine.consistent_table``); and the engine module that
built T. A public checker asks for the plan of its one verdict, and
``check_suite`` asks once, at its first verdict. Errors come in that
order: an unknown scope, an empty from scope for minimality, then T's
budget. :func:`_layout` lays T out by the anchor scope, once per
encoding, engine and scope, shared by every checker over that scope: the
scope's value space and T grouped by anchor. The layout also keeps, per
target, each group's distinct target values, shared by PROJECTED
functional, injective and minimality, and the decisions made from it, so
every suite and checker of the encoding decides each question once per
layout: coverage once (total from S, surjective to S, and surjective-in
when S is the one param set all read it), distinctness and minimality
once per target columns, or once in FULL mode, which reads no target
(functional S→R and injective R→S read the same one). A decision holds
the witness anchor, its evidence and instances_checked, or minimality's
witnesses; each call builds its own verdict, with its kind's note, from
it, and asks for T under its own budget before it reads a decision.

Anchors are value-index tuples; only a witness anchor becomes an
``Instance``. Witness instances are built from T's rows with their pairs
already in set-id order (``EncodedNetwork.instance_from_row`` through the
encoding's permutation of its set ids, an anchor by its scope's sort).
An evidence row's instance is built once per encoding and kept there
(``EncodedNetwork.kept_instance``), and so is a witness anchor's, per
anchor scope and value indices (``EncodedNetwork.kept_anchor``), so
decisions that fail on the same rows or anchor, FULL and PROJECTED or
join and brute force, hold one instance, which the report renders once;
minimality's ``redundant:<set>`` witnesses share one empty anchor.
Functional and injective fail the first anchor with two or more distinct
outcomes; its first row and the first with another outcome are its
evidence. Total, surjective and surjective-in walk the anchors only up
to the first one the grouping lacks; minimality counts each anchor's
outcomes from its group, and settles a one-valued set without a walk.
Outcomes are tuples of T's columns, so no target is refused for the
size of its space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, itemgetter, mul
from typing import Iterable, NamedTuple

from .encode import EncodedNetwork, encode

# count_distinct, distinct_representatives and first_completions are not
# called here; they stay importable for wrappers of this module's engine calls.
from .engine import (CountMode, Engine, Limits, _backend, consistent_table,  # noqa: F401
                     count_distinct, distinct_representatives, first_completions, known_sets)
from .errors import ScopeMismatchError
from .model import Instance, Network, mixed_radix, sinks, sources

__all__ = [
    "Direction",
    "PropertyKind",
    "PropertyQuery",
    "Verdict",
    "Witness",
    "check_functional",
    "check_injective",
    "check_minimal",
    "check_suite",
    "check_surjective",
    "check_surjective_in",
    "check_total",
]

_DEFAULT_LIMITS = Limits()
# CountMode.FULL, read per new (anchor scope, target) pair: a member read
# through its class runs Enum's Python-level lookup.
_FULL = CountMode.FULL


class PropertyKind(Enum):
    FUNCTIONAL = "functional"
    TOTAL = "total"
    INJECTIVE = "injective"
    SURJECTIVE = "surjective"
    SURJECTIVE_IN = "surjective_in"
    MINIMAL = "minimal"


# Read per kind of a suite, and per query.
_SURJECTIVE_IN, _INJECTIVE = PropertyKind.SURJECTIVE_IN, PropertyKind.INJECTIVE


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class PropertyQuery:
    kind: PropertyKind
    from_scope: tuple[str, ...]
    to_scope: tuple[str, ...]
    mode: CountMode
    param: str | None = None

    def __post_init__(self) -> None:
        if (self.param is not None) != (self.kind is _SURJECTIVE_IN):
            raise ValueError("param is required for SURJECTIVE_IN and only there")


@dataclass(frozen=True)
class Witness:
    anchor: Instance
    evidence: tuple[Instance, ...]
    note: str


@dataclass(frozen=True)
class Verdict:
    query: PropertyQuery
    holds: bool
    witnesses: tuple[Witness, ...]
    instances_checked: int


def _scope(network: Network, scope: Iterable[str]) -> tuple[str, ...]:
    """Normalise a scope to declaration order. The network keeps each
    resolution by its set ids, so only a scope naming an unknown set is
    resolved, and refused, again."""
    ids = frozenset(scope)
    known = network._scopes.get(ids)
    if known is None:
        known = network._scopes[ids] = network.set_order(known_sets(network, ids, "scope"))
    return known


def _boundary(network: Network, side) -> tuple[str, ...]:
    """The network's :func:`sinks` or :func:`sources` (``side``) in
    declaration order, kept on the network beside its resolved scopes."""
    known = network._scopes.get(side)
    if known is None:
        known = network._scopes[side] = network.set_order(side(network))
    return known


def _query(kind: PropertyKind, network: Network, from_scope: Iterable[str] | None,
           to_scope: Iterable[str] | None, mode: CountMode,
           param: str | None = None) -> PropertyQuery:
    """A query from the data selection to the sinks, or to ``(param,)``
    for surjective-in, unless scopes are given; each default is computed
    only when its scope is omitted."""
    if to_scope is None:
        to_scope = _boundary(network, sinks) if param is None else (param,)
    return PropertyQuery(
        kind, _scope(network, network.data_selection if from_scope is None else from_scope),
        _scope(network, to_scope), mode, param)


class _Plan(NamedTuple):
    """What every verdict of one check reads: the encoding, whose lookup
    validated the network, so every set has values; T under the check's
    budget; and the engine module that built T, which keys T's layouts."""

    enc: EncodedNetwork
    table: list[tuple[int, ...]]
    backend: object


def _plan(network: Network, limits: Limits, engine: Engine) -> _Plan:
    """The plan of a check. T is asked for on every call
    (:func:`consistent_table`), so a smaller budget builds it again."""
    enc = encode(network)
    return _Plan(enc, consistent_table(network, limits, engine), _backend(enc, engine)[0])


class _Layout(NamedTuple):
    """T laid out by one anchor scope: the scope's value lists, their
    :func:`mixed_radix` strides and the anchor space; T's rows grouped by
    anchor, each group in T's order and the groups in anchor order; the
    anchors with two or more rows, in order; per target columns, each
    group's distinct values there (:func:`_outcomes`), built on first use;
    and the decisions made from the layout, per question and target
    columns (None where the question reads no target), made on first use
    by :func:`_decide_covered`, :func:`_decide_distinct` and
    :func:`_decide_minimal`. A decision holds what the question alone
    fixes, so every kind that asks it shares it; the query and the
    witness note are the caller's."""

    values: list
    strides: list[int]
    space: int
    groups: dict[tuple[int, ...], list]
    multi: list[tuple[int, ...]]
    outcomes: dict[tuple[int, ...], dict]
    decided: dict[tuple[str, tuple[int, ...] | None], tuple]


def _layout(network: Network, plan: _Plan, scope: tuple[str, ...]) -> _Layout:
    """T's :class:`_Layout` over the anchor ``scope``, kept on the
    encoding per backend and anchor scope, so it is freed with T. A scope
    is in declaration order, so it names one tuple of T's columns, which
    only a new layout looks up. The layout holds no reference to the
    encoding, so it needs no collector to go."""
    enc = plan.enc
    key = (plan.backend, scope)
    layout = enc.groups.get(key)
    if layout is None:
        at = tuple(enc.set_index[sid] for sid in scope)
        values = [network.sets[i].values for i in at]
        anchor = _columns(at)
        groups: dict[tuple[int, ...], list] = {}
        for row in plan.table:
            groups.setdefault(anchor(row), []).append(row)
        groups = dict(sorted(groups.items()))
        layout = enc.groups[key] = _Layout(
            values, *mixed_radix(range(len(values)), values), groups,
            [k for k, group in groups.items() if len(group) > 1], {}, {})
    return layout


def _outcomes(layout: _Layout, columns: tuple[int, ...]) -> dict:
    """Per anchor of ``layout``, the distinct values of its rows at
    ``columns``: its PROJECTED outcomes, kept in the layout."""
    known = layout.outcomes.get(columns)
    if known is None:
        outcome = _columns(columns)
        known = layout.outcomes[columns] = {
            key: set(map(outcome, group)) for key, group in layout.groups.items()}
    return known


def _verdict(network: Network, plan: _Plan, query: PropertyQuery, slot: tuple) -> Verdict:
    """``query``'s verdict through its kind's ``slot`` of :data:`_SLOTS`.
    The anchor scope's layout (:func:`_layout`) keeps the question's
    decision per target columns of T, None in FULL mode, whose outcomes
    are whole rows, and for a covered question, which reads no target;
    the decision is made on first use, and the verdict and its witness
    are built from it."""
    question, decide, scopes, note = slot
    pair = scopes(query)
    layout = _layout(network, plan, pair[0])
    columns = None if question == "covered" or query.mode is _FULL else tuple(
        map(plan.enc.set_index.__getitem__, pair[1]))
    decision = layout.decided.get((question, columns))
    if decision is None:
        decision = layout.decided[question, columns] = decide(plan.enc, layout, *pair, columns)
    anchor, evidence, checked = decision
    if note is None:  # minimality: the decision holds the redundant sets' witnesses
        witnesses = anchor
    else:
        witnesses = () if anchor is None else (
            _made(Witness, anchor=anchor, evidence=evidence, note=note),)
    return _made(Verdict, query=query, holds=not witnesses, witnesses=witnesses,
                 instances_checked=checked)


def _made(cls, **fields):
    """A ``cls``, a frozen dataclass of this module, holding ``fields``,
    which its caller built valid: equal to, and hashing as, the instance
    ``cls(**fields)`` would build, without its ``__init__``, which sets
    each field through ``object.__setattr__`` (and a query checks its
    param) at about the cost of reading a kept decision."""
    made = object.__new__(cls)
    made.__dict__.update(fields)
    return made


def _decide_distinct(enc: EncodedNetwork, layout: _Layout, scope: tuple[str, ...],
                     target: tuple[str, ...], columns: tuple[int, ...] | None) -> tuple:
    """Whether every anchor over ``scope`` has at most one outcome over
    ``target``: the decision ``(anchor, evidence, instances_checked)``,
    anchor None when it holds. Only an anchor with two or more rows
    can fail, so those are walked in order up to the first with two or
    more distinct outcomes: its rows (FULL, ``columns`` None; T's rows are
    distinct) or their values at ``columns`` (PROJECTED,
    :func:`_outcomes`). That anchor's group is scanned for the first row
    with another outcome than its first; each group is in lexicographic
    order, so those two rows are the anchor's first two completions with
    distinct outcomes, its evidence."""
    if columns is None:
        outcomes, outcome = layout.groups, lambda row: row
    else:
        outcomes, outcome = _outcomes(layout, columns), _columns(columns)
    key = next((key for key in layout.multi if len(outcomes[key]) > 1), None)
    if key is None:
        return None, (), layout.space
    group = layout.groups[key]
    first = outcome(group[0])
    other = next(row for row in itertools.islice(group, 1, None) if outcome(row) != first)
    return (enc.kept_anchor(scope, key),
            (enc.kept_instance(group[0]), enc.kept_instance(other)),
            sum(map(mul, key, layout.strides)) + 1)


def _decide_covered(enc: EncodedNetwork, layout: _Layout, scope: tuple[str, ...],
                    target: tuple[str, ...], columns: None) -> tuple:
    """Whether every anchor over ``scope`` has a consistent completion, as
    :func:`_decide_distinct`'s decision with no evidence. The anchors that
    have one are the keys of T's grouping over ``scope``: the check holds
    when they fill the anchor space, else the witness is the first anchor
    in order that they lack, at most |keys| + 1 steps in. It reads no
    target."""
    if len(layout.groups) == layout.space:
        return None, (), layout.space
    key = next(key for key in itertools.product(*map(range, map(len, layout.values)))
               if key not in layout.groups)
    return enc.kept_anchor(scope, key), (), sum(map(mul, key, layout.strides)) + 1


# Minimality's witnesses name a set, not an anchor; they share one empty instance.
_NO_ANCHOR = Instance()


def _decide_minimal(enc: EncodedNetwork, layout: _Layout, a_scope: tuple[str, ...],
                    to_scope: tuple[str, ...], columns: tuple[int, ...] | None) -> tuple:
    """Minimality over a nonempty from scope (see :func:`check_minimal`):
    the decision ``(witnesses, (), instances_checked)``, one
    ``redundant:<set>`` witness per redundant set of ``a_scope``, in
    order."""
    full = columns is None
    # Each anchor's distinct outcomes in T: its rows (FULL) or their target
    # projections (PROJECTED); an anchor's count is their number.
    groups = layout.groups if full else _outcomes(layout, columns)
    checked = 0
    witnesses: list[Witness] = []
    for qi, q in enumerate(a_scope):
        # Outcomes that hold Q's value (every FULL row does) differ between
        # the instances a restriction covers, so their counts add (``adds``).
        first = _first_separating(groups, qi, len(layout.values[qi]), full or q in to_scope)
        if first is None:
            witnesses.append(Witness(_NO_ANCHOR, (), f"redundant:{q}"))
        checked += (layout.space if first is None
                    else sum(map(mul, first, layout.strides)) + 1)
    return tuple(witnesses), (), checked


# Per kind, its slot: the question that decides it and its decider; the
# query's anchor scope, which T is grouped by, and its target (from/to,
# to/from or the param alone); and the note of a failure's witness (None
# for minimality, whose decision holds its witnesses).
_FROM_TO, _TO_FROM = attrgetter("from_scope", "to_scope"), attrgetter("to_scope", "from_scope")
_SLOTS = {
    PropertyKind.FUNCTIONAL: ("distinct", _decide_distinct, _FROM_TO, "multiple-outcomes"),
    PropertyKind.TOTAL: ("covered", _decide_covered, _FROM_TO, "no-outcome"),
    PropertyKind.INJECTIVE: ("distinct", _decide_distinct, _TO_FROM, "multiple-preimages"),
    PropertyKind.SURJECTIVE: ("covered", _decide_covered, _TO_FROM, "unreachable"),
    PropertyKind.SURJECTIVE_IN: ("covered", _decide_covered, lambda query: (
        (query.param,), query.to_scope), "unrealizable-value"),
    PropertyKind.MINIMAL: ("minimal", _decide_minimal, _FROM_TO, None),
}

_EMPTY_FROM = "minimality requires a nonempty from scope"

# The default kinds of a suite, in order, each with its slot.
_SUITE_SLOTS = tuple((kind, _SLOTS[kind]) for kind in (
    PropertyKind.FUNCTIONAL, PropertyKind.TOTAL, PropertyKind.INJECTIVE,
    PropertyKind.SURJECTIVE, PropertyKind.MINIMAL, PropertyKind.SURJECTIVE_IN))


def check_functional(network: Network, from_scope: Iterable[str] | None = None,
                     to_scope: Iterable[str] | None = None,
                     mode: CountMode = CountMode.PROJECTED,
                     limits: Limits = _DEFAULT_LIMITS,
                     engine: Engine = Engine.JOIN) -> Verdict:
    """Every from-instance leads to at most one outcome."""
    query = _query(PropertyKind.FUNCTIONAL, network, from_scope, to_scope, mode)
    return _verdict(network, _plan(network, limits, engine), query, _SLOTS[query.kind])


def check_total(network: Network, from_scope: Iterable[str] | None = None,
                to_scope: Iterable[str] | None = None,
                mode: CountMode = CountMode.PROJECTED,
                limits: Limits = _DEFAULT_LIMITS,
                engine: Engine = Engine.JOIN) -> Verdict:
    """Every from-instance leads to at least one outcome.

    The result is mode-independent (a completion exists iff a projection
    does); the mode is recorded for symmetry with the other checkers.
    """
    query = _query(PropertyKind.TOTAL, network, from_scope, to_scope, mode)
    return _verdict(network, _plan(network, limits, engine), query, _SLOTS[query.kind])


def check_injective(network: Network, from_scope: Iterable[str] | None = None,
                    to_scope: Iterable[str] | None = None,
                    mode: CountMode = CountMode.PROJECTED,
                    limits: Limits = _DEFAULT_LIMITS,
                    engine: Engine = Engine.JOIN) -> Verdict:
    """Every to-instance is produced by at most one from-instance."""
    query = _query(PropertyKind.INJECTIVE, network, from_scope, to_scope, mode)
    return _verdict(network, _plan(network, limits, engine), query, _SLOTS[query.kind])


def check_surjective(network: Network, from_scope: Iterable[str] | None = None,
                     to_scope: Iterable[str] | None = None,
                     mode: CountMode = CountMode.PROJECTED,
                     limits: Limits = _DEFAULT_LIMITS,
                     engine: Engine = Engine.JOIN) -> Verdict:
    """Every to-instance is reachable from some consistent full instance."""
    query = _query(PropertyKind.SURJECTIVE, network, from_scope, to_scope, mode)
    return _verdict(network, _plan(network, limits, engine), query, _SLOTS[query.kind])


def check_surjective_in(network: Network, param: str,
                        from_scope: Iterable[str] | None = None,
                        to_scope: Iterable[str] | None = None,
                        mode: CountMode = CountMode.PROJECTED,
                        limits: Limits = _DEFAULT_LIMITS,
                        engine: Engine = Engine.JOIN) -> Verdict:
    """Every value of the parameter set occurs in some consistent instance."""
    query = _query(PropertyKind.SURJECTIVE_IN, network, from_scope, to_scope, mode, param)
    if param not in query.to_scope:
        raise ScopeMismatchError(f"param {param!r} must belong to the to scope")
    return _verdict(network, _plan(network, limits, engine), query, _SLOTS[query.kind])


def check_minimal(network: Network, from_scope: Iterable[str] | None = None,
                  to_scope: Iterable[str] | None = None,
                  mode: CountMode = CountMode.PROJECTED,
                  limits: Limits = _DEFAULT_LIMITS,
                  engine: Engine = Engine.JOIN) -> Verdict:
    """No from-set can be dropped without changing some instance's outcomes.

    A set Q is redundant when for every instance i over the from scope the
    outcome set of i equals that of i restricted to from∖{Q}. Since the
    completions of i are a subset of the completions of its restriction,
    the outcome sets are equal iff their counts are. Both counts come from
    one group-by of the consistent table T (:func:`consistent_table`) by
    instance: the rows over i (FULL) or their distinct target projections
    (PROJECTED). The restriction's count merges the groups of the
    instances it covers, as in TANE's partition refinement (Huhtala et
    al., Computer Journal 1999). instances_checked totals the (Q, i) pairs
    a walk of the instances in order would examine: for every Q, the rank
    of the first separating i, or all instances when none separates. Only
    an i whose restriction has rows in T can separate, so no instance
    space is walked, and a Q with one value separates none, so its
    instances are not walked at all.
    """
    query = _query(PropertyKind.MINIMAL, network, from_scope, to_scope, mode)
    if not query.from_scope:
        raise ScopeMismatchError(_EMPTY_FROM)
    return _verdict(network, _plan(network, limits, engine), query, _SLOTS[query.kind])


def _first_separating(groups: dict, qi: int, size: int,
                      adds: bool) -> tuple[int, ...] | None:
    """The lex-first instance whose count in ``groups`` (keyed in order)
    differs from its restriction's without position ``qi`` (``size``
    values), or None. Only instances whose restriction has rows can
    differ, so only those are walked: per head (before ``qi``) of the
    keys, each value with every tail in order. ``adds`` as in
    :func:`check_minimal`. A position with one value separates nothing:
    the restriction covers that one instance alone, so no walk is made."""
    if size == 1:
        return None
    for head, block in itertools.groupby(groups, lambda key: key[:qi]):
        tails = sorted({key[qi + 1:] for key in block})
        dropped: dict[tuple, int] = {}  # per tail, the restriction's count
        for v in range(size):
            for tail in tails:
                if tail not in dropped:
                    near = [groups.get(head + (u,) + tail, ()) for u in range(size)]
                    dropped[tail] = (sum(map(len, near)) if adds
                                     else len(set().union(*near)))
                key = head + (v,) + tail
                if len(groups.get(key, ())) != dropped[tail]:
                    return key
    return None


def _columns(positions: list[int]):
    """The function from a row of T to its values at ``positions``, as a
    tuple."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        return lambda row, i=positions[0]: (row[i],)
    return itemgetter(*positions)


# No checker or suite dispatches through this table (all decide through
# _SLOTS); it stays for wrappers of the named checkers (perfbench/spans.py).
_CHECKERS = {
    PropertyKind.FUNCTIONAL: check_functional,
    PropertyKind.TOTAL: check_total,
    PropertyKind.INJECTIVE: check_injective,
    PropertyKind.SURJECTIVE: check_surjective,
    PropertyKind.MINIMAL: check_minimal,
}


def check_suite(network: Network, direction: Direction = Direction.FORWARD,
                mode: CountMode = CountMode.PROJECTED,
                limits: Limits = _DEFAULT_LIMITS,
                engine: Engine = Engine.JOIN,
                from_scope: Iterable[str] | None = None,
                to_scope: Iterable[str] | None = None,
                kinds: Iterable[PropertyKind] | None = None) -> tuple[Verdict, ...]:
    """Run the property checks for one direction.

    FORWARD quantifies from the data selection toward the sinks, BACKWARD
    toward the sources. Backward injectivity is the exception: by default
    it asks whether each sink instance is produced by at most one source
    instance (from=sources, to=sinks), which is the recoverability question
    the backward reading stands for — anchoring it on the data selection
    would make it hold vacuously whenever the data selection is part of the
    sources. Explicit from/to overrides apply to every check unchanged.
    """
    if from_scope is None and not network.data_selection:
        raise ScopeMismatchError(
            "check requires a nonempty data selection or an explicit from scope")
    b_scope = (_boundary(network, sinks if direction is Direction.FORWARD else sources)
               if to_scope is None else _scope(network, to_scope))
    recover = direction is Direction.BACKWARD and from_scope is None and to_scope is None
    # The from scope and the plan are resolved for the first verdict that
    # reads them, so they are refused where each checker alone would be.
    a_scope = plan = None
    verdicts: list[Verdict] = []
    for kind, slot in _SUITE_SLOTS if kinds is None else ((k, _SLOTS[k]) for k in kinds):
        if recover and kind is _INJECTIVE:
            # b_scope holds the sources here.
            queries = [_made(PropertyQuery, kind=kind, from_scope=b_scope,
                             to_scope=_boundary(network, sinks), mode=mode, param=None)]
        else:
            params = b_scope if kind is _SURJECTIVE_IN else (None,)
            if params and a_scope is None:
                a_scope = _scope(network, network.data_selection
                                 if from_scope is None else from_scope)
            queries = [_made(PropertyQuery, kind=kind, from_scope=a_scope, to_scope=b_scope,
                             mode=mode, param=param) for param in params]
        for query in queries:
            if not query.from_scope and kind is PropertyKind.MINIMAL:
                raise ScopeMismatchError(_EMPTY_FROM)
            if plan is None:
                plan = _plan(network, limits, engine)
            verdicts.append(_verdict(network, plan, query, slot))
    return tuple(verdicts)
