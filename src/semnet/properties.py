"""Property checkers: functional, total, injective, surjective (plain and
per-value), and minimal data selections — with witness extraction.

Every checker quantifies over instances of an anchor scope and counts
consistent completions (FULL mode) or their distinct projections onto a
target scope (PROJECTED mode). Verdicts are deterministic, including
witness content and order: the witness is always the first counterexample
in lexicographic declaration order; minimality instead names every
redundant set. Evidence instances are always consistent full instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

from .engine import (
    CountMode,
    Engine,
    Limits,
    count_distinct,
    distinct_representatives,
    enumerate_instances,
    first_completions,
    project,
)
from .errors import ScopeMismatchError
from .model import Instance, Network, sinks, sources

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


class PropertyKind(Enum):
    FUNCTIONAL = "functional"
    TOTAL = "total"
    INJECTIVE = "injective"
    SURJECTIVE = "surjective"
    SURJECTIVE_IN = "surjective_in"
    MINIMAL = "minimal"


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
        if (self.param is not None) != (self.kind is PropertyKind.SURJECTIVE_IN):
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


def _scope(network: Network, scope: Iterable[str] | None,
           default: Iterable[str]) -> tuple[str, ...]:
    """Normalise a scope to declaration order, defaulting when omitted."""
    chosen = frozenset(default if scope is None else scope)
    known = frozenset(vs.id for vs in network.sets)
    unknown = chosen - known
    if unknown:
        raise ScopeMismatchError(f"unknown sets in scope: {sorted(unknown)}")
    return network.set_order(chosen)


def _data_scope(network: Network) -> frozenset[str]:
    return network.data_selection


def _capped(limits: Limits, cap: int) -> Limits:
    return replace(limits, cap=cap)


def _uncapped(limits: Limits) -> Limits:
    return replace(limits, cap=None)


def _pair_evidence(network: Network, anchor: Instance, target: tuple[str, ...],
                   mode: CountMode, limits: Limits,
                   engine: Engine) -> tuple[Instance, ...]:
    """Two completions witnessing a count ≥ 2: distinct outright in FULL
    mode, distinct in their target projection in PROJECTED mode."""
    if mode is CountMode.FULL:
        return tuple(first_completions(network, anchor, 2, _uncapped(limits), engine))
    return tuple(distinct_representatives(
        network, anchor, target, 2, _uncapped(limits), engine))


def check_functional(network: Network, from_scope: Iterable[str] | None = None,
                     to_scope: Iterable[str] | None = None,
                     mode: CountMode = CountMode.PROJECTED,
                     limits: Limits = _DEFAULT_LIMITS,
                     engine: Engine = Engine.JOIN) -> Verdict:
    """Every from-instance leads to at most one outcome."""
    a_scope = _scope(network, from_scope, _data_scope(network))
    b_scope = _scope(network, to_scope, sinks(network))
    query = PropertyQuery(PropertyKind.FUNCTIONAL, a_scope, b_scope, mode)
    capped = _capped(limits, 2)
    checked = 0
    for anchor in enumerate_instances(network, a_scope, limits):
        checked += 1
        n = count_distinct(network, anchor, b_scope, mode, capped, engine)
        if n > 1:
            evidence = _pair_evidence(network, anchor, b_scope, mode, limits, engine)
            witness = Witness(anchor, evidence, "multiple-outcomes")
            return Verdict(query, False, (witness,), checked)
    return Verdict(query, True, (), checked)


def check_total(network: Network, from_scope: Iterable[str] | None = None,
                to_scope: Iterable[str] | None = None,
                mode: CountMode = CountMode.PROJECTED,
                limits: Limits = _DEFAULT_LIMITS,
                engine: Engine = Engine.JOIN) -> Verdict:
    """Every from-instance leads to at least one outcome.

    The result is mode-independent (a completion exists iff a projection
    does); the mode is recorded for symmetry with the other checkers.
    """
    a_scope = _scope(network, from_scope, _data_scope(network))
    b_scope = _scope(network, to_scope, sinks(network))
    query = PropertyQuery(PropertyKind.TOTAL, a_scope, b_scope, mode)
    capped = _capped(limits, 1)
    checked = 0
    for anchor in enumerate_instances(network, a_scope, limits):
        checked += 1
        n = count_distinct(network, anchor, b_scope, CountMode.FULL, capped, engine)
        if n == 0:
            witness = Witness(anchor, (), "no-outcome")
            return Verdict(query, False, (witness,), checked)
    return Verdict(query, True, (), checked)


def check_injective(network: Network, from_scope: Iterable[str] | None = None,
                    to_scope: Iterable[str] | None = None,
                    mode: CountMode = CountMode.PROJECTED,
                    limits: Limits = _DEFAULT_LIMITS,
                    engine: Engine = Engine.JOIN) -> Verdict:
    """Every to-instance is produced by at most one from-instance."""
    a_scope = _scope(network, from_scope, _data_scope(network))
    b_scope = _scope(network, to_scope, sinks(network))
    query = PropertyQuery(PropertyKind.INJECTIVE, a_scope, b_scope, mode)
    capped = _capped(limits, 2)
    checked = 0
    for anchor in enumerate_instances(network, b_scope, limits):
        checked += 1
        n = count_distinct(network, anchor, a_scope, mode, capped, engine)
        if n > 1:
            evidence = _pair_evidence(network, anchor, a_scope, mode, limits, engine)
            witness = Witness(anchor, evidence, "multiple-preimages")
            return Verdict(query, False, (witness,), checked)
    return Verdict(query, True, (), checked)


def check_surjective(network: Network, from_scope: Iterable[str] | None = None,
                     to_scope: Iterable[str] | None = None,
                     mode: CountMode = CountMode.PROJECTED,
                     limits: Limits = _DEFAULT_LIMITS,
                     engine: Engine = Engine.JOIN) -> Verdict:
    """Every to-instance is reachable from some consistent full instance."""
    a_scope = _scope(network, from_scope, _data_scope(network))
    b_scope = _scope(network, to_scope, sinks(network))
    query = PropertyQuery(PropertyKind.SURJECTIVE, a_scope, b_scope, mode)
    capped = _capped(limits, 1)
    checked = 0
    for anchor in enumerate_instances(network, b_scope, limits):
        checked += 1
        n = count_distinct(network, anchor, a_scope, CountMode.FULL, capped, engine)
        if n == 0:
            witness = Witness(anchor, (), "unreachable")
            return Verdict(query, False, (witness,), checked)
    return Verdict(query, True, (), checked)


def check_surjective_in(network: Network, param: str,
                        from_scope: Iterable[str] | None = None,
                        to_scope: Iterable[str] | None = None,
                        mode: CountMode = CountMode.PROJECTED,
                        limits: Limits = _DEFAULT_LIMITS,
                        engine: Engine = Engine.JOIN) -> Verdict:
    """Every value of the parameter set occurs in some consistent instance."""
    a_scope = _scope(network, from_scope, _data_scope(network))
    b_scope = _scope(network, to_scope, (param,))
    if param not in b_scope:
        raise ScopeMismatchError(f"param {param!r} must belong to the to scope")
    query = PropertyQuery(PropertyKind.SURJECTIVE_IN, a_scope, b_scope, mode, param)
    capped = _capped(limits, 1)
    checked = 0
    for value in network.value_set(param).values:
        checked += 1
        anchor = Instance({param: value})
        n = count_distinct(network, anchor, (param,), CountMode.FULL, capped, engine)
        if n == 0:
            witness = Witness(anchor, (), "unrealizable-value")
            return Verdict(query, False, (witness,), checked)
    return Verdict(query, True, (), checked)


def check_minimal(network: Network, from_scope: Iterable[str] | None = None,
                  to_scope: Iterable[str] | None = None,
                  mode: CountMode = CountMode.PROJECTED,
                  limits: Limits = _DEFAULT_LIMITS,
                  engine: Engine = Engine.JOIN) -> Verdict:
    """No from-set can be dropped without changing some instance's outcomes.

    A set Q is redundant when for every instance i over the from scope the
    outcome set of i equals that of i restricted to from∖{Q}. Since the
    completions of i are a subset of the completions of its restriction,
    the outcome sets are equal iff their counts are, so exact (uncapped)
    counts decide equality. instances_checked totals the (Q, i) pairs
    examined: every Q is searched until a separating i is found or the
    instances are exhausted.
    """
    a_scope = _scope(network, from_scope, _data_scope(network))
    b_scope = _scope(network, to_scope, sinks(network))
    if not a_scope:
        raise ScopeMismatchError("minimality requires a nonempty from scope")
    query = PropertyQuery(PropertyKind.MINIMAL, a_scope, b_scope, mode)
    exact = _uncapped(limits)
    checked = 0
    redundant: list[str] = []
    for q in a_scope:
        rest = tuple(sid for sid in a_scope if sid != q)
        dropped_counts: dict[Instance, int] = {}
        separated = False
        for anchor in enumerate_instances(network, a_scope, limits):
            checked += 1
            n_kept = count_distinct(network, anchor, b_scope, mode, exact, engine)
            restricted = project(anchor, rest)
            if restricted not in dropped_counts:
                dropped_counts[restricted] = count_distinct(
                    network, restricted, b_scope, mode, exact, engine)
            if n_kept != dropped_counts[restricted]:
                separated = True
                break
        if not separated:
            redundant.append(q)
    witnesses = tuple(
        Witness(Instance(), (), f"redundant:{q}") for q in redundant)
    return Verdict(query, not redundant, witnesses, checked)


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
    default_to = sinks(network) if direction is Direction.FORWARD else sources(network)
    b_scope = _scope(network, to_scope, default_to)
    wanted = tuple(kinds) if kinds is not None else (
        PropertyKind.FUNCTIONAL, PropertyKind.TOTAL, PropertyKind.INJECTIVE,
        PropertyKind.SURJECTIVE, PropertyKind.MINIMAL, PropertyKind.SURJECTIVE_IN)
    verdicts: list[Verdict] = []
    for kind in wanted:
        if kind is PropertyKind.SURJECTIVE_IN:
            for param in b_scope:
                verdicts.append(check_surjective_in(
                    network, param, from_scope=from_scope, to_scope=b_scope,
                    mode=mode, limits=limits, engine=engine))
            continue
        if (kind is PropertyKind.INJECTIVE and direction is Direction.BACKWARD
                and from_scope is None and to_scope is None):
            verdicts.append(check_injective(
                network, from_scope=sources(network), to_scope=sinks(network),
                mode=mode, limits=limits, engine=engine))
            continue
        verdicts.append(_CHECKERS[kind](
            network, from_scope=from_scope, to_scope=b_scope,
            mode=mode, limits=limits, engine=engine))
    return tuple(verdicts)
