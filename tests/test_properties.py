"""Property checkers: frozen example verdicts, witnesses, duality, and
agreement with the naive oracle."""

from __future__ import annotations

import gc
import itertools
import operator
import random
import sys
import weakref
from functools import partial

import pytest

from oracle import (
    instances_over,
    oracle_completions,
    oracle_functional,
    oracle_injective,
    oracle_minimal,
    oracle_surjective,
    oracle_surjective_in,
    oracle_total,
)
from semnet import (
    CountMode,
    Direction,
    Engine,
    Instance,
    InvalidNetworkError,
    LimitExceededError,
    Limits,
    Network,
    PropertyKind,
    PropertyQuery,
    Relation,
    ScopeMismatchError,
    ValueSet,
    Witness,
    bruteforce,
    check_functional,
    check_injective,
    check_minimal,
    check_suite,
    check_surjective,
    check_surjective_in,
    check_total,
    encode,
    engine,
    full_space_size,
    kernels,
    properties,
    render_json,
    sinks,
    sources,
)
from semnet.corpus import (
    all_networks,
    build_t1,
    build_t2,
    build_t3,
    build_t4,
    build_t4b,
)

ENGINES = (Engine.JOIN, Engine.BRUTEFORCE)


def test_property_query_param_invariant():
    with pytest.raises(ValueError):
        PropertyQuery(PropertyKind.FUNCTIONAL, ("X",), ("Y",),
                      CountMode.PROJECTED, param="Y")
    with pytest.raises(ValueError):
        PropertyQuery(PropertyKind.SURJECTIVE_IN, ("X",), ("Y",),
                      CountMode.PROJECTED)


@pytest.mark.parametrize("engine", ENGINES)
def test_functional_examples(engine):
    v = check_functional(build_t3(), {"X"}, {"Y"}, CountMode.FULL, engine=engine)
    assert not v.holds
    w = v.witnesses[0]
    assert w.anchor == Instance({"X": "x1"})
    assert w.evidence == (Instance({"X": "x1", "Y": "y1"}),
                          Instance({"X": "x1", "Y": "y2"}))
    assert w.note == "multiple-outcomes"
    assert v.instances_checked == 1

    for mode in CountMode:
        assert check_total(build_t1(), {"A"}, {"A"}, mode, engine=engine).holds
        assert check_functional(build_t1(), {"A"}, {"A"}, mode, engine=engine).holds
    assert check_functional(build_t2(), {"X"}, {"Y"}, CountMode.PROJECTED,
                            engine=engine).holds


@pytest.mark.parametrize("engine", ENGINES)
def test_total_examples(engine):
    v = check_total(build_t3(), {"X"}, {"Y"}, engine=engine)
    assert not v.holds
    assert v.witnesses[0].anchor == Instance({"X": "x2"})
    assert v.witnesses[0].evidence == ()
    assert v.witnesses[0].note == "no-outcome"
    assert v.instances_checked == 2

    v = check_total(build_t4b(), {"X", "M"}, {"Y"}, engine=engine)
    assert not v.holds
    assert v.witnesses[0].anchor == Instance({"X": "x1", "M": "m2"})

    assert check_total(build_t2(), {"X"}, {"Y"}, engine=engine).holds


@pytest.mark.parametrize("engine", ENGINES)
def test_injective_examples(engine):
    v = check_injective(build_t2(), {"X"}, {"Y"}, CountMode.PROJECTED,
                        engine=engine)
    assert not v.holds
    w = v.witnesses[0]
    assert w.anchor == Instance({"Y": "y1"})
    assert w.evidence == (Instance({"X": "x1", "Y": "y1"}),
                          Instance({"X": "x2", "Y": "y1"}))
    assert w.note == "multiple-preimages"

    for mode in CountMode:
        assert check_injective(build_t4(), {"X"}, {"Y"}, mode, engine=engine).holds


@pytest.mark.parametrize("engine", ENGINES)
def test_surjective_examples(engine):
    v = check_surjective(build_t2(), {"X"}, {"Y"}, engine=engine)
    assert not v.holds
    assert v.witnesses[0].anchor == Instance({"Y": "y2"})
    assert v.witnesses[0].note == "unreachable"
    assert check_surjective(build_t4(), {"X"}, {"Y"}, engine=engine).holds


@pytest.mark.parametrize("engine", ENGINES)
def test_surjective_in_examples(engine):
    v = check_surjective_in(build_t2(), "Y", engine=engine)
    assert not v.holds
    assert v.witnesses[0].anchor == Instance({"Y": "y2"})
    assert v.witnesses[0].note == "unrealizable-value"
    assert v.query.param == "Y"
    assert check_surjective_in(build_t2(), "X", engine=engine).holds
    assert check_surjective_in(build_t1(), "A", engine=engine).holds


@pytest.mark.parametrize("engine", ENGINES)
def test_minimal_mode_divergence(engine):
    projected = check_minimal(build_t2(), {"X"}, {"Y"}, CountMode.PROJECTED,
                              engine=engine)
    assert not projected.holds
    assert [w.note for w in projected.witnesses] == ["redundant:X"]
    assert projected.witnesses[0].anchor == Instance()

    full = check_minimal(build_t2(), {"X"}, {"Y"}, CountMode.FULL, engine=engine)
    assert full.holds
    assert full.witnesses == ()


def test_minimal_requires_nonempty_from():
    with pytest.raises(ScopeMismatchError):
        check_minimal(build_t2(), from_scope=())


@pytest.mark.parametrize("engine", ENGINES)
def test_suite_t4_forward_all_hold(engine):
    verdicts = check_suite(build_t4(), Direction.FORWARD, CountMode.PROJECTED,
                           engine=engine)
    assert [v.query.kind for v in verdicts] == [
        PropertyKind.FUNCTIONAL, PropertyKind.TOTAL, PropertyKind.INJECTIVE,
        PropertyKind.SURJECTIVE, PropertyKind.MINIMAL, PropertyKind.SURJECTIVE_IN]
    assert all(v.holds for v in verdicts)


@pytest.mark.parametrize("engine", ENGINES)
def test_suite_t3_forward_full(engine):
    verdicts = {v.query.kind: v for v in check_suite(
        build_t3(), Direction.FORWARD, CountMode.FULL, engine=engine)}
    assert not verdicts[PropertyKind.FUNCTIONAL].holds
    assert not verdicts[PropertyKind.TOTAL].holds
    assert verdicts[PropertyKind.INJECTIVE].holds
    assert verdicts[PropertyKind.SURJECTIVE].holds


def test_suite_t1_shape():
    verdicts = check_suite(build_t1())
    assert len(verdicts) == 6
    assert all(v.holds for v in verdicts)
    assert verdicts[-1].query.param == "A"


def test_suite_scopes_default_to_data_and_boundary():
    fig = all_networks()["fig1-mini"]
    fwd = check_suite(fig, Direction.FORWARD)
    assert fwd[0].query.from_scope == fig.set_order(fig.data_selection)
    assert fwd[0].query.to_scope == fig.set_order(sinks(fig))
    bwd = check_suite(fig, Direction.BACKWARD)
    assert bwd[0].query.to_scope == fig.set_order(sources(fig))
    inj = next(v for v in bwd if v.query.kind is PropertyKind.INJECTIVE)
    # recoverability: anchored on the sinks, counting source preimages
    assert inj.query.from_scope == fig.set_order(sources(fig))
    assert inj.query.to_scope == fig.set_order(sinks(fig))


def test_suite_explicit_scopes_apply_to_every_check():
    fig = all_networks()["fig1-mini"]
    verdicts = check_suite(fig, Direction.BACKWARD,
                           from_scope=("NoteheadPos",), to_scope=("MidiKey",))
    for v in verdicts:
        assert v.query.from_scope == ("NoteheadPos",)
        assert v.query.to_scope == ("MidiKey",)


def test_suite_requires_data_or_from():
    t2 = build_t2()
    bare = type(t2)(t2.name, t2.sets, t2.relations, frozenset())
    with pytest.raises(ScopeMismatchError):
        check_suite(bare)
    verdicts = check_suite(bare, from_scope=("X",))
    assert verdicts


def test_duality_on_corpus():
    for name, net in all_networks().items():
        d = net.set_order(net.data_selection)
        src = net.set_order(sources(net))
        snk = net.set_order(sinks(net))
        for a_scope, b_scope in ((d, snk), (d, src), (src, snk)):
            for mode in CountMode:
                assert check_injective(net, a_scope, b_scope, mode).holds == \
                    check_functional(net, b_scope, a_scope, mode).holds, \
                    (name, a_scope, b_scope, mode)
                assert check_surjective(net, a_scope, b_scope, mode).holds == \
                    check_total(net, b_scope, a_scope, mode).holds, \
                    (name, a_scope, b_scope, mode)


def test_full_implies_projected_for_upper_bound_properties():
    for name, net in all_networks().items():
        d = net.set_order(net.data_selection)
        snk = net.set_order(sinks(net))
        for checker in (check_functional, check_injective):
            if checker(net, d, snk, CountMode.FULL).holds:
                assert checker(net, d, snk, CountMode.PROJECTED).holds, name


def test_surjective_implies_every_parameter():
    for name, net in all_networks().items():
        snk = net.set_order(sinks(net))
        if check_surjective(net, to_scope=snk).holds:
            for param in snk:
                assert check_surjective_in(net, param).holds, (name, param)


def test_checkers_match_oracle_on_toy_nets():
    for net in (build_t1(), build_t2(), build_t3(), build_t4(), build_t4b()):
        d = net.set_order(net.data_selection)
        snk = net.set_order(sinks(net))
        for mode in CountMode:
            assert check_functional(net, d, snk, mode).holds == \
                oracle_functional(net, d, snk, mode.value)
            assert check_injective(net, d, snk, mode).holds == \
                oracle_injective(net, d, snk, mode.value)
            assert check_minimal(net, d, snk, mode).holds == \
                oracle_minimal(net, d, snk, mode.value)
        assert check_total(net, d, snk).holds == oracle_total(net, d)
        assert check_surjective(net, d, snk).holds == oracle_surjective(net, snk)
        for param in snk:
            assert check_surjective_in(net, param).holds == \
                oracle_surjective_in(net, param)


def test_verdicts_are_deterministic():
    fig = all_networks()["fig1-mini"]
    for engine in ENGINES:
        first = check_suite(fig, Direction.BACKWARD, CountMode.PROJECTED,
                            engine=engine)
        second = check_suite(fig, Direction.BACKWARD, CountMode.PROJECTED,
                             engine=engine)
        assert first == second


def test_instances_checked_counts_anchors():
    t2 = build_t2()
    # both x-anchors examined, no early exit
    assert check_functional(t2, {"X"}, {"Y"}).instances_checked == 2
    # fails on the first anchor in lexicographic order
    assert check_injective(t2, {"X"}, {"Y"}).instances_checked == 1
    # minimality examines (Q, i) pairs: one Q, both anchors, no separation
    assert check_minimal(t2, {"X"}, {"Y"},
                         CountMode.PROJECTED).instances_checked == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_every_checker_refuses_an_invalid_network(engine):
    """A data set without values is an EMPTY_SET validation error, so every
    checker refuses the network rather than give a verdict over no
    anchors."""
    net = Network("empty-data", (ValueSet("A", ()), ValueSet("B", ("b1", "b2"))),
                  (Relation("r", ("A",), ("B",), ()),), frozenset({"A"}))
    calls = [partial(check, net) for check in (check_functional, check_total, check_injective,
                                               check_surjective, check_minimal)]
    calls += [partial(check_surjective_in, net, "B")]
    calls += [partial(check_suite, net, direction) for direction in Direction]
    for call, mode in itertools.product(calls, CountMode):
        with pytest.raises(InvalidNetworkError, match="EMPTY_SET"):
            call(mode=mode, engine=engine)


def test_checks_look_up_the_encoding_once_per_plan_and_table(monkeypatch):
    """A check asks for one plan: one encoding lookup of its own and one
    call for the consistent table, which looks the network up once more.
    A suite asks once for all its verdicts, and a public checker once for
    its one verdict. The witness adds no lookup: its evidence is the rows
    T's pass kept."""
    tally = dict.fromkeys(("layout", "encode", "table", "witness"), 0)

    def counted(key, fn):
        def call(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(properties, "encode", counted("layout", properties.encode))
    monkeypatch.setattr(engine, "encode", counted("encode", engine.encode))
    monkeypatch.setattr(properties, "consistent_table",
                        counted("table", properties.consistent_table))
    for name in ("first_completions", "distinct_representatives"):
        monkeypatch.setattr(properties, name, counted("witness", getattr(properties, name)))
    net = all_networks()["fig1-mini"]
    verdicts = []
    for direction in Direction:
        for mode in CountMode:
            verdicts += check_suite(net, direction, mode)
    assert len(verdicts) == 38
    assert tally == {"layout": 4, "encode": 4, "table": 4, "witness": 0}, tally
    for key in tally:
        tally[key] = 0
    for verdict in verdicts:
        query = verdict.query
        if query.param is None:
            again = properties._CHECKERS[query.kind](net, query.from_scope, query.to_scope,
                                                     query.mode)
        else:
            again = check_surjective_in(net, query.param, query.from_scope, query.to_scope,
                                        query.mode)
        assert again == verdict
    assert tally == {"layout": 38, "encode": 38, "table": 38, "witness": 0}, tally


# --- minimality over the consistent table: budget and lifetime -------------

def _chain(n_sets, n_values):
    """Sets S0..S{n-1} of n values, each a bijection of the one before."""
    values = tuple(f"v{i}" for i in range(n_values))
    sets = tuple(ValueSet(f"S{k}", values) for k in range(n_sets))
    relations = tuple(Relation(f"r{k}", (f"S{k}",), (f"S{k + 1}",),
                               tuple((v, v) for v in values))
                      for k in range(n_sets - 1))
    return Network(f"chain{n_sets}x{n_values}", sets, relations, frozenset({"S0"}))


def _level_nodes(network, partial=None):
    """Reference for the search nodes of the join's table of the
    completions of ``partial`` (a dict, T when empty), per level: per set
    in declaration order, the prefixes that agree with ``partial`` and are
    consistent with every relation whose scope they cover, counted by
    extending the last level's prefixes."""
    partial = partial or {}
    prefixes = [{}]
    counts = []
    for level, vs in enumerate(network.sets):
        covered = {s.id for s in network.sets[:level + 1]}
        rels = [rel for rel in network.relations if covered >= set(rel.scope)]
        values = (partial[vs.id],) if vs.id in partial else vs.values
        extended = ({**p, vs.id: v} for p in prefixes for v in values)
        prefixes = [p for p in extended
                    if all(tuple(p[sid] for sid in rel.scope) in set(rel.rows)
                           for rel in rels)]
        counts.append(len(prefixes))
    return counts


def _join_nodes(network, partial=None):
    """The reference's search nodes over all levels."""
    return sum(_level_nodes(network, partial))


def wide_net(n_data, n_values, n_free, n_free_values):
    """Data sets D0.. whose joint value ``key`` copies onto Y, which leads to
    free sets F0.. without constraint. T has one row per data anchor and
    free combination, yet Y separates each data set at the first anchor:
    the case where minimality over T does the most work the per-anchor
    counts skipped."""
    values = tuple(f"v{i}" for i in range(n_values))
    data = tuple(ValueSet(f"D{k}", values) for k in range(n_data))
    combos = list(itertools.product(values, repeat=n_data))
    y = ValueSet("Y", tuple("-".join(c) for c in combos))
    free = tuple(ValueSet(f"F{k}", tuple(f"w{i}" for i in range(n_free_values)))
                 for k in range(n_free))
    relations = (Relation("key", tuple(vs.id for vs in data), ("Y",),
                          tuple((*c, "-".join(c)) for c in combos)),
                 *(Relation(f"to-{vs.id}", ("Y",), (vs.id,),
                            tuple(itertools.product(y.values, vs.values))) for vs in free))
    return Network(f"wide{n_data}x{n_values}", data + (y,) + free, relations,
                   frozenset(vs.id for vs in data))


@pytest.mark.parametrize("engine", ENGINES)
def test_minimal_on_a_wide_net_separates_at_the_first_anchor(engine):
    net = wide_net(2, 3, 2, 4)
    assert len(properties.consistent_table(net, engine=engine)) == 9 * 16
    for mode in CountMode:
        verdict = check_minimal(net, to_scope={"Y"}, mode=mode, engine=engine)
        assert verdict.holds and verdict.instances_checked == 2, mode
        assert verdict.holds == oracle_minimal(net, ["D0", "D1"], ["Y"], mode.value)


def test_a_chain_past_the_recursion_limit_gets_a_whole_suite():
    """The join builds T in a loop over its sets, not one call per set, so
    a chain of 1,200 two-valued bijections (1,201 sets, past the recursion
    limit) gets every verdict of both directions, and each holds; brute
    force refuses its 2^1201 candidates."""
    chain = _chain(1201, 2)
    assert sys.getrecursionlimit() < len(chain.sets)
    for direction in Direction:
        verdicts = check_suite(chain, direction)
        assert len(verdicts) == 6 and all(v.holds for v in verdicts), direction
    with pytest.raises(LimitExceededError, match=r"2\^1201 candidate"):
        check_suite(chain, engine=Engine.BRUTEFORCE)


def test_minimal_budget_counts_the_join_walk_not_the_cartesian_space():
    """A 12-set chain of 10-value bijections has a 10^11 completion space
    per anchor but a 10-row T: the join decides its minimality at the
    default budget, while brute force, which walks all 10^12 candidates,
    is refused."""
    chain = _chain(12, 10)
    verdict = check_minimal(chain)
    assert verdict.holds and verdict.instances_checked == 1
    with pytest.raises(LimitExceededError) as info:
        check_minimal(chain, engine=Engine.BRUTEFORCE)
    assert info.value.required == 10**12


def test_the_join_walk_is_budgeted_by_its_search_nodes():
    """The join's table of a partial visits exactly the reference's search
    nodes for it: that budget admits it, with the oracle's completions,
    and one node less is refused with the count of search nodes. On
    fig1-mini and 30 random partials, and on a net without relations,
    whose free table visits every prefix of its cartesian space."""
    rng = random.Random(15)
    free = Network("free", tuple(ValueSet(f"S{k}", tuple(f"v{i}" for i in range(size)))
                                 for k, size in enumerate((2, 1, 3, 4))), (), frozenset())
    nets = {"fig1-mini": all_networks()["fig1-mini"], "free": free}
    walked = 0
    for name, net in nets.items():
        enc = encode(net)
        consistent = oracle_completions(net, {})
        partials = [{}] + [{vs.id: rng.choice(vs.values) for vs in rng.sample(net.sets, 2)}
                           for _ in range(30 if name == "fig1-mini" else 0)]
        for partial in partials:
            nodes = _join_nodes(net, partial)
            if not nodes:
                continue
            walked += 1
            fixed = enc.fixed_from(Instance(partial))
            rows = list(kernels.table(enc.join_index, fixed, nodes))
            assert [enc.instance_from_row(row).as_dict() for row in rows] == [
                full for full in consistent if partial.items() <= full.items()], (name, partial)
            with pytest.raises(LimitExceededError, match="search nodes") as info:
                list(kernels.table(enc.join_index, fixed, nodes - 1))
            assert (info.value.required, info.value.allowed) == (nodes, nodes - 1), (
                name, partial)
    assert _join_nodes(free) == 2 + 2 + 6 + 24
    assert walked >= 10


def test_a_cheap_search_is_decided_whatever_its_cartesian_space():
    """Each anchor of a 12-set chain of 10-value bijections has 10^11
    candidate completions but one consistent one: the join decides the
    whole suite at the default budget. Brute force is refused: every
    checker builds T from all 10^12 candidates."""
    chain = _chain(12, 10)
    verdicts = check_suite(chain)
    assert [(v.query.kind, v.holds, v.instances_checked) for v in verdicts] == [
        (PropertyKind.FUNCTIONAL, True, 10), (PropertyKind.TOTAL, True, 10),
        (PropertyKind.INJECTIVE, True, 10), (PropertyKind.SURJECTIVE, True, 10),
        (PropertyKind.MINIMAL, True, 1), (PropertyKind.SURJECTIVE_IN, True, 10)]
    for check in (check_functional, check_total, check_injective, check_surjective,
                  partial(check_surjective_in, param="S11")):
        with pytest.raises(LimitExceededError, match="candidate instances") as info:
            check(chain, engine=Engine.BRUTEFORCE)
        assert (info.value.required, info.value.allowed) == (10**12, Limits().max_enumerated)


def _wide_sinks(n_sinks, n_values):
    """A data set D tied to sinks P0.. by bijections: T has one row per
    value of D, while the sinks span n_values ** n_sinks values."""
    values = tuple(f"v{i}" for i in range(n_values))
    params = tuple(ValueSet(f"P{k}", values) for k in range(n_sinks))
    relations = tuple(Relation(f"to-{vs.id}", ("D",), (vs.id,), tuple(zip(values, values)))
                      for vs in params)
    return Network("wide-sinks", (ValueSet("D", values),) + params, relations,
                   frozenset({"D"}))


def test_projected_checkers_decide_targets_past_the_key_space():
    """Twenty ten-valued sinks span 10^20 > 2^62 values, yet T has 10
    rows. No checker builds a projection key, so PROJECTED decides every
    forward verdict as FULL does: functional, total, injective, minimal
    and each surjective-in hold, and surjective fails at its second
    anchor."""
    net = _wide_sinks(20, 10)
    full, projected = (
        [(v.query.kind, v.query.param, v.holds, v.witnesses, v.instances_checked)
         for v in check_suite(net, Direction.FORWARD, mode)] for mode in CountMode)
    assert full == projected
    failing = [(kind, checked) for kind, _, holds, _, checked in projected if not holds]
    assert failing == [(PropertyKind.SURJECTIVE, 2)]
    assert len(projected) == 5 + 20


# --- total, surjective and surjective-in over the consistent table --------

def _oracle_coverage(network, scope):
    """``(holds, instances_checked, witness anchors)`` of a coverage check
    over ``scope`` by the oracle: the anchors walked in order up to the
    first without a completion."""
    checked = 0
    for checked, anchor in enumerate(instances_over(network, scope), 1):
        if not oracle_completions(network, anchor):
            return False, checked, [Instance(anchor)]
    return True, checked, []


def test_coverage_checkers_walk_anchors_only_to_the_first_gap():
    """With S0..S7 of the chain as data, total and surjective onto S0..S7
    have 10^8 anchors, which the anchor gate refused, but T has 10 rows:
    the join decides both at the default budget, and the first anchor T
    lacks is the second, (v0, ..., v0, v1). Brute force builds T from all
    10^12 candidates and is refused."""
    chain = _chain(12, 10)
    data = tuple(f"S{k}" for k in range(8))
    chain8 = Network(chain.name, chain.sets, chain.relations, frozenset(data))
    gap = Instance({**{sid: "v0" for sid in data[:-1]}, "S7": "v1"})
    total = lambda **kw: check_total(chain8, **kw)
    surjective = lambda **kw: check_surjective(chain8, to_scope=data, **kw)
    for check, note in ((total, "no-outcome"), (surjective, "unreachable")):
        verdict = check()
        assert (verdict.holds, verdict.instances_checked) == (False, 2)
        assert verdict.witnesses == (Witness(gap, (), note),)
        with pytest.raises(LimitExceededError, match="candidate instances") as info:
            check(engine=Engine.BRUTEFORCE)
        assert info.value.required == 10**12


def test_functional_is_admitted_by_t_not_by_its_anchor_count():
    """Functional from S0..S7 of the chain and injective from S0 to
    S4..S11 each have 10^8 anchors, which the anchor gate refused, but T
    has 10 rows: the join decides both in both modes at the default
    budget, and every anchor has at most one outcome. Brute force builds T
    from all 10^12 candidates and is refused."""
    chain = _chain(12, 10)
    chain8 = Network(chain.name, chain.sets, chain.relations,
                     frozenset(f"S{k}" for k in range(8)))
    checks = (partial(check_functional, chain8),
              partial(check_injective, chain, {"S0"}, {f"S{k}" for k in range(4, 12)}))
    for check, mode in itertools.product(checks, CountMode):
        verdict = check(mode=mode)
        assert (verdict.holds, verdict.instances_checked) == (True, 10**8), (verdict.query, mode)
        with pytest.raises(LimitExceededError, match="candidate instances") as info:
            check(mode=mode, engine=Engine.BRUTEFORCE)
        assert info.value.required == 10**12


@pytest.mark.parametrize("engine", ENGINES)
def test_coverage_of_an_empty_scope_and_an_empty_table(engine):
    """The empty scope has one anchor, the empty instance, which T holds
    when it has rows; an empty relation empties T, so every scope fails at
    its first anchor. Each verdict equals the oracle's walk."""
    t2 = build_t2()
    (f,) = t2.relations
    blocked = Network("t2-blocked", t2.sets, (Relation(f.id, f.in_sets, f.out_sets, ()),),
                      t2.data_selection)
    for net in (t2, blocked):
        cases = [(check_total(net, (), engine=engine), ()),
                 (check_surjective(net, to_scope=(), engine=engine), ()),
                 (check_total(net, engine=engine), ("X",)),
                 (check_surjective(net, engine=engine), ("Y",)),
                 *((check_surjective_in(net, p, engine=engine), (p,)) for p in ("X", "Y"))]
        for verdict, scope in cases:
            got = (verdict.holds, verdict.instances_checked,
                   [w.anchor for w in verdict.witnesses])
            assert got == _oracle_coverage(net, scope), (net.name, verdict.query)
    assert not check_total(blocked, (), engine=engine).holds


def test_minimal_walks_no_anchor_space():
    """With S0..S7 of the chain as data there are 10^8 anchors, yet T has
    10 rows, so minimality is decided at the default budget. Each S_j
    separates first where one anchor value differs from all the others:
    (0,1,1,1,1,1,1,1) for S0, rank 1111111; else the all-0 anchor with a
    1 at S_j, rank 10^(7-j). instances_checked adds the ranks plus one."""
    chain = _chain(12, 10)
    data = frozenset(f"S{k}" for k in range(8))
    chain8 = Network(chain.name, chain.sets, chain.relations, data)
    verdict = check_minimal(chain8)
    assert verdict.holds
    assert verdict.instances_checked == (1111111 + 1) + sum(10**(7 - j) + 1
                                                            for j in range(1, 8))
    # A set X declared first and read by no relation is redundant, so its
    # check counts all 10^9 anchors; the others separate at the same ranks.
    x = ValueSet("X", tuple(f"x{i}" for i in range(10)))
    wider = Network(chain.name, (x,) + chain.sets, chain.relations, data | {"X"})
    again = check_minimal(wider, to_scope={"S11"})
    assert [w.note for w in again.witnesses] == ["redundant:X"]
    assert again.instances_checked == 10**9 + verdict.instances_checked


def test_minimal_budget_refuses_a_cached_table(monkeypatch):
    """fig1-mini's T build visits exactly the reference's nodes; one
    budget below them is refused even when a T built under a larger budget
    is kept on the encoding, and brute force is gated on the full space."""
    fig = all_networks()["fig1-mini"]
    nodes = _join_nodes(fig)
    assert nodes == 87
    encode.cache_clear()
    assert check_minimal(fig, limits=Limits(max_enumerated=nodes)).holds is False
    encode.cache_clear()
    check_minimal(fig)  # T kept from the default budget
    builds = []
    monkeypatch.setattr(kernels, "table",
                        lambda *args, _real=kernels.table:
                        builds.append(args[-1]) or _real(*args))
    with pytest.raises(LimitExceededError):
        check_minimal(fig, limits=Limits(max_enumerated=nodes - 1))
    assert check_minimal(fig, limits=Limits(max_enumerated=nodes)) == check_minimal(fig)
    assert builds == [nodes - 1, nodes]  # the default budget hits the cache
    space = full_space_size(fig)
    with pytest.raises(LimitExceededError) as info:
        check_minimal(fig, limits=Limits(max_enumerated=space - 1), engine=Engine.BRUTEFORCE)
    assert (info.value.required, info.value.allowed) == (space, space - 1)
    assert (check_minimal(fig, limits=Limits(max_enumerated=space), engine=Engine.BRUTEFORCE)
            == check_minimal(fig))


def test_consistent_table_is_freed_with_its_encoding():
    """T and its layouts, with their decisions, live on the encoding, one
    per backend, and go with it; a new encoding starts with neither.
    Nothing kept there refers back to the encoding, so it goes without
    the cycle collector, and so do the instances its decisions hold: the
    one instance per evidence row of T that both backends' decisions
    share, rendered or not."""
    fig = all_networks()["fig1-mini"]
    encode.cache_clear()
    for eng in ENGINES:
        check_minimal(fig, engine=eng)
        verdict = check_functional(fig, engine=eng)
        assert not verdict.holds
        render_json(fig.name, "forward", "projected", [verdict])
    del verdict
    enc = encode(fig)
    evidence = [instance for layout in enc.groups.values()
                for (question, _), decision in layout.decided.items()
                if question == "distinct" for instance in decision[1]]
    assert len(evidence) == 2 * 2 and len(enc.instances) == 2
    assert all(any(instance is row for row in enc.instances.values()) for instance in evidence)
    assert all("_json_pairs" in vars(row) for row in enc.instances.values())
    rows = [weakref.ref(row) for row in enc.instances.values()]
    del evidence
    assert len(enc.tables) == 2
    assert [backend for backend, _ in enc.groups] == [kernels, bruteforce]
    assert all(layout.outcomes for layout in enc.groups.values())
    assert all(sorted(question for question, _ in layout.decided) == ["distinct", "minimal"]
               for layout in enc.groups.values())
    kept = [weakref.ref(instance) for layout in enc.groups.values()
            for (question, _), decision in layout.decided.items()
            if question == "distinct" for instance in (decision[0], *decision[1])]
    assert len(kept) == 2 * 3 and all(ref() is not None for ref in kept)
    ref = weakref.ref(enc)
    del enc
    enabled = gc.isenabled()
    gc.disable()
    try:
        encode.cache_clear()
        assert ref() is None
        assert all(instance() is None for instance in kept)
        assert all(row() is None for row in rows)
    finally:
        if enabled:
            gc.enable()
    assert not encode(fig).tables and not encode(fig).groups and not encode(fig).instances


def test_engine_completions_keep_no_instance():
    """The engine's own calls build fresh instances and keep none on the
    encoding; only the checkers' evidence rows are kept, each once."""
    fig = all_networks()["fig1-mini"]
    encode.cache_clear()
    enc = encode(fig)
    partial = Instance({"Clef": fig.value_set("Clef").values[0]})
    for eng in ENGINES:
        full = engine.completions(fig, partial, engine=eng)
        assert len(full) == 6
        assert engine.first_completions(fig, partial, 2, engine=eng) == full[:2]
        assert engine.distinct_representatives(fig, partial, sinks(fig), 2, engine=eng)
    assert not enc.instances
    again = engine.completions(fig, partial)
    assert again == full and all(map(operator.is_not, again, full))
    check_suite(fig)
    assert enc.instances and all(instance == enc.instance_from_row(row)
                                 for row, instance in enc.instances.items())


@pytest.mark.parametrize("engine", ENGINES)
def test_full_and_projected_decisions_share_their_evidence_rows(engine):
    """FULL and PROJECTED functional on t3 fail at the same anchor with
    the same two rows of T; their decisions, and the other backend's,
    hold the one instance the encoding keeps per row."""
    net = build_t3()
    encode.cache_clear()
    full, projected = (check_functional(net, {"X"}, {"Y"}, mode, engine=engine)
                       for mode in (CountMode.FULL, CountMode.PROJECTED))
    assert full.witnesses[0].evidence == projected.witnesses[0].evidence
    assert all(map(operator.is_, full.witnesses[0].evidence, projected.witnesses[0].evidence))
    other = check_functional(net, {"X"}, {"Y"}, CountMode.FULL,
                             engine=next(e for e in ENGINES if e is not engine))
    assert all(map(operator.is_, other.witnesses[0].evidence, full.witnesses[0].evidence))
    assert list(encode(net).instances.values()) == list(full.witnesses[0].evidence)


def test_decisions_share_one_anchor_per_scope_and_value_indices():
    """Over the four suites of the six corpus nets that fail a check, under
    both engines, the witnesses hold 17 distinct anchors, each one
    instance: the encoding keeps one per anchor scope and value indices,
    as it keeps one per evidence row."""
    nets = all_networks()
    encode.cache_clear()
    anchors, distinct = {}, set()
    for name, eng, direction, mode in itertools.product(
            ("fig1-mini", "fig1-mini-oor", "dodeca", "t2", "t3", "t4b"), ENGINES, Direction, CountMode):
        for verdict in check_suite(nets[name], direction, mode, engine=eng):
            for witness in verdict.witnesses:
                if witness.anchor.assignment:
                    anchors[id(witness.anchor)] = witness.anchor
                    distinct.add((name, witness.anchor))
    assert len(anchors) == len(distinct) == 17


def _anchor_scope(query):
    """The scope a checker groups T by."""
    if query.kind is PropertyKind.SURJECTIVE_IN:
        return (query.param,)
    if query.kind in (PropertyKind.INJECTIVE, PropertyKind.SURJECTIVE):
        return query.to_scope
    return query.from_scope


def test_checkers_share_one_grouping_per_backend_and_anchor_columns():
    """A full suite over both directions and modes groups T once per
    anchor scope it reads, and every checker over that scope reuses the
    grouping; join and brute force, whose T are equal on a net with sets,
    each hold their own."""
    fig = all_networks()["fig1-mini"]
    encode.cache_clear()
    enc = encode(fig)
    built = []

    class Tally(dict):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)
    object.__setattr__(enc, "groups", Tally())
    want, verdicts = set(), 0
    for (backend, eng), direction, mode in itertools.product(
            ((kernels, Engine.JOIN), (bruteforce, Engine.BRUTEFORCE)), Direction, CountMode):
        for verdict in check_suite(fig, direction, mode, engine=eng):
            want.add((backend, _anchor_scope(verdict.query)))
            verdicts += 1
    assert (verdicts, len(want)) == (2 * 38, 2 * 12)
    assert sorted(built, key=repr) == sorted(want, key=repr)


def test_checkers_build_each_outcome_set_once(monkeypatch):
    """PROJECTED functional, injective and minimality share each anchor's
    distinct target values: over both engines' suites in both directions
    and modes, every (backend, anchor scope, target columns) set is built
    once, inside the layout of its anchor scope."""
    fig = all_networks()["fig1-mini"]
    encode.cache_clear()
    enc = encode(fig)

    class Outcomes(dict):
        def __init__(self):
            super().__init__()
            self.built = []

        def __setitem__(self, columns, sets):
            self.built.append(columns)
            super().__setitem__(columns, sets)
    monkeypatch.setattr(properties, "_Layout",
                        lambda *fields, _real=properties._Layout:
                        _real(*fields)._replace(outcomes=Outcomes()))
    want = set()
    for (backend, eng), direction, mode in itertools.product(
            ((kernels, Engine.JOIN), (bruteforce, Engine.BRUTEFORCE)), Direction, CountMode):
        for verdict in check_suite(fig, direction, mode, engine=eng):
            query = verdict.query
            if mode is CountMode.PROJECTED and query.kind in (
                    PropertyKind.FUNCTIONAL, PropertyKind.INJECTIVE, PropertyKind.MINIMAL):
                scopes = (query.from_scope, query.to_scope)
                if query.kind is PropertyKind.INJECTIVE:
                    scopes = scopes[::-1]
                want.add((backend, scopes[0],
                          tuple(enc.set_index[sid] for sid in scopes[1])))
    built = [(backend, at, columns) for (backend, at), layout in enc.groups.items()
             for columns in layout.outcomes.built]
    assert len(built) == len(set(built))
    assert set(built) == want and len(want) >= 4


def _question(query, enc):
    """The layout and the question a verdict of ``query`` reads: its
    anchor scope, and the question with its target columns, None where it
    reads no target."""
    def columns(target):
        if query.mode is CountMode.FULL:
            return None
        return tuple(enc.set_index[sid] for sid in target)
    if query.kind in (PropertyKind.TOTAL, PropertyKind.SURJECTIVE, PropertyKind.SURJECTIVE_IN):
        return _anchor_scope(query), ("covered", None)
    if query.kind is PropertyKind.INJECTIVE:
        return query.to_scope, ("distinct", columns(query.from_scope))
    if query.kind is PropertyKind.FUNCTIONAL:
        return query.from_scope, ("distinct", columns(query.to_scope))
    return query.from_scope, ("minimal", columns(query.to_scope))


def test_checkers_decide_each_question_once(monkeypatch):
    """Over both engines' suites in both directions and modes, each
    question is decided once per (backend, anchor scope, target columns
    or FULL), inside the layout of its anchor scope, and every other
    verdict that asks it reads that decision: minimality's separation
    walk runs once per set of each from scope it decides."""
    fig = all_networks()["fig1-mini"]
    encode.cache_clear()
    enc = encode(fig)

    class Decided(dict):
        def __init__(self):
            super().__init__()
            self.built = []

        def __setitem__(self, question, decision):
            self.built.append(question)
            super().__setitem__(question, decision)
    monkeypatch.setattr(properties, "_Layout",
                        lambda *fields, _real=properties._Layout:
                        _real(*fields)._replace(decided=Decided()))
    walks = []
    monkeypatch.setattr(properties, "_first_separating",
                        lambda groups, qi, *args, _real=properties._first_separating:
                        walks.append(qi) or _real(groups, qi, *args))
    want, verdicts = set(), 0
    for (backend, eng), direction, mode in itertools.product(
            ((kernels, Engine.JOIN), (bruteforce, Engine.BRUTEFORCE)), Direction, CountMode):
        for verdict in check_suite(fig, direction, mode, engine=eng):
            want.add((backend, *_question(verdict.query, enc)))
            verdicts += 1
    built = [(backend, at, question) for (backend, at), layout in enc.groups.items()
             for question in layout.decided.built]
    assert len(built) == len(set(built))
    assert set(built) == want
    assert (verdicts, len(want)) == (2 * 38, 2 * 21)
    minimal = [at for _, at, (question, _) in built if question == "minimal"]
    assert len(walks) == sum(map(len, minimal)) and len(minimal) == 2 * 3


def test_a_warm_projected_verdict_projects_no_row(monkeypatch):
    """A cold PROJECTED functional over the wide net projects each row of
    T twice, onto its anchor and onto its target; a warm one reads the
    kept outcome sets and projects none."""
    net = wide_net(4, 3, 2, 25)
    projected = []

    def counting(positions, _real=properties._columns):
        project = _real(positions)
        return lambda row: projected.append(row) or project(row)
    monkeypatch.setattr(properties, "_columns", counting)
    encode.cache_clear()
    cold = check_functional(net, to_scope={"Y"})
    rows = properties.consistent_table(net)
    assert cold.holds and len(rows) == 81 * 25**2
    assert len(projected) == 2 * len(rows)
    projected.clear()
    assert check_functional(net, to_scope={"Y"}) == cold
    assert projected == []


def _checker_call(query):
    """The public checker of ``query``'s kind, with its scopes and mode
    bound."""
    checker = properties._CHECKERS.get(query.kind)
    if checker is None:
        checker = partial(check_surjective_in, param=query.param)
    return partial(checker, from_scope=query.from_scope, to_scope=query.to_scope,
                   mode=query.mode)


def test_functional_budget_refuses_a_cached_layout():
    """After a warm suite, whose layouts, outcome sets and decisions are
    kept on the encoding, each of the six checkers is still refused one
    budget below fig1-mini's 87-node build of T, and gives the kept verdict
    at 87."""
    fig = all_networks()["fig1-mini"]
    encode.cache_clear()
    suite = check_suite(fig)
    assert any(layout.outcomes for layout in encode(fig).groups.values())
    assert any(layout.decided for layout in encode(fig).groups.values())
    assert {verdict.query.kind for verdict in suite} == set(PropertyKind)
    for verdict in suite:
        check = _checker_call(verdict.query)
        with pytest.raises(LimitExceededError) as info:
            check(fig, limits=Limits(max_enumerated=86))
        assert (info.value.required, info.value.allowed) == (87, 86)
        assert check(fig, limits=Limits(max_enumerated=87)) == verdict


def test_an_unknown_set_is_refused_on_every_call():
    """Resolved scopes are kept on the network, but a refused one is not:
    an unknown set is refused on the second call too."""
    fig = all_networks()["fig1-mini"]
    check_suite(fig)
    for _ in range(2):
        with pytest.raises(ScopeMismatchError, match="unknown sets"):
            check_functional(fig, to_scope={"nowhere"})
        with pytest.raises(ScopeMismatchError, match="unknown sets"):
            check_suite(fig, from_scope={"nowhere"})
