"""Engine contracts: enumeration order, completions, counting, limits,
and equivalence of both engines with the naive oracle."""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracle import (
    all_full_instances,
    distinct_from,
    instances_over,
    oracle_completions,
    oracle_is_consistent,
)
from semnet import (
    CountMode,
    Engine,
    Instance,
    KeyOverflowError,
    Limits,
    LimitExceededError,
    Network,
    Relation,
    ScopeMismatchError,
    ValueSet,
    check_minimal,
    check_suite,
    completions,
    count_distinct,
    distinct_representatives,
    encode,
    enumerate_instances,
    first_completions,
    full_space_size,
    is_consistent,
    project,
)
from semnet.corpus import all_networks, build_t1, build_t2, build_t3, build_t4
from test_properties import _level_nodes

ENGINES = (Engine.JOIN, Engine.BRUTEFORCE)
SRC = Path(__file__).resolve().parent.parent / "src"


def build_t4_merge() -> Network:
    """t4 with the second step merging both intermediate values into y1."""
    return Network("t4-merge", (
        ValueSet("X", ("x1", "x2")),
        ValueSet("M", ("m1", "m2")),
        ValueSet("Y", ("y1", "y2"))), (
        Relation("f", ("X",), ("M",), (("x1", "m1"), ("x2", "m2"))),
        Relation("g", ("M",), ("Y",), (("m1", "y1"), ("m2", "y1")))),
        frozenset({"X"}))


def _dicts(instances):
    return [i.as_dict() for i in instances]


def test_enumerate_instances_order():
    t1 = build_t1()
    assert _dicts(enumerate_instances(t1, {"A"})) == [{"A": "a1"}, {"A": "a2"}]
    t2 = build_t2()
    assert _dicts(enumerate_instances(t2, {"X", "Y"})) == [
        {"X": "x1", "Y": "y1"}, {"X": "x1", "Y": "y2"},
        {"X": "x2", "Y": "y1"}, {"X": "x2", "Y": "y2"}]
    assert _dicts(enumerate_instances(t2, set())) == [{}]


def test_enumerate_instances_matches_oracle_order():
    for name, net in all_networks().items():
        scope = [vs.id for vs in net.sets][:3]
        got = _dicts(enumerate_instances(net, scope))
        assert got == list(instances_over(net, scope)), name


def test_enumerate_unknown_scope():
    with pytest.raises(ScopeMismatchError):
        list(enumerate_instances(build_t2(), {"Z"}))


def test_is_consistent_examples():
    t2 = build_t2()
    assert is_consistent(t2, Instance({"X": "x1", "Y": "y1"}))
    assert not is_consistent(t2, Instance({"X": "x1", "Y": "y2"}))
    assert is_consistent(build_t1(), Instance({"A": "a2"}))
    with pytest.raises(ScopeMismatchError):
        is_consistent(t2, Instance({"X": "x1"}))


def test_project():
    inst = Instance({"X": "x1", "M": "m1", "Y": "y1"})
    assert project(inst, {"Y"}) == Instance({"Y": "y1"})
    assert project(inst, set()) == Instance()
    assert project(Instance({"X": "x1"}), {"X"}) == Instance({"X": "x1"})
    with pytest.raises(ScopeMismatchError):
        project(Instance({"X": "x1"}), {"Y"})


@pytest.mark.parametrize("engine", ENGINES)
def test_completions_examples(engine):
    t2, t3 = build_t2(), build_t3()
    assert _dicts(completions(t2, Instance({"X": "x1"}), engine=engine)) == [
        {"X": "x1", "Y": "y1"}]
    assert completions(t3, Instance({"X": "x2"}), engine=engine) == []
    assert _dicts(completions(t3, Instance({"X": "x1"}), engine=engine)) == [
        {"X": "x1", "Y": "y1"}, {"X": "x1", "Y": "y2"}]


@pytest.mark.parametrize("engine", ENGINES)
def test_count_distinct_examples(engine):
    t4, t2 = build_t4(), build_t2()
    for mode, expected in ((CountMode.FULL, 1), (CountMode.PROJECTED, 1)):
        assert count_distinct(t4, Instance({"X": "x1"}), {"Y"}, mode,
                              engine=engine) == expected
    for mode in CountMode:
        assert count_distinct(t2, Instance({"Y": "y1"}), {"X"}, mode,
                              engine=engine) == 2
    merge = build_t4_merge()
    anchor = Instance({"Y": "y1"})
    assert count_distinct(merge, anchor, {"X"}, CountMode.FULL, engine=engine) == 2
    assert count_distinct(merge, anchor, {"X"}, CountMode.PROJECTED, engine=engine) == 2
    assert count_distinct(merge, anchor, set(), CountMode.PROJECTED, engine=engine) == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_oracle_equivalence_full_enumeration(engine):
    for name, net in all_networks().items():
        assert full_space_size(net) <= 10**6, name
        expected = oracle_completions(net, {})
        got = _dicts(completions(net, Instance(), engine=engine))
        assert got == expected, name


def test_oracle_equivalence_random_partials():
    rng = random.Random(814)
    for name, net in all_networks().items():
        ids = [vs.id for vs in net.sets]
        cases = 8 if full_space_size(net) <= 10**4 else 3
        for _ in range(cases):
            chosen = rng.sample(ids, k=rng.randrange(0, min(3, len(ids)) + 1))
            partial = {sid: rng.choice(net.value_set(sid).values) for sid in chosen}
            target = rng.sample(ids, k=rng.randrange(0, min(3, len(ids)) + 1))
            expected = oracle_completions(net, partial)
            for engine in ENGINES:
                got = _dicts(completions(net, Instance(partial), engine=engine))
                assert got == expected, (name, partial, engine)
                for mode in CountMode:
                    expected_n = distinct_from(expected, target, mode.value)
                    got_n = count_distinct(net, Instance(partial), target, mode,
                                           engine=engine)
                    assert got_n == expected_n, (name, partial, target, mode)


def test_is_consistent_equals_oracle():
    for name, net in all_networks().items():
        if full_space_size(net) > 2000:
            continue
        for full in all_full_instances(net):
            assert is_consistent(net, Instance(full)) == \
                oracle_is_consistent(net, full), (name, full)


@pytest.mark.parametrize("engine", ENGINES)
def test_monotonicity(engine):
    rng = random.Random(915)
    for name, net in all_networks().items():
        ids = [vs.id for vs in net.sets]
        for _ in range(5):
            chosen = rng.sample(ids, k=rng.randrange(0, min(3, len(ids)) + 1))
            partial = {sid: rng.choice(net.value_set(sid).values) for sid in chosen}
            extended = dict(partial)
            free = [sid for sid in ids if sid not in partial]
            if free:
                extra = rng.choice(free)
                extended[extra] = rng.choice(net.value_set(extra).values)
            wide = completions(net, Instance(partial), engine=engine)
            narrow = completions(net, Instance(extended), engine=engine)
            assert set(narrow) <= set(wide), (name, partial, extended)


@pytest.mark.parametrize("engine", ENGINES)
def test_full_counts_dominate_projected(engine):
    rng = random.Random(1016)
    for name, net in all_networks().items():
        ids = [vs.id for vs in net.sets]
        for _ in range(5):
            chosen = rng.sample(ids, k=rng.randrange(0, min(2, len(ids)) + 1))
            partial = Instance({
                sid: rng.choice(net.value_set(sid).values) for sid in chosen})
            target = rng.sample(ids, k=rng.randrange(0, min(4, len(ids)) + 1))
            full_n = count_distinct(net, partial, target, CountMode.FULL,
                                    engine=engine)
            proj_n = count_distinct(net, partial, target, CountMode.PROJECTED,
                                    engine=engine)
            assert full_n >= proj_n, (name, target)


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_relation_absorbs(engine):
    net = Network("n", (ValueSet("A", ("a1", "a2")), ValueSet("B", ("b1",))),
                  (Relation("f", ("A",), ("B",), ()),), {"A"})
    assert completions(net, Instance(), engine=engine) == []
    assert completions(net, Instance({"A": "a1"}), engine=engine) == []
    assert count_distinct(net, Instance(), {"B"}, CountMode.PROJECTED,
                          engine=engine) == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_cap_semantics(engine):
    t3 = build_t3()
    anchor = Instance({"X": "x1"})
    true_n = count_distinct(t3, anchor, {"Y"}, CountMode.FULL, engine=engine)
    assert true_n == 2
    for cap in (1, 2, 3):
        limits = Limits(cap=cap)
        for mode in CountMode:
            got = count_distinct(t3, anchor, {"Y"}, mode, limits, engine)
            assert got == min(true_n, cap), (cap, mode)


def test_limit_exceeded():
    """The join is refused past the search nodes it visits, 87 for
    fig1-mini's completions (``_join_nodes`` in test_properties pins it);
    brute force and ``enumerate_instances`` past their candidate space."""
    fig = all_networks()["fig1-mini"]
    nodes = 87
    target = [vs.id for vs in fig.sets[-3:]]
    calls = (  # each walks every completion
        lambda limits: completions(fig, Instance(), limits),
        lambda limits: distinct_representatives(fig, Instance(), target, 100, limits),
        lambda limits: count_distinct(fig, Instance(), target, CountMode.FULL, limits),
        lambda limits: count_distinct(fig, Instance(), target, CountMode.PROJECTED, limits))
    for call in calls:
        with pytest.raises(LimitExceededError, match="search nodes") as info:
            call(Limits(max_enumerated=nodes - 1))
        assert (info.value.required, info.value.allowed) == (nodes, nodes - 1)
        call(Limits(max_enumerated=nodes))
    assert len(completions(fig, Instance(), Limits(max_enumerated=nodes))) == 6
    with pytest.raises(LimitExceededError, match="candidate instances") as info:
        completions(fig, Instance(), Limits(max_enumerated=1000), Engine.BRUTEFORCE)
    assert info.value.required == full_space_size(fig)
    assert info.value.allowed == 1000
    with pytest.raises(LimitExceededError, match="candidate instances"):
        list(enumerate_instances(fig, [vs.id for vs in fig.sets],
                                 Limits(max_enumerated=1000)))
    # fixing sets shrinks the candidate space below the budget
    partial = Instance({vs.id: vs.values[0] for vs in fig.sets[:10]})
    completions(fig, partial, Limits(max_enumerated=10**6), Engine.BRUTEFORCE)


def test_a_refusal_past_the_key_space_names_its_power_of_two():
    """A count past 2^62 is written as the power of two it reaches, never
    in digits: past 4,300 digits Python refuses to write an int at all.
    The error keeps the exact count. Brute force on a chain of 700
    two-valued bijections is refused for its 2^701 candidates."""
    huge = 2**14301
    error = LimitExceededError(huge, 10**7)
    assert str(error) == ("walking at least 2^14301 candidate instances "
                          "exceeds the budget of 10000000")
    assert (error.required, error.allowed) == (huge, 10**7)
    assert "at least 2^700 search nodes" in str(LimitExceededError(3 * 2**699, 1, "search nodes"))
    assert "at least 2^62 " in str(LimitExceededError(2**62 + 1, 1))
    sets = tuple(ValueSet(f"S{k}", ("a", "b")) for k in range(701))
    chain = Network("chain", sets, tuple(
        Relation(f"r{k}", (f"S{k}",), (f"S{k + 1}",), (("a", "a"), ("b", "b")))
        for k in range(700)), frozenset({"S0"}))
    with pytest.raises(LimitExceededError) as info:
        completions(chain, Instance(), engine=Engine.BRUTEFORCE)
    assert str(info.value) == ("walking at least 2^701 candidate instances "
                               "exceeds the budget of 10000000")
    assert info.value.required == 2**701


def test_a_refusal_within_the_key_space_keeps_its_digits():
    assert (str(LimitExceededError(10_000_200, 10**7, "search nodes"))
            == "walking 10000200 search nodes exceeds the budget of 10000000")
    assert (str(LimitExceededError(2**62, 2**62 - 1))
            == f"walking {2**62} candidate instances exceeds the budget of {2**62 - 1}")


def test_limits_validation():
    with pytest.raises(ValueError):
        Limits(max_enumerated=0)
    with pytest.raises(ValueError):
        Limits(cap=0)


@pytest.mark.parametrize("engine", ENGINES)
def test_first_completions_and_representatives(engine):
    t3 = build_t3()
    anchor = Instance({"X": "x1"})
    firsts = first_completions(t3, anchor, 1, engine=engine)
    assert _dicts(firsts) == [{"X": "x1", "Y": "y1"}]
    reps = distinct_representatives(t3, anchor, {"Y"}, 2, engine=engine)
    assert _dicts(reps) == [{"X": "x1", "Y": "y1"}, {"X": "x1", "Y": "y2"}]
    # representatives keep first-appearance order of distinct projections
    merge = build_t4_merge()
    reps = distinct_representatives(merge, Instance(), {"Y"}, 2, engine=engine)
    assert [r["Y"] for r in reps] == ["y1"]


@pytest.mark.parametrize("engine", ENGINES)
def test_determinism(engine):
    fig = all_networks()["fig1-mini"]
    partial = Instance({"NoteheadPos": "line1"})
    first = completions(fig, partial, engine=engine)
    second = completions(fig, partial, engine=engine)
    assert first == second
    reps1 = distinct_representatives(fig, Instance(), {"MidiKey"}, 4, engine=engine)
    reps2 = distinct_representatives(fig, Instance(), {"MidiKey"}, 4, engine=engine)
    assert reps1 == reps2


def test_engines_agree_everywhere():
    rng = random.Random(1117)
    for name, net in all_networks().items():
        ids = [vs.id for vs in net.sets]
        for _ in range(6):
            chosen = rng.sample(ids, k=rng.randrange(0, min(4, len(ids)) + 1))
            partial = Instance({
                sid: rng.choice(net.value_set(sid).values) for sid in chosen})
            target = rng.sample(ids, k=rng.randrange(0, min(4, len(ids)) + 1))
            assert completions(net, partial, engine=Engine.JOIN) == \
                completions(net, partial, engine=Engine.BRUTEFORCE)
            for mode in CountMode:
                a = count_distinct(net, partial, target, mode, engine=Engine.JOIN)
                b = count_distinct(net, partial, target, mode,
                                   engine=Engine.BRUTEFORCE)
                assert a == b, (name, partial, target, mode)
            k = rng.randrange(1, 4)
            assert distinct_representatives(net, partial, target, k,
                                            engine=Engine.JOIN) == \
                distinct_representatives(net, partial, target, k,
                                         engine=Engine.BRUTEFORCE)


def build_wide_target() -> Network:
    """A data set A over 13 binary sets S0–S12: r lets a1 reach both values
    of S0 and a2 only the first; S1–S12 are free."""
    binary = ("0", "1")
    sets = (ValueSet("A", ("a1", "a2")),
            *(ValueSet(f"S{i}", binary) for i in range(13)))
    r = Relation("r", ("A",), ("S0",), (("a1", "0"), ("a1", "1"), ("a2", "0")))
    return Network("wide-target", sets, (r,), frozenset({"A"}))


def test_count_distinct_over_a_large_target():
    """Uncapped PROJECTED counts onto a target space of 8192 keys; both
    engines agree."""
    net = build_wide_target()
    target = [f"S{i}" for i in range(13)]
    for engine in ENGINES:
        assert count_distinct(net, Instance({"A": "a1"}), target,
                              engine=engine) == 8192
        assert count_distinct(net, Instance({"A": "a2"}), target,
                              engine=engine) == 4096
    join, brute = (check_minimal(net, to_scope=target, engine=engine)
                   for engine in ENGINES)
    assert join == brute
    assert join.holds


def _hub_net():
    """A ten-valued hub D tied by bijections to S1..S6 of 600 values, and a
    relation r over S1..S7, whose scope spans 600^7 > 2^62 keys: T has ten
    rows."""
    values = tuple(f"v{i}" for i in range(600))
    hub = values[:10]
    sets = (ValueSet("D", hub),) + tuple(ValueSet(f"S{k}", values) for k in range(1, 8))
    relations = tuple(Relation(f"to-S{k}", ("D",), (f"S{k}",), tuple(zip(hub, hub)))
                      for k in range(1, 7))
    wide = Relation("r", tuple(f"S{k}" for k in range(1, 7)), ("S7",),
                    tuple((v,) * 7 for v in hub))
    return Network("hub", sets, relations + (wide,), frozenset({"D"}))


def test_key_overflow_is_its_own_error():
    """Only brute force, whose row keys are int64, refuses a relation
    scope past the 62-bit key space, and not as a scope mismatch; encoding
    refuses nothing, and the join decides the net. A projection target is
    never refused for its size: projections are tuples of value indices,
    not keys."""
    hub = _hub_net()
    assert len(encode(hub).relations) == 7
    assert [v.holds for v in check_suite(hub)] == [True, True, True, False, True, False]
    assert len(completions(hub, Instance({"S7": "v3"}))) == 1
    with pytest.raises(KeyOverflowError, match=r"^relation 'r' .*2\^62 key limit$") as info:
        check_suite(hub, engine=Engine.BRUTEFORCE)
    assert not isinstance(info.value, ScopeMismatchError)
    net = _wide_target()
    ids = tuple(vs.id for vs in net.sets)
    # Fixing every set makes the search space 1: the 600^7 target has one
    # projection, that of the one completion.
    everything = Instance({sid: "v0" for sid in ids})
    for engine in ENGINES:
        assert count_distinct(net, everything, ids, engine=engine) == 1
        assert distinct_representatives(net, everything, ids, 1, engine=engine) == [everything]
        # Unknown sets and values are scope mismatches, reported before the
        # 600^7 space exceeds the enumeration budget.
        for partial, target, message in (
                ({"S9": "v0"}, ids[:1], "instance assigns unknown set 'S9'"),
                ({"S1": "x"}, ids[:1], "value 'x' not in set 'S1'"),
                ({}, ("S1", "S9"), "unknown sets in target: ['S9']")):
            exact = f"^{re.escape(message)}$"
            with pytest.raises(ScopeMismatchError, match=exact):
                count_distinct(net, Instance(partial), target, engine=engine)
            with pytest.raises(ScopeMismatchError, match=exact):
                distinct_representatives(net, Instance(partial), target, 1, engine=engine)
        with pytest.raises(LimitExceededError):
            count_distinct(net, Instance(), ids[:1], engine=engine)
    # Twenty ten-valued sinks span 10^20 > 2^62 projections, but the join
    # builds ten completions; brute force is refused its 10^21 candidates.
    sinks = _wide_sinks(20)
    targets = tuple(vs.id for vs in sinks.sets[1:])
    assert count_distinct(sinks, Instance(), targets) == 10
    reps = distinct_representatives(sinks, Instance(), targets, 3)
    assert [rep.as_dict() for rep in reps] == [
        {vs.id: f"v{i}" for vs in sinks.sets} for i in range(3)]
    for call in (lambda: count_distinct(sinks, Instance(), targets, engine=Engine.BRUTEFORCE),
                 lambda: distinct_representatives(sinks, Instance(), targets, 3,
                                                  engine=Engine.BRUTEFORCE)):
        with pytest.raises(LimitExceededError) as refused:
            call()
        assert (refused.value.required, refused.value.allowed) == (10**21, 10**7)


def _wide_target():
    """Seven free 600-value sets."""
    values = tuple(f"v{i}" for i in range(600))
    sets = tuple(ValueSet(f"S{k}", values) for k in range(1, 8))
    return Network("wide-target", sets, (), frozenset(vs.id for vs in sets))


def test_a_refused_table_stops_at_the_level_that_passes_the_budget():
    """Seven free 600-value sets: T's build counts 600, then 600^2 nodes,
    and is refused at the third level, whose 600^3 nodes pass the default
    budget, before it builds that level's rows. The engine's calls on the
    empty partial build the same table, and are refused alike, however
    small their bound."""
    net = _wide_target()
    calls = (lambda: check_suite(net),
             lambda: count_distinct(net, Instance(), ["S1"]),
             lambda: count_distinct(net, Instance(), ["S1"], limits=Limits(cap=1)),
             lambda: first_completions(net, Instance(), 1))
    for call in calls:
        with pytest.raises(LimitExceededError, match="search nodes") as refused:
            call()
        assert (refused.value.required, refused.value.allowed) == (
            600 + 600**2 + 600**3, Limits().max_enumerated)


def _wide_sinks(n_sinks):
    """A ten-valued data set D tied to sinks P0.. by bijections."""
    values = tuple(f"v{i}" for i in range(10))
    params = tuple(ValueSet(f"P{k}", values) for k in range(n_sinks))
    return Network("wide-sinks", (ValueSet("D", values),) + params, tuple(
        Relation(f"to-{vs.id}", ("D",), (vs.id,), tuple(zip(values, values)))
        for vs in params), frozenset({"D"}))


def test_bounds_past_the_largest_slice_take_everything():
    """A k or cap past sys.maxsize is no bound, and a negative k takes
    nothing, on both engines."""
    assert 2**70 > sys.maxsize
    rng = random.Random(28)
    for name, net in all_networks().items():
        ids = [vs.id for vs in net.sets]
        for _ in range(4):
            partial = Instance({vs.id: rng.choice(vs.values) for vs in net.sets
                                if rng.random() < 0.3})
            target = [sid for sid in ids if rng.random() < 0.5]
            for engine in ENGINES:
                case = (name, partial, target, engine)
                every = completions(net, partial, engine=engine)
                assert first_completions(net, partial, 2**70, engine=engine) == every, case
                assert first_completions(net, partial, -1, engine=engine) == [], case
                assert distinct_representatives(net, partial, target, -1, engine=engine) == []
                for mode in CountMode:
                    assert (count_distinct(net, partial, target, mode, Limits(cap=2**70), engine)
                            == count_distinct(net, partial, target, mode, engine=engine)), case


def test_a_bound_on_the_result_does_not_stop_the_search():
    """``k`` bounds the completions a call returns, not its search: the
    first k completions of fig1-mini build the whole table of its 87
    search nodes. For k = 1, 2 and 3, every budget below 87 is refused
    with the count that refuses all the completions, the nodes through
    the first level that passes the budget, and budget 87 admits every
    k."""
    fig = all_networks()["fig1-mini"]
    through = list(itertools.accumulate(_level_nodes(fig)))
    assert through[-1] == 87
    for budget in range(1, 87):
        with pytest.raises(LimitExceededError) as whole:
            completions(fig, Instance(), Limits(budget))
        passed = next(nodes for nodes in through if nodes > budget)
        assert (whole.value.required, whole.value.allowed) == (passed, budget)
        for k in (1, 2, 3):
            with pytest.raises(LimitExceededError) as first:
                first_completions(fig, Instance(), k, Limits(budget))
            assert (first.value.required, first.value.allowed) == (passed, budget), k
    every = completions(fig, Instance(), Limits(87))
    for k in (1, 2, 3):
        assert first_completions(fig, Instance(), k, Limits(87)) == every[:k]


def _loop_row_keys(network, rel):
    """Reference: each row's mixed-radix key over the scope, one at a time."""
    sizes = {vs.id: len(vs.values) for vs in network.sets}
    index = {vs.id: {v: i for i, v in enumerate(vs.values)} for vs in network.sets}
    keys = []
    for row in rel.rows:
        key = 0
        for sid, value in zip(rel.scope, row):
            key = key * sizes[sid] + index[sid][value]
        keys.append(key)
    return sorted(keys)


def test_row_keys_match_the_per_row_loop():
    rng = random.Random(20241018)
    values = tuple(f"v{i}" for i in range(7))
    sets = tuple(ValueSet(s, values) for s in "ABCD")
    wide = Relation("wide", ("A", "B", "C"), ("D",),
                    tuple({tuple(rng.choice(values) for _ in range(4)) for _ in range(300)}))
    edge_cases = Network("edges", sets, (
        wide,
        Relation("empty", ("A",), ("B",), ()),
        Relation("nullary", (), (), ((),)),
    ), frozenset({"A"}))
    for network in [*all_networks().values(), edge_cases]:
        enc = encode(network)
        assert len(enc.relations) == len(network.relations)
        for (scope, _, keys), rel in zip(enc.relations, network.relations):
            assert scope == tuple(enc.set_index[sid] for sid in rel.scope)
            assert type(keys) is tuple and all(type(key) is int for key in keys)
            assert keys == tuple(_loop_row_keys(network, rel)), (network.name, rel.id)


def test_only_bruteforce_loads_numpy():
    """A join-only process never imports numpy; brute force's first use does."""
    script = """
import sys
import semnet
from semnet.corpus import all_networks
net = all_networks()["fig1-mini"]
args = (net, semnet.Direction.FORWARD, semnet.CountMode.PROJECTED)
join = semnet.check_suite(*args)
print("numpy" in sys.modules)
brute = semnet.check_suite(*args, engine=semnet.Engine.BRUTEFORCE)
print("numpy" in sys.modules, brute == join)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]
