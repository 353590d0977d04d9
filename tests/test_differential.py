"""Differential fuzz: join, brute force and the naive oracle on random nets.

A seeded generator builds small valid networks: 1-5 sets of 1-3 values and
0-4 relations, among them nullary, empty, out-only and multi-output ones,
with row densities from 0 to 1. A few loose nets (7-8 sets, 1-2 relations)
have hundreds of completions, so caps and uncapped distinct counts onto
large targets run too. Some nets have isolated sets, which no relation
reads or writes, one of them in the data selection; some have no sets at
all. On every net the join must equal brute force for each engine
operation, with empty targets among the random ones, and the counts must
equal the oracle's. The JSON report of every check suite must be equal
under both engines on every net with sets, and equal to the document
``json.dumps`` lays out; a net without sets has no data selection, so
``check_suite`` refuses it.

On the 300 small nets every verdict of every suite is also compared with
the oracle: ``holds`` with the matching ``oracle_*`` function, and the
witness and ``instances_checked`` with the first failing anchor found by
walking the anchors in the oracle's order. A failing functional or
injective witness's evidence is compared with the oracle's too: the
anchor's first completion and its first later one with another outcome.
Join and brute force share the property checkers, so only this comparison
catches a pass over T that skips or reorders anchors or keeps the wrong
evidence.

On the same nets the duality laws hold over the scope pairs (data,
sinks), (sources, sinks) and (data, sources) in both modes: injective(A, B)
is functional(B, A) and surjective(A, B) is total(B, A), in ``holds``, the
witness anchor, its evidence and ``instances_checked``. Two metamorphic
laws of all six checkers hold there too, under both engines: shuffling
each set's values keeps every ``holds`` and redundant set, and renaming
sets and values maps every verdict one to one. Adding a set that no
relation touches, with the original scopes passed explicitly, keeps every
PROJECTED verdict, its evidence extended by the new set's first value.
Adding a relation that every consistent full instance satisfies, with
1-3 in-sets and no out-set, keeps every PROJECTED verdict whole.

The same comparisons run on nets drawn by a hypothesis strategy of the
small nets' shapes, so that a failing net shrinks to a minimal one.

Witness instances, built from T's rows and anchors with their pairs
already sorted, equal the public constructor's on drawn nets whose set
ids sort out of declaration order. On corpus and drawn nets the suite's
slot path builds each anchor scope's layout once, a warm suite adds no
layout, decision or outcome set, and a suite without kinds encodes
nothing.

Every generated net also survives a round trip through the text format:
``parse(serialize(net))`` gives an equal network with the same
``validate`` report. For these texts and the corpus files, the row keys
``parse`` hands to the network, its ``validate`` report and its encoded
relations equal those of a rebuild from its fields, which computes its
own keys.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import oracle
from oracle import distinct_from, oracle_completions
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
    Relation,
    ScopeMismatchError,
    SemnetError,
    ValueSet,
    Witness,
    check_functional,
    check_injective,
    check_minimal,
    check_suite,
    check_surjective,
    check_surjective_in,
    check_total,
    completions,
    count_distinct,
    distinct_representatives,
    encode,
    first_completions,
    parse,
    properties,
    render_json,
    serialize,
    validate,
)
from semnet.corpus import all_networks
from semnet.engine import known_sets
from semnet.model import sinks, sources

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 20241018
SMALL_NETS = 300
LOOSE_NETS = 6
ISOLATED_NETS = 60
ZERO_SET_NETS = 20
CAPS = (None, 1, 2, 3)


def _relation(rng, rid, sets, rank, kind, density):
    """One relation of the given kind over ``sets``; inputs always rank
    below outputs, so every generated net is acyclic."""
    if kind == "nullary":
        return Relation(rid, (), (), ((),) if density >= 0.5 else ())
    arity = min(len(sets), rng.randint(1 if kind == "out-only" else 2, 3))
    scope = sorted(rng.sample(sets, arity), key=lambda vs: rank[vs.id])
    if kind == "out-only":
        split = 0
    elif kind == "multi-output":
        split = 1 if arity >= 3 else rng.randint(0, 1)
    else:
        split = rng.randint(1, arity - 1)
    ins, outs = scope[:split], scope[split:]
    rng.shuffle(ins)
    rng.shuffle(outs)
    ordered = ins + outs
    rows = [row for row in itertools.product(*(vs.values for vs in ordered))
            if rng.random() < density]
    rng.shuffle(rows)
    return Relation(rid, tuple(vs.id for vs in ins), tuple(vs.id for vs in outs),
                    tuple(rows))


def kind_of(rel):
    if not rel.rows:
        return "empty"
    if not rel.scope:
        return "nullary"
    if not rel.in_sets:
        return "out-only"
    return "multi-output" if len(rel.out_sets) > 1 else "plain"


def random_net(rng, name, n_sets, max_values, n_rels, densities, n_isolated=0):
    """A valid network with a nonempty data selection. ``n_isolated`` (fewer
    than ``n_sets``) sets are in no relation, and one of them is data."""
    sets = [ValueSet(f"S{i}", tuple(f"v{j}" for j in range(rng.randint(1, max_values))))
            for i in range(n_sets)]
    order = [vs.id for vs in sets]
    rng.shuffle(order)
    rank = {sid: i for i, sid in enumerate(order)}
    isolated = set(order[:n_isolated])
    linked = [vs for vs in sets if vs.id not in isolated]
    relations = []
    for r in range(n_rels):
        kind = rng.choice(("nullary", "out-only", "multi-output", "plain", "plain"))
        if len(linked) < 2 and kind in ("multi-output", "plain"):
            kind = "out-only"
        relations.append(_relation(rng, f"r{r}", linked, rank, kind, rng.choice(densities)))
    data = rng.sample(order, rng.randint(1, min(2, n_sets)))
    if isolated and not isolated & set(data):
        data.append(rng.choice(sorted(isolated)))
    net = Network(name, tuple(sets), tuple(relations), frozenset(data))
    assert validate(net).ok, validate(net).errors
    return net


def _nets():
    rng = random.Random(SEED)
    for i in range(SMALL_NETS):
        yield random_net(rng, f"small{i}", rng.randint(1, 5), 3, rng.randint(0, 4),
                         (0.0, 0.2, 0.5, 0.8, 1.0, rng.random()))
    for i in range(LOOSE_NETS):
        yield random_net(rng, f"loose{i}", rng.randint(7, 8), 3, rng.randint(1, 2),
                         (0.6, 0.9, 1.0))
    for i in range(ISOLATED_NETS):
        n_sets = rng.randint(2, 5)
        yield random_net(rng, f"isolated{i}", n_sets, 3, rng.randint(0, 3),
                         (0.2, 0.5, 0.8, 1.0), rng.randint(1, n_sets - 1))
    for i in range(ZERO_SET_NETS):
        relations = (_relation(rng, f"r{r}", [], {}, "nullary", rng.random())
                     for r in range(rng.randint(0, 3)))
        yield Network(f"zero{i}", (), tuple(relations), frozenset())


def _random_instance(rng, net, k):
    chosen = rng.sample([vs.id for vs in net.sets], k)
    return {sid: rng.choice(net.value_set(sid).values) for sid in chosen}


def _check_engine_calls(rng, net):
    ids = [vs.id for vs in net.sets]
    partial = _random_instance(rng, net, rng.randint(0, min(2, len(ids))))
    target = rng.sample(ids, rng.randint(0, len(ids)))
    case = (net.name, partial, target)
    inst = Instance(partial)
    want = oracle_completions(net, partial)
    got = completions(net, inst)
    assert [c.as_dict() for c in got] == want, case
    assert completions(net, inst, engine=Engine.BRUTEFORCE) == got, case
    for mode in CountMode:
        exact = distinct_from(want, target, mode.value)
        for cap in CAPS:
            limits = Limits(cap=cap)
            join = count_distinct(net, inst, target, mode, limits)
            brute = count_distinct(net, inst, target, mode, limits, Engine.BRUTEFORCE)
            assert join == brute == (min(exact, cap) if cap else exact), (case, mode, cap)
    for k in (1, 2, 3):
        assert (first_completions(net, inst, k)
                == first_completions(net, inst, k, engine=Engine.BRUTEFORCE)), (case, k)
        assert (distinct_representatives(net, inst, target, k)
                == distinct_representatives(net, inst, target, k,
                                            engine=Engine.BRUTEFORCE)), (case, k)
    return len(want), target


def _unread_data(net):
    """Data sets that no relation reads or writes."""
    return net.data_selection - {sid for rel in net.relations for sid in rel.scope}


def _first_failure(net, scope, failed):
    """The first anchor over ``scope`` that ``failed`` accepts (None if
    none does) and the number of anchors walked up to it."""
    checked = 0
    for checked, anchor in enumerate(oracle.instances_over(net, scope), 1):
        if failed(anchor):
            return anchor, checked
    return None, checked


def _evidence(net, anchor, other, mode):
    """The oracle's evidence that ``anchor`` has two outcomes: its first
    completion and the first later one with another outcome, which is any
    later one (FULL) or one that projects differently onto ``other``
    (PROJECTED)."""
    first, *later = oracle.oracle_completions(net, anchor)
    second = next(full for full in later
                  if mode == "full" or any(full[k] != first[k] for k in other))
    return [first, second]


def _oracle_verdict(net, query):
    """``(holds, instances_checked, witnesses)`` of a query by the oracle;
    the witnesses are ``(anchor, evidence)`` pairs of the failing anchor,
    or ``(note, [])`` pairs of the redundancy notes."""
    a, b, mode = list(query.from_scope), list(query.to_scope), query.mode.value
    kind = query.kind
    if kind is PropertyKind.MINIMAL:
        checked, notes = 0, []
        for q in a:
            rest = [sid for sid in a if sid != q]
            separating, n = _first_failure(net, a, lambda x: (
                oracle.oracle_outcomes(net, x, b, mode)
                != oracle.oracle_outcomes(net, {k: x[k] for k in rest}, b, mode)))
            checked += n
            if separating is None:
                notes.append(f"redundant:{q}")
        holds = oracle.oracle_minimal(net, a, b, mode)
        assert holds == (not notes)
        return holds, checked, [(note, []) for note in notes]

    def has_none(x):
        return not oracle.oracle_completions(net, x)

    other = None  # the scope two outcomes differ on, for evidence
    if kind is PropertyKind.FUNCTIONAL:
        holds = oracle.oracle_functional(net, a, b, mode)
        anchor, checked = _first_failure(
            net, a, lambda x: oracle.oracle_count_distinct(net, x, b, mode) > 1)
        other = b
    elif kind is PropertyKind.INJECTIVE:
        holds = oracle.oracle_injective(net, a, b, mode)
        anchor, checked = _first_failure(
            net, b, lambda x: oracle.oracle_count_distinct(net, x, a, mode) > 1)
        other = a
    elif kind is PropertyKind.TOTAL:
        holds = oracle.oracle_total(net, a)
        anchor, checked = _first_failure(net, a, has_none)
    elif kind is PropertyKind.SURJECTIVE:
        holds = oracle.oracle_surjective(net, b)
        anchor, checked = _first_failure(net, b, has_none)
    else:
        holds = oracle.oracle_surjective_in(net, query.param)
        anchor, checked = _first_failure(net, [query.param], has_none)
    assert holds == (anchor is None)
    if anchor is None:
        return holds, checked, []
    evidence = [] if other is None else _evidence(net, anchor, other, mode)
    return holds, checked, [(anchor, evidence)]


def _check_against_oracle(net, verdicts):
    """Assert that each verdict equals the oracle's; the number of
    witnesses with evidence compared."""
    evidenced = 0
    for verdict in verdicts:
        holds, checked, witnesses = _oracle_verdict(net, verdict.query)
        got = [(w.note if verdict.query.kind is PropertyKind.MINIMAL else w.anchor.as_dict(),
                [e.as_dict() for e in w.evidence])
               for w in verdict.witnesses]
        assert (verdict.holds, verdict.instances_checked, got) == (holds, checked, witnesses), (
            net.name, verdict.query)
        evidenced += sum(bool(evidence) for _, evidence in witnesses)
    return evidenced


@pytest.fixture
def memo_oracle(monkeypatch):
    """Memoise the oracle's completions, a pure function of (net, partial),
    so that every oracle function asks for each anchor's completions once."""
    memo = {}

    def completions(network, partial, _naive=oracle.oracle_completions):
        key = (network, tuple(sorted(partial.items())))
        if key not in memo:
            memo[key] = _naive(network, partial)
        return memo[key]
    monkeypatch.setattr(oracle, "oracle_completions", completions)
    return memo


def test_join_bruteforce_and_oracle_agree_on_random_nets(memo_oracle):
    rng = random.Random(SEED + 1)
    oracle_verdicts = evidenced = 0
    kinds_seen = set()
    most_completions = 0
    empty_targets = zero_set_nets = unread_data_nets = 0
    for net in _nets():
        kinds_seen.update(kind_of(rel) for rel in net.relations)
        for _ in range(2):
            n, target = _check_engine_calls(rng, net)
            most_completions = max(most_completions, n)
            empty_targets += bool(net.sets) and not target
        if not net.sets:
            zero_set_nets += 1
            with pytest.raises(ScopeMismatchError):
                check_suite(net)
            continue
        unread_data_nets += bool(_unread_data(net))
        for direction in Direction:
            for mode in CountMode:
                join, brute = (
                    check_suite(net, direction, mode, engine=engine)
                    for engine in (Engine.JOIN, Engine.BRUTEFORCE))
                assert (render_json(net.name, direction.value, mode.value, join)
                        == render_json(net.name, direction.value, mode.value, brute)
                        == oracle.oracle_render_json(
                            net.name, direction.value, mode.value, join)), (
                    net.name, direction, mode)
                if net.name.startswith("small"):
                    evidenced += _check_against_oracle(net, join)
                    oracle_verdicts += len(join)
        memo_oracle.clear()
    # The generator must keep producing every relation kind and loose nets.
    assert kinds_seen >= {"nullary", "empty", "out-only", "multi-output", "plain"}
    assert most_completions >= 200
    assert zero_set_nets == ZERO_SET_NETS
    assert unread_data_nets >= 150  # 60 of them from the isolated-set nets
    assert empty_targets >= 150
    assert oracle_verdicts >= 8000
    assert evidenced >= 400  # failing functional and injective verdicts


def _load_path(net):
    """The row-key memo, the validate report and the encoded relations (or
    the refusal) of one Network instance, bypassing the encode cache."""
    try:
        relations = encode.__wrapped__(net).relations
    except InvalidNetworkError as refusal:
        relations = repr(refusal)
    return net._row_keys, validate(net), relations


def test_parsed_row_keys_equal_an_unseeded_rebuild():
    """parse hands its row keys to the network it returns; the keys, the
    report and the encoding must be those of the same fields built anew."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.semnet"))]
    texts += [serialize(net) for net in _nets()]
    for text in texts:
        net = parse(text).network
        seeded = net.__dict__["_row_keys"]
        assert type(seeded) is tuple and all(type(k) in (tuple, type(None)) for k in seeded)
        rebuilt = Network(net.name, net.sets, net.relations, net.data_selection)
        assert "_row_keys" not in rebuilt.__dict__
        assert _load_path(net) == _load_path(rebuilt), net.name
    assert len(texts) == 9 + SMALL_NETS + LOOSE_NETS + ISOLATED_NETS + ZERO_SET_NETS


def test_generated_nets_round_trip_through_text():
    nets = 0
    for net in _nets():
        again = parse(serialize(net)).network
        assert again == net, net.name
        assert validate(again) == validate(net), net.name
        nets += 1
    assert nets == SMALL_NETS + LOOSE_NETS + ISOLATED_NETS + ZERO_SET_NETS


def _outcome(verdict):
    return (verdict.holds, verdict.instances_checked,
            [(w.anchor, w.evidence) for w in verdict.witnesses])


def test_duality_laws_on_small_nets():
    cases = injective_failures = surjective_failures = 0
    for net in itertools.islice(_nets(), SMALL_NETS):
        for a, b in ((net.data_selection, sinks(net)), (sources(net), sinks(net)),
                     (net.data_selection, sources(net))):
            for mode in CountMode:
                case = (net.name, sorted(a), sorted(b), mode)
                injective = _outcome(check_injective(net, a, b, mode))
                assert injective == _outcome(check_functional(net, b, a, mode)), case
                surjective = _outcome(check_surjective(net, a, b, mode))
                assert surjective == _outcome(check_total(net, b, a, mode)), case
                cases += 1
                injective_failures += not injective[0]
                surjective_failures += not surjective[0]
    assert cases == SMALL_NETS * 6
    # Both laws must be tried on failing verdicts, with witnesses.
    assert injective_failures >= 150 and surjective_failures >= 1000


def _shuffled(net, rng):
    """``net`` with each set's values in a random order."""
    sets = tuple(ValueSet(vs.id, tuple(rng.sample(vs.values, len(vs.values))))
                 for vs in net.sets)
    return Network(net.name, sets, net.relations, net.data_selection)


def _renamed(net, rng):
    """``net`` with every set and value renamed, declaration order kept,
    the map of set ids and the map of (set id, value) pairs to new values;
    the new ids and values sort in another order."""
    ids = [vs.id for vs in net.sets]
    new_ids = dict(zip(ids, rng.sample([f"N{i}" for i in range(len(ids))], len(ids))))
    new_values = {(vs.id, v): new for vs in net.sets for v, new in zip(
        vs.values, rng.sample([f"w{i}" for i in range(len(vs.values))], len(vs.values)))}
    sets = tuple(ValueSet(new_ids[vs.id], tuple(new_values[vs.id, v] for v in vs.values))
                 for vs in net.sets)
    relations = tuple(
        Relation(rel.id, tuple(map(new_ids.get, rel.in_sets)),
                 tuple(map(new_ids.get, rel.out_sets)),
                 tuple(tuple(new_values[pair] for pair in zip(rel.scope, row))
                       for row in rel.rows))
        for rel in net.relations)
    data = frozenset(map(new_ids.get, net.data_selection))
    return Network(net.name, sets, relations, data), new_ids, new_values


def _redundant(verdict):
    return [w.note.removeprefix("redundant:") for w in verdict.witnesses]


def _renamed_verdict(verdict, new_ids, new_values):
    """``verdict`` with its sets and values renamed as :func:`_renamed` does."""
    def instance(inst):
        return Instance({new_ids[sid]: new_values[sid, v] for sid, v in inst.assignment})

    def note(text):
        q = text.removeprefix("redundant:")
        return text if q == text else f"redundant:{new_ids[q]}"
    query = verdict.query
    query = replace(query, from_scope=tuple(map(new_ids.get, query.from_scope)),
                    to_scope=tuple(map(new_ids.get, query.to_scope)),
                    param=query.param and new_ids[query.param])
    witnesses = tuple(Witness(instance(w.anchor), tuple(map(instance, w.evidence)), note(w.note))
                      for w in verdict.witnesses)
    return replace(verdict, query=query, witnesses=witnesses)


def _kept(verdicts):
    """What shuffling values keeps: each ``holds``, and minimality's
    redundant sets."""
    return [(v.holds, _redundant(v) if v.query.kind is PropertyKind.MINIMAL else [])
            for v in verdicts]


def _assert_laws(run, net, shuffled, renamed, new_ids, new_values, case):
    """``run``, a function from a network and an engine to verdicts, obeys
    both laws under both engines, each against the join's verdicts on
    ``net``; those verdicts."""
    verdicts = run(net, Engine.JOIN)
    for engine in (Engine.JOIN, Engine.BRUTEFORCE):
        assert _kept(run(shuffled, engine)) == _kept(verdicts), (case, engine)
        mapped = run(renamed, engine)
        assert mapped == tuple(_renamed_verdict(v, new_ids, new_values)
                               for v in verdicts), (case, engine)
    return verdicts


def test_metamorphic_laws_on_small_nets():
    """Shuffling each set's values keeps every ``holds`` of all six
    checkers, and minimality's redundant sets; renaming sets and values
    maps every verdict one to one: scopes and witnesses renamed,
    ``instances_checked`` equal. Both engines run the changed nets, for the
    suites of both directions and for minimality also from the sources to
    the sinks, so that it covers the scope pairs of the duality laws. Each
    is compared with the join's verdicts on the net itself, which brute
    force's equal on every suite (the test above)."""
    rng = random.Random(SEED)
    suites = from_sources = redundant = failures = 0
    for net in itertools.islice(_nets(), SMALL_NETS):
        variants = (net, _shuffled(net, rng), *_renamed(net, rng))
        for mode in CountMode:
            for direction in Direction:
                suite = _assert_laws(
                    lambda n, engine: check_suite(n, direction, mode, engine=engine),
                    *variants, (net.name, direction, mode))
                suites += 1
                failures += sum(not v.holds for v in suite[:4])
                redundant += not suite[4].holds  # the minimality verdict
            if sources(net):
                (verdict,) = _assert_laws(
                    lambda n, engine: (check_minimal(n, sources(n), sinks(n), mode,
                                                     engine=engine),),
                    *variants, (net.name, "sources", mode))
                from_sources += 1
                redundant += not verdict.holds
    # 300 nets, 2 suites each way, and minimality from the sources where
    # some set is one: 1598 minimality cases over the duality pairs, each
    # under both engines.
    minimal = suites + from_sources
    assert suites == SMALL_NETS * 4 and minimal == 1598
    # Both laws must be tried on redundant sets and on minimal selections,
    # and on failing verdicts of the other checkers.
    assert redundant >= 1000 and minimal - redundant >= 400
    assert failures >= 1750


def _with_untouched_set(net, rng):
    """``net`` with a set U of 2-3 values that no relation touches, declared
    at a random position."""
    extra = ValueSet("U", tuple(f"u{i}" for i in range(rng.randint(2, 3))))
    at = rng.randint(0, len(net.sets))
    return Network(net.name, net.sets[:at] + (extra,) + net.sets[at:], net.relations,
                   net.data_selection)


_CHECKS = {PropertyKind.FUNCTIONAL: check_functional, PropertyKind.TOTAL: check_total,
           PropertyKind.INJECTIVE: check_injective, PropertyKind.SURJECTIVE: check_surjective,
           PropertyKind.MINIMAL: check_minimal}


def test_an_untouched_set_keeps_every_projected_verdict():
    """Adding a set U that no relation touches, with each query's scopes
    passed explicitly, keeps every PROJECTED verdict of both directions'
    suites: ``holds``, the witness anchors and notes, and
    ``instances_checked``. Each evidence instance gains U at its first
    value, since every completion extends to each of U's values and
    lexicographic order meets the first one first."""
    rng = random.Random(SEED + 2)
    verdicts = 0
    for net in _nets():
        if not net.sets:
            continue
        wider = _with_untouched_set(net, rng)
        first = wider.value_set("U").values[0]
        for direction in Direction:
            for verdict in check_suite(net, direction, CountMode.PROJECTED):
                query = verdict.query
                if query.param is None:
                    again = _CHECKS[query.kind](wider, query.from_scope, query.to_scope,
                                                query.mode)
                else:
                    again = check_surjective_in(wider, query.param, query.from_scope,
                                                query.to_scope, query.mode)
                witnesses = tuple(replace(w, evidence=tuple(
                    Instance({**e.as_dict(), "U": first}) for e in w.evidence))
                    for w in verdict.witnesses)
                assert again == replace(verdict, witnesses=witnesses), (net.name, query)
                verdicts += 1
    assert verdicts >= 5000


def _with_implied_relation(net, rng):
    """``net`` with one more relation, declared at a random position, that
    T, the consistent full instances, satisfies: its in-scope is 1-3
    random sets and its out-scope is empty, so it closes no cycle, and its
    rows are T's projection onto that scope and random other combinations."""
    scope = rng.sample([vs.id for vs in net.sets], rng.randint(1, min(3, len(net.sets))))
    projected = {tuple(full[sid] for sid in scope) for full in oracle_completions(net, {})}
    rows = [row for row in itertools.product(*(net.value_set(sid).values for sid in scope))
            if row in projected or rng.random() < 0.3]
    rng.shuffle(rows)
    at = rng.randint(0, len(net.relations))
    implied = Relation("implied", tuple(scope), (), tuple(rows))
    return Network(net.name, net.sets, net.relations[:at] + (implied,) + net.relations[at:],
                   net.data_selection)


def test_a_relation_that_t_satisfies_keeps_every_verdict():
    """Adding a relation that every consistent full instance satisfies
    leaves T as it is, so with each query's scopes passed explicitly
    (the relation may change the sinks) every PROJECTED verdict of both
    directions' suites stays equal as a whole: ``holds``, witnesses,
    evidence and ``instances_checked``."""
    rng = random.Random(SEED + 3)
    verdicts = 0
    for net in _nets():
        if not net.sets:
            continue
        stricter = _with_implied_relation(net, rng)
        for direction in Direction:
            for verdict in check_suite(net, direction, CountMode.PROJECTED):
                query = verdict.query
                if query.param is None:
                    again = _CHECKS[query.kind](stricter, query.from_scope,
                                                query.to_scope, query.mode)
                else:
                    again = check_surjective_in(stricter, query.param, query.from_scope,
                                                query.to_scope, query.mode)
                assert again == verdict, (net.name, query)
                verdicts += 1
    assert verdicts >= 5000


@st.composite
def drawn_nets(draw):
    """The small nets of :func:`random_net` as a hypothesis strategy, so
    that a failing net shrinks toward fewer sets, values, relations and
    rows: 1-5 sets of 1-3 values, some isolated, one of those in the data
    selection, and 0-4 relations of every kind with inputs ranked below
    outputs."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    sets = [ValueSet(f"S{i}", tuple(f"v{j}" for j in range(n))) for i, n in enumerate(sizes)]
    order = draw(st.permutations([vs.id for vs in sets]))
    rank = {sid: i for i, sid in enumerate(order)}
    isolated = set(order[:draw(st.integers(0, len(sets) - 1))])
    linked = [vs for vs in sets if vs.id not in isolated]
    relations = []
    for r in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("plain", "out-only", "multi-output", "nullary")))
        if len(linked) < 2 and kind in ("multi-output", "plain"):
            kind = "out-only"
        if kind == "nullary":
            relations.append(Relation(f"r{r}", (), (), ((),) * draw(st.booleans())))
            continue
        arity = draw(st.integers(1 if kind == "out-only" else 2, min(3, len(linked))))
        scope = sorted(draw(st.lists(st.sampled_from(linked), min_size=arity, max_size=arity,
                                     unique_by=lambda vs: vs.id)),
                       key=lambda vs: rank[vs.id])
        if kind == "out-only":
            split = 0
        elif kind == "multi-output":
            split = 1 if arity >= 3 else draw(st.integers(0, 1))
        else:
            split = draw(st.integers(1, arity - 1))
        ins, outs = draw(st.permutations(scope[:split])), draw(st.permutations(scope[split:]))
        candidates = list(itertools.product(*(vs.values for vs in ins + outs)))
        kept = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
        rows = draw(st.permutations([row for row, keep in zip(candidates, kept) if keep]))
        relations.append(Relation(f"r{r}", tuple(vs.id for vs in ins),
                                  tuple(vs.id for vs in outs), tuple(rows)))
    data = draw(st.lists(st.sampled_from(order), min_size=1, max_size=min(2, len(order)),
                         unique=True))
    if isolated and not isolated & set(data):
        data.append(draw(st.sampled_from(sorted(isolated))))
    net = Network("drawn", tuple(sets), tuple(relations), frozenset(data))
    assert validate(net).ok, validate(net).errors
    return net


# The oracle memo is keyed by the network's value, so it may outlive one
# drawn net: that is why the fixture is shared by every example.
@seed(SEED)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(net=drawn_nets())
def test_join_bruteforce_and_oracle_agree_on_drawn_nets(memo_oracle, net):
    """On every drawn net both engines give equal verdicts for all six
    checkers, in both directions and modes, and each verdict's ``holds``,
    witnesses, their evidence and ``instances_checked`` equal the oracle's
    walk."""
    for direction in Direction:
        for mode in CountMode:
            join = check_suite(net, direction, mode)
            assert check_suite(net, direction, mode, engine=Engine.BRUTEFORCE) == join
            _check_against_oracle(net, join)


@seed(SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(net=drawn_nets(), data=st.data())
def test_a_warm_suite_equals_a_cold_one_on_drawn_nets(net, data):
    """The scopes the checkers keep on a network and the layouts, outcome
    sets and decisions they keep on its encoding change no verdict: under
    both engines, in both directions and modes, each suite of a first
    pass, run in a drawn order that decides on its first suites what the
    later ones read, and of a second pass on the warm encoding equals the
    one on a fresh equal network after ``encode.cache_clear()``."""
    runs = data.draw(st.permutations(list(itertools.product(Engine, Direction, CountMode))))
    encode.cache_clear()
    first = [check_suite(net, direction, mode, engine=engine)
             for engine, direction, mode in runs]
    warm = [check_suite(net, direction, mode, engine=engine)
            for engine, direction, mode in runs]
    cold = []
    for engine, direction, mode in runs:
        encode.cache_clear()
        fresh = Network(net.name, net.sets, net.relations, net.data_selection)
        cold.append(check_suite(fresh, direction, mode, engine=engine))
    assert first == cold
    assert warm == cold


# --- one question asked by several kinds ------------------------------------

def _shared_questions(net, pick):
    """Pairs and triples of checker calls, as (checker, kwargs) that ask
    one question of one layout: functional from S to R and injective from
    R to S (distinctness of S's anchors at R), total from S and
    surjective to S (coverage of S), and with S one set P, surjective-in
    of P too. S and R are the data selection, the sinks, the sources and
    two scopes ``pick()`` draws; P is each set."""
    scopes = [sorted(net.data_selection), sinks(net), sources(net), pick(), pick()]
    groups = []
    for s_scope, r_scope in itertools.product(scopes, repeat=2):
        groups.append(((check_functional, dict(from_scope=s_scope, to_scope=r_scope)),
                       (check_injective, dict(from_scope=r_scope, to_scope=s_scope))))
        groups.append(((check_total, dict(from_scope=s_scope, to_scope=r_scope)),
                       (check_surjective, dict(from_scope=r_scope, to_scope=s_scope))))
    for p in (vs.id for vs in net.sets):
        groups.append(((check_total, dict(from_scope=[p], to_scope=pick())),
                       (check_surjective, dict(from_scope=pick(), to_scope=[p])),
                       (partial(check_surjective_in, param=p), dict(to_scope=[p]))))
    return groups


_NOTES = {check_functional: {"multiple-outcomes"}, check_injective: {"multiple-preimages"},
          check_total: {"no-outcome"}, check_surjective: {"unreachable"}}


def _shared_questions_match_cold(net, pick):
    """Every group of :func:`_shared_questions`, under both engines and in
    both modes, run in each order from an encoding that keeps no layout,
    gives what each call gives alone from such an encoding, each witness
    with its own kind's note; the number of failing verdicts compared.
    Layouts hold every decision, so dropping them, and not T, which brute
    force builds slowly on the pitch nets, makes each run cold."""
    failing = 0
    for engine, mode in itertools.product(Engine, CountMode):
        for group in _shared_questions(net, pick):
            cold = []
            for check, kwargs in group:
                encode(net).groups.clear()
                cold.append(check(net, mode=mode, engine=engine, **kwargs))
            for order in itertools.permutations(range(len(group))):
                encode(net).groups.clear()
                got = {i: group[i][0](net, mode=mode, engine=engine, **group[i][1])
                       for i in order}
                assert [got[i] for i in range(len(group))] == cold, (net.name, group, order)
            for (check, _), verdict in zip(group, cold):
                notes = _NOTES.get(check, {"unrealizable-value"})
                assert {w.note for w in verdict.witnesses} <= notes
                failing += not verdict.holds
    return failing


def test_shared_questions_equal_their_cold_verdicts_on_corpus_nets():
    """On the corpus nets, the kinds that ask one question of a layout
    give their cold verdicts in every order, each with its own note."""
    rng = random.Random(SEED + 5)
    failing = 0
    for net in all_networks().values():
        ids = [vs.id for vs in net.sets]
        failing += _shared_questions_match_cold(
            net, lambda: rng.sample(ids, rng.randint(0, min(3, len(ids)))))
    assert failing >= 100


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(net=drawn_nets(), data=st.data())
def test_shared_questions_equal_their_cold_verdicts_on_drawn_nets(net, data):
    """As on the corpus nets, on drawn nets with drawn scopes."""
    scope = st.lists(st.sampled_from([vs.id for vs in net.sets]), unique=True, max_size=3)
    _shared_questions_match_cold(net, lambda: data.draw(scope))


# --- the suite's one plan against one public checker call per verdict -------

_SUITE_KINDS = (PropertyKind.FUNCTIONAL, PropertyKind.TOTAL, PropertyKind.INJECTIVE,
                PropertyKind.SURJECTIVE, PropertyKind.MINIMAL, PropertyKind.SURJECTIVE_IN)


def _suite_by_checkers(network, direction=Direction.FORWARD, mode=CountMode.PROJECTED,
                       limits=Limits(), engine=Engine.JOIN, from_scope=None,
                       to_scope=None, kinds=None):
    """``check_suite`` as one public checker call per verdict, with the
    scopes passed as keyword arguments: the reference for the suite's one
    plan, in its verdicts and in the first error it raises."""
    if from_scope is None and not network.data_selection:
        raise ScopeMismatchError(
            "check requires a nonempty data selection or an explicit from scope")
    boundary = sinks if direction is Direction.FORWARD else sources
    b_scope = network.set_order(known_sets(
        network, boundary(network) if to_scope is None else to_scope, "scope"))
    common = dict(mode=mode, limits=limits, engine=engine)
    verdicts = []
    for kind in _SUITE_KINDS if kinds is None else kinds:
        if kind is PropertyKind.SURJECTIVE_IN:
            verdicts += [check_surjective_in(network, param, from_scope=from_scope,
                                             to_scope=b_scope, **common)
                         for param in b_scope]
        elif (kind is PropertyKind.INJECTIVE and direction is Direction.BACKWARD
              and from_scope is None and to_scope is None):
            verdicts.append(check_injective(network, from_scope=sources(network),
                                            to_scope=sinks(network), **common))
        else:
            verdicts.append(_CHECKS[kind](network, from_scope=from_scope,
                                          to_scope=b_scope, **common))
    return tuple(verdicts)


def _suite_matches_checkers(net, **kwargs):
    """Assert that ``check_suite(net, **kwargs)`` equals the checkers'
    verdicts one for one, or raises the error they raise first, of the
    same type and message; the error's type, or None."""
    try:
        want = _suite_by_checkers(net, **kwargs)
    except SemnetError as error:
        with pytest.raises(SemnetError) as raised:
            check_suite(net, **kwargs)
        assert (type(raised.value), str(raised.value)) == (type(error), str(error)), kwargs
        return type(error)
    assert check_suite(net, **kwargs) == want, kwargs
    return None


def _scope_cases(pick):
    """(from, to) scope pairs: the defaults, each side explicit alone,
    both explicit, and an empty from scope; ``pick()`` draws a scope."""
    return [(None, None), (pick(), None), (None, pick()), (pick(), pick()), ((), None)]


def test_the_suite_gives_the_checkers_verdicts_on_corpus_nets():
    """On the corpus nets, under both engines, in both directions and
    modes, with default and explicit scopes and with every kind or a
    shuffled subset of kinds, ``check_suite`` gives what one public
    checker call per verdict gives."""
    rng = random.Random(SEED + 4)
    outcomes = []
    for net in all_networks().values():
        ids = [vs.id for vs in net.sets]

        def pick():
            return rng.sample(ids, rng.randint(0, min(3, len(ids))))
        for engine, direction, mode in itertools.product(Engine, Direction, CountMode):
            for from_scope, to_scope in _scope_cases(pick):
                for kinds in (None, rng.sample(_SUITE_KINDS, rng.randint(1, 6))):
                    outcomes.append(_suite_matches_checkers(
                        net, direction=direction, mode=mode, engine=engine,
                        from_scope=from_scope, to_scope=to_scope, kinds=kinds))
    assert outcomes.count(None) >= 400 and ScopeMismatchError in outcomes


@seed(SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(net=drawn_nets(), data=st.data())
def test_the_suite_gives_the_checkers_verdicts_on_drawn_nets(net, data):
    """As on the corpus nets, on drawn nets with drawn scopes and kinds."""
    ids = [vs.id for vs in net.sets]
    scope = st.lists(st.sampled_from(ids), unique=True, max_size=3)
    kinds = st.none() | st.lists(st.sampled_from(_SUITE_KINDS), max_size=4)
    for engine, direction, mode in itertools.product(Engine, Direction, CountMode):
        for from_scope, to_scope in _scope_cases(lambda: data.draw(scope)):
            _suite_matches_checkers(net, direction=direction, mode=mode, engine=engine,
                                    from_scope=from_scope, to_scope=to_scope,
                                    kinds=data.draw(kinds))


def test_the_suite_raises_the_checkers_first_error():
    """Where a suite is refused, it raises the error its first refused
    verdict raises alone: an unknown set in either scope, an invalid
    network, a budget below T's walk, minimality over an empty from
    scope. With no kinds it gives no verdict and encodes nothing."""
    fig = all_networks()["fig1-mini"]
    invalid = Network("empty-data", (ValueSet("A", ()), ValueSet("B", ("b1", "b2"))),
                      (Relation("r", ("A",), ("B",), ()),), frozenset({"A"}))
    minimal = (PropertyKind.MINIMAL,)
    cases = [
        (fig, dict(to_scope={"nowhere"}), ScopeMismatchError),
        (fig, dict(from_scope={"nowhere"}), ScopeMismatchError),
        (fig, dict(from_scope={"nowhere"}, to_scope={"elsewhere"}), ScopeMismatchError),
        (fig, dict(from_scope={"nowhere"}, to_scope=(), kinds=(PropertyKind.SURJECTIVE_IN,)),
         None),
        (fig, dict(from_scope={"nowhere"}, direction=Direction.BACKWARD,
                   kinds=(PropertyKind.INJECTIVE,)), ScopeMismatchError),
        (invalid, {}, InvalidNetworkError),
        (invalid, dict(from_scope={"nowhere"}), ScopeMismatchError),
        (invalid, dict(direction=Direction.BACKWARD, kinds=(PropertyKind.INJECTIVE,)),
         InvalidNetworkError),
        (invalid, dict(from_scope=(), kinds=minimal), ScopeMismatchError),
        (fig, dict(limits=Limits(max_enumerated=86)), LimitExceededError),
        (fig, dict(limits=Limits(max_enumerated=86), from_scope=(), kinds=minimal),
         ScopeMismatchError),
        (fig, dict(from_scope=(), kinds=minimal), ScopeMismatchError),
        (fig, dict(from_scope=(), kinds=(PropertyKind.FUNCTIONAL,) + minimal),
         ScopeMismatchError),
        (Network("no-sets", (), (), frozenset()), {}, ScopeMismatchError),
    ]
    for net, kwargs, error in cases:
        for engine in Engine:
            for mode in CountMode:
                assert _suite_matches_checkers(net, engine=engine, mode=mode,
                                               **kwargs) is error, (net.name, kwargs)
    encode.cache_clear()
    assert check_suite(fig, kinds=()) == check_suite(invalid, kinds=()) == ()
    assert encode.cache_info().currsize == 0


# --- witnesses built from T's rows, and the slot path's invariants ----------

# Set ids whose sort order is not their declaration order: upper case sorts
# before lower case and "ä" after both; a quote or a blank sorts first, and
# only a Network built in Python can carry those.
_UNSORTED_IDS = ("Z", "a", "B", "ä", '"q"', "b c", "_", "A2")


@st.composite
def unsorted_id_nets(draw):
    """A drawn net whose set ids are replaced, in declaration order, by a
    drawn order of :data:`_UNSORTED_IDS`."""
    net = draw(drawn_nets())
    new = dict(zip((vs.id for vs in net.sets), draw(st.permutations(_UNSORTED_IDS))))
    return Network(net.name, tuple(ValueSet(new[vs.id], vs.values) for vs in net.sets),
                   tuple(Relation(rel.id, tuple(map(new.get, rel.in_sets)),
                                  tuple(map(new.get, rel.out_sets)), rel.rows)
                         for rel in net.relations),
                   frozenset(map(new.get, net.data_selection)))


@seed(SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(net=unsorted_id_nets(), data=st.data())
def test_instances_from_rows_and_anchors_equal_the_checked_constructor(net, data):
    """Witness instances skip the public constructor's sort and duplicate
    check: a row's pairs come in the order of the encoding's permutation
    of its set ids, an anchor's from its scope's sort. On ids whose sort
    order is not their declaration order, each equals what the public
    constructor builds, from a dict (rows: every row of T and drawn ones)
    and from pairs (anchors: every anchor of a drawn scope's space)."""
    enc = encode(net)
    ids = [vs.id for vs in net.sets]
    plan = properties._plan(net, Limits(), Engine.JOIN)
    drawn = st.tuples(*(st.integers(0, len(vs.values) - 1) for vs in net.sets))
    for row in plan.table + data.draw(st.lists(drawn, max_size=5)):
        values = [vs.values[i] for vs, i in zip(net.sets, row)]
        assert enc.instance_from_row(row) == Instance(dict(zip(ids, values)))
    scope = net.set_order(data.draw(st.lists(st.sampled_from(ids), unique=True)))
    layout = properties._layout(net, plan, scope)
    for key in itertools.product(*map(range, map(len, layout.values))):
        values = [vs[i] for vs, i in zip(layout.values, key)]
        assert properties._anchor(scope, layout, key) == Instance(zip(scope, values))


def _anchor_of(query):
    """The anchor scope a verdict of ``query`` groups T by."""
    if query.kind is PropertyKind.SURJECTIVE_IN:
        return (query.param,)
    if query.kind in (PropertyKind.INJECTIVE, PropertyKind.SURJECTIVE):
        return query.to_scope
    return query.from_scope


def _kept_on(enc):
    """What the encoding keeps for the checkers: its layouts, their
    decisions and their outcome sets, counted."""
    layouts = enc.groups.values()
    return (len(enc.groups), sum(len(layout.decided) for layout in layouts),
            sum(len(layout.outcomes) for layout in layouts))


def _slot_path_invariants(net, runs):
    """Under both engines, from a cold encoding, each suite of ``runs``
    (direction, mode pairs) builds the layout of each anchor scope that no
    earlier suite read, once, and no other; asked again at once, and again
    after all of them, a suite adds no layout, decision or outcome set.
    With no kinds, a suite encodes nothing."""
    for engine in Engine:
        encode.cache_clear()
        enc = encode(net)
        built = []

        class Tally(dict):
            def __setitem__(self, key, layout):
                built.append(key[1])
                super().__setitem__(key, layout)
        object.__setattr__(enc, "groups", Tally())
        read = set()
        for direction, mode in runs:
            before = len(built)
            verdicts = check_suite(net, direction, mode, engine=engine)
            new = {_anchor_of(verdict.query) for verdict in verdicts} - read
            assert sorted(built[before:]) == sorted(new), (net.name, direction, mode)
            read |= new
            kept = _kept_on(enc)
            assert check_suite(net, direction, mode, engine=engine) == verdicts
            assert _kept_on(enc) == kept
        for direction, mode in runs:
            check_suite(net, direction, mode, engine=engine)
        assert _kept_on(enc) == kept and len(built) == len(read)
        encode.cache_clear()
        for direction, mode in runs:
            assert check_suite(net, direction, mode, engine=engine, kinds=()) == ()
        assert encode.cache_info().currsize == 0


def test_the_slot_path_keeps_its_invariants_on_corpus_nets():
    """:func:`_slot_path_invariants` on every corpus net with a data
    selection, its suites in a shuffled order."""
    rng = random.Random(SEED + 5)
    nets = [net for net in all_networks().values()
            if validate(net).ok and net.data_selection]
    assert len(nets) >= 8
    for net in nets:
        _slot_path_invariants(net, rng.sample(list(itertools.product(Direction, CountMode)), 4))


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(net=drawn_nets(), data=st.data())
def test_the_slot_path_keeps_its_invariants_on_drawn_nets(net, data):
    """:func:`_slot_path_invariants` on drawn nets, in a drawn order."""
    _slot_path_invariants(net, data.draw(st.permutations(
        list(itertools.product(Direction, CountMode)))))
