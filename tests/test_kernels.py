"""The join's table: built a level at a time, of any partial, it must
equal brute force's table and the oracle's completions, each consumer must
be a slice of a table, and the names the traced benchmark wraps must stay
where it looks for them."""

from __future__ import annotations

import ast
import gc
import itertools
import json
import os
import platform
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from semnet import (
    CountMode,
    Direction,
    LimitExceededError,
    Limits,
    Network,
    Relation,
    ValueSet,
    bruteforce,
    check_suite,
    encode,
    full_space_size,
    kernels,
    properties,
)
from oracle import oracle_completions
from semnet.corpus import all_networks
from test_differential import _nets
from test_properties import _level_nodes

ROOT = Path(__file__).resolve().parent.parent

CONSUMERS = {"count_completions", "collect_completions",
             "count_distinct_capped", "collect_distinct_reps"}
# The default work budget; every corpus net's full space is within it.
BUDGET = Limits().max_enumerated
BOUNDS = (0, 1, 2, 5, 7, 16, None)


def _random_fixed(rng, enc, share=0.4):
    return [rng.randrange(size) if rng.random() < share else -1 for size in enc.sizes]


def _random_target(rng, enc):
    return [i for i in range(enc.n_sets) if rng.random() < 0.5]


def _tables(enc, fixed):
    """Both backends' tables of ``fixed`` under the default budget."""
    return (kernels.table(enc.join_index, fixed, BUDGET),
            bruteforce.table(enc.bruteforce_index, fixed, BUDGET))


@lru_cache(maxsize=None)
def _oracle_rows(net):
    """The oracle's consistent full instances of ``net``, as value indices."""
    enc = encode(net)
    return [tuple(enc.value_index[i][full[sid]] for i, sid in enumerate(enc.set_ids))
            for full in oracle_completions(net, {})]


def _oracle_table(net, fixed):
    """The oracle's completions of ``fixed``, as value indices."""
    return [row for row in _oracle_rows(net)
            if all(value < 0 or value == v for value, v in zip(fixed, row))]


def test_both_engines_export_the_same_entry_points():
    assert set(bruteforce.__all__) == {"build_index", "table"}
    assert set(kernels.__all__) & set(bruteforce.__all__) == {"build_index", "table"}
    assert set(kernels.__all__) - set(bruteforce.__all__) == CONSUMERS | {"JIT_ENABLED",
                                                                          "JoinIndex"}


def test_bruteforce_imports_nothing_from_kernels():
    """Brute force is the independent cross-check: it shares no code with
    the join, not even the consumers that read both tables."""
    tree = ast.parse((ROOT / "src" / "semnet" / "bruteforce.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert {"numpy", "errors"} <= names
    assert "kernels" not in {part for name in names for part in name.split(".")}


def _compare_tables(nets, rng):
    """On eight random partials of each net, about 30% of its sets fixed,
    both backends' tables equal the oracle's completions."""
    for net in nets:
        enc = encode(net)
        for _ in range(8):
            fixed = _random_fixed(rng, enc, 0.3)
            join, brute = _tables(enc, fixed)
            assert list(join) == list(brute) == _oracle_table(net, fixed), (net.name, fixed)


def test_join_walk_matches_bruteforce():
    """On every corpus net, the drawn nets with a set and the hand-made
    nets of every level shape."""
    _compare_tables(_table_nets(), random.Random(7))


def _levels_net(name, seed, nullary_row=True):
    """Seven sets whose levels reach every branch of ``kernels.table``: a
    nullary relation (with or without its row) and a unary one, relations
    with one, three and four bound sets, two relations ending at one level,
    and a last level that no relation ends at."""
    rng = random.Random(seed)
    sets = tuple(ValueSet(sid, tuple(f"{sid.lower()}{i}" for i in range(3)))
                 for sid in "ABCDEFG")
    ids = [vs.id for vs in sets]

    def relation(rid, scope):
        values = [sets[ids.index(sid)].values for sid in scope]
        rows = tuple(row for row in itertools.product(*values) if rng.random() < 0.7)
        return Relation(rid, scope[:-1], scope[-1:], rows)

    relations = (Relation("yes", (), (), ((),) if nullary_row else ()),
                 relation("one", ("B",)),
                 relation("pair", ("A", "C")),
                 relation("three", ("A", "B", "C", "D")),
                 relation("two", ("B", "C", "E")),
                 relation("also", ("D", "E")),
                 relation("four", ("A", "B", "C", "D", "F")))
    return Network(name, sets, relations, frozenset({"A"}))


def _table_nets():
    """Every corpus net, the drawn nets with a set, and the hand-made ones."""
    nets = list(all_networks().values())
    nets += [net for net in _nets() if net.sets]
    nets += [_levels_net(f"levels{seed}", seed) for seed in range(8)]
    nets.append(_levels_net("no-row", 0, nullary_row=False))
    return nets


def _shape(level_checks):
    """Which branch of ``kernels.table`` builds a level."""
    if len(level_checks) != 1:
        return min(len(level_checks), 2), None
    return 1, min(len(level_checks[0][1]), 4)


def test_table_of_the_empty_partial_equals_bruteforce():
    """T built a level at a time equals brute force's T and the oracle's,
    on nets that between them reach every branch of the build."""
    shapes = set()
    for net in _table_nets():
        enc = encode(net)
        index = enc.join_index
        shapes.update(_shape(level_checks) for level_checks in index[1])
        free = [-1] * enc.n_sets
        join, brute = _tables(enc, free)
        assert list(join) == list(brute) == _oracle_rows(net), net.name
    assert shapes == {(0, None), (2, None), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)}
    assert not list(kernels.table(encode(_levels_net("no-row", 0, False)).join_index,
                                  [-1] * 7, BUDGET))


def test_table_is_refused_at_the_first_level_past_the_budget():
    """For every budget from 1 to T's search nodes, the build of T admits
    it exactly when the budget covers the nodes, and a refusal reports the
    nodes through the first level whose count passes the budget."""
    nets = [all_networks()["fig1-mini"], _levels_net("levels", 0)]
    nets += [net for net in _nets() if net.sets]
    budgets = 0
    for net in nets:
        index = encode(net).join_index
        free = [-1] * len(net.sets)
        through = list(itertools.accumulate(_level_nodes(net)))
        for budget in range(1, through[-1] + 1):
            budgets += 1
            if budget == through[-1]:
                assert list(kernels.table(index, free, budget)) == _oracle_rows(net), net.name
                continue
            with pytest.raises(LimitExceededError, match="search nodes") as info:
                list(kernels.table(index, free, budget))
            passed = next(nodes for nodes in through if nodes > budget)
            assert (info.value.required, info.value.allowed) == (passed, budget), (
                net.name, budget)
    assert budgets >= 1000


def test_bruteforce_walk_carries_across_chunks(monkeypatch):
    """With one candidate per chunk, brute force's table yields each
    chunk's consistent row in turn, in rank order."""
    monkeypatch.setattr(bruteforce, "_CHUNK", 1)
    small = [net for net in all_networks().values() if full_space_size(net) <= 8]
    assert len(small) == 5
    _compare_tables(small, random.Random(8))


def _first_per_projection(rows, target):
    """Reference: each row whose projection onto ``target`` is new."""
    seen, out = set(), []
    for row in rows:
        key = tuple(row[i] for i in target)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def test_each_consumer_is_a_slice_of_the_walk():
    """Each consumer of either backend's table equals a slice of the
    oracle's completions, or of their first row per projection; a bound of
    0 takes nothing and None takes all."""
    rng = random.Random(10)
    for name, net in all_networks().items():
        enc = encode(net)
        for _ in range(8):
            fixed, target = _random_fixed(rng, enc), _random_target(rng, enc)
            rows = _oracle_table(net, fixed)
            reps = _first_per_projection(rows, target)
            for bound in BOUNDS:
                for consumer, extra, want in (
                        ("collect_completions", (), rows[:bound]),
                        ("count_completions", (), len(rows[:bound])),
                        ("collect_distinct_reps", (target,), reps[:bound]),
                        ("count_distinct_capped", (target,), len(reps[:bound]))):
                    for table in _tables(enc, fixed):
                        assert getattr(kernels, consumer)(table, *extra, bound) == want, (
                            name, fixed, target, consumer, bound)


def test_search_leaves_no_reference_cycles():
    """Each search's state is freed when its consumer returns, or when a
    table dropped half-consumed goes, not by the cycle collector."""
    enc = encode(all_networks()["fig1-mini"])
    fixed = [-1] * enc.n_sets
    enc.join_index  # built and kept on the encoding before counting
    gc.collect()
    gc.disable()
    try:
        kernels.count_completions(kernels.table(enc.join_index, fixed, BUDGET), None)
        kernels.collect_distinct_reps(kernels.table(enc.join_index, fixed, BUDGET), [0], 2)
        for backend, index in ((kernels, enc.join_index), (bruteforce, enc.bruteforce_index)):
            rows = backend.table(index, fixed, BUDGET)
            half = next(rows)
            assert next(rows) > half
            del rows
        assert gc.collect() == 0
    finally:
        gc.enable()


def _spans_names(constant):
    """A tuple of names in perfbench/spans.py, read without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [constant]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py defines no {constant}")


def test_traced_benchmark_hooks_stay_in_place(monkeypatch):
    """The traced benchmark swaps the module attributes it names in
    ``KERNELS``, ``ENGINE_CALLS`` and ``CHECKERS`` (the last two on
    ``semnet.properties``), and perfbench/harness.py reads ``JIT_ENABLED``;
    every name must exist, and a check must still reach the kernels
    through them, as often as before. The encode cache is cleared first:
    the consistent table, which every checker reads, is built once per
    encoding."""
    names = _spans_names("KERNELS")
    assert set(names) == CONSUMERS
    for name in _spans_names("ENGINE_CALLS") + _spans_names("CHECKERS"):
        assert callable(getattr(properties, name, None)), name
    assert ({fn.__name__ for fn in properties._CHECKERS.values()}
            <= set(_spans_names("CHECKERS")))
    assert isinstance(kernels.JIT_ENABLED, bool)
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(kernels, name)
        assert callable(fn), name

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    net = all_networks()["fig1-mini"]
    encode.cache_clear()
    for direction in Direction:
        for mode in CountMode:
            check_suite(net, direction, mode)
    # T's one build is the only kernel call: every checker reads T.
    assert calls == {"count_completions": 0, "count_distinct_capped": 0,
                     "collect_completions": 1, "collect_distinct_reps": 0}


def test_bench_kernels_ends_with_one_json_record():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--repeat", "1", "--net", "t2", "t4"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__
    assert record.keys() == {"python", "numpy", "best_ms"}
    assert record["best_ms"].keys() == {"t2", "t4"}
    for ops in record["best_ms"].values():
        assert ops.keys() == {"count", "suite"}
        for times in ops.values():
            assert times.keys() == {"join", "brute"}
            assert all(t > 0 for t in times.values())
