"""The join search: its entry points must match brute force's, which share
their names and arguments (each engine's own index first), and the names
the traced benchmark wraps must stay where it looks for them."""

from __future__ import annotations

import ast
import gc
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from semnet import (
    CountMode,
    Direction,
    Limits,
    bruteforce,
    check_suite,
    encode,
    full_space_size,
    kernels,
    properties,
)
from semnet.corpus import all_networks
from semnet.kernels import (
    collect_completions,
    collect_distinct_reps,
    count_completions,
    count_distinct_capped,
)

ROOT = Path(__file__).resolve().parent.parent

ENTRY_POINTS = {"count_completions", "collect_completions",
                "count_distinct_capped", "collect_distinct_reps"}
# The default work budget; every corpus net's full space is within it.
BUDGET = Limits().max_enumerated


def _args(enc, fixed):
    return enc.join_index, fixed


def _random_fixed(rng, enc):
    return [rng.randrange(size) if rng.random() < 0.4 else -1 for size in enc.sizes]


def _random_target(rng, net):
    return frozenset(vs.id for vs in net.sets if rng.random() < 0.5)


def test_both_engines_export_the_same_entry_points():
    assert set(bruteforce.__all__) == ENTRY_POINTS | {"build_index"}
    assert set(kernels.__all__) & set(bruteforce.__all__) == ENTRY_POINTS | {"build_index"}


def _compare_entry_points(nets, rng):
    for name, net in nets.items():
        enc = encode(net)
        for _ in range(8):
            fixed = _random_fixed(rng, enc)
            target = enc.target_positions(_random_target(rng, net))
            for entry in sorted(ENTRY_POINTS):
                join, brute = getattr(kernels, entry), getattr(bruteforce, entry)
                extra = (target,) if "distinct" in entry else ()
                for limit in (0, 1, 2, 4, 5, 7, 16):
                    got = join(enc.join_index, fixed, *extra, limit, BUDGET)
                    assert got == brute(enc.bruteforce_index, fixed, *extra, limit,
                                        BUDGET), (name, fixed, entry, limit)


def test_kernel_entry_points_match_bruteforce():
    _compare_entry_points(all_networks(), random.Random(7))


def test_bruteforce_walk_carries_across_chunks(monkeypatch):
    """With one candidate per chunk, counts, caps, kept rows and the
    projections already met carry from each chunk to the next."""
    monkeypatch.setattr(bruteforce, "_CHUNK", 1)
    small = {name: net for name, net in all_networks().items() if full_space_size(net) <= 8}
    assert len(small) == 5
    _compare_entry_points(small, random.Random(8))


def test_zero_capacity_buffers():
    """Asking for no rows keeps none; a cap of 0 counts without a cap."""
    enc = encode(all_networks()["t2"])
    fixed = [-1] * enc.n_sets
    brute = enc.bruteforce_index
    y = [enc.set_index["Y"]]
    assert collect_completions(*_args(enc, fixed), 0, BUDGET) == []
    assert collect_distinct_reps(*_args(enc, fixed), y, 0, BUDGET) == []
    assert bruteforce.collect_completions(brute, fixed, 0, BUDGET) == []
    assert bruteforce.collect_distinct_reps(brute, fixed, y, 0, BUDGET) == []
    assert (count_completions(*_args(enc, fixed), 0, BUDGET)
            == bruteforce.count_completions(brute, fixed, 0, BUDGET) > 0)
    assert (count_distinct_capped(*_args(enc, fixed), y, 0, BUDGET)
            == bruteforce.count_distinct_capped(brute, fixed, y, 0, BUDGET) > 0)


def test_search_leaves_no_reference_cycles():
    """Each search's state is freed on return, not by the cycle collector."""
    enc = encode(all_networks()["fig1-mini"])
    fixed = [-1] * enc.n_sets
    enc.join_index  # built and kept on the encoding before counting
    gc.collect()
    gc.disable()
    try:
        count_completions(*_args(enc, fixed), 0, BUDGET)
        collect_distinct_reps(*_args(enc, fixed), [0], 2, BUDGET)
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
    the consistent table, which every checker reads, is walked once per
    encoding."""
    names = _spans_names("KERNELS")
    assert set(names) == ENTRY_POINTS
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
    # T's one walk is the only kernel call: every checker reads T.
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
