"""The join search: its entry points must match brute force, the exported
``search`` must agree with its interpreted original ``_search``, and the
JIT must be selected exactly when numba imports."""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from semnet import encode
from semnet.bruteforce import (
    bf_collect,
    bf_collect_distinct_reps,
    bf_count,
    bf_count_distinct,
)
from semnet.corpus import all_networks
from semnet.kernels import (
    JIT_ENABLED,
    _search,
    collect_completions,
    collect_distinct_reps,
    count_completions,
    count_distinct_capped,
    search,
)


def _args(enc, fixed):
    return (enc.sizes, fixed, enc.scope_flat, enc.scope_strides, enc.scope_start,
            enc.rowkeys_flat, enc.rowkeys_start, enc.trig_rels, enc.trig_start)


def _random_fixed(rng, enc):
    fixed = np.full(enc.n_sets, -1, dtype=np.int64)
    for i in range(enc.n_sets):
        if rng.random() < 0.4:
            fixed[i] = rng.randrange(int(enc.sizes[i]))
    return fixed


def _random_target(rng, net):
    return frozenset(vs.id for vs in net.sets if rng.random() < 0.5)


def test_kernel_entry_points_match_bruteforce():
    rng = random.Random(7)
    for name, net in all_networks().items():
        enc = encode(net)
        for _ in range(8):
            fixed = _random_fixed(rng, enc)
            case = (name, fixed.tolist())
            for cap in (0, 1, 2, 5):
                assert (count_completions(*_args(enc, fixed), cap)
                        == bf_count(enc, fixed, cap)), (case, cap)
            for rows in (0, 1, 2, 7):
                out = np.full((rows, enc.n_sets), -1, dtype=np.int64)
                n = collect_completions(*_args(enc, fixed), out)
                want = bf_collect(enc, fixed, rows)
                assert n == want.shape[0], (case, rows)
                assert np.array_equal(out[:n], want), (case, rows)
                assert (out[n:] == -1).all(), (case, rows)
            tstrides, _ = enc.target_strides(_random_target(rng, net))
            distinct = bf_count_distinct(enc, fixed, tstrides, 0)
            for k in (0, 1, 2, 4, 16):
                seen = np.zeros(k, dtype=np.int64)
                assert (count_distinct_capped(*_args(enc, fixed), tstrides, seen)
                        == min(distinct, k)), (case, k)
                seen = np.zeros(k, dtype=np.int64)
                reps = np.full((k, enc.n_sets), -1, dtype=np.int64)
                n = collect_distinct_reps(*_args(enc, fixed), tstrides, seen, reps)
                want = bf_collect_distinct_reps(enc, fixed, tstrides, k)
                assert n == want.shape[0], (case, k)
                assert np.array_equal(reps[:n], want), (case, k)
                assert np.array_equal(seen[:n], want @ tstrides), (case, k)


def _run(kernel, enc, fixed, tstrides, n_seen, n_rows, cap):
    seen = np.zeros(n_seen, dtype=np.int64)
    out = np.zeros((n_rows, enc.n_sets), dtype=np.int64)
    n = kernel(*_args(enc, fixed), tstrides, seen, out, cap)
    return n, seen, out


def test_jit_and_python_kernels_agree():
    rng = random.Random(42)
    for name, net in all_networks().items():
        enc = encode(net)
        for _ in range(6):
            fixed = _random_fixed(rng, enc)
            tstrides, _ = enc.target_strides(_random_target(rng, net))
            n_seen = rng.choice([0, 0, 1, 2, 4])
            n_rows = rng.choice([0, 1, 2, 7])
            cap = rng.choice([0, 1, 2, 5, 1 << 40])
            if n_seen:
                cap = min(cap, n_seen)
            jit_n, jit_seen, jit_out = _run(search, enc, fixed, tstrides,
                                            n_seen, n_rows, cap)
            py_n, py_seen, py_out = _run(_search, enc, fixed, tstrides,
                                         n_seen, n_rows, cap)
            case = (name, fixed.tolist(), n_seen, n_rows, cap)
            assert jit_n == py_n, case
            assert np.array_equal(jit_seen, py_seen), case
            assert np.array_equal(jit_out, py_out), case


def _numba_imports() -> bool:
    # Mirrors the kernels' own probe: an installed but unusable numba raises
    # ImportError there too and selects the interpreted search.
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def test_kernels_are_jitted_by_default():
    assert JIT_ENABLED is _numba_imports()
    assert (search is not _search) is JIT_ENABLED

    # With numba blocked, the import must fall back to the interpreted
    # search, so a machine with numba exercises that branch as well.
    code = (
        "import sys\n"
        "sys.modules['numba'] = None\n"
        "import semnet.kernels as kernels\n"
        "from semnet.corpus import build_t3\n"
        "from semnet import CountMode, Instance, count_distinct\n"
        "assert not kernels.JIT_ENABLED\n"
        "assert kernels.search is kernels._search\n"
        "n = count_distinct(build_t3(), Instance({'X': 'x1'}), {'Y'}, CountMode.FULL)\n"
        "assert n == 2, n\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_zero_capacity_buffers():
    net = all_networks()["t2"]
    enc = encode(net)
    fixed = np.full(enc.n_sets, -1, dtype=np.int64)
    out = np.zeros((0, enc.n_sets), dtype=np.int64)
    assert collect_completions(*_args(enc, fixed), out) == 0
    tstrides, _ = enc.target_strides(frozenset({"Y"}))
    seen = np.zeros(0, dtype=np.int64)
    assert count_distinct_capped(*_args(enc, fixed), tstrides, seen) == 0


def test_bench_kernels_ends_with_one_json_record():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_kernels.py"),
         "--repeat", "1", "--net", "t2", "t4"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__
    assert record["jit_enabled"] is JIT_ENABLED
    columns = {"jit", "python", "brute"} if JIT_ENABLED else {"python", "brute"}
    assert record["best_ms"].keys() == {"t2", "t4"}
    for ops in record["best_ms"].values():
        assert ops.keys() == {"count", "suite"}
        for times in ops.values():
            assert times.keys() == columns
            assert all(t > 0 for t in times.values())
