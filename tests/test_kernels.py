"""The exported join kernels and their interpreted originals must agree,
the JIT must be selected exactly when numba imports and the no-JIT flag is
unset, and otherwise the interpreted fallbacks must be selected and work."""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from semnet import Instance, encode
from semnet.corpus import all_networks
from semnet.kernels import (
    JIT_ENABLED,
    _no_numba_requested,
    collect_completions,
    collect_distinct_reps,
    count_completions,
    count_distinct_capped,
    py_kernels,
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


def test_jit_and_python_kernels_agree():
    rng = random.Random(42)
    for name, net in all_networks().items():
        enc = encode(net)
        for _ in range(6):
            fixed = _random_fixed(rng, enc)
            cap = rng.choice([0, 1, 2, 5])
            jit_n = count_completions(*_args(enc, fixed), cap)
            py_n = py_kernels["count_completions"](*_args(enc, fixed), cap)
            assert jit_n == py_n, (name, fixed, cap)

            rows = max(jit_n, 1)
            out_a = np.zeros((rows, enc.n_sets), dtype=np.int64)
            out_b = np.zeros((rows, enc.n_sets), dtype=np.int64)
            n_a = collect_completions(*_args(enc, fixed), out_a)
            n_b = py_kernels["collect_completions"](*_args(enc, fixed), out_b)
            assert n_a == n_b
            assert np.array_equal(out_a[:n_a], out_b[:n_b]), name

            target = frozenset(
                sid for sid in (vs.id for vs in net.sets) if rng.random() < 0.5)
            tstrides, _ = enc.target_strides(target)
            k = rng.choice([1, 2, 4])
            seen_a = np.zeros(k, dtype=np.int64)
            seen_b = np.zeros(k, dtype=np.int64)
            d_a = count_distinct_capped(*_args(enc, fixed), tstrides, seen_a)
            d_b = py_kernels["count_distinct_capped"](*_args(enc, fixed),
                                                      tstrides, seen_b)
            assert d_a == d_b, (name, target, k)

            reps_a = np.zeros((k, enc.n_sets), dtype=np.int64)
            reps_b = np.zeros((k, enc.n_sets), dtype=np.int64)
            seen_a[:] = 0
            seen_b[:] = 0
            r_a = collect_distinct_reps(*_args(enc, fixed), tstrides, seen_a, reps_a)
            r_b = py_kernels["collect_distinct_reps"](*_args(enc, fixed),
                                                      tstrides, seen_b, reps_b)
            assert r_a == r_b
            assert np.array_equal(reps_a[:r_a], reps_b[:r_b]), name


def _numba_imports() -> bool:
    # Mirrors the kernels' own probe: an installed but unusable numba raises
    # ImportError there too and selects the interpreted kernels.
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def _assert_fallback_in_subprocess(env, prelude=""):
    code = prelude + (
        "from semnet.kernels import JIT_ENABLED, py_kernels\n"
        "import semnet.kernels as kernels\n"
        "from semnet.corpus import build_t3\n"
        "from semnet import CountMode, Instance, count_distinct\n"
        "assert not JIT_ENABLED\n"
        "for name, fn in py_kernels.items():\n"
        "    assert getattr(kernels, name) is fn, name\n"
        "n = count_distinct(build_t3(), Instance({'X': 'x1'}), {'Y'}, CountMode.FULL)\n"
        "assert n == 2, n\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_kernels_are_jitted_by_default():
    exported = {
        "count_completions": count_completions,
        "collect_completions": collect_completions,
        "count_distinct_capped": count_distinct_capped,
        "collect_distinct_reps": collect_distinct_reps,
    }
    assert exported.keys() == py_kernels.keys()
    if _no_numba_requested() or not _numba_imports():
        assert not JIT_ENABLED
        for name, fn in exported.items():
            assert fn is py_kernels[name], name
    else:
        assert JIT_ENABLED
        for name, fn in exported.items():
            assert fn is not py_kernels[name], name

    # With numba blocked and the flag unset, the default import must still
    # fall back, so a machine with numba exercises that branch as well.
    env = dict(os.environ)
    env.pop("SEMNET_NO_NUMBA", None)
    _assert_fallback_in_subprocess(
        env, prelude="import sys\nsys.modules['numba'] = None\n")


def test_no_numba_flag_selects_fallback():
    _assert_fallback_in_subprocess(dict(os.environ, SEMNET_NO_NUMBA="1"))


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
