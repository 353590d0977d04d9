"""Benchmark the join search: jitted vs interpreted, vs brute force.

The kernel entry points call ``semnet.kernels.search``, so the interpreted
route is timed by swapping its pure-Python original ``_search`` back in;
the brute-force route goes through ``engine="bruteforce"``. Report columns
are best-of-``--repeat`` wall times. The jitted column and the speedup are
printed only when the search is jitted (numba imports). The last line of
output is one JSON object: ``python``, ``numpy``, ``jit_enabled`` and
``best_ms``, the best time in milliseconds per network, op (``count`` or
``suite``) and column (``jit``, ``python``, ``brute``).

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--net NAME ...]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from contextlib import contextmanager

import numpy as np

from semnet import CountMode, Direction, Engine, Instance, check_suite, count_distinct
from semnet import kernels
from semnet.corpus import all_networks

DEFAULT_NETS = ("t4", "fig1-mini", "dodeca")


@contextmanager
def interpreted_kernels():
    saved = kernels.search
    kernels.search = kernels._search
    try:
        yield
    finally:
        kernels.search = saved


def best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_case(net, op: str, engine: Engine):
    if op == "count":
        target = [vs.id for vs in net.sets]
        return lambda: count_distinct(net, Instance(), target, CountMode.FULL,
                                      engine=engine)
    return lambda: check_suite(net, Direction.FORWARD, CountMode.PROJECTED,
                               engine=engine)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed repetitions per cell; best is reported")
    parser.add_argument("--net", nargs="*", default=list(DEFAULT_NETS),
                        help="corpus networks to benchmark")
    args = parser.parse_args()

    nets = all_networks()
    unknown = [n for n in args.net if n not in nets]
    if unknown:
        parser.error(f"unknown networks: {', '.join(unknown)}")

    jit = kernels.JIT_ENABLED
    if jit:
        # One warm pass so compilation is not billed to the first cell.
        check_suite(nets[args.net[0]], engine=Engine.JOIN)
    else:
        print("JIT off (numba is not importable): "
              "timing interpreted kernels and brute force only")

    columns = ["python ms", "brute ms"]
    if jit:
        columns = ["jit ms", *columns, "speedup"]
    header = f"{'network':<14} {'op':<7} " + " ".join(f"{c:>10}" for c in columns)
    print(header)
    print("-" * len(header))
    best_ms: dict[str, dict[str, dict[str, float]]] = {}
    for name in args.net:
        net = nets[name]
        for op in ("count", "suite"):
            with interpreted_kernels():
                py_t = best_of(run_case(net, op, Engine.JOIN), args.repeat)
            brute_t = best_of(run_case(net, op, Engine.BRUTEFORCE), args.repeat)
            times = {"python": py_t * 1e3, "brute": brute_t * 1e3}
            cells = [f"{py_t * 1e3:>10.3f}", f"{brute_t * 1e3:>10.3f}"]
            if jit:
                jit_t = best_of(run_case(net, op, Engine.JOIN), args.repeat)
                times = {"jit": jit_t * 1e3, **times}
                cells = [f"{jit_t * 1e3:>10.3f}", *cells, f"{py_t / jit_t:>9.1f}x"]
            best_ms.setdefault(name, {})[op] = times
            print(f"{name:<14} {op:<7} " + " ".join(cells))
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "jit_enabled": jit, "best_ms": best_ms}, sort_keys=True))


if __name__ == "__main__":
    main()
