"""Benchmark the join search against brute force.

Each op runs once through ``engine="join"`` and once through
``engine="bruteforce"``; report columns are best-of-``--repeat`` wall
times. The last line of output is one JSON object: ``python`` and
``best_ms``, the best time in milliseconds per network, op (``count``
or ``suite``) and column (``join``, ``brute``).

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--net NAME ...]
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from semnet import CountMode, Direction, Engine, Instance, check_suite, count_distinct
from semnet.corpus import all_networks

DEFAULT_NETS = ("t4", "fig1-mini", "dodeca")
COLUMNS = {"join": Engine.JOIN, "brute": Engine.BRUTEFORCE}


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

    header = f"{'network':<14} {'op':<7} " + " ".join(
        f"{c + ' ms':>10}" for c in COLUMNS)
    print(header)
    print("-" * len(header))
    best_ms: dict[str, dict[str, dict[str, float]]] = {}
    for name in args.net:
        for op in ("count", "suite"):
            times = {column: best_of(run_case(nets[name], op, engine), args.repeat) * 1e3
                     for column, engine in COLUMNS.items()}
            best_ms.setdefault(name, {})[op] = times
            print(f"{name:<14} {op:<7} " + " ".join(f"{t:>10.3f}" for t in times.values()))
    print(json.dumps({"python": platform.python_version(), "best_ms": best_ms},
                     sort_keys=True))


if __name__ == "__main__":
    main()
