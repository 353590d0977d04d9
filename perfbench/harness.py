"""Layered benchmark for semnet: time to a checked verdict.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus|ladder|tables --seed N \
        --seconds S --trace 0|1

One process runs one workload as a single closed-loop caller, through the
library path ``semnet check`` uses. A *load op* takes one network's
``.semnet`` text through ``parse``, ``validate`` and ``encode``, with the
encode cache cleared first, as in a fresh process. A *check op* is one
``check_suite(net, direction, mode)`` followed by ``render_json``. A pass
loads every network of the workload once and runs its check ops; passes
repeat while the next one is expected to end within ``--seconds``, so
every op is repeated many times in a run.

Every output is checked (see ``workloads.py``); an op whose output is wrong
or that raises counts as failed. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. The line
before it records the environment, input sizes, sample counts and the raw
failed and refused shares. A traced run alternates untraced and traced
passes, so the difference between their scaled check times is the
tracing overhead, and writes its spans to ``perfbench/out/``.

End-to-end metrics: ``setup_s`` is the import time plus the median of
three full set-ups (generation, reference reports, JIT warm-up);
``check_per_s`` is check ops per second of check time; ``check_p50_ms``,
``check_p90_ms`` and ``load_p50_ms`` are percentiles of all samples of
the run. Metrics must never read 0, so the failed and refused shares are
reported as ``ok_share`` and ``admitted_default_share``, their
complements.

Times are scaled to a fixed host speed. On a shared host the same op runs
up to ~1.6x slower while other tenants load the core, and the share of
such time drifts over minutes, so raw times of one commit differ by 20%
and more between runs minutes apart. The loop therefore times
:func:`reference`, a fixed piece of interpreted work that no semnet code
touches, at most every ``REFERENCE_EVERY_S`` between ops, and scales each
op's time by ``REFERENCE_NOMINAL_S`` over the reference time taken just
before it; ``setup_s`` is scaled by the median reference time of the
run. The reported times are thus what the op takes where
``reference()`` takes ``REFERENCE_NOMINAL_S``, about the speed of an
unloaded core of the machine the bounds were set on. The details line
gives the raw, unscaled values and the reference times beside them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads
from semnet import InvalidNetworkError, LimitExceededError, Limits, check_suite, parse
from spans import encode_mod, kernels, model, netdef, properties, report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 0.2
REFERENCE_NOMINAL_S = 2.5e-3
_REFERENCE_TABLE = tuple(range(256))
_REFERENCE_INDEX = {i: i * 7 % 256 for i in range(256)}
# The cache itself; encode_mod.encode is swapped for a wrapper when traced.
ENCODE = encode_mod.encode


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference() -> int:
    """Fixed interpreted work: dict and tuple lookups and int arithmetic.

    It allocates no container, so the garbage semnet leaves cannot make
    it trigger a collection.
    """
    s = 0
    for i in range(20_000):
        s = (s + _REFERENCE_TABLE[_REFERENCE_INDEX[i & 255]] * i) % 1_000_003
    return s


class HostSpeed:
    """Times :func:`reference` at most every ``REFERENCE_EVERY_S``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0

    def latest(self) -> float:
        """The reference time, taken now if the last one is too old."""
        if time.perf_counter() >= self._next:
            t0 = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - t0)
            self._next = time.perf_counter() + REFERENCE_EVERY_S
        return self.samples[-1]


def scaled(samples: list[tuple[float, float]]) -> list[float]:
    """(raw op time, reference time) pairs as times at the nominal speed."""
    return [t * REFERENCE_NOMINAL_S / ref for t, ref in samples]


class Recorder:
    """Latencies and failures of one phase of the timed loop."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.load_s: list[tuple[float, float]] = []   # (raw time, reference time)
        self.check_s: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def load_op(text: str):
    # Module attributes, looked up per call, so a traced run sees its wrappers.
    ENCODE.cache_clear()
    net = netdef.parse(text).network
    validation = model.validate(net)
    if not validation.ok:
        raise InvalidNetworkError(validation.errors)
    encode_mod.encode(net)
    return net


def check_op(net, direction, mode, limits):
    verdicts = properties.check_suite(net, direction, mode, limits=limits)
    return verdicts, report.render_json(net.name, direction.value, mode.value, verdicts)


def run_pass(items, rec: Recorder, verified: dict, load=load_op, check=check_op) -> None:
    """Load every network once and run its check ops; verify every output."""
    clock = time.perf_counter
    for item in items:
        rec.attempted += 1
        try:
            ref = rec.host.latest()
            t0 = clock()
            net = load(item.text)
            rec.load_s.append((clock() - t0, ref))
        except Exception as exc:  # a failed op is counted, the run goes on
            rec.fail(f"{item.name} load: {exc!r}")
            rec.attempted += len(item.ops)
            rec.failed += len(item.ops)
            continue
        if item.network is not None and net != item.network:
            rec.fail(f"{item.name} load: parsed network differs from the generated one")
        for direction, mode in item.ops:
            rec.attempted += 1
            key = workloads.report_key(direction, mode)
            try:
                ref = rec.host.latest()
                t0 = clock()
                verdicts, text = check(net, direction, mode, item.limits)
                rec.check_s.append((clock() - t0, ref))
            except Exception as exc:  # a failed op is counted, the run goes on
                rec.fail(f"{item.name} {key}: {exc!r}")
                continue
            expected = item.expected.get(key) or verified.get((item.name, key))
            if expected is not None:
                if text != expected:
                    rec.fail(f"{item.name} {key}: report differs from the reference")
                continue
            problems = workloads.witness_problems(net, verdicts, mode)
            if problems:
                rec.fail(f"{item.name} {key}: {problems[0]}")
            else:
                verified[(item.name, key)] = text


def timed_loop(seconds: float, step) -> int:
    """Call ``step()`` for whole passes while the next is expected to fit."""
    start = time.perf_counter()
    passes = 0
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        step()
        passes += 1
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return passes


def refused_default_share(items) -> float:
    """Share of check ops that the default ``Limits()`` refuses."""
    refused = total = 0
    for item in items:
        net = parse(item.text).network
        for direction, mode in item.ops:
            total += 1
            try:
                check_suite(net, direction, mode, limits=Limits())
            except LimitExceededError:
                refused += 1
    return refused / total


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "jit_enabled": kernels.JIT_ENABLED,
        "kernels": "jit" if kernels.JIT_ENABLED else "interpreted",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def setup(workload: str, seed: int):
    items = workloads.build(workload, ROOT, seed)
    if kernels.JIT_ENABLED:
        # Compile every kernel before timing, so compile time lands in set-up.
        net = parse(items[0].text).network
        for direction, mode in items[0].ops:
            check_suite(net, direction, mode, limits=items[0].limits)
    return items


def timings(check: list[float], load: list[float], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "check_per_s": (len(check) / sum(check), "1/s"),
        "check_p50_ms": (_percentile(check, 50) * 1e3, "ms"),
        "check_p90_ms": (_percentile(check, 90) * 1e3, "ms"),
        "load_p50_ms": (statistics.median(load) * 1e3, "ms"),
    }


def end_to_end(items, rec: Recorder, setup_s: float) -> dict:
    speed = REFERENCE_NOMINAL_S / statistics.median(rec.host.samples)
    return {
        **timings(scaled(rec.check_s), scaled(rec.load_s), setup_s * speed),
        "ok_share": (1 - rec.failed / rec.attempted, "share"),
        "admitted_default_share": (1 - refused_default_share(items), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(summary: dict, tracer, untraced_check_s: float,
              traced_check_s: float) -> dict:
    load, check = summary["op.load"], summary["op.check"]
    n_load, n_check = load["ops"], check["ops"]

    def total(kind, table, prefix):
        return sum(v for k, v in kind[table].items() if k.startswith(prefix))

    ms = 1e-6
    engine_calls = total(check, "calls", "engine.")
    kernel_calls = total(check, "calls", "kernels.")
    kernel_ns = total(check, "inclusive", "kernels.")
    parse_ns = total(load, "inclusive", "netdef.parse")
    anchors = tracer.anchors_checked
    encode_calls = tracer.encode_hits + tracer.encode_misses
    misses = total(load, "calls", "encode.miss") + total(check, "calls", "encode.miss")
    miss_self = total(load, "self", "encode.miss") + total(check, "self", "encode.miss")
    out = {
        "netdef.parse_ms": (parse_ns * ms / n_load, "ms"),
        "netdef.parse_us_per_row": (parse_ns * 1e-3 / max(tracer.rows_parsed, 1), "us"),
        "model.validate_ms": (total(load, "inclusive", "model.validate") * ms / n_load, "ms"),
        "encode.miss_ms": (miss_self * ms / max(misses, 1), "ms"),
        "encode.calls": (total(check, "calls", "encode.") / n_check, "count"),
        "encode.hit_ratio": (tracer.encode_hits / max(encode_calls, 1), "ratio"),
        "properties.anchors_checked": (anchors / n_check, "count"),
        "engine.calls": (engine_calls / n_check, "count"),
        "engine.self_ms": (total(check, "self", "engine.") * ms / n_check, "ms"),
        "engine.calls_per_anchor": (engine_calls / max(anchors, 1), "ratio"),
        "kernels.calls": (kernel_calls / n_check, "count"),
        "kernels.ms": (kernel_ns * ms / n_check, "ms"),
        "kernels.us_per_call": (kernel_ns * 1e-3 / max(kernel_calls, 1), "us"),
        "report.render_ms": (total(check, "inclusive", "report.") * ms / n_check, "ms"),
        "trace.overhead_share": (traced_check_s / untraced_check_s - 1, "share"),
    }
    for name in spans.CHECKERS:
        kind = name.removeprefix("check_")
        out[f"properties.{kind}_ms"] = (
            total(check, "inclusive", f"properties.{kind}") * ms / n_check, "ms")
    # Each layer's self time as a share of check-op time; "other" is the
    # root span's own time: check_suite outside the checkers, and the loop.
    for layer in ("kernels", "engine", "encode", "properties", "report"):
        out[f"share.{layer}"] = (total(check, "self", f"{layer}.") / check["ns"], "share")
    out["share.other"] = (total(check, "self", "op.") / check["ns"], "share")
    both = load["ns"] + check["ns"]
    parse_encode_engine = (parse_ns + total(load, "self", "encode.")
                           + total(check, "self", "encode.") + total(check, "self", "engine."))
    out["share.parse_encode_engine"] = (parse_encode_engine / both, "share")
    return out


def main(argv=None, start: float | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for semnet.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # ``start`` is the clock reading at process start, taken by run.py.
    import_s = time.perf_counter() - start if start is not None else 0.0

    repeats = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = setup(args.workload, args.seed)
            repeats.append(time.perf_counter() - t0)
    except OSError as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    setup_s = import_s + statistics.median(repeats)

    host = HostSpeed()
    rec = Recorder(host)
    verified: dict = {}
    details = {
        "workload": args.workload,
        "env": environment(args.seed),
        "inputs": [item.size for item in items],
        "import_s": import_s,
        "setup_repeats_s": repeats,
    }
    if args.trace == 0:
        passes = timed_loop(args.seconds, lambda: run_pass(items, rec, verified))
        metrics = end_to_end(items, rec, setup_s)
        details["refused_default_share"] = 1 - metrics["admitted_default_share"][0]
    else:
        tracer = spans.Tracer()
        traced = Recorder(host)
        load = tracer.wrap("op.load", load_op)
        check = tracer.wrap("op.check", check_op)

        def pair() -> None:
            run_pass(items, rec, verified)
            with spans.traced(tracer):
                run_pass(items, traced, verified, load, check)

        passes = timed_loop(args.seconds, pair)
        summary = spans.summarise(tracer.spans)
        metrics = per_layer(summary, tracer, sum(scaled(rec.check_s)),
                            sum(scaled(traced.check_s)))
        for part in ("attempted", "failed"):
            setattr(rec, part, getattr(rec, part) + getattr(traced, part))
        rec.problems += traced.problems
        details["trace_file"] = _write_trace(args, tracer, summary, details)
    check = scaled(rec.check_s)
    p90 = _percentile(check, 90)
    raw = timings([t for t, _ in rec.check_s], [t for t, _ in rec.load_s], setup_s)
    details.update({
        "passes": passes,
        "samples": {"check": len(check), "load": len(rec.load_s),
                    "beyond_check_p90": sum(1 for s in check if s > p90)},
        "raw": {name: value for name, (value, _) in raw.items()},
        "reference_ms": {"nominal": REFERENCE_NOMINAL_S * 1e3,
                         "median": statistics.median(host.samples) * 1e3,
                         "min": min(host.samples) * 1e3,
                         "samples": len(host.samples)},
        "failed_share": rec.failed / rec.attempted,
        "problems": rec.problems,
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _write_trace(args, tracer, summary: dict, details: dict) -> str:
    names = sorted({s[1] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    doc = {
        **details,
        "span_fields": ["op", "name", "parent", "start_ns", "end_ns"],
        "names": names,
        "summary": summary,
        "spans": [[op, index[name], parent, start, end]
                  for op, name, parent, start, end in tracer.spans],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return str(path.relative_to(ROOT))
