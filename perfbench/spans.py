"""In-memory spans around calls into semnet's layers, for the traced run.

:func:`traced` swaps module attributes of semnet for wrappers that record a
span per call and restores them on exit. Spans stay in memory; the caller
summarises and writes them when the run ends. A span is
``(op, name, parent, start_ns, end_ns)``: ``op`` numbers the benchmark op
(one load or check) that caused it and ``parent`` indexes the enclosing
span, -1 for an op's root span.

The names are ``<layer>.<function>``, except encode calls, which are named
``encode.hit`` or ``encode.miss`` from the cache statistics around them.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns

netdef = importlib.import_module("semnet.netdef")
model = importlib.import_module("semnet.model")
encode_mod = importlib.import_module("semnet.encode")
engine = importlib.import_module("semnet.engine")
kernels = importlib.import_module("semnet.kernels")
properties = importlib.import_module("semnet.properties")
report = importlib.import_module("semnet.report")

CHECKERS = ("check_functional", "check_total", "check_injective",
            "check_surjective", "check_surjective_in", "check_minimal")
ENGINE_CALLS = ("count_distinct", "distinct_representatives", "first_completions")
KERNELS = ("count_completions", "collect_completions",
           "count_distinct_capped", "collect_distinct_reps")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int] | None] = []
        self.ops = 0
        self.rows_parsed = 0
        self.anchors_checked = 0
        self.encode_hits = 0
        self.encode_misses = 0
        self._stack: list[int] = []

    def _enter(self) -> tuple[int, int]:
        if not self._stack:
            self.ops += 1
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _exit(self, index: int, parent: int, name: str, start: int) -> None:
        self.spans[index] = (self.ops, name, parent, start, perf_counter_ns())
        self._stack.pop()

    def wrap(self, name: str, fn, tally=None):
        """``fn`` recording one span per call; ``tally(result)`` runs after."""
        def spanned(*args, **kwargs):
            index, parent = self._enter()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, parent, name, start)
            if tally is not None:
                tally(result)
            return result
        return spanned

    def count_rows(self, doc) -> None:
        self.rows_parsed += sum(len(rel.rows) for rel in doc.network.relations)

    def count_anchors(self, verdict) -> None:
        self.anchors_checked += verdict.instances_checked

    def wrap_encode(self, fn):
        def encode(network):
            before = fn.cache_info()
            index, parent = self._enter()
            start = perf_counter_ns()
            try:
                return fn(network)
            finally:
                hit = fn.cache_info().hits > before.hits
                self.encode_hits += hit
                self.encode_misses += not hit
                self._exit(index, parent, "encode.hit" if hit else "encode.miss", start)
        return encode


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every call site the benchmark
    and semnet use between the layers."""
    traced_encode = tracer.wrap_encode(encode_mod.encode)
    traced_validate = tracer.wrap("model.validate", model.validate)
    out = [
        (netdef, "parse", tracer.wrap("netdef.parse", netdef.parse, tracer.count_rows)),
        (model, "validate", traced_validate),
        (encode_mod, "validate", traced_validate),
        (encode_mod, "encode", traced_encode),
        (engine, "encode", traced_encode),
        (report, "render_json", tracer.wrap("report.render_json", report.render_json)),
    ]
    for name in KERNELS:
        out.append((kernels, name, tracer.wrap(f"kernels.{name}", getattr(kernels, name))))
    for name in ENGINE_CALLS:
        out.append((properties, name,
                    tracer.wrap(f"engine.{name}", getattr(properties, name))))
    checkers = {name: tracer.wrap(f"properties.{name.removeprefix('check_')}",
                                  getattr(properties, name), tracer.count_anchors)
                for name in CHECKERS}
    out += [(properties, name, fn) for name, fn in checkers.items()]
    # check_suite dispatches most checkers through this table.
    out.append((properties, "_CHECKERS", {kind: checkers[fn.__name__] for kind, fn
                                          in properties._CHECKERS.items()}))
    return out


@contextmanager
def traced(tracer: Tracer):
    """Route semnet's layer calls through ``tracer`` inside the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, fn in patches:
        setattr(owner, attr, fn)
    try:
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def summarise(spans) -> dict:
    """Per-op-kind totals of inclusive and self time, in ns, by span name.

    Returns ``{root_name: {"ops": n, "ns": total, "self": {name: ns},
    "inclusive": {name: ns}, "calls": {name: n}}}`` where ``root_name`` is
    the name of each op's root span.
    """
    child_ns = [0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    roots: dict[int, str] = {}
    for op, name, parent, _, _ in spans:
        if parent < 0:
            roots[op] = name
    out: dict[str, dict] = {}
    for i, (op, name, parent, start, end) in enumerate(spans):
        kind = out.setdefault(roots[op], {"ops": 0, "ns": 0, "self": {},
                                          "inclusive": {}, "calls": {}})
        duration = end - start
        if parent < 0:
            kind["ops"] += 1
            kind["ns"] += duration
        kind["self"][name] = kind["self"].get(name, 0) + duration - child_ns[i]
        kind["inclusive"][name] = kind["inclusive"].get(name, 0) + duration
        kind["calls"][name] = kind["calls"].get(name, 0) + 1
    return out
