"""Workload inputs and the correctness gate.

A workload is a list of :class:`Item`: one network's ``.semnet`` text, the
check ops (direction, mode) run on it after each load, the limits they run
with and, where one exists, the expected report of each op. Expected
reports come from ``corpus/golden`` for the shipped corpus, and from
``Engine.BRUTEFORCE`` for generated networks small enough to enumerate.
Every other report must carry witnesses that verify on their own.

Why these workloads:

- ``corpus``: the paper's own networks through the real CLI path. The
  nets are small, so fixed per-call costs weigh as much as the search;
  this catches a design that is asymptotically faster but slower here.
- ``ladder``: layered DAGs two sets wide at ~2e4, ~7e7 and ~3e11
  cartesian space, with 16 data anchors each and long per-anchor
  searches, so the search kernels dominate. The default budget refuses
  the two deep rungs, so these runs pass an explicit ``Limits``; the
  refusal is measured separately.
- ``tables``: five sets, complete tables of up to 800 rows (736 to 1,504
  rows per network). Parsing, hashing the network per encode-cache lookup
  and the fixed cost of many small searches dominate instead.

No op costs more than ~100 ms and a pass at most ~2.5 s, so a 40 s run
repeats every op at least ~16 times (corpus ~200, tables ~40, ladder
16-22) and each op runs within ~0.2 s of the reference timing that
scales it (see ``harness.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from semnet import (
    CountMode,
    Direction,
    Engine,
    Limits,
    Network,
    ScopeMismatchError,
    Verdict,
    check_suite,
    full_space_size,
    is_consistent,
    parse,
    project,
    render_json,
    serialize,
)

from generators import size_record, synthetic, tables

BOTH_WAYS = tuple((d, m) for d in Direction for m in CountMode)
PROJECTED_BOTH_DIRECTIONS = tuple((d, CountMode.PROJECTED) for d in Direction)

LADDER_DEPTHS = (3, 6, 9)   # width 2, domain 4: 4**7, 4**13, 4**19 instances
LADDER_WIDTH = 2
LADDER_DENSITY = 0.03
# Search cost varies 20-40% between nets of one rung and is skewed, so
# each rung has many nets; the costliest rung sets check_p90_ms.
LADDER_PER_RUNG = 12
LADDER_LIMITS = Limits(max_enumerated=10**12)
TABLES_DOMAINS = (6, 7, 8, 9, 10)  # g: 384..640 rows, h: 288..800

# Networks up to this cartesian space also run under brute force in set-up.
BRUTEFORCE_MAX_SPACE = 50_000


@dataclass(frozen=True)
class Item:
    name: str
    text: str
    ops: tuple[tuple[Direction, CountMode], ...]
    limits: Limits
    size: dict
    network: Network | None = None       # what parsing ``text`` must give
    expected: dict = field(default_factory=dict)  # (direction, mode) -> report


def report_key(direction: Direction, mode: CountMode) -> str:
    return f"{direction.value}.{mode.value}"


def corpus_items(root: Path) -> list[Item]:
    """The shipped networks that have goldens, in name order.

    The seed does not reorder them: which net ran just before a load
    moves its time by up to ~30%, which would measure the order.
    """
    golden = root / "corpus" / "golden"
    names = sorted({p.name.split(".")[0] for p in golden.glob("*.json")})
    if not names:
        raise FileNotFoundError(f"no golden reports under {golden}")
    items = []
    for name in names:
        text = (root / "corpus" / f"{name}.semnet").read_text(encoding="utf-8")
        expected = {}
        for d, m in BOTH_WAYS:
            path = golden / f"{name}.{report_key(d, m)}.json"
            expected[report_key(d, m)] = path.read_text(encoding="utf-8")
        net = parse(text).network
        items.append(Item(name, text, BOTH_WAYS, Limits(), size_record(net),
                          expected=expected))
    return items


def _generated(network: Network, ops, limits: Limits) -> Item:
    expected = {}
    if full_space_size(network) <= BRUTEFORCE_MAX_SPACE:
        for d, m in ops:
            verdicts = check_suite(network, d, m, limits=limits, engine=Engine.BRUTEFORCE)
            expected[report_key(d, m)] = render_json(network.name, d.value, m.value, verdicts)
    return Item(network.name, serialize(network), ops, limits, size_record(network),
                network=network, expected=expected)


def ladder_items(rng: random.Random) -> list[Item]:
    return [_generated(synthetic(depth, LADDER_WIDTH, 4, LADDER_DENSITY,
                                 rng.randrange(2**31)),
                       PROJECTED_BOTH_DIRECTIONS, LADDER_LIMITS)
            for depth in LADDER_DEPTHS for _ in range(LADDER_PER_RUNG)]


def tables_items(rng: random.Random) -> list[Item]:
    return [_generated(tables(domain, rng.randrange(2**31)), BOTH_WAYS, Limits())
            for domain in TABLES_DOMAINS]


def build(workload: str, root: Path, seed: int) -> list[Item]:
    rng = random.Random(seed)
    if workload == "corpus":
        return corpus_items(root)
    if workload == "ladder":
        return ladder_items(rng)
    if workload == "tables":
        return tables_items(rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("corpus", "ladder", "tables")


def witness_problems(network: Network, verdicts: tuple[Verdict, ...],
                     mode: CountMode) -> list[str]:
    """Why the verdicts' witnesses fail to verify; empty when they all do.

    A verdict holds exactly when it has no witness. Each evidence instance
    is a consistent full instance that extends its anchor, and the two
    instances of a ``multiple-*`` witness differ on the counted target:
    the to scope for functional, the from scope for injective (anywhere,
    in FULL mode).
    """
    problems = []
    for v in verdicts:
        label = v.query.kind.value
        if v.holds == bool(v.witnesses):
            problems.append(f"{label}: holds={v.holds} with {len(v.witnesses)} witnesses")
        for w in v.witnesses:
            anchor = set(w.anchor.assignment)
            for e in w.evidence:
                if not anchor <= set(e.assignment):
                    problems.append(f"{label}: evidence does not extend its anchor")
                try:
                    consistent = is_consistent(network, e)
                except ScopeMismatchError:
                    consistent = False
                if not consistent:
                    problems.append(f"{label}: evidence is not a consistent full instance")
            if w.note.startswith("multiple-"):
                target = (v.query.to_scope if w.note == "multiple-outcomes"
                          else v.query.from_scope)
                if len(w.evidence) != 2:
                    problems.append(f"{label}: {w.note} needs two instances")
                elif mode is CountMode.FULL:
                    if w.evidence[0] == w.evidence[1]:
                        problems.append(f"{label}: {w.note} instances are equal")
                elif project(w.evidence[0], target) == project(w.evidence[1], target):
                    problems.append(f"{label}: {w.note} instances agree on {target}")
    return problems
