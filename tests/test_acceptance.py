"""Acceptance suite: one test per shipped guarantee, reported one line each.

Run with ``pytest -v tests/test_acceptance.py``; the per-test PASSED/FAILED
lines are the per-criterion report. Each test also prints an ``ACCEPTANCE``
line (visible with ``-s`` or on failure).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from semnet import (
    CountMode,
    Direction,
    Engine,
    Instance,
    ParseFailure,
    check_functional,
    check_injective,
    check_minimal,
    check_surjective,
    check_suite,
    check_total,
    full_space_size,
    parse,
    render_json,
    serialize,
    sinks,
    sources,
)
from semnet.cli import main
from semnet.corpus import all_networks, build_fig1_mini, build_fig1_mini_oor, build_t2

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok, criterion


def test_criterion_1_pitch_network_verdicts():
    """Six boolean verdicts on the pitch nets, PROJECTED, under 5 s."""
    fig = build_fig1_mini()
    oor = build_fig1_mini_oor()
    # Warm the imports and caches so the timing measures the checks themselves.
    check_total(build_t2())

    start = time.perf_counter()
    injective = check_injective(fig).holds
    surjective_all = check_surjective(fig).holds
    surjective_midi = check_surjective(fig, to_scope=("MidiKey",)).holds
    total_ok = check_total(fig).holds
    total_oor = check_total(oor).holds
    minimal = check_minimal(fig)
    backward_total = check_total(fig, to_scope=sources(fig)).holds
    backward_inj = check_injective(fig, from_scope=sources(fig),
                                   to_scope=sinks(fig))
    elapsed = time.perf_counter() - start

    redundant = {w.note.removeprefix("redundant:") for w in minimal.witnesses}
    variant_pair = backward_inj.witnesses[0].evidence
    accidental_variant = (
        len(variant_pair) == 2
        and variant_pair[0]["Accidental"] != variant_pair[1]["Accidental"]
        and variant_pair[0]["MidiKey"] == variant_pair[1]["MidiKey"]
        and variant_pair[0]["Frequency"] == variant_pair[1]["Frequency"])

    ok = (injective is True
          and surjective_all is False
          and surjective_midi is True
          and total_ok is True
          and total_oor is False
          and minimal.holds is False
          and {"Clef", "KeySig", "InstrTranspo"} <= redundant
          and backward_total is True
          and backward_inj.holds is False
          and accidental_variant
          and elapsed < 5.0)
    _report(f"criterion 1: pitch-network verdict reproduction ({elapsed:.2f}s)", ok)


def test_criterion_2_engine_equivalence():
    """Join and brute-force reports byte-identical; corpus under 60 s."""
    start = time.perf_counter()
    ok = True
    for name, net in all_networks().items():
        ok = ok and full_space_size(net) <= 10**6
        for direction in Direction:
            for mode in CountMode:
                reports = [
                    render_json(net.name, direction.value, mode.value,
                                check_suite(net, direction, mode, engine=engine))
                    for engine in (Engine.JOIN, Engine.BRUTEFORCE)]
                ok = ok and reports[0] == reports[1]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(f"criterion 2: engine-equivalent reports on the corpus "
            f"({elapsed:.2f}s)", ok)


def test_criterion_3_duality():
    """injective(A,B) ⟺ functional(B,A); surjective(A,B) ⟺ total(B,A)."""
    ok = True
    for name, net in all_networks().items():
        d = net.set_order(net.data_selection)
        src = net.set_order(sources(net))
        snk = net.set_order(sinks(net))
        for a_scope, b_scope in ((d, snk), (d, src), (src, snk)):
            for mode in CountMode:
                ok = ok and (
                    check_injective(net, a_scope, b_scope, mode).holds
                    == check_functional(net, b_scope, a_scope, mode).holds)
                ok = ok and (
                    check_surjective(net, a_scope, b_scope, mode).holds
                    == check_total(net, b_scope, a_scope, mode).holds)
    _report("criterion 3: duality across corpus, scope pairs and modes", ok)


def test_criterion_4_mode_divergence():
    """t2 minimality: FULL holds, PROJECTED fails."""
    t2 = build_t2()
    ok = (check_minimal(t2, mode=CountMode.FULL).holds is True
          and check_minimal(t2, mode=CountMode.PROJECTED).holds is False)
    _report("criterion 4: counting-mode divergence on t2 minimality", ok)


def test_criterion_5_round_trip_and_fuzz():
    """parse∘serialize∘parse identity; ≥1000 fuzzed inputs never crash."""
    ok = True
    for path in sorted(CORPUS.glob("*.semnet")):
        first = parse(path.read_text(encoding="utf-8")).network
        second = parse(serialize(first)).network
        ok = ok and first == second

    pieces = ["net", "set", "rel", "row", "end", "data", "in", "out", "=",
              "n", "A", "B", "x1", '"x', '"x"', "#c", "\\", "9", "-", "_",
              "\n", " ", "\t", "\r\n"]
    rng = random.Random(20260814)
    cases = 0
    for _ in range(1200):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 80)))
        cases += 1
        try:
            doc = parse(text)
        except ParseFailure as failure:
            ok = ok and bool(failure.errors)
            ok = ok and all(e.line >= 1 for e in failure.errors)
        else:
            ok = ok and parse(serialize(doc.network)).network == doc.network
    ok = ok and cases >= 1000
    _report(f"criterion 5: format round-trip and {cases} fuzz cases", ok)


def test_criterion_6_determinism(capsys):
    """Two runs of check --property all --json are byte-identical."""
    ok = True
    for path in sorted(CORPUS.glob("*.semnet")):
        if path.name == "broken.semnet":
            continue
        outputs = []
        for _ in range(2):
            code = main(["check", str(path), "--property", "all", "--json"])
            outputs.append(capsys.readouterr().out)
            ok = ok and code in (0, 1)
        ok = ok and outputs[0] == outputs[1]
    _report("criterion 6: byte-identical repeated machine reports", ok)


def test_criterion_7_exit_codes(capsys, tmp_path):
    """CLI examples exit 0 / 1 / 3; an oversized space exits 4."""
    code_ok = main(["check", str(CORPUS / "t4.semnet"),
                    "--property", "all", "--direction", "forward"])
    code_fail = main(["check", str(CORPUS / "t2.semnet"),
                      "--property", "surjective", "--direction", "forward"])
    code_invalid = main(["check", str(CORPUS / "broken.semnet")])

    # 4 sets of 60 values: 60^4 = 12,960,000 candidates > the default budget
    lines = ["net big"]
    for sid in ("A", "B", "C", "D"):
        lines.append(f"set {sid} = " + " ".join(f"{sid.lower()}{i}" for i in range(60)))
    lines.append("data A B C D")
    big = tmp_path / "big.semnet"
    big.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code_limit = main(["check", str(big), "--property", "functional"])
    capsys.readouterr()

    ok = (code_ok, code_fail, code_invalid, code_limit) == (0, 1, 3, 4)
    _report(f"criterion 7: exit codes {(code_ok, code_fail, code_invalid, code_limit)}"
            " == (0, 1, 3, 4)", ok)
