"""Tests of the benchmark itself. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import generators  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from semnet import CountMode, Direction, check_suite, serialize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generators_are_deterministic_for_a_seed():
    for make in (lambda s: generators.synthetic(4, 3, 4, 0.05, s),
                 lambda s: generators.tables(8, s)):
        assert serialize(make(7)) == serialize(make(7))
        assert serialize(make(7)) != serialize(make(8))
    for workload in ("ladder", "tables"):
        first = workloads.build(workload, ROOT, 3)
        again = workloads.build(workload, ROOT, 3)
        assert [i.text for i in first] == [i.text for i in again]
        assert [i.expected for i in first] == [i.expected for i in again]
        assert all(i.size["rows"] > 0 and i.size["cartesian"] > 0 for i in first)


def _corpus_pass(root: Path) -> harness.Recorder:
    rec = harness.Recorder(harness.HostSpeed())
    harness.run_pass(workloads.build("corpus", root, 1), rec, {})
    return rec


def test_corpus_pass_matches_goldens():
    rec = _corpus_pass(ROOT)
    assert (rec.attempted, rec.failed) == (40, 0), rec.problems


def test_corrupted_golden_counts_as_failed(tmp_path):
    shutil.copytree(ROOT / "corpus", tmp_path / "corpus")
    golden = tmp_path / "corpus" / "golden" / "t2.forward.projected.json"
    golden.write_text(golden.read_text().replace('"holds": true', '"holds": false', 1))
    rec = _corpus_pass(tmp_path)
    assert (rec.attempted, rec.failed) == (40, 1)
    assert "t2 forward.projected" in rec.problems[0]


def test_witness_gate_rejects_a_forged_witness():
    net = generators.synthetic(2, 3, 4, 0.05, 5)
    verdicts = check_suite(net, Direction.FORWARD, CountMode.PROJECTED)
    assert workloads.witness_problems(net, verdicts, CountMode.PROJECTED) == []
    i, failing = next((i, v) for i, v in enumerate(verdicts)
                      if v.witnesses and len(v.witnesses[0].evidence) == 2)
    twin = replace(failing.witnesses[0], evidence=(failing.witnesses[0].evidence[0],) * 2)
    forged = verdicts[:i] + (replace(failing, witnesses=(twin,)),) + verdicts[i + 1:]
    assert workloads.witness_problems(net, forged, CountMode.PROJECTED)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
