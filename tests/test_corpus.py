"""Shipped corpus: files match builders, goldens regenerate byte-identically,
and the variant nets show the behaviours they exist for."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semnet
from semnet import (
    CountMode,
    Direction,
    Instance,
    check_injective,
    check_total,
    parse,
    sinks,
    sources,
    validate,
)
from semnet.corpus import all_networks, build_broken, write_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_shipped_files_match_builders():
    for name, net in all_networks().items():
        path = CORPUS / f"{name}.semnet"
        assert path.exists(), name
        assert parse(path.read_text(encoding="utf-8")).network == net, name
    broken = CORPUS / "broken.semnet"
    assert parse(broken.read_text(encoding="utf-8")).network == build_broken()


def test_broken_fails_validation():
    assert not validate(build_broken()).ok


def test_write_corpus_regenerates_identically(tmp_path):
    write_corpus(tmp_path)
    generated = sorted(p.relative_to(tmp_path)
                       for p in tmp_path.rglob("*") if p.is_file())
    shipped = sorted(p.relative_to(CORPUS)
                     for p in CORPUS.rglob("*") if p.is_file())
    assert generated == shipped
    for rel in generated:
        assert (tmp_path / rel).read_bytes() == (CORPUS / rel).read_bytes(), rel


@pytest.mark.parametrize("option, code", [("--help", 0), ("--no-such-option", 2)])
def test_module_entry_point_writes_nothing_for_an_option(tmp_path, option, code):
    """``python -m semnet.corpus`` takes options as options, not as the
    output directory: help exits 0, an unknown option exits 2, and
    neither writes into the working directory."""
    path = (str(Path(semnet.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-m", "semnet.corpus", option], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == code, run.stderr
    assert "usage: python -m semnet.corpus" in run.stdout + run.stderr
    assert list(tmp_path.iterdir()) == []


def test_pitch_net_shapes():
    nets = all_networks()
    fig = nets["fig1-mini"]
    assert len(fig.sets) == 16
    assert len(fig.relations) == 8
    assert fig.data_selection == frozenset(
        {"Clef", "NoteheadPos", "KeySig", "InstrTranspo"})
    assert sinks(fig) == frozenset({"MidiKey", "Frequency"})
    oor = nets["fig1-mini-oor"]
    assert oor.value_set("MidiKey").values == ("64", "65")
    assert "none" not in nets["dodeca"].value_set("Accidental").values


def test_out_of_range_variant_loses_totality():
    oor = all_networks()["fig1-mini-oor"]
    verdict = check_total(oor)
    assert not verdict.holds
    assert verdict.witnesses[0].anchor == Instance({
        "Clef": "treble", "NoteheadPos": "line3",
        "KeySig": "c-major", "InstrTranspo": "none"})


def test_dodeca_restores_backward_injectivity():
    nets = all_networks()
    for name, expected in (("fig1-mini", False), ("dodeca", True)):
        net = nets[name]
        verdict = check_injective(net, from_scope=sources(net),
                                  to_scope=sinks(net),
                                  mode=CountMode.PROJECTED)
        assert verdict.holds is expected, name


def test_golden_files_cover_every_direction_and_mode():
    names = list(all_networks())
    for name in names:
        for direction in Direction:
            for mode in CountMode:
                path = CORPUS / "golden" / f"{name}.{direction.value}.{mode.value}.json"
                assert path.exists(), path.name
