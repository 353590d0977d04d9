"""Shipped example networks: toy nets and a desk-scale pitch network.

The toy nets (t1–t4b, broken) isolate single behaviours: constant maps,
partial maps, bijective chains, over-selected data, and a cycle. The pitch
nets encode the common-Western-notation pipeline from clef/notehead/
accidental down to MIDI key and frequency, with rows generated by the
usual notation arithmetic over deliberately small domains:

- ``fig1-mini``      two staff positions, accidentals {none, natural,
                     sharp}, every reachable pitch inside the MIDI range;
- ``fig1-mini-oor``  one staff position's pitches fall outside the MIDI
                     range, so some notations produce no execution at all;
- ``dodeca``         one fixed spelling per accidental (no "none"), so the
                     notation is recoverable from the execution parameters.

``write_corpus`` serialises every net and regenerates the golden reports;
run ``python -m semnet.corpus [DIR]`` (default ``corpus``) after changing
anything here.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .engine import CountMode, Engine
from .model import Network, Relation, ValueSet
from .netdef import serialize
from .properties import Direction, check_suite
from .report import render_json

__all__ = [
    "all_networks",
    "build_broken",
    "build_dodeca",
    "build_fig1_mini",
    "build_fig1_mini_oor",
    "build_t1",
    "build_t2",
    "build_t3",
    "build_t4",
    "build_t4b",
    "write_corpus",
]


def build_t1() -> Network:
    """A single free set; no relations constrain anything."""
    return Network(
        name="t1",
        sets=(ValueSet("A", ("a1", "a2")),),
        relations=(),
        data_selection=frozenset({"A"}),
    )


def build_t2() -> Network:
    """A constant map: both x-values produce y1, y2 is never produced."""
    return Network(
        name="t2",
        sets=(ValueSet("X", ("x1", "x2")), ValueSet("Y", ("y1", "y2"))),
        relations=(Relation("f", ("X",), ("Y",), (("x1", "y1"), ("x2", "y1"))),),
        data_selection=frozenset({"X"}),
    )


def build_t3() -> Network:
    """A multi-valued partial map: x1 has two outputs, x2 has none."""
    return Network(
        name="t3",
        sets=(ValueSet("X", ("x1", "x2")), ValueSet("Y", ("y1", "y2"))),
        relations=(Relation("f", ("X",), ("Y",), (("x1", "y1"), ("x1", "y2"))),),
        data_selection=frozenset({"X"}),
    )


def _t4_parts() -> tuple[tuple[ValueSet, ...], tuple[Relation, ...]]:
    sets = (
        ValueSet("X", ("x1", "x2")),
        ValueSet("M", ("m1", "m2")),
        ValueSet("Y", ("y1", "y2")),
    )
    relations = (
        Relation("f", ("X",), ("M",), (("x1", "m1"), ("x2", "m2"))),
        Relation("g", ("M",), ("Y",), (("m1", "y1"), ("m2", "y2"))),
    )
    return sets, relations


def build_t4() -> Network:
    """A bijective two-step chain; the data selection is the source {X}."""
    sets, relations = _t4_parts()
    return Network("t4", sets, relations, frozenset({"X"}))


def build_t4b() -> Network:
    """The t4 chain with an over-selected data set {X, M}: some data
    tuples are contradictory."""
    sets, relations = _t4_parts()
    return Network("t4b", sets, relations, frozenset({"X", "M"}))


def build_broken() -> Network:
    """A two-relation cycle; fails validation."""
    return Network(
        name="broken",
        sets=(ValueSet("X", ("x1",)), ValueSet("Y", ("y1",))),
        relations=(
            Relation("f", ("X",), ("Y",), (("x1", "y1"),)),
            Relation("g", ("Y",), ("X",), (("y1", "x1"),)),
        ),
        data_selection=frozenset({"X"}),
    )


# --- pitch networks -------------------------------------------------------

# Just-intonation ratios over a C reference, and semitone offsets from C.
_C_REF = 261.63
_LETTERS = {"e": (5 / 4, 4), "g": (3 / 2, 7), "b": (15 / 8, 11)}
_SHARP_RATIO = 25 / 24


def _freq_label(letter: str, sharp: bool) -> str:
    ratio, _ = _LETTERS[letter]
    if sharp:
        ratio *= _SHARP_RATIO
    return f"{_C_REF * ratio:.2f}"


def _midi_number(letter: str, sharp: bool) -> int:
    _, offset = _LETTERS[letter]
    return 60 + offset + (1 if sharp else 0)


def _build_pitch_net(name: str, positions: tuple[tuple[str, str], ...],
                     accidentals: tuple[str, ...], midi_limit: int) -> Network:
    """Assemble a pitch network over octave 4.

    ``positions`` maps staff positions to note letters; ``accidentals``
    may include "none" (resolved through the key signature) besides the
    printed ones; spelled pitches whose MIDI number exceeds ``midi_limit``
    get no MIDI row, leaving those notations without execution parameters.
    """
    letters = tuple(letter for _, letter in positions)
    spellings = tuple((letter, sharp) for letter in letters for sharp in (False, True))

    def spc(letter: str, sharp: bool) -> str:
        return letter + ("s" if sharp else "")

    def pitch(letter: str, sharp: bool) -> str:
        return spc(letter, sharp) + "4"

    relevant = tuple(("from-key" if a == "none" else a) for a in accidentals)
    relevant = tuple(dict.fromkeys(relevant))
    midi_values = tuple(
        str(_midi_number(letter, sharp)) for letter, sharp in spellings
        if _midi_number(letter, sharp) <= midi_limit)

    sets = (
        ValueSet("Clef", ("treble",)),
        ValueSet("NoteheadPos", tuple(pos for pos, _ in positions)),
        ValueSet("Accidental", accidentals),
        ValueSet("ScopeRule", ("measure",)),
        ValueSet("KeySig", ("c-major",)),
        ValueSet("InstrTranspo", ("none",)),
        ValueSet("Tuning", ("just-c",)),
        ValueSet("GP", tuple(letter + "4" for letter in letters)),
        ValueSet("RelevantAcc", relevant),
        ValueSet("NotatedSP", tuple(pitch(*s) for s in spellings)),
        ValueSet("SoundingSP", tuple(pitch(*s) for s in spellings)),
        ValueSet("MidiKey", midi_values),
        ValueSet("Octave", ("oct4",)),
        ValueSet("SPC", tuple(spc(*s) for s in spellings)),
        ValueSet("FrqClass", tuple("fc-" + spc(*s) for s in spellings)),
        ValueSet("Frequency", tuple(_freq_label(*s) for s in spellings)),
    )

    relations = (
        Relation("pos-to-gp", ("Clef", "NoteheadPos"), ("GP",), tuple(
            ("treble", pos, letter + "4") for pos, letter in positions)),
        Relation("resolve-acc", ("NoteheadPos", "Accidental", "ScopeRule"),
                 ("RelevantAcc",), tuple(
            (pos, acc, "measure", "from-key" if acc == "none" else acc)
            for pos, _ in positions for acc in accidentals)),
        # In c-major the key signature marks nothing, so "from-key" plays
        # natural; a printed sharp raises the generic pitch.
        Relation("apply-key", ("GP", "RelevantAcc", "KeySig"), ("NotatedSP",), tuple(
            (letter + "4", ra, "c-major", pitch(letter, ra == "sharp"))
            for letter in letters for ra in relevant)),
        Relation("transpose", ("NotatedSP", "InstrTranspo"), ("SoundingSP",), tuple(
            (pitch(*s), "none", pitch(*s)) for s in spellings)),
        Relation("to-midi", ("SoundingSP",), ("MidiKey",), tuple(
            (pitch(letter, sharp), str(_midi_number(letter, sharp)))
            for letter, sharp in spellings
            if _midi_number(letter, sharp) <= midi_limit)),
        Relation("split-pitch", ("SoundingSP",), ("Octave", "SPC"), tuple(
            (pitch(*s), "oct4", spc(*s)) for s in spellings)),
        Relation("tune-class", ("SPC", "Tuning", "KeySig"), ("FrqClass",), tuple(
            (spc(*s), "just-c", "c-major", "fc-" + spc(*s)) for s in spellings)),
        Relation("to-frequency", ("FrqClass", "Octave"), ("Frequency",), tuple(
            ("fc-" + spc(*s), "oct4", _freq_label(*s)) for s in spellings)),
    )

    return Network(name, sets, relations,
                   frozenset({"Clef", "NoteheadPos", "KeySig", "InstrTranspo"}))


def build_fig1_mini() -> Network:
    """Two positions (E4, G4 lines), accidental may be omitted, all
    reachable pitches have MIDI keys."""
    return _build_pitch_net(
        "fig1-mini", (("line1", "e"), ("line2", "g")),
        ("none", "natural", "sharp"), midi_limit=68)


def build_fig1_mini_oor() -> Network:
    """Like fig1-mini but the second position (B4 line) sounds above the
    MIDI range, so those notations have no execution parameters."""
    return _build_pitch_net(
        "fig1-mini-oor", (("line1", "e"), ("line3", "b")),
        ("none", "natural", "sharp"), midi_limit=65)


def build_dodeca() -> Network:
    """Dodecaphonic spelling: every pitch class is always written with the
    same printed accidental, so no two notations sound alike."""
    return _build_pitch_net(
        "dodeca", (("line1", "e"), ("line2", "g")),
        ("natural", "sharp"), midi_limit=68)


def all_networks() -> dict[str, Network]:
    """The valid corpus networks by name, in canonical order."""
    nets = (build_t1(), build_t2(), build_t3(), build_t4(), build_t4b(),
            build_fig1_mini(), build_fig1_mini_oor(), build_dodeca())
    return {net.name: net for net in nets}


def write_corpus(root: Path) -> None:
    """Write every .semnet file and regenerate the golden reports."""
    root = Path(root)
    golden = root / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for name, net in all_networks().items():
        text = serialize(net)
        if name == "t4":
            # Shipped without its data line to exercise the sources default.
            text = "".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("data"))
        (root / f"{name}.semnet").write_text(text, encoding="utf-8")
        for direction in Direction:
            for mode in CountMode:
                verdicts = check_suite(net, direction, mode, engine=Engine.JOIN)
                out = render_json(net.name, direction.value, mode.value, verdicts)
                path = golden / f"{name}.{direction.value}.{mode.value}.json"
                path.write_text(out, encoding="utf-8")
    (root / "broken.semnet").write_text(serialize(build_broken()), encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="python -m semnet.corpus",
                                     description="Write the corpus and its golden reports.")
    parser.add_argument("directory", nargs="?", default="corpus", type=Path,
                        help="output directory (default: corpus)")
    write_corpus(parser.parse_args().directory)
