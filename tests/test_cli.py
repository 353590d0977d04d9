"""CLI subcommands, exit codes, and stream discipline."""

from __future__ import annotations

from pathlib import Path

from semnet.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = _run(capsys, "validate", str(CORPUS / "fig1-mini.semnet"))
    assert code == 0
    assert "0 error(s), 0 warning(s)" in out
    assert err == ""


def test_validate_cycle_is_exit_3(capsys):
    code, out, _ = _run(capsys, "validate", str(CORPUS / "broken.semnet"))
    assert code == 3
    assert "error[CYCLE]" in out


def test_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.semnet"
    bad.write_text("net n\nset A =\n", encoding="utf-8")
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert "MISSING_VALUES" in err
    assert f"{bad}:2:" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = _run(capsys, "check", "no-such-file.semnet")
    assert code == 2
    assert "cannot read" in err


def test_file_not_in_utf8_is_exit_2(capsys, tmp_path):
    latin1 = tmp_path / "latin1.semnet"
    latin1.write_bytes(b"net n\nset A = caf\xe9\nend\n")
    for command in ("check", "info", "validate"):
        code, out, err = _run(capsys, command, str(latin1))
        assert code == 2, command
        assert out == ""
        assert err.startswith(f"error: cannot read {latin1}: ")
        assert "can't decode byte 0xe9" in err


def test_byte_order_mark_is_accepted(capsys, tmp_path):
    plain = CORPUS / "t2.semnet"
    marked = tmp_path / "t2.semnet"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for argv in (["validate"], ["info"], ["check", "--json"]):
        want = _run(capsys, argv[0], str(plain), *argv[1:])
        got = _run(capsys, argv[0], str(marked), *argv[1:])
        # ``validate`` names the file it read; nothing else may differ.
        assert got == (want[0], want[1].replace(str(plain), str(marked)), want[2]), argv


def test_usage_errors_are_exit_2(capsys):
    assert _run(capsys, "frobnicate")[0] == 2
    assert _run(capsys, "check", str(CORPUS / "t2.semnet"),
                "--property", "bogus")[0] == 2
    assert _run(capsys, "check", str(CORPUS / "t2.semnet"),
                "--param", "Y")[0] == 2
    assert _run(capsys, "check", str(CORPUS / "t2.semnet"),
                "--from", "Nope")[0] == 2
    assert _run(capsys, "check", str(CORPUS / "t2.semnet"),
                "--max-instances", "0")[0] == 2


def test_info(capsys):
    code, out, err = _run(capsys, "info", str(CORPUS / "fig1-mini.semnet"))
    assert code == 0
    assert "network fig1-mini" in out
    assert "  MidiKey (4 values)" in out
    assert "sources: {Clef,NoteheadPos,Accidental,ScopeRule,KeySig,InstrTranspo,Tuning}" in out
    assert "sinks: {MidiKey,Frequency}" in out
    assert "data: {Clef,NoteheadPos,KeySig,InstrTranspo}" in out
    assert "full instance space: 147456" in out
    assert err == ""


def test_check_t4_all_holds_exit_0(capsys):
    code, out, _ = _run(capsys, "check", str(CORPUS / "t4.semnet"),
                        "--property", "all", "--direction", "forward")
    assert code == 0
    assert out.count(": HOLDS") == 6


def test_check_t2_surjective_exit_1_with_witness(capsys):
    code, out, _ = _run(capsys, "check", str(CORPUS / "t2.semnet"),
                        "--property", "surjective", "--direction", "forward")
    assert code == 1
    assert "SURJECTIVE from={X} to={Y} mode=projected : FAILS" in out
    assert "witness: {Y=y2} -> [] (unreachable)" in out


def test_check_cycle_exit_3(capsys):
    code, out, err = _run(capsys, "check", str(CORPUS / "broken.semnet"))
    assert code == 3
    assert out == ""
    assert "error[CYCLE]" in err


def test_check_limit_exceeded_exit_4(capsys):
    # fig1-mini's walk of its consistent table visits 87 search nodes, the
    # most of any of its searches (test_properties pins the count).
    code, out, err = _run(capsys, "check", str(CORPUS / "fig1-mini.semnet"),
                          "--max-instances", "86")
    assert code == 4
    assert out == ""
    assert "exceeds the budget" in err
    assert "search nodes" in err
    code, out, err = _run(capsys, "check", str(CORPUS / "fig1-mini.semnet"),
                          "--max-instances", "87")
    assert code == 1
    assert "FAILS" in out


def test_key_overflow_is_exit_4_not_usage(capsys, tmp_path):
    # Seven sets of 600 values: the scope of r spans 600**7 > 2**62 keys,
    # past brute force's int64 row keys.
    values = " ".join(f"v{i}" for i in range(600))
    lines = ["net big", *(f"set S{k} = {values}" for k in range(1, 8)),
             "rel r in S1 S2 S3 S4 S5 S6 out S7", "row" + " v0" * 7, "end", "data S7"]
    path = tmp_path / "big.semnet"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 0
    assert "0 error(s)" in out
    code, out, err = _run(capsys, "check", str(path), "--property", "functional",
                          "--engine", "bruteforce")
    assert code == 4
    assert out == ""
    assert "relation 'r'" in err
    assert "2^62 key limit" in err


def test_checkers_decide_targets_past_the_key_space(capsys, tmp_path):
    # One ten-valued data set tied to twenty ten-valued sinks: T has 10 rows,
    # while the default target, the sinks, spans 10**20 > 2**62 values.
    values = " ".join(f"v{i}" for i in range(10))
    lines = ["net wide", f"set D = {values}", *(f"set P{k} = {values}" for k in range(20))]
    for k in range(20):
        lines += [f"rel to{k} in D out P{k}", *(f"row v{i} v{i}" for i in range(10)), "end"]
    path = tmp_path / "wide.semnet"
    path.write_text("\n".join([*lines, "data D"]) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "check", str(path))
    assert code == 1
    assert err == ""
    verdicts = [(line.split()[0], line.split()[-1])
                for line in out.splitlines() if " : " in line]
    assert verdicts[:5] == [("FUNCTIONAL", "HOLDS"), ("TOTAL", "HOLDS"),
                            ("INJECTIVE", "HOLDS"), ("SURJECTIVE", "FAILS"),
                            ("MINIMAL", "HOLDS")]
    assert verdicts[5:] == [(f"SURJECTIVE_IN(P{k})", "HOLDS") for k in range(20)]


def test_check_json_matches_golden(capsys):
    for name in ("t2", "t4b", "fig1-mini"):
        for direction in ("forward", "backward"):
            code, out, _ = _run(capsys, "check", str(CORPUS / f"{name}.semnet"),
                                "--property", "all", "--direction", direction,
                                "--json")
            golden = (CORPUS / "golden" /
                      f"{name}.{direction}.projected.json").read_text("utf-8")
            assert out == golden, (name, direction)
            assert code in (0, 1)


def test_engines_render_identical_reports(capsys):
    for name in ("t3", "fig1-mini", "dodeca"):
        outputs = []
        for engine in ("join", "bruteforce"):
            _, out, _ = _run(capsys, "check", str(CORPUS / f"{name}.semnet"),
                             "--property", "all", "--direction", "backward",
                             "--mode", "full", "--engine", engine, "--json")
            outputs.append(out)
        assert outputs[0] == outputs[1], name


def test_single_property_and_param(capsys):
    code, out, _ = _run(capsys, "check", str(CORPUS / "t2.semnet"),
                        "--property", "surjective-in", "--param", "Y")
    assert code == 1
    assert "SURJECTIVE_IN(Y)" in out
    code, out, _ = _run(capsys, "check", str(CORPUS / "t2.semnet"),
                        "--property", "surjective-in")
    assert code == 1  # loops every sink parameter; Y fails
    assert "SURJECTIVE_IN(Y)" in out


def test_scope_overrides(capsys):
    code, out, _ = _run(capsys, "check", str(CORPUS / "fig1-mini.semnet"),
                        "--property", "surjective", "--to", "MidiKey")
    assert code == 0
    assert "SURJECTIVE from={Clef,NoteheadPos,KeySig,InstrTranspo}" in out
    assert "to={MidiKey}" in out


def test_check_warns_on_empty_data_but_runs_with_from(capsys, tmp_path):
    path = tmp_path / "bare.semnet"
    path.write_text("net bare\nset A = a1 a2\ndata\n", encoding="utf-8")
    code, _, err = _run(capsys, "check", str(path))
    assert code == 2
    assert "nonempty data selection" in err
    code, out, err = _run(capsys, "check", str(path), "--from", "A", "--to", "A")
    assert code == 0
    assert "warning[EMPTY_DATA]" in err
    assert out.count(": HOLDS") == 6
