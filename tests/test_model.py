"""Validation, sources/sinks, and structural flags."""

from __future__ import annotations

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from semnet import (
    Instance,
    InvalidNetworkError,
    Network,
    Relation,
    ValueSet,
    sinks,
    sources,
    check_suite,
    encode,
    parse,
    structural_flags,
    validate,
)
from semnet.cli import main
from semnet.corpus import all_networks, build_broken, build_t2, build_t4

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _codes(report):
    return [i.code for i in report.errors], [i.code for i in report.warnings]


def test_corpus_networks_validate_cleanly():
    for name, net in all_networks().items():
        report = validate(net)
        assert report.ok, (name, report.errors)
        assert report.warnings == ()


def test_duplicate_set_id():
    net = Network("n", (ValueSet("A", ("a",)), ValueSet("A", ("b",))), (), {"A"})
    errors, _ = _codes(validate(net))
    assert "DUPLICATE_ID" in errors


def test_empty_set():
    net = Network("n", (ValueSet("A", ()),), (), {"A"})
    errors, _ = _codes(validate(net))
    assert "EMPTY_SET" in errors


def test_duplicate_value():
    net = Network("n", (ValueSet("A", ("a", "a")),), (), {"A"})
    errors, _ = _codes(validate(net))
    assert "DUPLICATE_VALUE" in errors


def test_relation_unknown_set():
    net = Network("n", (ValueSet("A", ("a",)),),
                  (Relation("f", ("A",), ("B",), ()),), {"A"})
    errors, _ = _codes(validate(net))
    assert "UNKNOWN_SET" in errors


def test_duplicate_scope_set_and_overlap():
    sets = (ValueSet("A", ("a",)), ValueSet("B", ("b",)))
    dup = Network("n", sets, (Relation("f", ("A", "A"), ("B",), ()),), {"A"})
    errors, _ = _codes(validate(dup))
    assert "DUPLICATE_SCOPE_SET" in errors
    overlap = Network("n", sets, (Relation("f", ("A",), ("A",), ()),), {"A"})
    errors, _ = _codes(validate(overlap))
    assert "IN_OUT_OVERLAP" in errors


def test_malformed_and_duplicate_rows():
    sets = (ValueSet("A", ("a",)), ValueSet("B", ("b",)))
    short = Network("n", sets, (Relation("f", ("A",), ("B",), (("a",),)),), {"A"})
    errors, _ = _codes(validate(short))
    assert "MALFORMED_ROW" in errors
    unknown = Network("n", sets, (Relation("f", ("A",), ("B",), (("a", "zzz"),)),), {"A"})
    errors, _ = _codes(validate(unknown))
    assert "MALFORMED_ROW" in errors
    doubled = Network("n", sets,
                      (Relation("f", ("A",), ("B",), (("a", "b"), ("a", "b"))),), {"A"})
    errors, _ = _codes(validate(doubled))
    assert "DUPLICATE_ROW" in errors


def test_data_unknown_set_and_empty_data_warning():
    net = Network("n", (ValueSet("A", ("a",)),), (), {"Z"})
    errors, _ = _codes(validate(net))
    assert "DATA_UNKNOWN_SET" in errors
    net = Network("n", (ValueSet("A", ("a",)),), (), frozenset())
    errors, warnings = _codes(validate(net))
    assert errors == []
    assert "EMPTY_DATA" in warnings


def test_cycle_detection_and_path():
    report = validate(build_broken())
    assert [i.code for i in report.errors] == ["CYCLE"]
    message = report.errors[0].message
    # the closed path names both relations and returns to its start
    assert "f" in message and "g" in message
    assert message.split(": ")[1].split(" -> ")[0] == message.rstrip().split(" -> ")[-1]
    flags = structural_flags(build_broken())
    assert not flags.is_acyclic


def _ring(n_relations, closed):
    """Relations r0..r{n-1}, each a bijection of two values from S{k} to
    S{k+1}; ``closed`` makes the last one write S0 in place of a new set."""
    values = ("a", "b")
    n_sets = n_relations if closed else n_relations + 1
    sets = tuple(ValueSet(f"S{k}", values) for k in range(n_sets))
    relations = tuple(Relation(f"r{k}", (f"S{k}",), (f"S{(k + 1) % n_sets}",),
                               tuple((v, v) for v in values))
                      for k in range(n_relations))
    return Network("ring" if closed else "chain", sets, relations, frozenset({"S0"}))


def test_a_long_chain_validates_without_recursion():
    """The cycle search walks with an explicit stack: 700 relations are
    past what a recursion of two frames per relation could reach."""
    chain = _ring(700, closed=False)
    report = validate(chain)
    assert report.ok, report.errors
    assert structural_flags(chain).is_acyclic


def test_a_long_ring_reports_its_closed_cycle():
    report = validate(_ring(700, closed=True))
    assert [i.code for i in report.errors] == ["CYCLE"]
    path = report.errors[0].message.split(": ")[1].split(" -> ")
    assert path[0] == path[-1] == "S0"
    assert path[1:-1:2] == [f"r{k}" for k in range(700)]
    assert path[2:-1:2] == [f"S{k}" for k in range(1, 700)]


def test_empty_relation_is_warning_not_error():
    net = Network("n", (ValueSet("A", ("a",)), ValueSet("B", ("b",))),
                  (Relation("f", ("A",), ("B",), ()),), {"A"})
    report = validate(net)
    assert report.ok
    assert "EMPTY_RELATION" in [i.code for i in report.warnings]


def test_not_contiguous_warning():
    net = Network("n", (
        ValueSet("A", ("a",)), ValueSet("B", ("b",)),
        ValueSet("C", ("c",)), ValueSet("D", ("d",))),
        (Relation("f", ("A",), ("B",), (("a", "b"),)),
         Relation("g", ("C",), ("D",), (("c", "d"),))), {"A", "C"})
    report = validate(net)
    assert report.ok
    assert "NOT_CONTIGUOUS" in [i.code for i in report.warnings]
    assert not structural_flags(net).is_contiguous


def test_sources_and_sinks():
    t4 = build_t4()
    assert sources(t4) == frozenset({"X"})
    assert sinks(t4) == frozenset({"Y"})
    t2 = build_t2()
    assert sources(t2) == frozenset({"X"})
    assert sinks(t2) == frozenset({"Y"})
    fig = all_networks()["fig1-mini"]
    assert sources(fig) == frozenset({
        "Clef", "NoteheadPos", "Accidental", "ScopeRule",
        "KeySig", "InstrTranspo", "Tuning"})
    assert sinks(fig) == frozenset({"MidiKey", "Frequency"})


def test_instance_equality_and_scope():
    a = Instance({"X": "x1", "Y": "y1"})
    b = Instance((("Y", "y1"), ("X", "x1")))
    assert a == b
    assert hash(a) == hash(b)
    assert a.scope == frozenset({"X", "Y"})
    assert a["X"] == "x1"
    assert "Y" in a and "Z" not in a
    assert Instance().assignment == ()


def test_instance_refuses_a_repeated_set_id():
    with pytest.raises(ValueError, match="repeats a set id"):
        Instance([("A", "x"), ("A", "y")])
    with pytest.raises(ValueError, match="repeats a set id"):
        Instance([("A", "x"), ("B", "y"), ("A", "x")])
    assert Instance([("B", "y"), ("A", "x")]).as_dict() == {"A": "x", "B": "y"}


def test_set_order_follows_declaration():
    t4 = build_t4()
    assert t4.set_order({"Y", "X", "M"}) == ("X", "M", "Y")
    assert t4.set_order({"Y"}) == ("Y",)


# --- the validation report is memoised per Network instance

@pytest.fixture
def validation_calls(monkeypatch):
    """Networks passed to the validation body, in call order."""
    model = importlib.import_module("semnet.model")
    body = model._validate
    calls = []

    def counted(network):
        calls.append(network)
        return body(network)

    monkeypatch.setattr(model, "_validate", counted)
    encode.cache_clear()
    yield calls
    encode.cache_clear()


def test_validate_then_encode_runs_validation_once(validation_calls):
    text = (CORPUS / "t2.semnet").read_text(encoding="utf-8")
    net = parse(text).network
    report = validate(net)
    encode(net)
    assert validate(net) is report
    assert validation_calls == [net]
    # An equal network parsed anew is validated afresh, as in a new process.
    again = parse(text).network
    assert validate(again) == report
    assert len(validation_calls) == 2 and validation_calls[1] is again


def test_invalid_network_still_refused_after_validation(validation_calls, capsys):
    net = build_broken()
    assert [i.code for i in validate(net).errors] == ["CYCLE"]
    with pytest.raises(InvalidNetworkError):
        encode(net)
    with pytest.raises(InvalidNetworkError):
        encode(net)
    assert validation_calls == [net]
    assert main(["check", str(CORPUS / "broken.semnet")]) == 3
    assert "error[CYCLE]" in capsys.readouterr().err


def test_validation_memo_leaves_equality_hash_and_pickle_alone():
    path = CORPUS / "fig1-mini.semnet"
    text = path.read_text(encoding="utf-8")
    net, twin = parse(text).network, parse(text).network
    # parse hands over the row-key memo; no pickle or copy carries it.
    bare = Network(net.name, net.sets, net.relations, net.data_selection)
    pickled = pickle.dumps(net)
    assert pickled == pickle.dumps(bare)
    for duplicate in (pickle.loads(pickled), copy.copy(net), copy.deepcopy(net)):
        assert duplicate == net and "_row_keys" not in duplicate.__dict__
    digest = hash(net)
    assert digest == hash((net.name, net.sets, net.relations, net.data_selection))
    report = validate(net)
    assert net == twin and twin == net
    assert hash(net) == hash(twin) == digest
    assert pickle.dumps(net) == pickled
    # Nor the scopes the checkers resolved on it.
    check_suite(net)
    assert "_scopes" in net.__dict__
    assert pickle.dumps(net) == pickled
    for duplicate in (pickle.loads(pickled), copy.copy(net), copy.deepcopy(net)):
        assert duplicate == net and "_scopes" not in duplicate.__dict__
    restored = pickle.loads(pickle.dumps(net))
    assert restored == net and hash(restored) == digest
    # The copy does not carry the memo: it is validated afresh.
    restored_report = validate(restored)
    assert restored_report == report and restored_report is not report
    # Nor the hash memo: str hashes differ between processes, so a hashed
    # net unpickled under another hash seed must hash as a fresh parse there.
    env = dict(os.environ, PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = ("import pickle, sys\n"
              "from semnet import parse\n"
              "restored = pickle.load(sys.stdin.buffer)\n"
              "fresh = parse(open(sys.argv[1], encoding='utf-8').read()).network\n"
              "assert restored == fresh and hash(restored) == hash(fresh)\n"
              "print(hash(restored))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(path)], input=pickle.dumps(net),
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert int(proc.stdout) != digest  # the seed differs, so the check has teeth


def test_encode_cache_hits_do_not_rehash_the_network(monkeypatch):
    net = parse((CORPUS / "fig1-mini.semnet").read_text(encoding="utf-8")).network
    first = encode(net)
    calls = []
    original = Relation.__hash__

    def counted(rel):
        calls.append(rel)
        return original(rel)

    monkeypatch.setattr(Relation, "__hash__", counted)
    for _ in range(3):
        assert encode(net) is first
    assert calls == []
    hash(net.relations)  # the counter itself works
    assert len(calls) == len(net.relations)
