"""Text and machine rendering of verdicts."""

from __future__ import annotations

import copy
import itertools
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from oracle import oracle_render_json
from semnet import (
    CountMode,
    Direction,
    Engine,
    Instance,
    PropertyKind,
    PropertyQuery,
    Verdict,
    Witness,
    check_suite,
    encode,
    parse,
    render_json,
    render_text,
)
from semnet.corpus import all_networks, build_t1, build_t3
from semnet.properties import check_surjective_in

GOLDEN = Path(__file__).resolve().parent.parent / "corpus" / "golden"


def test_render_text_t3_forward_full():
    verdicts = check_suite(build_t3(), Direction.FORWARD, CountMode.FULL)
    text = render_text(verdicts)
    lines = text.splitlines()
    assert lines[0] == "FUNCTIONAL from={X} to={Y} mode=full : FAILS"
    assert lines[1] == ("  witness: {X=x1} -> [{X=x1, Y=y1}, {X=x1, Y=y2}]"
                        " (multiple-outcomes)")
    assert "TOTAL from={X} to={Y} mode=full : FAILS" in lines
    assert "  witness: {X=x2} -> [] (no-outcome)" in lines
    assert text.endswith("\n")


def test_render_text_t1_suite():
    verdicts = check_suite(build_t1())
    text = render_text(verdicts)
    assert text.count(": HOLDS") == 6
    assert "SURJECTIVE_IN(A) from={A} to={A} mode=projected : HOLDS" in text


def test_render_text_quotes_values_as_serialize_does():
    net = parse('net q\n'
                'set A = "x, B=y" x "say \\"hi\\"" "back\\\\slash"\n'
                'set B = y z\n'
                'rel r in A out B\n'
                'row "x, B=y" y\nrow "x, B=y" z\nrow x y\n'
                'row "say \\"hi\\"" y\nrow "back\\\\slash" y\n'
                'end\n').network
    assert net.value_set("A").values == ("x, B=y", "x", 'say "hi"', "back\\slash")
    text = render_text(check_suite(net))
    assert ('  witness: {A="x, B=y"} -> [{A="x, B=y", B=y}, {A="x, B=y", B=z}]'
            ' (multiple-outcomes)') in text.splitlines()
    instance = Instance({"A": 'say "hi"', "B": "back\\slash"})
    witness = Witness(instance, (instance,), "note")
    verdict = Verdict(PropertyQuery(PropertyKind.TOTAL, ("A",), ("B",), CountMode.FULL),
                      False, (witness,), 1)
    assert render_text([verdict]).splitlines()[1] == (
        '  witness: {A="say \\"hi\\"", B="back\\\\slash"}'
        ' -> [{A="say \\"hi\\"", B="back\\\\slash"}] (note)')


def test_render_text_empty():
    assert render_text([]) == ""


def test_render_json_schema():
    verdicts = check_suite(build_t3(), Direction.FORWARD, CountMode.PROJECTED)
    out = render_json("t3", "forward", "projected", verdicts)
    assert out.endswith("\n")
    doc = json.loads(out)
    assert sorted(doc) == ["direction", "mode", "network", "verdicts"]
    assert doc["network"] == "t3"
    assert doc["direction"] == "forward"
    assert doc["mode"] == "projected"
    for verdict in doc["verdicts"]:
        assert sorted(verdict) == [
            "from", "holds", "instances_checked", "param", "property",
            "to", "witnesses"]
        for witness in verdict["witnesses"]:
            assert sorted(witness) == ["anchor", "evidence", "note"]
    by_prop = {v["property"]: v for v in doc["verdicts"]}
    assert by_prop["functional"]["holds"] is False
    assert by_prop["functional"]["param"] is None
    assert by_prop["surjective_in"]["param"] == "Y"
    w = by_prop["total"]["witnesses"][0]
    assert w == {"anchor": {"X": "x2"}, "evidence": [], "note": "no-outcome"}


def test_a_warm_encoding_renders_every_golden():
    """From one encoding per net, whose kept layouts and decisions the
    suites before each one fill, both engines render all 32 golden
    reports byte for byte, with the forward suites first and with the
    backward ones first."""
    renders = 0
    for directions in (tuple(Direction), tuple(Direction)[::-1]):
        for name, net in all_networks().items():
            encode.cache_clear()
            for engine, direction, mode in itertools.product(Engine, directions, CountMode):
                golden = GOLDEN / f"{name}.{direction.value}.{mode.value}.json"
                verdicts = check_suite(net, direction, mode, engine=engine)
                assert (render_json(net.name, direction.value, mode.value, verdicts)
                        == golden.read_text(encoding="utf-8")), (golden.name, engine, directions)
                renders += 1
    assert renders == 2 * 2 * 32


def test_render_json_is_byte_stable():
    net = build_t3()
    first = render_json("t3", "forward", "full",
                        check_suite(net, Direction.FORWARD, CountMode.FULL))
    second = render_json("t3", "forward", "full",
                         check_suite(net, Direction.FORWARD, CountMode.FULL))
    assert first == second
    assert "\n  " in first  # 2-space indentation


def test_render_json_single_verdict():
    v = check_surjective_in(build_t1(), "A")
    doc = json.loads(render_json("t1", "forward", "projected", [v]))
    assert len(doc["verdicts"]) == 1
    assert doc["verdicts"][0]["property"] == "surjective_in"


# --- the direct writer against json.dumps ------------------------------------

# Quotes, backslashes, control characters and non-ASCII up to the astral
# planes, besides arbitrary text.
_TEXT = (st.text(st.sampled_from('aZ0 _-/#"\\\n\t\x00\x1f\x7f\xe4\xe9\u20ac\u2028\U0001d11e'),
                 max_size=4)
         | st.text(max_size=3))
_INSTANCES = st.dictionaries(_TEXT, _TEXT, max_size=3).map(Instance)
_WITNESSES = st.builds(Witness, _INSTANCES,
                       st.lists(_INSTANCES, max_size=3).map(tuple), _TEXT)


@st.composite
def _verdicts(draw):
    kind = draw(st.sampled_from(PropertyKind))
    scopes = st.lists(_TEXT, max_size=3).map(tuple)
    query = PropertyQuery(
        kind, draw(scopes), draw(scopes), draw(st.sampled_from(CountMode)),
        draw(_TEXT) if kind is PropertyKind.SURJECTIVE_IN else None)
    return Verdict(query, draw(st.booleans()),
                   tuple(draw(st.lists(_WITNESSES, max_size=3))),
                   draw(st.integers(0, 2**70)))


_REDUNDANT = Verdict(PropertyQuery(PropertyKind.MINIMAL, ("A",), (), CountMode.FULL),
                 False, (Witness(Instance(), (), "redundant:A"),), 0)


@seed(20241020)
@settings(max_examples=120, deadline=None, database=None)
@given(_TEXT, _TEXT, _TEXT, st.lists(_verdicts(), max_size=3))
@example("n", "forward", "projected", [])
@example("n", "backward", "full", [_REDUNDANT])
def test_render_json_equals_json_dumps(network, direction, mode, verdicts):
    assert (render_json(network, direction, mode, verdicts)
            == oracle_render_json(network, direction, mode, verdicts))


def test_render_json_never_enters_the_python_encoder(monkeypatch):
    """``json.dumps`` with an indent walks the document in Python generators
    built by ``_make_iterencode``; the report must not go that way."""
    def refuse(*args, **kwargs):
        raise AssertionError("json's Python encoder was used")
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="Python encoder"):
        json.dumps({}, indent=2)
    net = all_networks()["fig1-mini-oor"]
    verdicts = check_suite(net, Direction.FORWARD, CountMode.PROJECTED)
    assert (render_json(net.name, "forward", "projected", verdicts)
            == (GOLDEN / "fig1-mini-oor.forward.projected.json").read_text("utf-8"))


# --- each instance's pairs are rendered once, invisibly ----------------------

def _report(*witnesses):
    """A one-verdict document holding ``witnesses``, rendered by both
    writers."""
    verdict = Verdict(PropertyQuery(PropertyKind.FUNCTIONAL, ("A",), ("B",), CountMode.FULL),
                      False, witnesses, 1)
    return (render_json("n", "forward", "full", [verdict]),
            oracle_render_json("n", "forward", "full", [verdict]))


@seed(20241021)
@settings(max_examples=80, deadline=None, database=None)
@given(st.lists(_INSTANCES, min_size=1, max_size=4))
def test_a_rendered_instance_compares_copies_and_pickles_as_before(instances):
    """Rendering keeps each instance's rendered pairs on it, and nothing
    else sees them: the instance equals, hashes and reprs as before, its
    copies and unpickled copies carry no memo, and it pickles to the bytes
    it pickled to before and to those of a fresh, never rendered, equal
    instance."""
    fresh = [Instance(instance.as_dict()) for instance in instances]
    before = [(hash(i), repr(i), pickle.dumps(i)) for i in instances]
    mine, theirs = _report(Witness(instances[0], tuple(instances[1:]), "note"),
                           Witness(instances[-1], tuple(instances), "note"))
    assert mine == theirs
    for instance, new, (hashed, shown, pickled) in zip(instances, fresh, before):
        assert "_json_pairs" in vars(instance) and "_json_pairs" not in vars(new)
        assert instance == new and hash(instance) == hashed == hash(new)
        assert repr(instance) == shown == repr(new)
        assert pickle.dumps(instance) == pickled
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(instance, protocol) == pickle.dumps(new, protocol)
        for copied in (copy.copy(instance), copy.deepcopy(instance), pickle.loads(pickled)):
            assert copied == instance and hash(copied) == hashed and repr(copied) == shown
            assert vars(copied) == {"assignment": instance.assignment}


def test_one_instance_renders_alike_as_anchor_and_as_evidence():
    """An instance's pairs do not depend on the depth they are written at:
    one instance that needs escaping, used as an anchor (depth 5) and as
    evidence (depth 6), renders as ``json.dumps`` does, whichever depth it
    is first rendered at."""
    other = Instance({"A": "x"})
    for anchor_first in (True, False):
        instance = Instance({"Clef": "c#4", "Say": 'say "hi"', "Slash": "back\\slash",
                             "Umlaut": "\xe4", "Ctl": "\x00\x1f"})
        witnesses = (Witness(instance, (other, instance), "multiple-outcomes"),)
        if not anchor_first:
            witnesses = (Witness(other, (instance,), "multiple-outcomes"),) + witnesses
        mine, theirs = _report(*witnesses)
        assert mine == theirs
        assert ('"Clef": "c#4"' in mine and '"Say": "say \\"hi\\""' in mine
                and '"Slash": "back\\\\slash"' in mine and '"Umlaut": "\\u00e4"' in mine)
