"""Grammar, diagnostics, and round-trip behaviour of the .semnet format."""

from __future__ import annotations

import random
import re
import string
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from semnet import Instance, ParseFailure, parse, serialize
from semnet.corpus import all_networks
from semnet.netdef import _BARE_ROW_RE, _BARE_VALUE_RE, _tokenize

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

T2_TEXT = """\
net t2
set X = x1 x2
set Y = y1 y2
rel f in X out Y
row x1 y1
row x2 y1
end
data X
"""


def _codes(text):
    with pytest.raises(ParseFailure) as info:
        parse(text)
    return [e.code for e in info.value.errors], info.value.errors


def test_parse_t2():
    doc = parse(T2_TEXT)
    net = doc.network
    assert net.name == "t2"
    assert [vs.id for vs in net.sets] == ["X", "Y"]
    assert net.sets[0].values == ("x1", "x2")
    assert len(net.relations) == 1
    rel = net.relations[0]
    assert rel.in_sets == ("X",) and rel.out_sets == ("Y",)
    assert rel.rows == (("x1", "y1"), ("x2", "y1"))
    assert net.data_selection == frozenset({"X"})


def test_source_spans():
    doc = parse(T2_TEXT)
    assert doc.source_spans["net:t2"] == (1, 1)
    assert doc.source_spans["set:X"][0] == 2
    assert doc.source_spans["rel:f"][0] == 4


def test_comments_blank_lines_and_crlf():
    text = "# header\r\nnet n\r\n\r\nset A = a1 a2  # trailing comment\r\ndata A\r\n"
    net = parse(text).network
    assert net.name == "n"
    assert net.sets[0].values == ("a1", "a2")


def test_quoted_values_and_escapes():
    text = 'net n\nset A = "c#4" "a b" "q\\"uote" "back\\\\slash"\ndata A\n'
    net = parse(text).network
    assert net.sets[0].values == ("c#4", "a b", 'q"uote', "back\\slash")


def test_serialize_quotes_only_when_needed():
    text = 'net n\nset A = plain "c#4" "two words"\ndata A\n'
    net = parse(text).network
    out = serialize(net)
    assert 'set A = plain "c#4" "two words"' in out
    assert parse(out).network == net


def test_omitted_data_defaults_to_sources():
    text = Path(CORPUS / "t4.semnet").read_text(encoding="utf-8")
    assert "data" not in text
    net = parse(text).network
    assert net.data_selection == frozenset({"X"})


def test_bare_data_line_is_empty_selection():
    text = "net n\nset A = a\ndata\n"
    net = parse(text).network
    assert net.data_selection == frozenset()
    assert "data\n" in serialize(net)


def test_row_arity_error_carries_line():
    text = "net n\nset A = a\nset B = b\nrel f in A out B\nrow a\nend\ndata A\n"
    codes, errors = _codes(text)
    assert codes == ["ROW_ARITY"]
    assert errors[0].line == 5


def test_error_catalogue():
    cases = {
        "set A = a\nnet n\ndata A\n": "NET_NOT_FIRST",
        "set A = a\n": "MISSING_NET",
        "net n\nnet m\n": "DUPLICATE_NET",
        "net n\nwobble A\n": "UNKNOWN_STATEMENT",
        "net n extra\n": "TRAILING_TOKENS",
        "net\n": "MISSING_IDENTIFIER",
        "net 9bad\n": "BAD_IDENTIFIER",
        "net n\nset A a\n": "MISSING_EQUALS",
        "net n\nset A =\n": "MISSING_VALUES",
        "net n\nset A = a=b\n": "BAD_VALUE",
        "net n\nset A = a\nrel f out A\nend\n": "MISSING_IN",
        "net n\nset A = a\nrel f in A\nend\n": "MISSING_OUT",
        "net n\nrow a\n": "STRAY_ROW",
        "net n\nend\n": "STRAY_END",
        "net n\nset A = a\nset B = b\nrel f in A out B\n": "UNTERMINATED_REL",
        "net n\nset A = a\ndata A\ndata A\n": "DUPLICATE_DATA",
        "net n\nset A = a\nset A = b\ndata A\n": "DUPLICATE_ID",
        "net n\nset A = a a\ndata A\n": "DUPLICATE_VALUE",
        "net n\nset A = a\nrel f in A out Z\nend\ndata A\n": "UNKNOWN_SET",
        "net n\nset A = a\nset B = b\nrel f in A out B\nrow a z\nend\ndata A\n":
            "UNKNOWN_VALUE",
        "net n\nset A = a\nset B = b\nrel f in A out B\nrow a b\nrow a b\nend\ndata A\n":
            "DUPLICATE_ROW",
        "net n\nset A = a\ndata A A\n": "DUPLICATE_DATA_SET",
        'net n\nset A = "broken\ndata A\n': "UNTERMINATED_STRING",
        'net n\nset A = "bad\\x"\ndata A\n': "BAD_ESCAPE",
    }
    for text, expected in cases.items():
        codes, errors = _codes(text)
        assert expected in codes, (text, codes)
        assert all(e.line >= 1 and e.column >= 1 for e in errors)


def test_errors_are_collected_not_first_only():
    text = "net n\nset A = a a\nset A = b\nrel f in A out Z\nend\ndata A\n"
    codes, _ = _codes(text)
    assert "DUPLICATE_VALUE" in codes
    assert "DUPLICATE_ID" in codes
    assert "UNKNOWN_SET" in codes


def test_parse_error_str_format():
    _, errors = _codes("net n extra\n")
    text = str(errors[0])
    line, column, code = text.split(":")[0], text.split(":")[1], text.split(":")[2]
    assert line == "1" and column.isdigit()
    assert code.strip() == "TRAILING_TOKENS"


def test_round_trip_corpus_files():
    for path in sorted(CORPUS.glob("*.semnet")):
        first = parse(path.read_text(encoding="utf-8")).network
        text = serialize(first)
        second = parse(text).network
        assert first == second, path.name
        assert serialize(second) == text, path.name


def test_round_trip_builders():
    for name, net in all_networks().items():
        assert parse(serialize(net)).network == net, name


# Every character at which str.splitlines, and so parse, ends a line.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def test_line_breaks_are_those_of_splitlines():
    assert [c for c in map(chr, range(0x110000))
            if len(f"a{c}b".splitlines()) > 1] == sorted(LINE_BREAKS)


def test_serialize_rejects_unserialisable_networks():
    from semnet import Network, Relation, ValueSet
    with pytest.raises(ValueError):
        serialize(Network("n", (ValueSet("A", ("a",)),), (), {"MISSING"}))
    # Ids that parse would misread: not identifiers, or "out" in an in-scope.
    sets = (ValueSet("out", ("x",)), ValueSet("Y", ("y",)))
    for net, message in (
            (Network("n", (ValueSet("a b", ("x",)),), (), {"a b"}),
             "set id 'a b' is not a valid identifier"),
            (Network("n", sets, (Relation("r 1", (), ("Y",), (("y",),)),), {"Y"}),
             "relation id 'r 1' is not a valid identifier"),
            (Network("n", sets, (Relation("r", (), ("a b",), ()),), {"Y"}),
             "set id 'a b' is not a valid identifier"),
            (Network("n", sets, (Relation("r", ("out",), ("Y",), (("x", "y"),)),), {"out"}),
             "set 'out' cannot be in the in-scope of relation 'r'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize(net)
    # "out" among the out-scope reads back as written.
    net = Network("n", sets, (Relation("r", ("Y",), ("out",), (("y", "x"),)),), {"Y"})
    assert parse(serialize(net)).network == net
    for brk in LINE_BREAKS:
        for value in (f"bad{brk}line", brk, f"{brk}x", f"x{brk}"):
            with pytest.raises(ValueError, match="line break"):
                serialize(Network("n", (ValueSet("A", ("a", value)),), (), {"A"}))
    # Other control and non-ASCII characters round-trip inside quotes.
    values = ("tab\tx", "nul\x00x", "us\x1fx", "nbsp\xa0x", "e\u0301")
    net = Network("n", (ValueSet("A", values),), (), {"A"})
    assert parse(serialize(net)).network == net


def _random_text(rng: random.Random) -> str:
    pieces = ["net", "set", "rel", "row", "end", "data", "in", "out", "=",
              "n", "A", "B", "x1", '"x', '"x"', "#c", "\\", "9", "-", "_",
              "\n", " ", "\t", "\r\n"]
    return "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 60)))


def test_fuzz_parse_never_crashes():
    rng = random.Random(20260814)
    for _ in range(300):
        text = _random_text(rng)
        try:
            doc = parse(text)
        except ParseFailure as failure:
            assert failure.errors
            assert all(e.line >= 1 for e in failure.errors)
        else:
            # anything accepted must survive a round trip
            assert parse(serialize(doc.network)).network == doc.network


def test_parse_is_deterministic():
    first = _codes("net n\nset A = a a\nwobble\n")[0]
    second = _codes("net n\nset A = a a\nwobble\n")[0]
    assert first == second


# --- row statements: bare rows take a whole-line match, the rest the tokenizer

def _table_text(row_lines, newline="\n"):
    lines = ["net n", "set A = a1 a2", "set B = b1 b2", "set C = c1 c2",
             "rel r in A B out C", *row_lines, "end", "data A B"]
    return newline.join(lines) + newline


def _unknown(value, set_id, line, column):
    return ("UNKNOWN_VALUE", f"value {value!r} not in set {set_id!r}", line, column)


_ARITY = "row has 2 values, relation 'r' needs 3"
_DUPLICATE = "row repeated in relation 'r'"

# (id, row lines, newline, expected (code, message, line, column) list);
# each error comes in a bare and a quoted form. Row lines start at line 6.
ROW_ERROR_CASES = [
    ("unknown-first-bare", ["row zz b1 c1"], "\n", [_unknown("zz", "A", 6, 5)]),
    ("unknown-first-quoted", ['row "zz" "b1" "c1"'], "\n", [_unknown("zz", "A", 6, 5)]),
    ("unknown-third-bare", ["row a1 b1 zz"], "\n", [_unknown("zz", "C", 6, 11)]),
    ("unknown-third-quoted", ['row "a1" "b1" "zz"'], "\n", [_unknown("zz", "C", 6, 15)]),
    ("unknown-first-and-third-bare", ["row zz b1 yy"], "\n",
     [_unknown("zz", "A", 6, 5), _unknown("yy", "C", 6, 11)]),
    ("unknown-first-and-third-quoted", ['row "zz" b1 "y y"'], "\n",
     [_unknown("zz", "A", 6, 5), _unknown("y y", "C", 6, 13)]),
    ("arity-bare", ["row a1 b1"], "\n", [("ROW_ARITY", _ARITY, 6, 5)]),
    ("arity-quoted", ['row "a1" "b1"'], "\n", [("ROW_ARITY", _ARITY, 6, 5)]),
    ("arity-empty", ["row"], "\n",
     [("ROW_ARITY", "row has 0 values, relation 'r' needs 3", 6, 1)]),
    ("duplicate-bare", ["row a1 b1 c1", "row a2 b1 c1", "row  a1 b1 c1"], "\n",
     [("DUPLICATE_ROW", _DUPLICATE, 8, 6)]),
    ("duplicate-quoted", ["row a1 b1 c1", 'row "a1" "b1" "c1"'], "\n",
     [("DUPLICATE_ROW", _DUPLICATE, 7, 5)]),
    ("glued-comment-bare", ["row a1 b1 zz#c"], "\n", [_unknown("zz", "C", 6, 11)]),
    ("glued-comment-quoted", ['row "a1" "b1" "zz"#c'], "\n", [_unknown("zz", "C", 6, 15)]),
    ("glued-comment-arity-bare", ["row a1 b1#c1"], "\n", [("ROW_ARITY", _ARITY, 6, 5)]),
    ("glued-comment-arity-quoted", ['row "a1" "b1"#"c1"'], "\n", [("ROW_ARITY", _ARITY, 6, 5)]),
    ("tabs-bare", ["row\ta1\t\tzz\tc1"], "\n", [_unknown("zz", "B", 6, 9)]),
    ("tabs-quoted", ['row\t"a1"\t\t"zz"\t"c1"'], "\n", [_unknown("zz", "B", 6, 11)]),
    ("crlf-bare", ["row a1 b1 c1", "row a1 zz c1", "row a1 b1 c1"], "\r\n",
     [_unknown("zz", "B", 7, 8), ("DUPLICATE_ROW", _DUPLICATE, 8, 5)]),
    ("crlf-quoted", ['row "a1" b1 c1', 'row a1 "zz" c1', 'row a1 "b1" c1'], "\r\n",
     [_unknown("zz", "B", 7, 8), ("DUPLICATE_ROW", _DUPLICATE, 8, 5)]),
    ("leading-whitespace-bare", ["  \trow a1 b1 zz"], "\n", [_unknown("zz", "C", 6, 14)]),
    ("leading-whitespace-quoted", ['  \trow "a1" "b1" "zz"'], "\n", [_unknown("zz", "C", 6, 18)]),
    ("leading-whitespace-arity-bare", [" row a1 b1 # c1"], "\n", [("ROW_ARITY", _ARITY, 6, 6)]),
    ("leading-whitespace-arity-quoted", [' row "a1" "b1" # "c1"'], "\n",
     [("ROW_ARITY", _ARITY, 6, 6)]),
]


@pytest.mark.parametrize("row_lines, newline, expected",
                         [case[1:] for case in ROW_ERROR_CASES],
                         ids=[case[0] for case in ROW_ERROR_CASES])
def test_row_errors_report_code_message_line_and_column(row_lines, newline, expected):
    _, errors = _codes(_table_text(row_lines, newline))
    assert [(e.code, e.message, e.line, e.column) for e in errors] == expected


def test_bare_and_quoted_rows_parse_alike():
    bare = ["row a1 b1 c1", "\trow a2\tb2 c2  # note", " row a1 b2 c1#glued"]
    quoted = ['row "a1" "b1" "c1"', '\trow a2\t"b2" c2  # note', ' row "a1" b2 "c1"#glued']
    for newline in ("\n", "\r\n"):
        net = parse(_table_text(bare, newline)).network
        assert net == parse(_table_text(quoted, newline)).network
        assert net.relations[0].rows == (("a1", "b1", "c1"), ("a2", "b2", "c2"),
                                         ("a1", "b2", "c1"))


_BARE_VALUES = st.from_regex(r"[A-Za-z0-9_.+-]{1,3}", fullmatch=True)
_ROW_FRAGMENTS = st.one_of(
    st.builds(str.__add__, st.sampled_from([" ", "\t", " \t"]), _BARE_VALUES),
    st.sampled_from(["row", " ", "\t", "\f", "#", '"', "\\"]),
    _BARE_VALUES,
    st.text(alphabet='ab #"\\\t', max_size=3).map(
        lambda v: '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'),
)
_ROW_LINES = st.builds(lambda head, body: head + "".join(body),
                       st.sampled_from(["", "row", "row ", " row\t", "\trow  ", "row\f", "\frow "]),
                       st.lists(_ROW_FRAGMENTS, max_size=12))


@seed(20241018)
@settings(max_examples=300, deadline=None, database=None)
@given(_ROW_LINES)
def test_bare_row_match_agrees_with_tokenizer(line):
    """The whole-line match accepts exactly the lines that _tokenize splits,
    without error, into an unquoted ``row`` and unquoted bare values, and
    it yields those same values."""
    errors = []
    tokens = _tokenize(line, 1, errors)
    tokenized_bare_row = (
        not errors and bool(tokens) and not any(t.quoted for t in tokens)
        and tokens[0].text == "row"
        and all(_BARE_VALUE_RE.match(t.text) for t in tokens[1:]))
    match = _BARE_ROW_RE.fullmatch(line)
    assert (match is not None) == tokenized_bare_row
    if match is not None:
        assert [t.text for t in tokens] == ["row", *match[1].split()]


# --- statement lines: plain lines are split, the rest tokenized ------------

# Words that are identifiers, keywords, bare values, quoted values, or
# neither: "a\xa0b" and "a\x1fb" are one token to the tokenizer and two
# words to str.split.
_STATEMENT_WORDS = st.sampled_from(
    ["A", "B", "C", "A", "B", "a", "b", "row", "out", "in", "=", "end", "x.y", "1x",
     '"a b"', '"out"', '"="', "a\xa0b", "a\x1fb"])
_BLANKS = st.sampled_from([" ", " ", "  ", "\t", " \t"])


@st.composite
def _statement_texts(draw):
    """A text of statement lines, mostly well formed, as a list of lines;
    the index of the line to comment; and the line ending."""
    lines = ["net n"] if draw(st.integers(0, 4)) else []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["net", "set", "set", "rel", "rel", "data", "row", "end"]))
        words = draw(st.lists(_STATEMENT_WORDS, max_size=4))
        if kind == "set":
            words = [draw(_STATEMENT_WORDS), "=", *words]
        elif kind == "rel":
            outs = draw(st.lists(_STATEMENT_WORDS, max_size=2))
            words = [draw(_STATEMENT_WORDS), "in", *words, "out", *outs]
        elif kind == "net":
            words = words[:draw(st.integers(0, 2))]
        if words and draw(st.integers(0, 5)) == 0:  # drop a word
            del words[draw(st.integers(0, len(words) - 1))]
        line = draw(st.sampled_from(["", "", " ", "\t"])) + kind
        for word in words:
            line += draw(_BLANKS) + word
        lines.append(line + draw(st.sampled_from(["", "", "", " ", "\t"])))
    commented = draw(st.integers(0, len(lines) - 1))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return lines, commented, newline


def _outcome(text):
    try:
        doc = parse(text)
    except ParseFailure as failure:
        return [(e.code, e.message, e.line, e.column) for e in failure.errors]
    return doc.network, doc.network._row_keys, doc.source_spans


@seed(20241023)
@settings(max_examples=300, deadline=None, database=None)
@given(_statement_texts())
@example((["net n", "set A = a\xa0b c", "data A"], 2, "\n"))
@example((["net n", "set A = a\x1fb c", "data A"], 2, "\n"))
@example((["net n", "set A = a\xa0b c", "data A"], 1, "\r\n"))
@example((["net n", "set\tA  =\ta b", "rel r in A out B", "row a b", "end", "data A"], 3, "\n"))
def test_commenting_a_line_changes_neither_network_nor_errors(case):
    """A comment sends its line through the tokenizer, and every other line
    of the text through a check of its own; the outcome must not change."""
    lines, commented, newline = case
    text = newline.join(lines) + newline
    lines = list(lines)
    lines[commented] += " # c"
    assert _outcome(text) == _outcome(newline.join(lines) + newline)


@pytest.mark.parametrize("blank", ["\xa0", "\x1f"])
def test_a_blank_split_does_not_see_is_inside_a_token(blank):
    """str.split splits at U+00A0 and \\x1f; the tokenizer does not."""
    _, errors = _codes(f"net x\nset A = a{blank}b c\n")
    assert [(e.code, e.message, e.line, e.column) for e in errors] == [
        ("BAD_VALUE", f"{'a' + blank + 'b'!r} is not a bare value; quote it", 2, 9)]
