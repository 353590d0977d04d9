"""Row tables checked in bulk agree with the row-by-row walks.

``parse`` splits a block of bare rows as one string and checks a
relation's rows by computing their keys (``model.row_keys``), which the
parsed network keeps for ``validate`` and ``encode``. A relation that
fails those checks is walked one row at a time, so every error keeps its
code, message, position and order. These tests compare the two routes,
compare ``row_keys`` with the column check it replaced
(``oracle.rows_conform``), and check that a clean table keeps taking the
bulk route and gets its keys computed once per relation.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from oracle import rows_conform
from semnet import Network, ParseFailure, Relation, ValueSet, encode, parse, serialize, validate
from semnet import model, netdef

SETS = {"A": ("a1", "a2", "row"), "B": ("b1", "b2"), "C": ("c1", "c2", "c3")}
SCOPES = ((("A", "B"), ("C",)), (("A",), ("C",)), (("B",), ("A", "C")))
# Most blocks should be bare and clean enough to take the bulk path.
_VALUES = {sid: st.sampled_from([v for v in values if v != "row"] * 4 + ["row"] * ("row" in values))
           for sid, values in SETS.items()}


# --- parse: quoting one value moves a block to the per-line path -----------

_HEAD = ["net n", *(f"set {sid} = {' '.join(vs)}" for sid, vs in SETS.items())]


@st.composite
def _blocks(draw):
    """A ``.semnet`` text of one to three relation blocks, as a list of
    line parts, and the index of the row whose last value may be quoted.

    A line part is a string or, for a row, a ``(prefix, values, separators,
    suffix)`` tuple. Rows hold unknown values, wrong arities, repeats and
    the value ``row``, and the blocks blank and comment lines, ``end # c``,
    missing ends (also at the end of the text) and lines that glue a value
    to ``row``.
    """
    lines: list = list(_HEAD)
    for r in range(draw(st.integers(1, 3))):
        ins, outs = draw(st.sampled_from(SCOPES))
        lines.append(f"rel r{r} in {' '.join(ins)} out {' '.join(outs)}")
        scope = ins + outs
        made: list[tuple[str, ...]] = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(["ok"] * 10 + ["unknown", "short", "long", "repeat",
                                                        "blank", "comment"]))
            if kind == "blank":
                lines.append(draw(st.sampled_from(["", " ", "\t"])))
                continue
            if kind == "comment":
                lines.append(draw(st.sampled_from(["# note", "  #", "#row a1 b1 c1"])))
                continue
            values = tuple(draw(_VALUES[sid]) for sid in scope)
            if kind == "unknown":
                at = draw(st.integers(0, len(values) - 1))
                values = values[:at] + ("zz",) + values[at + 1:]
            elif kind == "short":
                values = values[:draw(st.integers(0, len(values) - 1))]
            elif kind == "long":
                values += ("a1",)
            elif kind == "repeat" and made:
                values = draw(st.sampled_from(made))
            made.append(values)
            separators = draw(st.lists(st.sampled_from([" ", " ", "\t", "  "]),
                                       min_size=len(values), max_size=len(values)))
            if separators and draw(st.integers(0, 15)) == 0:
                separators[0] = ""  # "rowa1 ...": not a row statement
            prefix = draw(st.sampled_from(["row"] * 10 + [" row", "\trow"]))
            suffix = draw(st.sampled_from([""] * 10 + ["  ", " # c", "#c"]))
            lines.append((prefix, values, separators, suffix))
        lines.append(draw(st.sampled_from(["end"] * 8 + ["end # c", " end", None, None])))
    if draw(st.booleans()):
        lines.append("data A B")
    # A value glued to "row" would split off it once quoted.
    rows = [i for i, part in enumerate(lines) if isinstance(part, tuple) and part[1] and part[2][-1]]
    quoted = draw(st.sampled_from(rows)) if rows else None
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return lines, quoted, newline


def _render(lines, quoted, newline):
    out = []
    for i, part in enumerate(lines):
        if part is None:
            continue
        if isinstance(part, tuple):
            prefix, values, separators, suffix = part
            values = list(values)
            if i == quoted:
                values[-1] = f'"{values[-1]}"'
            part = prefix + "".join(map(str.__add__, separators, values)) + suffix
        out.append(part)
    return newline.join(out) + newline


def _outcome(text):
    try:
        doc = parse(text)
    except ParseFailure as failure:
        return [(e.code, e.message, e.line, e.column) for e in failure.errors]
    return doc.network, doc.source_spans


@seed(20241019)
@settings(max_examples=200, deadline=None, database=None)
@given(_blocks())
@example(([*_HEAD, "rel r0 in A out C", ("row", ("a1", "c1"), [" ", " "], ""), None], 5, "\n"))
@example(([*_HEAD, "rel r0 in A out C", ("row", ("a1", "zz"), [" ", "\t"], ""), "end"], 5, "\r\n"))
def test_quoting_a_value_changes_neither_network_nor_errors(case):
    """Quoting the last value of a row keeps every column on the line, and
    sends its block down the per-line path; the outcome must not change."""
    lines, quoted, newline = case
    if quoted is None:
        return
    assert _outcome(_render(lines, None, newline)) == _outcome(_render(lines, quoted, newline))


# --- validate: column checks against a per-row reference walk ----------------

def _reference_row_errors(network):
    """The row errors ``validate`` reports, one row at a time, for a
    network whose relations all have known, distinct scope sets."""
    domains = {vs.id: frozenset(vs.values) for vs in network.sets}
    errors = []
    for rel in network.relations:
        scope = rel.scope
        seen = set()
        for i, row in enumerate(rel.rows, 1):
            where = f"rel {rel.id} row {i}"
            if len(row) != len(scope):
                errors.append(("MALFORMED_ROW",
                               f"row has {len(row)} values, scope needs {len(scope)}", where))
                continue
            bad = [(v, sid) for sid, v in zip(scope, row) if v not in domains[sid]]
            if bad:
                errors.append(("MALFORMED_ROW", f"{bad[0][0]!r} not in set {bad[0][1]!r}", where))
                continue
            if row in seen:
                errors.append(("DUPLICATE_ROW", f"row {row!r} repeated", where))
            seen.add(row)
    return errors


def _random_relation(rng, rid):
    ins, outs = rng.choice(SCOPES)
    scope = ins + outs
    space = list(itertools.product(*(SETS[sid] for sid in scope)))
    rows = rng.sample(space, rng.randint(0, len(space)))
    for _ in range(rng.choice((0, 0, 1, 3))):
        at = rng.randrange(len(rows) + 1)
        defect = rng.choice(("short", "long", "unknown", "repeat"))
        if defect == "repeat" and rows:
            rows.insert(at, rng.choice(rows))
        elif defect == "short":
            rows.insert(at, tuple(rng.choice(SETS[sid]) for sid in scope[:rng.randrange(len(scope))]))
        elif defect == "long":
            rows.insert(at, tuple(rng.choice(SETS[sid]) for sid in scope) + ("a1",))
        else:
            row = [rng.choice(SETS[sid]) for sid in scope]
            row[rng.randrange(len(row))] = rng.choice(("zz", "b1", "c3", "a3"))
            rows.insert(at, tuple(row))
    return Relation(rid, ins, outs, tuple(rows))


def test_validate_row_errors_match_a_per_row_walk():
    rng = random.Random(20241019)
    clean = defective = 0
    for n in range(600):
        relations = tuple(_random_relation(rng, f"r{r}") for r in range(rng.randint(1, 3)))
        net = Network(f"n{n}", tuple(ValueSet(sid, vs) for sid, vs in SETS.items()),
                      relations, frozenset({"A", "B"}))
        expected = _reference_row_errors(net)
        got = [(e.code, e.message, e.location) for e in validate(net).errors]
        assert got == expected, net  # row errors are the only ones these nets can have
        clean += not expected
        defective += bool(expected)
    assert clean >= 100 and defective >= 100


# --- row_keys: keys for conforming rows, None exactly when the reference refuses

@st.composite
def _relation_rows(draw):
    """A scope, one of ``SCOPES`` or the nullary one, and rows over it with
    short and long rows, unknown values and repeats among them."""
    ins, outs = draw(st.sampled_from(SCOPES + (((), ()),)))
    scope = ins + outs
    rows: list[tuple[str, ...]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["ok"] * 6 + ["unknown", "short", "long", "repeat"]))
        values = tuple(draw(st.sampled_from(SETS[sid])) for sid in scope)
        if kind == "unknown" and values:
            at = draw(st.integers(0, len(values) - 1))
            unknown = draw(st.sampled_from(["zz", "b1", "c3", "a3"]))
            values = values[:at] + (unknown,) + values[at + 1:]
        elif kind == "short" and values:
            values = values[:draw(st.integers(0, len(values) - 1))]
        elif kind == "long":
            values += ("a1",)
        elif kind == "repeat" and rows:
            values = draw(st.sampled_from(rows))
        rows.append(values)
    return scope, rows


@seed(20241020)
@settings(max_examples=400, deadline=None, database=None)
@given(_relation_rows())
@example(((), []))
@example(((), [()]))
@example(((), [(), ()]))
@example((("A", "C"), []))
@example((("A", "C"), [("a1", "c1"), ("a1", "c1")]))
@example((("A", "C"), [("a1",), ("a2", "c1")]))
def test_row_keys_agree_with_the_column_check(case):
    scope, rows = case
    keys = model.row_keys(rows, model.scope_weights(scope, SETS, {}))
    if not rows_conform(rows, [frozenset(SETS[sid]) for sid in scope]):
        assert keys is None
        return
    strides = [1] * len(scope)
    for j in range(len(scope) - 2, -1, -1):
        strides[j] = strides[j + 1] * len(SETS[scope[j + 1]])
    assert keys == tuple(sum(stride * SETS[sid].index(v)
                             for stride, sid, v in zip(strides, scope, row)) for row in rows)


# --- the bulk path stays in use ----------------------------------------------

def test_clean_table_takes_the_bulk_path(monkeypatch):
    """A clean 1,000-row table tokenizes only its non-row lines and matches
    no line on its own."""
    rows = tuple((f"a{i // 100}", f"b{i // 10 % 10}", f"c{i % 10}", f"d{i % 7}")
                 for i in range(1000))
    net = Network("big", (ValueSet("A", tuple(f"a{i}" for i in range(10))),
                          ValueSet("B", tuple(f"b{i}" for i in range(10))),
                          ValueSet("C", tuple(f"c{i}" for i in range(10))),
                          ValueSet("D", tuple(f"d{i}" for i in range(7)))),
                  (Relation("t", ("A", "B", "C"), ("D",), rows),), frozenset({"A", "B", "C"}))
    text = serialize(net)
    non_row_lines = sum(not line.startswith("row") for line in text.splitlines())
    assert non_row_lines == 8

    calls = {"tokenize": 0, "row match": 0}

    def tokenize(*args, _real=netdef._tokenize):
        calls["tokenize"] += 1
        return _real(*args)

    class CountingRowMatch:
        def fullmatch(self, line, _real=netdef._BARE_ROW_RE):
            calls["row match"] += 1
            return _real.fullmatch(line)

    monkeypatch.setattr(netdef, "_tokenize", tokenize)
    monkeypatch.setattr(netdef, "_BARE_ROW_RE", CountingRowMatch())
    assert parse(text).network == net
    # The block's "end" line closes the relation without the tokenizer.
    assert calls == {"tokenize": non_row_lines - 1, "row match": 0}

    # One quoted value sends the block down the per-line path.
    calls.update({"tokenize": 0, "row match": 0})
    assert parse(text.replace("row a0 b0 c0 d0", 'row a0 b0 c0 "d0"')).network == net
    assert calls == {"tokenize": non_row_lines + 1, "row match": 1001}


# Lines of bare rows, mostly; the rest break one rule of _bare_block.
_BLOCK_LINES = st.lists(
    st.builds(lambda head, words: head + "".join(words),
              st.sampled_from(["row"] * 8 + [" row", "rowa", ""]),
              st.lists(st.builds(str.__add__,
                                 st.sampled_from([" "] * 4 + ["\t", "  ", ""]),
                                 st.sampled_from(["a", "b"] * 4 + ["row", "#c", '"a"', "\xe9"])),
                       max_size=4)),
    max_size=4)


@seed(20241019)
@settings(max_examples=300, deadline=None, database=None)
@given(_BLOCK_LINES, st.integers(0, 3))
@example(["row a b", "row c d"], 2)
@example(["row\ta\tb  ", "row c\t d"], 2)
@example(["row a b row", "row c"], 2)   # a value "row" shifts the line starts
@example(["row a", "b row c d"], 2)     # a line that does not start with row
@example(["row a", "row b c d"], 2)     # uneven lines, even word count
@example(["rowa b", "row c"], 1)
@example([" row a b"], 2)
@example(["row a b", ""], 2)
@example(["row a b # c"], 2)
@example(['row a "b"'], 2)
@example(["row a\xe9 b"], 2)
@example(["row"], 0)
@example([], 2)
def test_bare_block_takes_exactly_the_lines_of_bare_rows(block, arity):
    """_bare_block splits a block exactly when every line is a row that
    _BARE_ROW_RE matches, with ``row`` at its very start, no comment,
    ``arity`` (at least one) values and no value ``row``; it then gives the
    rows the line-by-line match gives."""
    matches = [netdef._BARE_ROW_RE.fullmatch(line) for line in block]
    bulk = arity > 0 and all(
        m is not None and line.startswith(("row ", "row\t")) and "#" not in line
        and len(m[1].split()) == arity and "row" not in m[1].split()
        for m, line in zip(matches, block))
    rows = netdef._bare_block(block, arity)
    assert (rows is not None) == bulk
    if bulk:
        assert rows == [tuple(m[1].split()) for m in matches]


def test_clean_table_gets_row_keys_once_per_relation(monkeypatch):
    """parse checks each relation's rows by computing its row keys, and
    validate and encode use those keys: no relation is walked again."""
    rows = tuple((f"a{i // 100}", f"b{i // 10 % 10}", f"c{i % 10}") for i in range(1000))
    sets = tuple(ValueSet(sid, tuple(f"{sid.lower()}{i}" for i in range(10))) for sid in "ABC")
    net = Network("big", sets, (Relation("t", ("A", "B"), ("C",), rows),
                                Relation("u", ("A",), ("B",), (("a0", "b1"), ("a1", "b0")))),
                  frozenset({"A", "B"}))
    text = serialize(net)
    calls = []

    def row_keys(rows, weights, _real=model.row_keys):
        calls.append(len(rows))
        return _real(rows, weights)

    monkeypatch.setattr(model, "row_keys", row_keys)
    monkeypatch.setattr(netdef, "row_keys", row_keys)
    encode.cache_clear()
    parsed = parse(text).network
    assert calls == [1000, 2]
    assert validate(parsed).ok
    encoded = encode(parsed)
    encode.cache_clear()
    assert calls == [1000, 2]
    assert [len(keys) for _, _, keys in encoded.relations] == [1000, 2]
