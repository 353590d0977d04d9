"""Line-oriented text format for networks (``.semnet`` files).

Grammar, one statement per line::

    net <id>                          exactly once, first statement
    set <id> = <value> <value> ...    declares a value set
    rel <id> in <set-id> ... out <set-id> ...
    row <value> ...                   one row of the open relation,
                                      in-scope values then out-scope values
    end                               closes the open relation
    data <set-id> ...                 at most once; omitted = sources

``#`` starts a comment that runs to the end of the line; blank lines are
ignored. Identifiers match ``[A-Za-z_][A-Za-z0-9_-]*``. Values are either
bare tokens matching ``[A-Za-z0-9_.+-]+`` or double-quoted strings with
``\\"`` and ``\\\\`` escapes (so ``"c#4"`` is a value, not a comment).

Parsing is total: any input yields either a :class:`SemnetDocument` or a
flat list of :class:`ParseError` with 1-based line and column numbers,
never a partial network. Serialization is canonical (declaration order,
single spaces, values quoted only when not bare, LF line endings, trailing
newline) and ``parse(serialize(network))`` reproduces the network exactly.
It refuses a value holding any character at which ``str.splitlines`` ends a
line, since no line of the text can hold one, and a network that ``parse``
would read back differently: a set or relation id that is not an
identifier, or a set named ``out`` in a relation's in-scope.

Parsing is linear in the input and works by C-level string operations on
whole lines, blocks and columns, never one character or one row at a time:

- One character check covers the whole text (``_plain``): ASCII
  bare-value characters, blanks, line ends and ``=``. On a line of such a
  text the tokens are the words of one ``str.split``, none quoted, so each
  statement line is split and the statements read its words. A line of
  any other text gets the check of its own. A line that fails it, such as
  one with a quote, a comment, a non-ASCII character or ``\\x1f`` (at which
  ``str.split`` splits and the tokenizer does not), goes through
  ``_tokenize``, the only tokenizer, as does any line whose statement
  reports an error, to recover that error's column. A keyword's column
  comes from the line's leading blanks.
- A relation's row block runs from its ``rel`` line to the next line that
  is exactly ``end``. When every line of it is ``row`` (at the very start
  of the line) followed by as many bare values as the header has scope
  sets, with blanks and no comment, the block is split as one string,
  each column of values is every (arity + 1)-th word, and its ``end``
  line closes the relation; each block is tried once. In a text that
  passed the character check, the block's own check is a scan for ``=``.
- Any other block (a quoted value, a comment, a blank line, a leading
  blank or a wrong arity anywhere in it) goes line by line: a ``row`` line
  whose values are all bare is split by one whole-line match, and every
  other line is a statement line as above.
- A relation's rows are then checked for arity, domain and repeats by
  computing their encoding keys with one ``map`` per column
  (``model.row_keys``), which the network returned keeps, with each
  relation's strides, for :func:`validate` and ``encode``; a block's rows
  are built once from its columns. The per-column value weights behind
  the keys are built once per file for each (set, stride) pair
  (``model.scope_weights``).
  Only a relation that fails is walked row by row, to report each defect
  with its line and column, in order; a block's row line numbers are
  built only then. The column of an error in a row comes from tokenizing
  that line again when the error is reported.

Both routes give the same network and the same errors.
"""

from __future__ import annotations

import re
import string
from collections.abc import Container
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .errors import SemnetError
from .model import (Network, Relation, ValueSet, mixed_radix, row_columns, row_keys,
                    scope_weights, sources, with_row_keys)

__all__ = [
    "ParseError",
    "ParseFailure",
    "SemnetDocument",
    "parse",
    "serialize",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")
_BARE_VALUE_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")
# A whole ``row`` line of bare values with an optional trailing comment;
# group 1 holds the values. A line it matches, _tokenize splits into
# ``row`` and the same values, without error.
_BARE_ROW_RE = re.compile(r"[ \t]*row((?:[ \t]+[A-Za-z0-9_.+-]+)*)[ \t]*(?:#.*)?", re.DOTALL)
# Every character at which str.splitlines (and so parse) ends a line.
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# The characters of a plain text (see _plain): bare-value characters,
# blanks, line ends and "=".
_PLAIN_CHARS = (string.ascii_letters + string.digits + "_.+- \t\r\n=").encode()


@dataclass(frozen=True)
class ParseError:
    code: str
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class ParseFailure(SemnetError):
    """Raised by :func:`parse` with every error found in the input."""

    def __init__(self, errors: list[ParseError]) -> None:
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class SemnetDocument:
    """A parsed network plus source positions of its declarations.

    ``source_spans`` maps ``"net:<id>"``, ``"set:<id>"`` and ``"rel:<id>"``
    to the 1-based ``(line, column)`` of the declaring statement.
    """

    network: Network
    source_spans: dict[str, tuple[int, int]]


class _Token(NamedTuple):
    text: str
    column: int
    quoted: bool


def _tokenize(line: str, line_no: int, errors: list[ParseError]) -> list[_Token] | None:
    """Split one line into tokens; quote-aware so ``#`` can appear in values."""
    tokens: list[_Token] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        if ch == '"':
            start = i
            i += 1
            buf: list[str] = []
            while True:
                if i >= n:
                    errors.append(ParseError(
                        "UNTERMINATED_STRING", "quoted value never closed", line_no, start + 1))
                    return None
                ch = line[i]
                if ch == "\\":
                    if i + 1 >= n or line[i + 1] not in ('"', "\\"):
                        errors.append(ParseError(
                            "BAD_ESCAPE", "only \\\" and \\\\ escapes are allowed", line_no, i + 1))
                        return None
                    buf.append(line[i + 1])
                    i += 2
                    continue
                if ch == '"':
                    i += 1
                    break
                buf.append(ch)
                i += 1
            tokens.append(_Token("".join(buf), start + 1, True))
            continue
        start = i
        while i < n and line[i] not in ' \t#"':
            i += 1
        tokens.append(_Token(line[start:i], start + 1, False))
    return tokens


def _plain(text: str) -> bool:
    """Whether ``text`` holds only bare-value characters, blanks, line ends
    and ``=``. The words ``str.split`` finds on a line of such a text are
    the line's tokens, none quoted."""
    return text.isascii() and not text.encode().translate(None, _PLAIN_CHARS)


@dataclass(slots=True)
class _RawRelation:
    id: str
    line: int
    column: int
    in_sets: list[str]
    out_sets: list[str]
    # The rows of a block of bare rows as columns, one list of values per
    # scope set; None when the rows were read line by line into ``rows``.
    columns: list[list[str]] | None = None
    rows: list[tuple[str, ...]] = field(default_factory=list)
    row_lines: list[int] = field(default_factory=list)  # line number per row read line by line


def parse(text: str) -> SemnetDocument:
    """Parse ``.semnet`` text; raises :class:`ParseFailure` on any error."""
    errors: list[ParseError] = []
    net_name: str | None = None
    net_span: tuple[int, int] | None = None
    raw_sets: list[tuple[str, list[str], int, int]] = []  # id, values, line, column
    raw_rels: list[_RawRelation] = []
    data_ids: list[str] | None = None
    data_line = 0
    open_rel: _RawRelation | None = None
    saw_statement = False
    block_end = -1  # index of the line that ends the last row block tried

    lines = text.splitlines()  # splits at "\r" too, so no line holds one
    plain = _plain(text)  # one character check for every line and block
    numbered = enumerate(lines, start=1)
    for line_no, line in numbered:
        if open_rel is not None:
            bare_row = _BARE_ROW_RE.fullmatch(line)
            if bare_row is not None:
                open_rel.rows.append(tuple(bare_row[1].split()))
                open_rel.row_lines.append(line_no)
                continue
        if plain or _plain(line):
            words = line.split()
            quoted = ()
        else:
            tokens = _tokenize(line, line_no, errors)
            if tokens is None:
                continue
            words = [tok.text for tok in tokens]
            quoted = {i for i, tok in enumerate(tokens) if tok.quoted}
        if not words:
            continue
        column = len(line) - len(line.lstrip(" \t")) + 1  # the keyword's
        if 0 in quoted:
            errors.append(ParseError(
                "UNKNOWN_STATEMENT", "statement keyword expected", line_no, column))
            continue
        keyword = words[0]
        at = _Line(lines, line_no, words, quoted, errors)

        if keyword == "net":
            if saw_statement:
                code = "DUPLICATE_NET" if net_name is not None else "NET_NOT_FIRST"
                errors.append(ParseError(
                    code, "'net' must be the single first statement", line_no, column))
            saw_statement = True
            name = at.identifier("network name", column)
            if name is not None and net_name is None:
                net_name = name
                net_span = (line_no, column)
            if name is not None and len(words) > 2:
                errors.append(ParseError(
                    "TRAILING_TOKENS", "unexpected tokens after network name",
                    line_no, at.column(2)))
            continue

        if not saw_statement:
            errors.append(ParseError(
                "MISSING_NET", "first statement must be 'net <id>'", line_no, column))
            saw_statement = True  # report once

        if keyword == "set":
            if open_rel is not None:
                _unterminated(open_rel, errors)
                open_rel = None
            ident = at.identifier("set name", column)
            if ident is None:
                continue
            if len(words) < 3 or 2 in quoted or words[2] != "=":
                errors.append(ParseError(
                    "MISSING_EQUALS", "expected '=' after set name",
                    line_no, at.column(2) if len(words) > 2 else column))
                continue
            if len(words) == 3:
                errors.append(ParseError(
                    "MISSING_VALUES", f"set {ident!r} declares no values",
                    line_no, at.column(2)))
                continue
            if not at.values(3):
                continue
            raw_sets.append((ident, words[3:], line_no, column))
        elif keyword == "rel":
            if open_rel is not None:
                _unterminated(open_rel, errors)
                open_rel = None
            ident = at.identifier("relation name", column)
            if ident is None:
                continue
            if len(words) < 3 or 2 in quoted or words[2] != "in":
                errors.append(ParseError(
                    "MISSING_IN", "expected 'in' after relation name",
                    line_no, at.column(2) if len(words) > 2 else column))
                continue
            try:
                out_at = words.index("out", 3)
                while out_at in quoted:
                    out_at = words.index("out", out_at + 1)
            except ValueError:
                errors.append(ParseError(
                    "MISSING_OUT", "expected 'out' in relation header", line_no, column))
                continue
            in_ok = at.identifiers(3, out_at)
            if not (at.identifiers(out_at + 1, len(words)) and in_ok):
                continue
            open_rel = _RawRelation(ident, line_no, column, words[3:out_at], words[out_at + 1:])
            raw_rels.append(open_rel)
            # The block runs to the next line that is exactly "end" (or to
            # the end of the text). No line is in two blocks tried, which
            # keeps parsing linear: a rel line inside a block that failed
            # leaves its rows to the line-by-line loop.
            if line_no > block_end:
                try:
                    block_end = lines.index("end", line_no)
                except ValueError:
                    block_end = len(lines)
                open_rel.columns = _bare_block(lines[line_no:block_end], len(words) - 4, plain)
                if open_rel.columns is not None:
                    skip = block_end - line_no
                    if block_end < len(lines):  # its "end" line closes the relation
                        open_rel = None
                        skip += 1
                    next(islice(numbered, skip, skip), None)
        elif keyword == "row":
            if open_rel is None:
                errors.append(ParseError(
                    "STRAY_ROW", "'row' outside a rel ... end block", line_no, column))
                continue
            if not at.values(1):
                continue
            open_rel.rows.append(tuple(words[1:]))
            open_rel.row_lines.append(line_no)
        elif keyword == "end":
            if open_rel is None:
                errors.append(ParseError(
                    "STRAY_END", "'end' without an open rel block", line_no, column))
                continue
            if len(words) > 1:
                errors.append(ParseError(
                    "TRAILING_TOKENS", "unexpected tokens after 'end'", line_no, at.column(1)))
            open_rel = None
        elif keyword == "data":
            if open_rel is not None:
                _unterminated(open_rel, errors)
                open_rel = None
            if data_ids is not None:
                errors.append(ParseError(
                    "DUPLICATE_DATA", "'data' may appear at most once", line_no, column))
                continue
            if not at.identifiers(1, len(words)):
                continue
            data_ids = words[1:]
            data_line = line_no
        else:
            errors.append(ParseError(
                "UNKNOWN_STATEMENT", f"unknown statement {keyword!r}", line_no, column))

    if open_rel is not None:
        _unterminated(open_rel, errors)
    if net_name is None and not errors:
        errors.append(ParseError("MISSING_NET", "input declares no network", 1, 1))

    # Resolution pass: ids, value membership, arity. Forward references to
    # later set declarations are allowed; declaration order is file order.
    spans: dict[str, tuple[int, int]] = {}
    if net_span is not None and net_name is not None:
        spans[f"net:{net_name}"] = net_span

    sets_by_id: dict[str, ValueSet] = {}
    value_sets: list[ValueSet] = []
    weights_memo: dict = {}  # model.scope_weights' dicts, built once per file
    for sid, value_words, line_no, column in raw_sets:
        if sid in sets_by_id:
            errors.append(ParseError(
                "DUPLICATE_ID", f"set {sid!r} already declared", line_no, column))
            continue
        # Each value's index, its weight at stride 1.
        values = dict(zip(value_words, range(len(value_words))))
        if len(values) < len(value_words):
            values = {}
            for i, value in enumerate(value_words, 3):
                if value in values:
                    errors.append(ParseError(
                        "DUPLICATE_VALUE", f"value {value!r} repeated in set {sid!r}",
                        line_no, _columns(lines, line_no)[i]))
                else:
                    values[value] = len(values)
        vs = ValueSet(sid, tuple(values))
        weights_memo[sid, 1] = values
        sets_by_id[sid] = vs
        value_sets.append(vs)
        spans[f"set:{sid}"] = (line_no, column)

    relations: list[Relation] = []
    keys, strides = [], []  # per relation, its row keys and the strides they are at
    set_values = {sid: vs.values for sid, vs in sets_by_id.items()}
    rel_ids: set[str] = set()
    for raw in raw_rels:
        if raw.id in rel_ids:
            errors.append(ParseError(
                "DUPLICATE_ID", f"relation {raw.id!r} already declared", raw.line, raw.column))
            continue
        rel_ids.add(raw.id)
        spans[f"rel:{raw.id}"] = (raw.line, raw.column)
        scope = raw.in_sets + raw.out_sets
        if not sets_by_id.keys() >= set(scope):
            for i, sid in enumerate(scope):
                if sid not in sets_by_id:
                    # The header's words: rel <id> in <in-sets> out <out-sets>.
                    word = 3 + i + (i >= len(raw.in_sets))
                    errors.append(ParseError(
                        "UNKNOWN_SET", f"relation {raw.id!r} references unknown set {sid!r}",
                        raw.line, _columns(lines, raw.line)[word]))
            continue
        strides.append(tuple(mixed_radix(scope, set_values)[0]))
        weights = scope_weights(scope, set_values, weights_memo, strides[-1])
        if raw.columns is None:
            rows = raw.rows
            keys.append(row_keys(row_columns(rows, len(scope)), weights, len(rows)))
        else:
            keys.append(row_keys(raw.columns, weights, len(raw.columns[0])))
            rows = list(zip(*raw.columns))
            if keys[-1] is None:  # the block's lines are the rows'
                raw.row_lines = range(raw.line + 1, raw.line + 1 + len(rows))
        if keys[-1] is None:
            rows = _conforming_rows(raw, rows, scope, weights, lines, errors)
        relations.append(Relation(raw.id, tuple(raw.in_sets), tuple(raw.out_sets), tuple(rows)))

    selection: frozenset[str]
    if data_ids is None:
        selection = frozenset()  # replaced by sources below
    else:
        seen: list[str] = []
        for i, sid in enumerate(data_ids, 1):
            if sid not in sets_by_id:
                errors.append(ParseError(
                    "UNKNOWN_SET", f"data selection references unknown set {sid!r}",
                    data_line, _columns(lines, data_line)[i]))
            elif sid in seen:
                errors.append(ParseError(
                    "DUPLICATE_DATA_SET", f"set {sid!r} repeated in data selection",
                    data_line, _columns(lines, data_line)[i]))
            else:
                seen.append(sid)
        selection = frozenset(seen)

    if errors:
        raise ParseFailure(errors)

    network = Network(net_name or "", tuple(value_sets), tuple(relations), selection)
    if data_ids is None:
        network = Network(network.name, network.sets, network.relations, sources(network))
    return SemnetDocument(with_row_keys(network, keys, strides), spans)


class _Line(NamedTuple):
    """A statement line as its words, the texts of its tokens; the
    statements read these, and a line's columns are recovered from the
    tokenizer only when an error is reported."""

    lines: list[str]
    number: int
    words: list[str]
    quoted: Container[int]  # the indices of quoted words
    errors: list[ParseError]

    def column(self, i: int) -> int:
        """The 1-based column of word ``i``."""
        return _columns(self.lines, self.number)[i]

    def identifier(self, what: str, column: int) -> str | None:
        """The statement's name, word 1, or None once reported as missing
        (at ``column``, the keyword's) or not an identifier."""
        if len(self.words) < 2:
            self.errors.append(ParseError(
                "MISSING_IDENTIFIER", f"{what} expected", self.number, column))
            return None
        word = self.words[1]
        if 1 in self.quoted or not _IDENT_RE.match(word):
            self.errors.append(ParseError(
                "BAD_IDENTIFIER", f"{word!r} is not a valid identifier", self.number,
                self.column(1)))
            return None
        return word

    def identifiers(self, start: int, stop: int) -> bool:
        """Whether words ``start`` to ``stop`` are unquoted identifiers;
        reports each that is not."""
        ok = True
        for i in range(start, stop):
            if i in self.quoted or not _IDENT_RE.match(self.words[i]):
                self.errors.append(ParseError(
                    "BAD_IDENTIFIER", f"{self.words[i]!r} is not a valid identifier",
                    self.number, self.column(i)))
                ok = False
        return ok

    def values(self, start: int) -> bool:
        """Whether the words from ``start`` on are values, quoted or bare;
        reports each that is neither."""
        ok = True
        for i in range(start, len(self.words)):
            if i not in self.quoted and not _BARE_VALUE_RE.match(self.words[i]):
                self.errors.append(ParseError(
                    "BAD_VALUE", f"{self.words[i]!r} is not a bare value; quote it",
                    self.number, self.column(i)))
                ok = False
        return ok


def _bare_block(block: list[str], arity: int, plain: bool) -> list[list[str]] | None:
    """The rows of a block of lines as ``arity`` columns, or None unless each
    line is ``row`` at its very start, then ``arity`` (at least one) bare
    values and blanks. ``plain`` says the whole text passed :func:`_plain`.

    Such a line is one that ``_BARE_ROW_RE`` matches, less leading blanks
    and comments, so both paths give the same rows. The block is checked as
    one string: its characters at once (of a plain text, only for ``=``),
    then its words. Each line starts with the word ``row``, and ``row`` is
    every (arity + 1)-th word and no other, so each line holds exactly one
    row.
    """
    text = "\n".join(block)
    if not arity or "=" in text or not (plain or _plain(text)):
        return None
    rows = len(block)
    words = text.split()
    if (text.startswith(("row ", "row\t")) + text.count("\nrow ") + text.count("\nrow\t") != rows
            or len(words) != rows * (arity + 1)
            or words.count("row") != rows
            or words[::arity + 1].count("row") != rows):
        return None
    return [words[i::arity + 1] for i in range(1, arity + 1)]


def _conforming_rows(raw: _RawRelation, rows: list[tuple[str, ...]], scope: list[str],
                     weights: list[dict[str, int]], lines: list[str],
                     errors: list[ParseError]) -> list[tuple[str, ...]]:
    """The ``rows`` of ``raw`` without defects, in order; reports each defect.

    One row at a time, for a relation whose rows have no :func:`row_keys`.
    """
    kept: dict[tuple[str, ...], None] = {}  # an ordered set
    for row_line, row in zip(raw.row_lines, rows):
        if len(row) != len(scope):
            errors.append(ParseError(
                "ROW_ARITY",
                f"row has {len(row)} values, relation {raw.id!r} needs {len(scope)}",
                row_line, _first_value_column(lines, row_line)))
            continue
        if not all(map(dict.__contains__, weights, row)):
            columns = _columns(lines, row_line)[1:]
            for sid, domain, value, column in zip(scope, weights, row, columns):
                if value not in domain:
                    errors.append(ParseError(
                        "UNKNOWN_VALUE",
                        f"value {value!r} not in set {sid!r}", row_line, column))
            continue
        if row in kept:
            errors.append(ParseError(
                "DUPLICATE_ROW", f"row repeated in relation {raw.id!r}",
                row_line, _first_value_column(lines, row_line)))
            continue
        kept[row] = None
    return list(kept)


def _columns(lines: list[str], line_no: int) -> list[int]:
    """The 1-based column of each token on a line.

    Statements and rows keep their words as plain strings; columns are
    recovered from the tokenizer only when an error is reported.
    """
    return [tok.column for tok in _tokenize(lines[line_no - 1], line_no, [])]


def _first_value_column(lines: list[str], line_no: int) -> int:
    columns = _columns(lines, line_no)
    return columns[1] if len(columns) > 1 else 1


def _unterminated(raw: _RawRelation, errors: list[ParseError]) -> None:
    errors.append(ParseError(
        "UNTERMINATED_REL", f"relation {raw.id!r} has no 'end'", raw.line, raw.column))


def format_value(value: str) -> str:
    """A value as the text writes it: bare, or quoted with escapes."""
    if _BARE_VALUE_RE.match(value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def serialize(network: Network) -> str:
    """Render a network in canonical form (stable under parse/serialize)."""
    if not _IDENT_RE.match(network.name):
        raise ValueError(f"network name {network.name!r} is not a valid identifier")
    for vs in network.sets:
        if not _IDENT_RE.match(vs.id):
            raise ValueError(f"set id {vs.id!r} is not a valid identifier")
        for v in vs.values:
            if _LINE_BREAK_RE.search(v):
                raise ValueError(f"value {v!r} in set {vs.id!r} contains a line break")
    for rel in network.relations:
        for what, ident in (("relation", rel.id), *(("set", sid) for sid in rel.scope)):
            if not _IDENT_RE.match(ident):
                raise ValueError(f"{what} id {ident!r} is not a valid identifier")
        if "out" in rel.in_sets:
            # parse ends the in-scope at the first "out".
            raise ValueError(f"set 'out' cannot be in the in-scope of relation {rel.id!r}")
    lines = [f"net {network.name}"]
    for vs in network.sets:
        rendered = " ".join(format_value(v) for v in vs.values)
        lines.append(f"set {vs.id} = {rendered}")
    for rel in network.relations:
        lines.append(" ".join(["rel", rel.id, "in", *rel.in_sets, "out", *rel.out_sets]))
        for row in rel.rows:
            lines.append("row " + " ".join(format_value(v) for v in row))
        lines.append("end")
    data_ids = network.set_order(network.data_selection)
    if len(data_ids) != len(network.data_selection):
        missing = sorted(network.data_selection - set(data_ids))
        raise ValueError(f"data selection references undeclared sets {missing}")
    lines.append(("data " + " ".join(data_ids)).rstrip())
    return "\n".join(lines) + "\n"
