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

Parsing is linear in the input, and the rows of a table are handled in
bulk, by C-level string and set operations rather than one row at a time:

- A relation's row block runs from its ``rel`` line to the next line that
  is exactly ``end``. When every line of it is ``row`` (at the very start
  of the line) followed by as many bare values as the header has scope
  sets, with blanks and no comment, the block is split as one string and
  its ``end`` line closes the relation; each block is tried once.
- Any other block (a quoted value, a comment, a blank line, a leading
  blank or a wrong arity anywhere in it) goes line by line: a ``row`` line
  whose values are all bare is split by one whole-line match, and every
  other line goes through ``_tokenize``, still the only tokenizer.
- A relation's rows are then checked for arity, domain and repeats by
  computing their encoding keys in one C-level walk (``model.row_keys``),
  which the network returned keeps for :func:`validate` and ``encode``.
  The per-column value weights behind the keys are built once per file
  for each (set, stride) pair (``model.scope_weights``).
  Only a relation that fails is walked row by row, to report each defect
  with its line and column, in order. The column of an error in a row
  comes from tokenizing that line again when the error is reported.

Both routes give the same network and the same errors.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from itertools import islice

from .errors import SemnetError
from .model import Network, Relation, ValueSet, row_keys, scope_weights, sources, with_row_keys

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
# The characters of a block of bare rows joined by "\n": bare-value
# characters and blanks.
_BARE_BLOCK_CHARS = (string.ascii_letters + string.digits + "_.+- \t\n").encode()


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


@dataclass(frozen=True)
class _Token:
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


@dataclass
class _RawRelation:
    id: str
    line: int
    column: int
    in_tokens: list[_Token]
    out_tokens: list[_Token]
    rows: list[tuple[str, ...]] = field(default_factory=list)
    row_lines: list[int] = field(default_factory=list)  # line number per row


def parse(text: str) -> SemnetDocument:
    """Parse ``.semnet`` text; raises :class:`ParseFailure` on any error."""
    errors: list[ParseError] = []
    net_name: str | None = None
    net_span: tuple[int, int] | None = None
    raw_sets: list[tuple[str, list[_Token], int, int]] = []
    raw_rels: list[_RawRelation] = []
    data_tokens: list[_Token] | None = None
    data_line = 0
    open_rel: _RawRelation | None = None
    saw_statement = False
    block_end = -1  # index of the line that ends the last row block tried

    lines = text.splitlines()  # splits at "\r" too, so no line holds one
    numbered = enumerate(lines, start=1)
    for line_no, line in numbered:
        if open_rel is not None:
            bare_row = _BARE_ROW_RE.fullmatch(line)
            if bare_row is not None:
                open_rel.rows.append(tuple(bare_row[1].split()))
                open_rel.row_lines.append(line_no)
                continue
        tokens = _tokenize(line, line_no, errors)
        if tokens is None or not tokens:
            continue
        head = tokens[0]
        if head.quoted:
            errors.append(ParseError(
                "UNKNOWN_STATEMENT", "statement keyword expected", line_no, head.column))
            continue
        keyword = head.text
        args = tokens[1:]

        if keyword == "net":
            if saw_statement:
                code = "DUPLICATE_NET" if net_name is not None else "NET_NOT_FIRST"
                errors.append(ParseError(
                    code, "'net' must be the single first statement", line_no, head.column))
            saw_statement = True
            name = _take_identifier(args, "network name", line_no, head, errors)
            if name is not None and net_name is None:
                net_name = name.text
                net_span = (line_no, head.column)
            if name is not None and len(args) > 1:
                errors.append(ParseError(
                    "TRAILING_TOKENS", "unexpected tokens after network name",
                    line_no, args[1].column))
            continue

        if not saw_statement:
            errors.append(ParseError(
                "MISSING_NET", "first statement must be 'net <id>'", line_no, head.column))
            saw_statement = True  # report once

        if keyword == "set":
            if open_rel is not None:
                _unterminated(open_rel, errors)
                open_rel = None
            ident = _take_identifier(args, "set name", line_no, head, errors)
            if ident is None:
                continue
            if len(args) < 2 or args[1].quoted or args[1].text != "=":
                errors.append(ParseError(
                    "MISSING_EQUALS", "expected '=' after set name",
                    line_no, args[1].column if len(args) > 1 else head.column))
                continue
            values = args[2:]
            if not values:
                errors.append(ParseError(
                    "MISSING_VALUES", f"set {ident.text!r} declares no values",
                    line_no, args[1].column))
                continue
            if not _check_values(values, line_no, errors):
                continue
            raw_sets.append((ident.text, values, line_no, head.column))
        elif keyword == "rel":
            if open_rel is not None:
                _unterminated(open_rel, errors)
                open_rel = None
            ident = _take_identifier(args, "relation name", line_no, head, errors)
            if ident is None:
                continue
            rest = args[1:]
            if not rest or rest[0].quoted or rest[0].text != "in":
                errors.append(ParseError(
                    "MISSING_IN", "expected 'in' after relation name",
                    line_no, rest[0].column if rest else head.column))
                continue
            try:
                out_at = next(i for i, t in enumerate(rest) if not t.quoted and t.text == "out")
            except StopIteration:
                errors.append(ParseError(
                    "MISSING_OUT", "expected 'out' in relation header", line_no, head.column))
                continue
            in_tokens = rest[1:out_at]
            out_tokens = rest[out_at + 1:]
            if not _check_identifiers(in_tokens + out_tokens, line_no, errors):
                continue
            open_rel = _RawRelation(ident.text, line_no, head.column, in_tokens, out_tokens)
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
                block = _bare_block(lines[line_no:block_end], len(in_tokens) + len(out_tokens))
                if block is not None:
                    open_rel.rows += block
                    open_rel.row_lines += range(line_no + 1, block_end + 1)
                    skip = len(block)
                    if block_end < len(lines):  # its "end" line closes the relation
                        open_rel = None
                        skip += 1
                    next(islice(numbered, skip, skip), None)
        elif keyword == "row":
            if open_rel is None:
                errors.append(ParseError(
                    "STRAY_ROW", "'row' outside a rel ... end block", line_no, head.column))
                continue
            if not _check_values(args, line_no, errors):
                continue
            open_rel.rows.append(tuple(tok.text for tok in args))
            open_rel.row_lines.append(line_no)
        elif keyword == "end":
            if open_rel is None:
                errors.append(ParseError(
                    "STRAY_END", "'end' without an open rel block", line_no, head.column))
                continue
            if args:
                errors.append(ParseError(
                    "TRAILING_TOKENS", "unexpected tokens after 'end'", line_no, args[0].column))
            open_rel = None
        elif keyword == "data":
            if open_rel is not None:
                _unterminated(open_rel, errors)
                open_rel = None
            if data_tokens is not None:
                errors.append(ParseError(
                    "DUPLICATE_DATA", "'data' may appear at most once", line_no, head.column))
                continue
            if not _check_identifiers(args, line_no, errors):
                continue
            data_tokens = args
            data_line = line_no
        else:
            errors.append(ParseError(
                "UNKNOWN_STATEMENT", f"unknown statement {keyword!r}", line_no, head.column))

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
    for sid, value_tokens, line_no, column in raw_sets:
        if sid in sets_by_id:
            errors.append(ParseError(
                "DUPLICATE_ID", f"set {sid!r} already declared", line_no, column))
            continue
        values: dict[str, int] = {}  # each value's index, its weight at stride 1
        for tok in value_tokens:
            if tok.text in values:
                errors.append(ParseError(
                    "DUPLICATE_VALUE", f"value {tok.text!r} repeated in set {sid!r}",
                    line_no, tok.column))
            else:
                values[tok.text] = len(values)
        vs = ValueSet(sid, tuple(values))
        weights_memo[sid, 1] = values
        sets_by_id[sid] = vs
        value_sets.append(vs)
        spans[f"set:{sid}"] = (line_no, column)

    relations: list[Relation] = []
    keys: list[tuple[int, ...] | None] = []  # row keys per relation
    set_values = {sid: vs.values for sid, vs in sets_by_id.items()}
    rel_ids: set[str] = set()
    for raw in raw_rels:
        if raw.id in rel_ids:
            errors.append(ParseError(
                "DUPLICATE_ID", f"relation {raw.id!r} already declared", raw.line, raw.column))
            continue
        rel_ids.add(raw.id)
        spans[f"rel:{raw.id}"] = (raw.line, raw.column)
        ok = True
        for tok in raw.in_tokens + raw.out_tokens:
            if tok.text not in sets_by_id:
                errors.append(ParseError(
                    "UNKNOWN_SET", f"relation {raw.id!r} references unknown set {tok.text!r}",
                    raw.line, tok.column))
                ok = False
        if not ok:
            continue
        in_sets = tuple(t.text for t in raw.in_tokens)
        out_sets = tuple(t.text for t in raw.out_tokens)
        scope = in_sets + out_sets
        weights = scope_weights(scope, set_values, weights_memo)
        keys.append(row_keys(raw.rows, weights))
        rows = raw.rows if keys[-1] is not None else _conforming_rows(
            raw, scope, weights, lines, errors)
        relations.append(Relation(raw.id, in_sets, out_sets, tuple(rows)))

    data_ids: frozenset[str]
    if data_tokens is None:
        data_ids = frozenset()  # replaced by sources below
    else:
        seen: list[str] = []
        for tok in data_tokens:
            if tok.text not in sets_by_id:
                errors.append(ParseError(
                    "UNKNOWN_SET", f"data selection references unknown set {tok.text!r}",
                    data_line, tok.column))
            elif tok.text in seen:
                errors.append(ParseError(
                    "DUPLICATE_DATA_SET", f"set {tok.text!r} repeated in data selection",
                    data_line, tok.column))
            else:
                seen.append(tok.text)
        data_ids = frozenset(seen)

    if errors:
        raise ParseFailure(errors)

    network = Network(net_name or "", tuple(value_sets), tuple(relations), data_ids)
    if data_tokens is None:
        network = Network(network.name, network.sets, network.relations, sources(network))
    return SemnetDocument(with_row_keys(network, keys), spans)


def _bare_block(block: list[str], arity: int) -> list[tuple[str, ...]] | None:
    """The rows of a block of lines, or None unless each line is ``row`` at
    its very start, then ``arity`` (at least one) bare values and blanks.

    Such a line is one that ``_BARE_ROW_RE`` matches, less leading blanks
    and comments, so both paths give the same rows. The block is checked as
    one string: its characters at once, then its words. Each line starts
    with the word ``row``, and ``row`` is every (arity + 1)-th word and no
    other, so each line holds exactly one row.
    """
    text = "\n".join(block)
    if not arity or not text.isascii() or text.encode().translate(None, _BARE_BLOCK_CHARS):
        return None
    starts = "\n" + text
    words = text.split()
    if (starts.count("\nrow ") + starts.count("\nrow\t") != len(block)
            or len(words) != len(block) * (arity + 1)
            or words.count("row") != len(block)
            or words[::arity + 1].count("row") != len(block)):
        return None
    del words[::arity + 1]
    return list(zip(*[iter(words)] * arity))


def _conforming_rows(raw: _RawRelation, scope: tuple[str, ...], weights: list[dict[str, int]],
                     lines: list[str], errors: list[ParseError]) -> list[tuple[str, ...]]:
    """The rows of ``raw`` without defects, in order; reports each defect.

    One row at a time, for a relation whose rows have no :func:`row_keys`.
    """
    rows: dict[tuple[str, ...], None] = {}  # an ordered set
    for row_line, row in zip(raw.row_lines, raw.rows):
        if len(row) != len(scope):
            errors.append(ParseError(
                "ROW_ARITY",
                f"row has {len(row)} values, relation {raw.id!r} needs {len(scope)}",
                row_line, _first_value_column(lines, row_line)))
            continue
        if not all(map(dict.__contains__, weights, row)):
            columns = _value_columns(lines, row_line)
            for sid, domain, value, column in zip(scope, weights, row, columns):
                if value not in domain:
                    errors.append(ParseError(
                        "UNKNOWN_VALUE",
                        f"value {value!r} not in set {sid!r}", row_line, column))
            continue
        if row in rows:
            errors.append(ParseError(
                "DUPLICATE_ROW", f"row repeated in relation {raw.id!r}",
                row_line, _first_value_column(lines, row_line)))
            continue
        rows[row] = None
    return list(rows)


def _value_columns(lines: list[str], line_no: int) -> list[int]:
    """1-based columns of the values of the ``row`` statement on a line.

    Rows keep their values as plain strings; columns are recovered from the
    tokenizer only when an error is reported.
    """
    return [tok.column for tok in _tokenize(lines[line_no - 1], line_no, [])[1:]]


def _first_value_column(lines: list[str], line_no: int) -> int:
    columns = _value_columns(lines, line_no)
    return columns[0] if columns else 1


def _unterminated(raw: _RawRelation, errors: list[ParseError]) -> None:
    errors.append(ParseError(
        "UNTERMINATED_REL", f"relation {raw.id!r} has no 'end'", raw.line, raw.column))


def _take_identifier(args: list[_Token], what: str, line_no: int, head: _Token,
                     errors: list[ParseError]) -> _Token | None:
    if not args:
        errors.append(ParseError("MISSING_IDENTIFIER", f"{what} expected", line_no, head.column))
        return None
    tok = args[0]
    if tok.quoted or not _IDENT_RE.match(tok.text):
        errors.append(ParseError(
            "BAD_IDENTIFIER", f"{tok.text!r} is not a valid identifier", line_no, tok.column))
        return None
    return tok


def _check_identifiers(tokens: list[_Token], line_no: int, errors: list[ParseError]) -> bool:
    ok = True
    for tok in tokens:
        if tok.quoted or not _IDENT_RE.match(tok.text):
            errors.append(ParseError(
                "BAD_IDENTIFIER", f"{tok.text!r} is not a valid identifier", line_no, tok.column))
            ok = False
    return ok


def _check_values(tokens: list[_Token], line_no: int, errors: list[ParseError]) -> bool:
    ok = True
    for tok in tokens:
        if not tok.quoted and not _BARE_VALUE_RE.match(tok.text):
            errors.append(ParseError(
                "BAD_VALUE", f"{tok.text!r} is not a bare value; quote it", line_no, tok.column))
            ok = False
    return ok


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
