"""Render verdicts as human-readable text or a stable machine document.

The machine document is the tool's public API surface: keys are sorted,
arrays keep canonical (declaration/check) order, indentation is two
spaces, and there is a trailing newline — byte-identical across runs and
engines, so it can serve as a golden file.

The document has a fixed schema, so :func:`render_json` writes its lines
directly and escapes every string with ``json.encoder``'s C
``encode_basestring_ascii``, the function ``json.dumps`` itself uses. It
does not call ``json.dumps(doc, sort_keys=True, indent=2)``: with an
indent, CPython drops its C encoder and walks every dict, list and key in
Python generators, which take over three times as long as this writer.
The verdicts of one document share a few from and to scopes, so each
scope's array is rendered once per document, and a verdict without
witnesses writes its empty list as is. The output equals that call's plus
a trailing newline. The call lives on as ``oracle_render_json`` in
``tests/oracle.py``; ``tests/test_report.py`` compares the two on
generated verdicts and fails if rendering enters json's Python encoder.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from typing import Iterable, Sequence

from .model import Instance
from .netdef import format_value
from .properties import Verdict, Witness

__all__ = ["render_json", "render_text"]


def _format_instance(instance: Instance) -> str:
    if not instance.assignment:
        return "{}"
    return "{" + ", ".join(f"{k}={format_value(v)}" for k, v in instance.assignment) + "}"


def _format_witness(witness: Witness) -> str:
    evidence = ", ".join(_format_instance(e) for e in witness.evidence)
    return (f"  witness: {_format_instance(witness.anchor)}"
            f" -> [{evidence}] ({witness.note})")


def render_text(verdicts: Iterable[Verdict]) -> str:
    """One line per verdict, with indented witness lines after failures;
    values are quoted as ``serialize`` quotes them, so none reads as two."""
    lines: list[str] = []
    for verdict in verdicts:
        q = verdict.query
        name = q.kind.value.upper()
        if q.param is not None:
            name += f"({q.param})"
        lines.append(
            f"{name} from={{{','.join(q.from_scope)}}}"
            f" to={{{','.join(q.to_scope)}}} mode={q.mode.value}"
            f" : {'HOLDS' if verdict.holds else 'FAILS'}")
        for witness in verdict.witnesses:
            lines.append(_format_witness(witness))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# The indentation of each nesting depth: the document opens at depth 0, a
# verdict at 2, a witness at 4 and an evidence instance at 6.
_INDENT = tuple("  " * depth for depth in range(8))

# The fixed objects, keys in sorted order, each filled with ``%`` from
# rendered values.
_DOCUMENT = """{
  "direction": %s,
  "mode": %s,
  "network": %s,
  "verdicts": %s
}
"""
_VERDICT = """{
      "from": %s,
      "holds": %s,
      "instances_checked": %s,
      "param": %s,
      "property": %s,
      "to": %s,
      "witnesses": %s
    }"""
_WITNESS = """{
          "anchor": %s,
          "evidence": %s,
          "note": %s
        }"""


def _block(items: Sequence[str], depth: int, brackets: str) -> str:
    """An array (``brackets="[]"``) or object (``"{}"``) of rendered
    ``items``, opened on a line at ``depth``; empty, it stays on one line."""
    if not items:
        return brackets
    inner = "\n" + _INDENT[depth + 1]
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + _INDENT[depth] + brackets[1])


def _instance(instance: Instance, depth: int) -> str:
    # ``assignment`` is sorted by set id, and set ids are unique.
    return _block([_string(k) + ": " + _string(v) for k, v in instance.assignment],
                  depth, "{}")


def _witness(witness: Witness) -> str:
    return _WITNESS % (
        _instance(witness.anchor, 5),
        _block([_instance(e, 6) for e in witness.evidence], 5, "[]"),
        _string(witness.note))


def _scope(scope: tuple[str, ...], scopes: dict[tuple[str, ...], str]) -> str:
    """The array of a scope's set ids. The verdicts of one document share
    a few scopes, so ``scopes`` keeps each one's array for the document."""
    block = scopes.get(scope)
    if block is None:
        block = scopes[scope] = _block([_string(s) for s in scope], 3, "[]")
    return block


def _verdict(verdict: Verdict, scopes: dict[tuple[str, ...], str]) -> str:
    q = verdict.query
    return _VERDICT % (
        _scope(q.from_scope, scopes),
        "true" if verdict.holds else "false",
        int.__repr__(verdict.instances_checked),
        "null" if q.param is None else _string(q.param),
        _string(q.kind.value),
        _scope(q.to_scope, scopes),
        _block([_witness(w) for w in verdict.witnesses], 3, "[]")
        if verdict.witnesses else "[]")


def render_json(network_name: str, direction: str, mode: str,
                verdicts: Iterable[Verdict]) -> str:
    """The machine-readable report document as a JSON string."""
    scopes: dict[tuple[str, ...], str] = {}
    return _DOCUMENT % (
        _string(direction), _string(mode), _string(network_name),
        _block([_verdict(v, scopes) for v in verdicts], 1, "[]"))
