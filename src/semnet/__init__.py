"""Finite notation-semantics networks: value sets joined by extensional
relations, with decision procedures for properties of data selections.

A network fixes a finite space of full instances (one value per set); the
relations cut it down to the consistent ones. Given a data selection and a
direction, the property checkers decide whether the data determines the
outcomes (functional), always produces one (total), is recoverable from
them (injective), reaches them all (surjective, globally or per value),
and carries no redundant set (minimal) — each verdict with a concrete
witness. Networks are built in code or parsed from ``.semnet`` files.
"""

from __future__ import annotations

from .encode import EncodedNetwork, encode
from .engine import (
    CountMode,
    Engine,
    Limits,
    completions,
    count_distinct,
    distinct_representatives,
    enumerate_instances,
    first_completions,
    full_space_size,
    is_consistent,
    project,
)
from .errors import (
    InvalidNetworkError,
    LimitExceededError,
    ScopeMismatchError,
    SemnetError,
)
from .model import (
    Instance,
    Network,
    Relation,
    StructuralFlags,
    ValidationIssue,
    ValidationReport,
    ValueSet,
    sinks,
    sources,
    structural_flags,
    validate,
)
from .netdef import ParseError, ParseFailure, SemnetDocument, parse, serialize
from .properties import (
    Direction,
    PropertyKind,
    PropertyQuery,
    Verdict,
    Witness,
    check_functional,
    check_injective,
    check_minimal,
    check_suite,
    check_surjective,
    check_surjective_in,
    check_total,
)
from .report import render_json, render_text

__version__ = "0.1.0"

__all__ = [
    "CountMode",
    "Direction",
    "EncodedNetwork",
    "Engine",
    "Instance",
    "InvalidNetworkError",
    "Limits",
    "LimitExceededError",
    "Network",
    "ParseError",
    "ParseFailure",
    "PropertyKind",
    "PropertyQuery",
    "Relation",
    "ScopeMismatchError",
    "SemnetDocument",
    "SemnetError",
    "StructuralFlags",
    "ValidationIssue",
    "ValidationReport",
    "ValueSet",
    "Verdict",
    "Witness",
    "check_functional",
    "check_injective",
    "check_minimal",
    "check_suite",
    "check_surjective",
    "check_surjective_in",
    "check_total",
    "completions",
    "count_distinct",
    "distinct_representatives",
    "encode",
    "enumerate_instances",
    "first_completions",
    "full_space_size",
    "is_consistent",
    "parse",
    "project",
    "render_json",
    "render_text",
    "serialize",
    "sinks",
    "sources",
    "structural_flags",
    "validate",
]
