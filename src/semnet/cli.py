"""Command-line front end: validate, info, and check subcommands.

Reports go to stdout, diagnostics to stderr. Exit codes: 0 all requested
properties hold (or the file is valid), 1 some property fails, 2 usage or
parse error, 3 validation error, 4 work budget exceeded or a scope too
large for the engine's 62-bit keys.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import CountMode, Engine, Limits, full_space_size
from .errors import KeyOverflowError, LimitExceededError, ScopeMismatchError
from .model import Network, sinks, sources, validate
from .netdef import ParseFailure, parse
from .properties import Direction, PropertyKind, check_suite, check_surjective_in
from .report import render_json, render_text

__all__ = ["main"]

EXIT_OK = 0
EXIT_SOME_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_LIMIT = 4

_PROPERTY_KINDS = {
    "functional": PropertyKind.FUNCTIONAL,
    "total": PropertyKind.TOTAL,
    "injective": PropertyKind.INJECTIVE,
    "surjective": PropertyKind.SURJECTIVE,
    "surjective-in": PropertyKind.SURJECTIVE_IN,
    "minimal": PropertyKind.MINIMAL,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semnet",
        description="Check properties of finite notation-semantics networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a network file")
    p_validate.add_argument("file")

    p_info = sub.add_parser("info", help="summarise a network file")
    p_info.add_argument("file")

    p_check = sub.add_parser("check", help="decide properties of a network file")
    p_check.add_argument("file")
    p_check.add_argument("--property", dest="prop", default="all",
                         choices=["all", *_PROPERTY_KINDS])
    p_check.add_argument("--direction", default="forward",
                         choices=[d.value for d in Direction])
    p_check.add_argument("--from", dest="from_scope", metavar="SET,SET,…")
    p_check.add_argument("--to", dest="to_scope", metavar="SET,SET,…")
    p_check.add_argument("--mode", default="projected",
                         choices=[m.value for m in CountMode])
    p_check.add_argument("--param", metavar="SET",
                         help="parameter set for surjective-in")
    p_check.add_argument("--engine", default="join",
                         choices=[e.value for e in Engine])
    p_check.add_argument("--max-instances", dest="max_instances", type=int,
                         metavar="N", help="work budget of each search (the"
                         " join's search nodes, brute force's candidate space),"
                         " the consistent table's build among them")
    p_check.add_argument("--json", action="store_true",
                         help="emit the machine-readable report")
    return parser


def _load(path: str) -> Network | None:
    """Parse a network file; on failure print diagnostics and return None.

    The file is UTF-8, with or without a byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse(text).network
    except ParseFailure as failure:
        for err in failure.errors:
            print(f"{path}:{err}", file=sys.stderr)
        return None


def _cmd_validate(args: argparse.Namespace) -> int:
    network = _load(args.file)
    if network is None:
        return EXIT_USAGE
    report = validate(network)
    for issue in report.errors:
        print(f"error[{issue.code}] {issue.location}: {issue.message}")
    for issue in report.warnings:
        print(f"warning[{issue.code}] {issue.location}: {issue.message}")
    print(f"{args.file}: {len(report.errors)} error(s), "
          f"{len(report.warnings)} warning(s)")
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_info(args: argparse.Namespace) -> int:
    network = _load(args.file)
    if network is None:
        return EXIT_USAGE
    print(f"network {network.name}")
    print(f"sets ({len(network.sets)}):")
    for vs in network.sets:
        print(f"  {vs.id} ({len(vs.values)} values)")
    print(f"relations ({len(network.relations)}):")
    for rel in network.relations:
        print(f"  {rel.id} in={{{','.join(rel.in_sets)}}}"
              f" out={{{','.join(rel.out_sets)}}} rows={len(rel.rows)}")
    print(f"sources: {{{','.join(network.set_order(sources(network)))}}}")
    print(f"sinks: {{{','.join(network.set_order(sinks(network)))}}}")
    print(f"data: {{{','.join(network.set_order(network.data_selection))}}}")
    print(f"full instance space: {full_space_size(network)}")
    report = validate(network)
    for issue in report.errors:
        print(f"error[{issue.code}] {issue.location}: {issue.message}",
              file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INVALID


def _split_scope(arg: str | None) -> tuple[str, ...] | None:
    if arg is None:
        return None
    return tuple(s for s in arg.split(",") if s)


def _cmd_check(args: argparse.Namespace) -> int:
    network = _load(args.file)
    if network is None:
        return EXIT_USAGE
    report = validate(network)
    if not report.ok:
        for issue in report.errors:
            print(f"error[{issue.code}] {issue.location}: {issue.message}",
                  file=sys.stderr)
        return EXIT_INVALID
    for issue in report.warnings:
        print(f"warning[{issue.code}] {issue.location}: {issue.message}",
              file=sys.stderr)

    if args.param is not None and args.prop != "surjective-in":
        print("error: --param is only valid with --property surjective-in",
              file=sys.stderr)
        return EXIT_USAGE

    direction = Direction(args.direction)
    mode = CountMode(args.mode)
    engine = Engine(args.engine)
    try:
        limits = (Limits() if args.max_instances is None
                  else Limits(max_enumerated=args.max_instances))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from_scope = _split_scope(args.from_scope)
    to_scope = _split_scope(args.to_scope)

    try:
        if args.prop == "surjective-in" and args.param is not None:
            verdicts = (check_surjective_in(
                network, args.param, from_scope=from_scope, to_scope=to_scope,
                mode=mode, limits=limits, engine=engine),)
        else:
            kinds = None if args.prop == "all" else (_PROPERTY_KINDS[args.prop],)
            verdicts = check_suite(
                network, direction, mode, limits=limits, engine=engine,
                from_scope=from_scope, to_scope=to_scope, kinds=kinds)
    except ScopeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LimitExceededError, KeyOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT

    if args.json:
        sys.stdout.write(render_json(
            network.name, direction.value, mode.value, verdicts))
    else:
        sys.stdout.write(render_text(verdicts))
    return EXIT_OK if all(v.holds for v in verdicts) else EXIT_SOME_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "info":
        return _cmd_info(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
