"""Command line entry point: run the proof tree, explain nodes, check fixtures.

Exit codes: 0 when the verification succeeds, 1 when a proof node fails,
2 for usage, fixture or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .delpezzo import FixtureError
from .report import UnknownSelector, explain, fixtures_check, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Replay the order-3 automorphism nonexistence proof for "
                    "numerical Godeaux surfaces as exact integer arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the proof tree (or a subtree)")
    p_run.add_argument("--node", default="all",
                       help="node id or case id to run (default: all)")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--out", type=Path, default=None,
                       help="write the report to this path instead of stdout")
    p_run.add_argument("--timing", action="store_true",
                       help="append per-node timings (non-deterministic output)")

    p_explain = sub.add_parser("explain", help="print the derivation of one node")
    p_explain.add_argument("node_id")

    p_fix = sub.add_parser("fixtures", help="fixture utilities")
    p_fix.add_argument("action", choices=("check",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _command(args)
    except FixtureError as exc:
        print(f"bad fixture: {exc}", file=sys.stderr)
        return 2


def _command(args: argparse.Namespace) -> int:
    if args.command == "run":
        try:
            report = run(args.node)
        except UnknownSelector as exc:
            print(f"unknown node or case id: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            text = json.dumps(report.to_json(include_timing=args.timing),
                              indent=2, sort_keys=True) + "\n"
        else:
            text = report.to_text(include_timing=args.timing)
        if args.out is not None:
            try:
                args.out.write_text(text)
            except OSError as exc:
                print(f"cannot write report: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.write(text)
        return 0 if report.verdict == "verified" else 1

    if args.command == "explain":
        try:
            sys.stdout.write(explain(args.node_id))
        except UnknownSelector as exc:
            print(f"unknown node id: {exc}", file=sys.stderr)
            return 2
        return 0

    ok, messages = fixtures_check()  # the one command left: fixtures check
    for message in messages:
        print(message)
    print("fixtures ok" if ok else "fixtures FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
