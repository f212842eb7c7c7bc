"""Command-line front end.

Two subcommands:

``hounif solve FILE``
    Parse a problem file and stream unifiers as they are found, each as
    an ``unifier k:`` block, followed by a ``status:`` line (exhausted,
    non-unifiable, budget, timeout, or max-unifiers when the requested
    count cut the stream short) and found/pulls/steps counts.

``hounif index FILE``
    Build a fingerprint index over the file's ``term:`` entries and
    answer its ``query-unif:``/``query-match:`` queries with candidate
    ids; with ``--verify``, also confirm candidates with the engine and
    check that no confirmed pair was filtered out.  A pair the engine
    cannot decide within its step budget is listed as undecided.

Exit codes: 0 success, 1 no unifier found, 2 bad input, 3 internal
invariant violation (including a ``--verify`` failure).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .engine import EngineConfig, Limits, confirm, solve, verify_unifier
from .errors import HounifError, InternalError
from .fingerprint import DEFAULT_POSITIONS, FingerprintIndex, parse_positions
from .problem_io import parse_index, parse_problem, print_term, print_unifier

_VERIFY_BUDGET = 20_000  # engine steps per index confirmation


def count(text: str) -> int:
    """An integer >= 0; argparse calls a malformed one an "invalid count value"."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hounif",
        description="Enumerate higher-order unifiers and query fingerprint indexes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="enumerate unifiers for a problem file")
    ps.add_argument("file")
    default = EngineConfig()
    ps.add_argument("--variant", choices=("complete", "pragmatic"), default=default.variant)
    ps.add_argument(
        "--oracles",
        default=",".join(default.oracles),
        help="comma-separated oracle names; empty string disables all",
    )
    default_limits = ",".join(map(str, default.limits))
    ps.add_argument("--limits", default=default_limits,
                    help=f"pragmatic limits TOTAL,FP,EL,IM,ID (default {default_limits})")
    ps.add_argument("--max-unifiers", type=count, default=None)
    ps.add_argument("--max-steps", type=count, default=default.max_steps)
    ps.add_argument("--timeout-ms", type=count, default=None)
    ps.add_argument("--verify", action="store_true",
                    help="re-check every unifier before printing it")

    pi = sub.add_parser("index", help="run fingerprint retrieval queries")
    pi.add_argument("file")
    pi.add_argument("--positions", default=None,
                    help='comma-separated sample positions, e.g. "e,1,2,1.1"')
    pi.add_argument("--verify", action="store_true",
                    help="confirm candidates with the engine")
    return ap


def cmd_solve(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    cfg = EngineConfig(
        variant=args.variant,
        oracles=tuple(o for o in args.oracles.split(",") if o),
        limits=Limits.parse(args.limits),
        max_steps=args.max_steps,
    )
    stream = solve(problem.goals, cfg)
    deadline = None
    if args.timeout_ms is not None:
        deadline = time.monotonic() + args.timeout_ms / 1000.0
    # --max-unifiers 0 asks for no unifier, so the stream is not pulled
    status: Optional[str] = "max-unifiers" if args.max_unifiers == 0 else None
    found = 0
    for item in () if status else stream:
        if item is not None:
            if args.verify and not verify_unifier(problem.goals, item):
                raise InternalError("emitted substitution failed verification")
            found += 1
            print(f"unifier {found}:")
            for line in print_unifier(item, problem).splitlines():
                print(f"  {line}")
            print(flush=True)
            if args.max_unifiers is not None and found >= args.max_unifiers:
                status = "max-unifiers"
                break
        if deadline is not None and time.monotonic() >= deadline:
            status = "timeout"
            break
    print(f"status: {status or stream.status}")
    print(f"found: {found}")
    print(f"pulls: {stream.pulls}")
    print(f"steps: {sum(stream.stats.values())}")
    return 0 if found else 1


def cmd_index(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        ix = parse_index(fh.read())
    positions = DEFAULT_POSITIONS if args.positions is None else parse_positions(args.positions)
    index = FingerprintIndex(positions)
    names = ix.var_names()
    for tid, term in enumerate(ix.entries, start=1):
        index.insert(tid, term)
        print(f"term {tid}: {print_term(term, names)}")
    total_pairs = 0
    total_candidates = 0
    for qid, (mode, qterm) in enumerate(ix.queries, start=1):
        if mode == "unif":
            cands = index.retrieve_unifiable(qterm)
        else:
            cands = index.retrieve_matching(qterm)
        total_pairs += len(ix.entries)
        total_candidates += len(cands)
        shown = " ".join(str(t) for t in sorted(cands))
        print(f"query {qid} {mode}: candidates [{shown}]")
        if args.verify:
            answers = [(tid, confirm(qterm, term, mode, _VERIFY_BUDGET))
                       for tid, term in enumerate(ix.entries, start=1)]
            confirmed = [tid for tid, yes in answers if yes]
            missed = [tid for tid in confirmed if tid not in cands]
            if missed:
                raise InternalError(
                    f"query {qid}: retrieval missed confirmed ids {missed}"
                )
            print(f"query {qid} {mode}: confirmed [{' '.join(map(str, confirmed))}]")
            undecided = [tid for tid, yes in answers if yes is None]
            if undecided:  # the engine could not tell within its budget
                print(f"query {qid} {mode}: undecided [{' '.join(map(str, undecided))}]")
    ratio = 1.0 - (total_candidates / total_pairs) if total_pairs else 0.0
    print(f"filter-ratio: {ratio:.2f}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_index(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except HounifError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as e:
        # unknown oracle names and malformed --limits/--positions values
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # a last guard: reading, printing, solving and verifying recurse
        # neither on the depth of a term nor on the arity of a type
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
