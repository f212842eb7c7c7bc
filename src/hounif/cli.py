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
    check that no confirmed pair was filtered out.

Exit codes: 0 success, 1 no unifier found, 2 bad input, 3 internal
invariant violation (including a ``--verify`` failure).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .engine import EngineConfig, Limits, solve, verify_unifier
from .errors import HounifError, InternalError
from .fingerprint import DEFAULT_POSITIONS, FingerprintIndex, parse_positions
from .problem_io import parse_index, parse_problem, print_term, print_unifier
from .subst import Substitution
from .terms import Const, Free, free_vars, type_of

_VERIFY_BUDGET = 20_000  # engine steps per index confirmation


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hounif",
        description="Enumerate higher-order unifiers and query fingerprint indexes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="enumerate unifiers for a problem file")
    ps.add_argument("file")
    ps.add_argument("--variant", choices=("complete", "pragmatic"), default="complete")
    ps.add_argument(
        "--oracles",
        default="pattern,fixpoint,solid",
        help="comma-separated oracle names; empty string disables all",
    )
    default_limits = ",".join(map(str, Limits()))
    ps.add_argument("--limits", default=default_limits,
                    help=f"pragmatic limits TOTAL,FP,EL,IM,ID (default {default_limits})")
    ps.add_argument("--max-unifiers", type=int, default=None)
    ps.add_argument("--max-steps", type=int, default=100_000)
    ps.add_argument("--timeout-ms", type=int, default=None)
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
    status: Optional[str] = None
    found = 0
    for item in stream:
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


def _freeze(t):
    """Replace free variables by fresh constants (for match checking)."""
    subst = Substitution(
        (v, Const(f"frozen_{vid}", v.ty)) for vid, v in free_vars(t).items()
    )
    return subst.apply(t)


def _rename_apart(t, offset: int):
    subst = Substitution(
        (v, Free(v.id + offset, v.ty)) for v in free_vars(t).values()
    )
    return subst.apply(t)


def _confirm(query, entry, mode: str) -> bool:
    if type_of(query) != type_of(entry):
        return False
    if mode == "match":
        entry = _freeze(entry)
    else:
        offset = 1 + max((v for v in free_vars(query)), default=0)
        offset += max((v for v in free_vars(entry)), default=0)
        entry = _rename_apart(entry, offset)
    stream = solve([(query, entry)], EngineConfig(max_steps=_VERIFY_BUDGET))
    return bool(stream.unifiers(limit=1))


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
            confirmed = [
                tid
                for tid, term in enumerate(ix.entries, start=1)
                if _confirm(qterm, term, mode)
            ]
            missed = [tid for tid in confirmed if tid not in cands]
            if missed:
                raise InternalError(
                    f"query {qid}: retrieval missed confirmed ids {missed}"
                )
            shown = " ".join(str(t) for t in confirmed)
            print(f"query {qid} {mode}: confirmed [{shown}]")
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
        # the parser and the printers recurse once per level of term
        # nesting, and type hashing and comparison once per argument of
        # a type; solving and verifying do not recurse on term depth
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
