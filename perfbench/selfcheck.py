"""Smoke self-check of the benchmark.

    python3 perfbench/selfcheck.py        (from the root of a checkout)

Checks that the output verifier accepts a right unifier and rejects a
wrong and an ill-typed one, and that a tower deep enough to make `solve`
raise counts as a failed operation.  Then it runs every workload at a
small size, untraced and traced, and checks that each emits exactly the
metrics named in BENCHMARK.json with all output checks passing.  Takes a
few seconds; exits 1 on any problem.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def verifier_problems(run, root: Path) -> list[str]:
    from checks import Checker

    prog = run.load_program(root)
    T, S = prog.terms, prog.subst
    check = Checker(T, prog.termgen)
    problem = prog.problem_io.parse_problem((root / "demos/problems/two_unifiers.hou").read_text())
    pairs = list(problem.goals)
    G, a, b = problem.variables["G"], problem.consts["a"], problem.consts["b"]
    cases = {
        "right": (S.Substitution([(G, T.Lam(a.ty, b))]), True),
        "wrong": (S.Substitution([(G, T.Lam(a.ty, a))]), False),
        "ill-typed": (S.Substitution([(G, a)], validate=False), False),
    }
    return [f"verifier {'rejects' if want else 'accepts'} the {name} substitution"
            for name, (sigma, want) in cases.items() if check.holds(pairs, sigma) != want]


def failure_problems(run, root: Path) -> list[str]:
    """Towers at k = 400 make `solve` raise RecursionError today; each must
    count as a failed operation with its exception recorded, and the pass
    must go on."""
    from workloads import Towers

    wl = Towers(run.load_program(root), 1, depths=(400,))
    p = wl.run_pass()
    want = {"ground400": "RecursionError", "flex400": "RecursionError"}
    if (p.failed, wl.failures) != (2, want) or p.attempted < 4:
        return [f"k=400 towers: attempted {p.attempted}, failed {p.failed}, {wl.failures}; "
                f"expected failed 2 of at least 4, {want}"]
    return []


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(HERE), str(root / "src"), str(root / "tests")]
    import run
    from workloads import WORKLOADS

    if any(not (root / p).exists() for p in run.REQUIRED):
        print("selfcheck: run from the root of a hounif checkout", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = verifier_problems(run, root) + failure_problems(run, root)
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (False, True):
            result, report = run.run(name, 1, 0.2, trace, root, small=True)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = set(result["metrics"])
            tag = f"{name} trace={int(trace)}"
            if got != want:
                problems.append(f"{tag}: missing {sorted(want - got)}, unexpected {sorted(got - want)}")
            if not result["correct"]:
                problems.append(f"{tag}: output checks failed: {report['check_errors'][:3]}")
            print(f"{tag}: {len(got)} metrics, attempted {result['attempted']}, failed {result['failed']}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
