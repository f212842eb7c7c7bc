"""Benchmark of the hounif unifier: one workload per run.

    python3 perfbench/run.py --workload towers --seed 1 --seconds 35 --trace 0

Run from the root of a checkout (it needs `src/hounif`, `tests/termgen.py`
and `demos/problems`).  With `--trace 0` the run times set-up (import,
input generation and parsing; the median of five) and then whole passes
over the workload's inputs until `--seconds` have passed, and reports the
end-to-end metrics.  With `--trace 1` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones plus the
tracing overhead.  Every output is checked; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 0 unless an output check failed (1) or the
checkout lacks the program (2).  Exceptions raised by the program count
as failed operations and do not change the exit code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import BINDING_FAMILIES, ORACLES, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5
MIN_PASSES = 6
MODULES = ("terms", "normalize", "subst", "bindings", "engine", "oracles",
           "oracles.pattern", "oracles.fixpoint", "oracles.solid", "fingerprint", "problem_io")
RULES = ("succeed", "normalize_eta", "normalize_beta", "dereference", "fail", "delete",
         "oracle_succ", "oracle_fail", "decompose", *(f"bind_{f}" for f in BINDING_FAMILIES))
REQUIRED = ("src/hounif/__init__.py", "tests/termgen.py", "demos/problems")


def load_program(root: Path) -> SimpleNamespace:
    """Import the program afresh (dropping any earlier import), so that
    each set-up pays for the import."""
    for name in list(sys.modules):
        if name in ("hounif", "termgen") or name.startswith("hounif."):
            del sys.modules[name]
    mods = {name.rsplit(".", 1)[-1]: importlib.import_module(f"hounif.{name}") for name in MODULES}
    return SimpleNamespace(root=root, termgen=importlib.import_module("termgen"), **mods)


def git_sha(root: Path) -> str | None:
    """The checked-out commit, or None outside a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path) -> dict:
    files = sorted([*root.glob("src/hounif/**/*.py"), root / "tests" / "termgen.py",
                    *root.glob("demos/problems/*.hou")])
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "source_sha256": h.hexdigest()[:16],
        "recursion_limit": sys.getrecursionlimit(),
    }


def measure(wl, seconds: float, tracer: Tracer | None = None):
    """Passes until `seconds` have passed, and at least `MIN_PASSES`.
    With a tracer, passes alternate untraced / traced, at least one of
    each.  Untraced passes are folded into the workload's times as they
    end."""
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        for on in (False, True) if tracer else (False,):
            gc.collect()
            if on:
                tracer.install()
            try:
                p = wl.run_pass()
            finally:
                if on:
                    tracer.uninstall()
            if not on:
                wl.fold(p)
            (traced if on else untraced).append(p)
        if perf_counter() >= deadline and (tracer or len(untraced) >= MIN_PASSES):
            return untraced, traced


def layer_metrics(tracer: Tracer, setup: Tracer, traced, untraced) -> dict:
    """Per-layer metrics per traced pass."""
    n = len(traced)
    spans, counts = tracer.spans, tracer.counts
    m = {}

    def span(key, name=None):
        calls, _, self_s = spans.get(name or key, (0, 0.0, 0.0))
        m[f"{key}.calls"], m[f"{key}.self_s"] = calls / n, self_s / n

    for key in ("subst.compose", "subst.apply", "normalize.beta_normal", "normalize.hnf",
                "normalize.canonical", "terms.type_of", "terms.term_key",
                "engine.constraint_make", "engine.step", "bindings", "fingerprint.encode"):
        span(key)
    m["subst.compose.entries_in"] = counts["subst.compose.entries_in"] / n
    m["normalize.fuel_outs"] = counts["normalize.fuel_outs"] / n
    m["engine.explore.self_s"] = spans.get("engine.explore", (0, 0.0, 0.0))[2] / n
    for o in ORACLES:
        key = f"oracles.{o}"
        span(key)
        for verdict in ("success", "not_unifiable", "abstain", "fuel_out"):
            m[f"{key}.{verdict}"] = counts[f"{key}.{verdict}"] / n
        decided = counts[f"{key}.success"] + counts[f"{key}.not_unifiable"]
        calls = spans.get(key, (0,))[0]
        m[f"{key}.decided_ratio"] = decided / calls if calls else 0.0
    for rule in RULES:
        m[f"engine.rule.{rule}"] = sum(p.run.rules.get(rule, 0) for p in traced) / n
    steps = sum(p.run.steps for p in traced)
    m["engine.budget_stops"] = sum(p.run.budget_stops for p in traced) / n
    m["engine.useful_ratio"] = sum(p.run.unifiers for p in traced) / steps if steps else 0.0
    for family in BINDING_FAMILIES:
        m[f"bindings.{family}.calls"] = counts[f"bindings.{family}.calls"] / n
    for key in ("fingerprint.insert", "fingerprint.retrieve"):
        m[f"{key}.self_s"] = spans.get(key, (0, 0.0, 0.0))[2] / n
    queries = spans.get("fingerprint.retrieve", (0,))[0]
    m["fingerprint.candidates_per_query"] = counts["fingerprint.candidates"] / queries if queries else 0.0
    m["problem_io.parse.self_s"] = setup.spans.get("problem_io.parse", (0, 0.0, 0.0))[2]
    m["trace.overhead_share"] = (statistics.median(p.work_s for p in traced)
                                 / statistics.median(p.work_s for p in untraced) - 1.0)
    unknown = sorted({r for p in traced for r in p.run.rules} - set(RULES))
    if unknown:
        print(f"note: engine rules not in the metric list: {unknown}")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, small=False):
    """Run one workload; returns (result line, report)."""
    cls = WORKLOADS[workload]
    setup_s = []
    setup_tracer = None
    for _ in range(1 if trace else SETUP_REPEATS):
        wl = prog = None
        gc.collect()
        t0 = perf_counter()
        prog = load_program(root)
        if trace:
            setup_tracer = Tracer(vars(prog))
            setup_tracer.install()
        try:
            wl = cls(prog, seed, small)
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
        setup_s.append(perf_counter() - t0)

    wl.warmup()
    tracer = Tracer(vars(prog)) if trace else None
    untraced, traced = measure(wl, seconds, tracer)
    passes = untraced + traced + [wl.finish()]
    generic, named = wl.summary()
    if trace:
        metrics = {k: (v, "") for k, v in layer_metrics(tracer, setup_tracer, traced, untraced).items()}
    else:
        # set-up runs before the passes; it is corrected by their mean host factor
        generic["setup_s"] = statistics.median(setup_s) / statistics.fmean(wl.hosts)
        generic["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: (v, "") for k, v in generic.items()}
    failed = sum(p.failed for p in passes) + len(wl.errors)
    result = {
        "correct": not wl.errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "provenance": provenance(root), "inputs_sha256": wl.digest(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_s_raw": setup_s, "host_factors": wl.hosts, "useful_share_means": wl.useful_means,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "exceptions": wl.failures, "check_errors": wl.errors,
    }
    if trace:
        report["spans"] = {k: {"calls": c, "total_s": t, "self_s": s}
                           for k, (c, t, s) in sorted(tracer.spans.items())}
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).exists()]
    if missing:
        print(f"perfbench: run from the root of a hounif checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    units = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for k in ("end_to_end", "per_layer") for m in units[k]}
    result["metrics"] = {k: {"value": v, "unit": unit_of.get(k, u)} for k, (v, u) in result["metrics"].items()}

    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    report["result"] = result
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['passes']} passes, inputs {report['inputs_sha256']}")
    print("provenance " + json.dumps(report["provenance"]))
    for k, v in report["named"].items():
        print(f"  {k:24} {v['value']} {v['unit']}")
    for k, v in report["exceptions"].items():
        print(f"  failed: {k} raised {v}")
    for e in report["check_errors"]:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
