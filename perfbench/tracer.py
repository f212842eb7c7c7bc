"""Per-layer tracing from outside the program.

The tracer replaces layer functions with timing wrappers under the names
their callers use (`engine.compose`, the oracle registry entries,
`engine.type_of`, ...), never inside the defining module, so recursion
within `type_of`, `hnf` or `_bnf` is not traced call by call.  Each
wrapper records one span; a span's self time is its duration minus the
durations of the wrapped spans it encloses.  Spans are aggregated per
name in memory (calls, total, self) together with counters observed at
the same boundaries: oracle verdicts, reduction-fuel outs, binding
families, substitution entries and retrieval candidates.

`install` patches, `uninstall` restores the originals, so untraced and
traced passes can alternate in one process.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

ORACLES = ("pattern", "fixpoint", "solid")
BINDING_FAMILIES = (
    "jp_projection", "huet_projection", "imitation",
    "elimination", "identification", "iteration",
)


class Tracer:
    def __init__(self, mods):
        """`mods` maps short module names ("engine", "subst", ...) to the
        imported modules of the program."""
        self.mods = mods
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name, fn, observe=None):
        rec = self.spans[name]
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            out = err = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                err = e
                raise
            finally:
                d = clock() - t0
                rec[0] += 1
                rec[1] += d
                rec[2] += d - stack.pop()
                if stack:
                    stack[-1] += d
                if observe is not None:
                    observe(args, out, err)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, observe=None):
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        static = isinstance(original, staticmethod)
        wrapped = self.wrap(name, original.__func__ if static else original, observe)
        self._set(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._saved.append((owner, attr, original))

    @staticmethod
    def _set(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _fuel(self, err) -> bool:
        """Count a ReductionBudget once, where it first leaves a wrapper."""
        if isinstance(err, self.mods["normalize"].ReductionBudget):
            if not getattr(err, "_perfbench_seen", False):
                err._perfbench_seen = True
                self.counts["normalize.fuel_outs"] += 1
            return True
        return False

    def install(self) -> None:
        m = self.mods
        engine, subst, oracles = m["engine"], m["subst"], m["oracles"]
        counts = self.counts

        def on_compose(args, out, err):
            counts["subst.compose.entries_in"] += len(args[0]) + len(args[1])
            self._fuel(err)

        def on_fuel(args, out, err):
            self._fuel(err)

        for mod in (engine, m["pattern"], m["solid"]):
            self._patch(mod, "compose", "subst.compose", on_compose)
        self._patch(subst.Substitution, "apply", "subst.apply")
        self._patch(subst, "beta_normal", "normalize.beta_normal", on_fuel)
        self._patch(engine, "hnf", "normalize.hnf", on_fuel)
        for mod in (engine, m["fixpoint"], m["pattern"], m["solid"], m["fingerprint"], m["problem_io"]):
            self._patch(mod, "canonical", "normalize.canonical", on_fuel)
        for mod in (engine, subst, m["pattern"], m["solid"], m["problem_io"]):
            self._patch(mod, "type_of", "terms.type_of")
        self._patch(engine, "term_key", "terms.term_key")
        self._patch(engine.Constraint, "make", "engine.constraint_make")
        self._patch(engine, "step", "engine.step")
        self._patch(engine.UnifierStream, "__next__", "engine.explore")

        for family in BINDING_FAMILIES:
            def on_binding(args, out, err, key=f"bindings.{family}.calls"):
                counts[key] += 1
            self._patch(engine, family, "bindings", on_binding)

        registry = oracles._REGISTRY
        for name in ORACLES:
            def on_verdict(args, out, err, p=f"oracles.{name}."):
                if err is not None:
                    if self._fuel(err):
                        counts[p + "fuel_out"] += 1
                elif isinstance(out, oracles.NotApplicable):
                    counts[p + "abstain"] += 1
                elif isinstance(out, oracles.Success) and out.csu:
                    counts[p + "success"] += 1
                else:  # NotUnifiable, or Success with an empty set of unifiers
                    counts[p + "not_unifiable"] += 1
            self._patch(registry, name, f"oracles.{name}", on_verdict)

        fp = m["fingerprint"]

        def on_retrieve(args, out, err):
            if out is not None:
                counts["fingerprint.candidates"] += len(out)

        self._patch(fp, "encode", "fingerprint.encode")
        self._patch(fp.FingerprintIndex, "insert", "fingerprint.insert")
        for attr in ("retrieve_unifiable", "retrieve_matching"):
            self._patch(fp.FingerprintIndex, attr, "fingerprint.retrieve", on_retrieve)
        self._patch(m["problem_io"], "parse_problem", "problem_io.parse")

    def uninstall(self) -> None:
        while self._saved:
            self._set(*self._saved.pop())
