"""The three workloads of the benchmark.

Each workload builds its inputs from the seed in `__init__` (timed as
set-up together with the import), then runs identical passes over them.
One caller solves one problem at a time, with no threads: a closed loop.
Only the calls into the program are timed; checking the outputs happens
between those calls, through `checks.Checker`.

Every pass returns a `Pass`; `fold` keeps each timed part's time in the
pass, divided by the pass's host-speed factor (see `Workload`), and
`summary` turns those into the benchmark's generic metrics plus the
workload's own named metrics.

* enumerate -- infinite complete sets of unifiers pulled to a pull budget.
* towers    -- deep rigid contexts, past the depth where `solve` crashes.
* index     -- fingerprint index inserts interleaved with queries.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from checks import Checker, deep_stack

#: Mean seconds of one `reference_loop()` on the 2-core host the benchmark
#: was defined on, over 40 s of its usual mix of fast and slow speeds.
#: Host-corrected times read as seconds on that host at that mix.
REF_S = 97e-6
#: Least seconds of program time between two reference samples.
REF_EVERY_S = 0.002
#: Share of the slowest passes left out of each part's mean time.
TRIM = 0.2


def reference_loop() -> int:
    """Fixed work that measures the host's speed: integer arithmetic that
    touches none of the program's memory, so the program cannot slow it
    except by holding the processor."""
    s = 0
    for i in range(1_000):
        s += i * i % 7
    return s


def trimmed_mean(xs: list) -> float:
    """Mean without the slowest `TRIM` share: drops the rare call that was
    descheduled, keeps the mix of speeds the reference also saw."""
    xs = sorted(xs)
    return statistics.fmean(xs[:len(xs) - int(len(xs) * TRIM)])


@dataclass
class Pass:
    """One pass: `times` maps a timed part (unit, gap) to the seconds of
    the calls into the program that make it.  A unit is a stream, a tower
    or an index operation; a stream's gaps are its calls up to each
    unifier and after the last, other units have one gap.  Units whose
    calls raised have no times.  `ref` holds the reference samples taken
    between calls; `host` is their mean over `REF_S`."""

    times: dict = field(default_factory=dict)
    ref: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    run: "Run" = None
    host: float = 1.0
    work_s: float = 0.0


class Run:
    """Engine statistics summed over the streams of one pass."""

    def __init__(self):
        self.rules: dict[str, int] = {}
        self.steps = self.unifiers = self.budget_stops = 0

    def stream(self, st, found: int) -> None:
        for rule, n in st.stats.items():
            self.rules[rule] = self.rules.get(rule, 0) + n
            self.steps += n
        self.unifiers += found
        self.budget_stops += st.status == "budget"


END = object()


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Workload:
    """A list of units, run in passes.  Every call into the program is
    timed, and a part's time is the trimmed mean over the passes of its
    seconds divided by the pass's host-speed factor.

    Interference from other tenants only ever adds time.  On a shared
    host it switches the speed of a fixed loop between two levels about
    1.5x apart every few milliseconds, and the share of fast time drifts
    from second to second and from minute to minute.  Best-of-passes
    cannot hold such a host still: a call of a second runs at the mix of
    its second, and a call of a millisecond needs dozens of passes before
    one of them runs fast.  So between calls, at most every `REF_EVERY_S`
    of program time, the pass times `reference_loop`; the mean of those
    samples over `REF_S` is the pass's host factor, the mix of speeds the
    program met in that pass.  The calls are deterministic: every pass
    makes the same calls and finds its unifiers at the same pulls, which
    is checked."""

    name = ""
    #: how `useful` reads for this workload
    useful_means = ""
    #: percentile of `latency_tail_ms`: the highest with at least ten of
    #: the workload's latencies beyond it, and at most 90
    TAIL = 90

    def __init__(self, prog, seed: int, small: bool = False):
        self.prog = prog
        self.check = Checker(prog.terms, prog.termgen)
        self.errors: list[str] = []  # failed output checks
        self.failures: dict[str, str] = {}  # unit -> exception raised by the program
        self.useful = 0.0
        # part -> host-corrected seconds per pass; arrays keep the benchmark's
        # own memory small and out of the garbage collector's way
        self.samples: dict[tuple, array] = {}
        self.hosts: list[float] = []  # host factor per folded pass
        self.shapes: dict[int, tuple] = {}  # unit -> (pulls, pulls that gave a unifier)
        self._pass = Pass()
        self._since_ref = 0.0

    def fail(self, msg: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(msg)
        else:
            self.errors[-1] = f"... and more ({msg})"

    def demo(self, name: str):
        text = (self.prog.root / "demos" / "problems" / f"{name}.hou").read_text()
        return self.prog.problem_io.parse_problem(text)

    def digest(self) -> str:
        """Digest of the generated inputs, so that a change to the
        generators shows up as changed inputs, not as a change in speed."""
        with deep_stack():
            return hashlib.sha256(pickle.dumps(self.inputs(), protocol=4)).hexdigest()[:16]

    def inputs(self):
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def run_unit(self, i: int, p: Pass) -> None:
        """Run unit i once, timing only the calls into the program (with
        `call`); record into `p` and check the outputs."""
        raise NotImplementedError

    def call(self, times: dict, part: tuple, fn, *args):
        """Call into the program (one attempted operation), add its seconds
        to `times[part]`, and then, outside the timed region, sample the
        host if due."""
        self._pass.attempted += 1
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        times[part] = times.get(part, 0.0) + dt
        self._since_ref += dt
        if self._since_ref >= REF_EVERY_S:
            self._since_ref = 0.0
            t0 = perf_counter()
            reference_loop()
            self._pass.ref.append(perf_counter() - t0)
        return out

    def pull(self, i: int, name: str, pairs, cfg, done, times: dict):
        """Solve one problem and pull its stream until `done(stream,
        unifiers)` or the end.  Each call is timed into the part (i, number
        of unifiers found before it).  Returns the stream and its
        unifiers."""
        st = self.call(times, (i, 0), self.prog.engine.solve, pairs, cfg)
        got, hits, n = [], [], 0
        while not done(st, got):
            n += 1
            item = self.call(times, (i, len(got)), next, st, END)
            if item is END:
                break
            if item is not None:
                got.append(item)
                hits.append(n)
        shape = (n, tuple(hits))
        if self.shapes.setdefault(i, shape) != shape:
            self.fail(f"{name}: (pulls, unifier pulls) {shape} differ from an earlier pass {self.shapes[i]}")
        return st, got

    def run_pass(self) -> Pass:
        p = self._pass = Pass(run=Run())
        reference_loop()  # warm, so the first sample is like the rest
        for i in range(self.units()):
            self.run_unit(i, p)
        if p.ref:
            p.host = statistics.fmean(p.ref) / REF_S
        p.work_s = sum(p.times.values()) / p.host
        return p

    def failed_call(self, unit: str, e: Exception, p: Pass) -> None:
        """An exception from the program: a failed operation against the
        attempts, recorded by unit and never dropped."""
        p.failed += 1
        self.failures[unit] = type(e).__name__

    def finish(self) -> Pass:
        """Checks that need more than one call into the program; run once,
        after the measured passes, untimed.  Returns their accounting."""
        return Pass()

    def part_seconds(self) -> dict:
        """Each timed part's host-corrected seconds."""
        return {part: trimmed_mean(xs) for part, xs in self.samples.items()}

    def unit_seconds(self) -> dict:
        """Each unit's host-corrected seconds: the sum of its parts."""
        out: dict[int, float] = {}
        for (i, _), t in self.part_seconds().items():
            out[i] = out.get(i, 0.0) + t
        return out

    def measured(self) -> tuple[float, float, list]:
        """(work, seconds, latencies in seconds) from the corrected times."""
        raise NotImplementedError

    def named(self, generic: dict, lat_ms: list) -> dict:
        raise NotImplementedError

    def fold(self, p: Pass) -> None:
        """Keep each part's host-corrected seconds of this pass."""
        for part, t in p.times.items():
            self.samples.setdefault(part, array("d")).append(t / p.host)
        self.hosts.append(p.host)
        p.times, p.ref = {}, []

    def summary(self) -> tuple[dict, dict]:
        """(generic metrics, named metrics) from the folded passes.  A
        workload whose every call raised has no times; it reads 0."""
        work, seconds, lat = self.measured()
        lat_ms = [x * 1000 for x in lat] or [0.0]
        generic = {
            "throughput_per_s": work / seconds if seconds else 0.0,
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": percentile(lat_ms, self.TAIL),
            "useful_share": self.useful,
        }
        return generic, self.named(generic, lat_ms)


# ------------------------------------------------------------ enumerate


def renamer(prog, seed: int):
    """An alpha-renaming chosen by the seed: free-variable ids shift by one
    offset (their order is kept) and constants get one suffix.  The work
    of a problem does not depend on it."""
    T = prog.terms
    offset = 10 * (seed % 10_000)
    suffix = f"_{seed % 997}"

    def go(t):
        if isinstance(t, T.Free):
            return T.Free(t.id + offset, t.ty, t.sort)
        if isinstance(t, T.Const):
            return T.Const(t.name + suffix, t.ty)
        if isinstance(t, T.App):
            return T.App(go(t.fn), go(t.arg))
        if isinstance(t, T.Lam):
            return T.Lam(t.binder, go(t.body))
        return t

    return go


class Enumerate(Workload):
    """Criterion 9 (`divergent.hou`, complete variant, default oracles)
    and criterion 10 (`F G G =?= f G`, no oracles), each pulled to a fixed
    pull budget; the seed renames their symbols.  A unit is one stream;
    the gap before a unifier is the time of the calls since the previous
    one (or since `solve`).

    After the measured passes, the golden demo problems are solved once
    and their results asserted (`GOLDENS`)."""

    name = "enumerate"
    useful_means = "distinct verified unifiers per pull"
    PULLS = 300
    #: golden demo problems: (unifiers, final status)
    GOLDENS = {"two_unifiers": (2, "exhausted"), "occurs_cycle": (0, "non-unifiable"),
               "solid_mgu": (1, "exhausted")}

    def __init__(self, prog, seed, small=False):
        super().__init__(prog, seed, small)
        T, E, tg = prog.terms, prog.engine, prog.termgen
        ren = renamer(prog, seed)
        (goal9,) = self.demo("divergent").goals
        F, G = T.Free(0, tg.III), T.Free(1, tg.I)
        goal10 = (T.mk_app(F, [G, G]), T.App(T.Const("f", tg.II), G))
        pulls = 40 if small else self.PULLS
        self.streams = [
            ("criterion9", [tuple(map(ren, goal9))], E.EngineConfig(), pulls),
            ("criterion10", [tuple(map(ren, goal10))], E.EngineConfig(oracles=()), pulls),
        ]
        self.goldens = {name: list(self.demo(name).goals) for name in self.GOLDENS}
        self.found: dict[str, int] = {}

    def inputs(self):
        return self.streams, self.goldens

    def units(self):
        return len(self.streams)

    def warmup(self) -> None:
        for _, pairs, cfg, _ in self.streams:
            self.prog.engine.solve(pairs, cfg).unifiers(max_pulls=30)

    def run_unit(self, i, pass_):
        name, pairs, cfg, budget = self.streams[i]
        times = {}
        try:
            st, got = self.pull(i, name, pairs, cfg, lambda st, _: st.pulls >= budget, times)
        except Exception as e:  # counted against the attempts, never dropped
            self.failed_call(name, e, pass_)
            return
        pass_.times.update(times)
        pass_.run.stream(st, len(got))
        T = self.prog.terms
        ids = {v for s, t in pairs for v in (*T.free_vars(s), *T.free_vars(t))}
        keys = set()
        for sigma in got:
            if self.check.holds(pairs, sigma):
                keys.add(self.check.key(sigma, ids))
            else:
                self.fail(f"{name}: emitted unifier does not unify: {sigma!r}")
        self.found[name] = len(keys)
        self.useful = sum(self.found.values()) / sum(b for *_, b in self.streams)

    def finish(self):
        E = self.prog.engine
        p = Pass()
        for name, pairs in self.goldens.items():
            p.attempted += 1
            try:
                st = E.solve(pairs, E.EngineConfig())
                got = st.unifiers(max_pulls=20_000)
            except Exception as e:  # counted against the attempts, never dropped
                self.failed_call(name, e, p)
                continue
            for sigma in got:
                if not self.check.holds(pairs, sigma):
                    self.fail(f"{name}: emitted unifier does not unify: {sigma!r}")
            if (len(got), st.status) != self.GOLDENS[name]:
                self.fail(f"{name}: got {len(got)} unifiers, {st.status}; expected {self.GOLDENS[name]}")
        return p

    def measured(self):
        parts = self.part_seconds()
        gaps = [t for (i, g), t in parts.items() if g < len(self.shapes[i][1])]
        return len(gaps), sum(parts.values()), gaps

    def named(self, g, lat_ms):
        return {
            "unifiers_per_s": (g["throughput_per_s"], "1/s"),
            "unifiers_found": (sum(self.found.values()), "count"),
            **{f"unifiers_found.{k}": (v, "count") for k, v in self.found.items()},
            "pulls": (sum(b for *_, b in self.streams), "count"),
            "gaps": (len(lat_ms), "count"),
            "gap_p50_ms": (g["latency_p50_ms"], "ms"),
            "gap_p90_ms": (g["latency_tail_ms"], "ms"),
            "failed_streams": (sorted(self.failures), ""),
        }


# --------------------------------------------------------------- towers


class Towers(Workload):
    """`h^k a =?= h^k X` and `h^k (F a) =?= h^k (G b)` over a depth sweep,
    plus `deep_context.hou`.  The sweep stops at k = 300: from about
    k = 350 `solve` raises RecursionError today, and the timed workload
    holds only operations that succeed.  `perfbench/selfcheck.py` runs
    k = 400 through `depths` to show that such an exception is counted
    as a failed operation."""

    name = "towers"
    useful_means = "tower_solved_share"
    DEPTHS = (50, 100, 150, 200, 250, 300)

    def __init__(self, prog, seed, small=False, depths=None):
        super().__init__(prog, seed, small)
        T, tg = prog.terms, prog.termgen
        ren = renamer(prog, seed)
        h, a, b = (ren(T.Const(n, ty)) for n, ty in (("h", tg.II), ("a", tg.I), ("b", tg.I)))
        X, F, G = (ren(T.Free(i, ty)) for i, ty in ((0, tg.I), (1, tg.II), (2, tg.II)))

        def tower(k, t):
            for _ in range(k):
                t = T.App(h, t)
            return t

        ops = []
        for k in depths or ((20, 40) if small else self.DEPTHS):
            ops.append((f"ground{k}", k, [(tower(k, a), tower(k, X))], (X.id, a)))
            ops.append((f"flex{k}", k, [(tower(k, T.App(F, a)), tower(k, T.App(G, b)))], None))
        deep = [tuple(map(ren, goal)) for goal in self.demo("deep_context").goals]
        ops.append(("deep_context", 8, deep, None))
        random.Random(seed).shuffle(ops)
        self.ops = ops
        self.solved: dict[int, bool] = {}

    def inputs(self):
        return self.ops

    def units(self):
        return len(self.ops)

    def warmup(self) -> None:
        E = self.prog.engine
        for name, k, pairs, _ in self.ops:
            if k <= 50:
                E.solve(pairs, E.EngineConfig()).unifiers(limit=1)

    def run_unit(self, i, pass_):
        E = self.prog.engine
        name, k, pairs, expect = self.ops[i]
        times = {}
        try:
            st, got = self.pull(i, name, pairs, E.EngineConfig(), lambda _, got: got, times)
        except Exception as e:  # counted against the attempts, never dropped
            self.failed_call(name, e, pass_)
            self.solved[i] = False
            self.useful = sum(self.solved.values()) / len(self.ops)
            return
        pass_.run.stream(st, len(got))
        self.solved[i] = bool(got)
        self.useful = sum(self.solved.values()) / len(self.ops)
        if not got:
            self.fail(f"{name}: no unifier ({st.status})")
            return
        pass_.times.update(times)
        if not self.check.holds(pairs, got[0]):
            self.fail(f"{name}: emitted unifier does not unify")
        elif expect is not None:
            var_id, image = expect
            if self.check.key(got[0], {var_id}) != f"V{var_id}={image!r}":
                self.fail(f"{name}: expected the unifier {{X -> {image!r}}}")

    def measured(self):
        towers = self.unit_seconds()
        return sum(self.ops[i][1] for i in towers), sum(towers.values()), list(towers.values())

    def named(self, g, lat_ms):
        return {
            "tower_layers_per_s": (g["throughput_per_s"], "1/s"),
            "tower_solved_share": (self.useful, "ratio"),
            "towers_timed": (len(lat_ms), "count"),
            "tower_p50_ms": (g["latency_p50_ms"], "ms"),
            "tower_p90_ms": (g["latency_tail_ms"], "ms"),
            "failed_depths": (sorted(self.failures), ""),
            "failure_kinds": (sorted(set(self.failures.values())), ""),
        }


# ---------------------------------------------------------------- index


class Index(Workload):
    """A seeded population of stored terms (criterion-7 generator) with
    unifiable and matching queries interleaved among the inserts.  A third
    of the queries are renamed copies of a term stored earlier, which must
    come back; a seeded sample of (query, stored term) pairs is confirmed
    with the engine, and no confirmed pair may be filtered out.  A unit is
    one operation; every pass replays all of them on a fresh index."""

    name = "index"
    useful_means = "filter_ratio"
    TAIL = 99
    STORED, QUERIES, SAMPLE_EVERY = 20_000, 6_000, 60

    def __init__(self, prog, seed, small=False):
        super().__init__(prog, seed, small)
        T, tg = prog.terms, prog.termgen
        n_stored, n_queries = (400, 40) if small else (self.STORED, self.QUERIES)
        rng = random.Random(seed)
        stored, types = [], []
        for tid in range(n_stored):
            frees = tg.make_frees(rng, rng.randint(0, 2), 200 + 10 * tid, types=(tg.I, tg.II))
            ty = rng.choice((tg.I, tg.II, tg.III))
            stored.append(tg.gen_sized(rng, ty, mode=("any", "ground")[tid % 2], frees=frees, max_size=7))
            types.append(ty)
        queries = []
        for q in range(n_queries):
            before = rng.randrange(n_stored // 10, n_stored + 1)  # inserts done before it
            mode = ("unif", "match")[q % 2]
            if q % 3 == 2:
                source = rng.randrange(before)
                ren = {v.id: T.Free(v.id + 5_000_000, v.ty) for v in T.free_vars(stored[source]).values()}
                term, ty = self.check.substitute(ren, stored[source]), types[source]
            else:
                source = None
                frees = tg.make_frees(rng, rng.randint(0, 2), 2_000_000 + 10 * q, types=(tg.I, tg.II))
                ty = rng.choice((tg.I, tg.II, tg.III))
                term = tg.gen_sized(rng, ty, "any", frees, max_size=7)
            sample = ()
            if q % self.SAMPLE_EVERY == 0 or (source is not None and q % self.SAMPLE_EVERY == 2):
                same = [tid for tid in (rng.randrange(before) for _ in range(20)) if types[tid] == ty]
                sample = tuple(sorted(set(same[:3]) | ({source} if source is not None else set())))
            queries.append((before, q, mode, term, source, sample))
        queries.sort(key=lambda x: (x[0], x[1]))
        ops, qi = [], 0
        for tid in range(n_stored + 1):
            while qi < len(queries) and queries[qi][0] == tid:
                ops.append(queries[qi])
                qi += 1
            if tid < n_stored:
                ops.append(tid)
        self.stored, self.ops = stored, ops
        self.membership: dict = {}  # (query, stored id) -> retrieved?
        self.filter = (0, 0)  # (candidates, stored terms) summed over queries

    def inputs(self):
        return (self.stored, self.ops)

    def units(self):
        return len(self.ops)

    def warmup(self) -> None:
        idx = self.prog.fingerprint.FingerprintIndex()
        for op in self.ops[:2_000]:
            if isinstance(op, int):
                idx.insert(op, self.stored[op])
            else:
                idx.retrieve_unifiable(op[3])

    def run_pass(self):
        self.idx = self.prog.fingerprint.FingerprintIndex()
        self.n_ins = self.cands = self.pairs = 0
        p = super().run_pass()
        self.filter = (self.cands, self.pairs)
        self.useful = 1.0 - self.cands / self.pairs
        return p

    def run_unit(self, i, pass_):
        op = self.ops[i]
        try:
            if isinstance(op, int):
                self.call(pass_.times, (i, 0), self.idx.insert, op, self.stored[op])
                self.n_ins += 1
                return
            before, q, mode, term, source, sample = op
            retrieve = self.idx.retrieve_unifiable if mode == "unif" else self.idx.retrieve_matching
            cands = self.call(pass_.times, (i, 0), retrieve, term)
        except Exception as e:  # counted against the attempts, never dropped
            self.failed_call(f"op{i}", e, pass_)
            return
        self.cands += len(cands)
        self.pairs += self.n_ins
        if source is not None and source not in cands:
            self.fail(f"query {q}: renamed copy of stored term {source} not retrieved")
        for tid in sample:
            self.membership[q, tid] = tid in cands

    def finish(self):
        """Confirm the sampled pairs with the bounded engine; a confirmed
        pair that the index filtered out is a false negative."""
        T, E = self.prog.terms, self.prog.engine
        self.confirmed = 0
        p = Pass()
        queries = {op[1]: op for op in self.ops if not isinstance(op, int)}
        for (q, tid), member in self.membership.items():
            _, _, mode, query, _, _ = queries[q]
            entry = self.stored[tid]
            if T.type_of(query) != T.type_of(entry):
                continue
            if mode == "match":
                images = {v.id: T.Const(f"frozen_{v.id}", v.ty) for v in T.free_vars(entry).values()}
            else:
                images = {v.id: T.Free(v.id + 10_000_000, v.ty) for v in T.free_vars(entry).values()}
            pair = [(query, self.check.substitute(images, entry))]
            p.attempted += 1
            try:
                got = E.solve(pair, E.EngineConfig(max_steps=300)).unifiers(limit=1, max_pulls=150)
            except Exception as e:  # counted against the attempts, never dropped
                self.failed_call(f"confirm q{q}/t{tid}", e, p)
                continue
            if not got:
                continue
            if not self.check.holds(pair, got[0]):
                self.fail(f"query {q}, stored {tid}: engine confirmation does not unify")
                continue
            self.confirmed += 1
            if not member:
                self.fail(f"query {q} ({mode}): confirmed stored term {tid} was filtered out")
        return p

    def measured(self):
        ops = self.unit_seconds()
        inserts = [t for i, t in ops.items() if isinstance(self.ops[i], int)]
        queries = [t for i, t in ops.items() if not isinstance(self.ops[i], int)]
        return len(inserts), sum(inserts), queries

    def named(self, g, lat_ms):
        cands, pairs = self.filter
        n_queries = sum(not isinstance(op, int) for op in self.ops)
        return {
            "inserts_per_s": (g["throughput_per_s"], "1/s"),
            "queries": (len(lat_ms), "count"),
            "query_p50_us": (g["latency_p50_ms"] * 1000, "us"),
            "query_p99_us": (g["latency_tail_ms"] * 1000, "us"),
            "filter_ratio": (self.useful, "ratio"),
            "candidates_per_query": (cands / n_queries, "count"),
            "confirmed_pairs": (self.confirmed, "count"),
            "sampled_pairs": (len(self.membership), "count"),
        }


WORKLOADS = {w.name: w for w in (Enumerate, Towers, Index)}
