"""Acceptance suite: ten end-to-end guarantees, one test per criterion.

Each test prints a single ``PASS criterion N`` line outside pytest's
capture, so a full run shows the acceptance scoreboard even when the
individual assertions stay silent.
"""

import random
import time

import pytest

from termgen import (
    I,
    II,
    III,
    assert_verifies,
    gen_pair,
    gen_sized,
    make_frees,
    subst_key,
)
from hounif.engine import EngineConfig, UnifState, confirm, prepare, solve, step, verify_unifier
from hounif.fingerprint import DEFAULT_POSITIONS, FingerprintIndex, N, Sym, fp_ho
from hounif.normalize import Fuel, canonical
from hounif.oracles import NotApplicable, NotUnifiable, Success
from hounif.oracles import resolve as _resolve
from hounif.subst import FreshSupply, Substitution
from hounif.terms import App, Bound, Const, Free, Lam, arrow, free_vars, mk_app
from test_engine import applicable_rules
from test_fingerprint import compatible_unif

a = Const("a", I)
b = Const("b", I)
f = Const("f", II)
h = Const("h", II)
g = Const("g", III)


@pytest.fixture
def scoreboard(capsys):
    def report(n: int, text: str) -> None:
        with capsys.disabled():
            print(f"PASS criterion {n}: {text}", flush=True)

    return report


def hpow(k, t):
    for _ in range(k):
        t = App(h, t)
    return t


def drive_to_branch(state, search, max_steps=10_000):
    """Advance through deterministic transitions; stop at the first real
    branch point, solution, or failure."""
    for _ in range(max_steps):
        rules = applicable_rules(state, search)
        first = rules[0] if rules else "branch"
        deterministic = first in (
            "normalize_eta",
            "normalize_beta",
            "dereference",
            "delete",
        ) or (first == "decompose" and rules == ["decompose"])
        if not deterministic:
            return state, first if first in ("succeed", "fail") else "branch"
        nxt = step(state, search)
        state = nxt if type(nxt) is UnifState else next(nxt)  # a decompose's one child
    raise AssertionError("no branch point reached")


def oracle_ctx(start=50_000) -> FreshSupply:
    return FreshSupply(start)


def resolve(name):
    """The named oracle, called on a constraint as the engine calls it:
    on both sides in canonical form."""
    oracle = _resolve(name)
    return lambda lhs, rhs, supply: oracle(canonical(lhs), canonical(rhs), supply, Fuel())


# ---------------------------------------------------------------------------
# 1. occurs cycle: oracle decides it, limits tame it
# ---------------------------------------------------------------------------


def test_criterion_1_occurs_cycle(scoreboard):
    G = Free(0, I)
    pairs = [(G, App(f, G))]

    t0 = time.monotonic()
    st = solve(pairs, EngineConfig(oracles=("fixpoint",)))
    assert st.unifiers(max_pulls=1_000) == []
    elapsed = time.monotonic() - t0
    assert st.status == "non-unifiable"
    assert elapsed < 1.0

    # Without any oracle the imitation ladder G -> f G' -> f (f G'') ...
    # never ends; the pragmatic variant's default limits cut it off.
    st2 = solve(pairs, EngineConfig(variant="pragmatic", oracles=()))
    assert st2.unifiers(max_pulls=200_000) == []
    assert st2.status == "non-unifiable"

    scoreboard(
        1,
        f"G =?= f G refuted by fixpoint oracle in {elapsed * 1000:.0f} ms; "
        "pragmatic variant terminates without oracles",
    )


# ---------------------------------------------------------------------------
# 2. the two-unifier flex pair, enumerated exactly
# ---------------------------------------------------------------------------


def test_criterion_2_exactly_two_unifiers(scoreboard):
    F, G = Free(0, II), Free(1, II)
    pairs = [(App(F, App(G, a)), App(F, b))]

    t0 = time.monotonic()
    st = solve(pairs, EngineConfig())
    got = st.unifiers(max_pulls=20_000)
    elapsed = time.monotonic() - t0

    assert st.status == "exhausted"
    assert len(got) == 2
    assert elapsed < 1.0
    for sigma in got:
        assert_verifies(pairs, sigma)

    aux = Free(7_000, I)
    expected = {
        subst_key(Substitution([(G, Lam(I, b))]), (F, G)),
        subst_key(Substitution([(F, Lam(I, aux))]), (F, G)),
    }
    assert {subst_key(sigma, (F, G)) for sigma in got} == expected

    scoreboard(
        2,
        "F (G a) =?= F b yields exactly {G -> \\x. b} and {F -> \\x. F'} "
        f"then exhausts in {elapsed * 1000:.0f} ms",
    )


# ---------------------------------------------------------------------------
# 3. deep rigid context: one decompose per layer, linear total work
# ---------------------------------------------------------------------------


def test_criterion_3_decompose_scaling(scoreboard):
    totals = {}
    for k in (25, 50, 100):
        F, G = Free(0, II), Free(1, II)
        pairs = [(hpow(k, App(F, a)), hpow(k, App(G, b)))]

        state, search = prepare(pairs, EngineConfig(oracles=()))
        state, label = drive_to_branch(state, search)
        assert label == "branch"
        assert search.stats == {"decompose": k}
        (core,) = state.constraints
        assert {core.lhs, core.rhs} == {App(F, a), App(G, b)}

        st = solve(pairs, EngineConfig(oracles=()))
        got = st.unifiers(limit=1)
        assert got and verify_unifier(pairs, got[0])
        totals[k] = sum(st.stats.values())

    ks = sorted(totals)
    mean_k = sum(ks) / len(ks)
    mean_t = sum(totals[k] for k in ks) / len(ks)
    slope = sum((k - mean_k) * (totals[k] - mean_t) for k in ks) / sum(
        (k - mean_k) ** 2 for k in ks
    )
    intercept = mean_t - slope * mean_k
    assert slope > 0
    for k in ks:
        fit = slope * k + intercept
        assert abs(fit - totals[k]) / totals[k] < 0.05, (k, totals)

    scoreboard(
        3,
        f"h^k towers take exactly k decomposes; totals {totals} fit "
        f"{slope:.2f}*k + {intercept:.1f} with <5% residual",
    )


# ---------------------------------------------------------------------------
# 4. solid fragment worked example: a single most general unifier
# ---------------------------------------------------------------------------


def test_criterion_4_solid_single_mgu(scoreboard):
    F, G = Free(0, II), Free(1, II)
    pairs = [(App(F, App(f, a)), mk_app(g, [a, App(G, a)]))]

    st = solve(pairs, EngineConfig())
    got = st.unifiers(max_pulls=5_000)
    assert st.status == "exhausted"
    assert len(got) == 1
    sigma = got[0]
    assert verify_unifier(pairs, sigma)

    H = Free(9_000, arrow([I, I, I], I))
    x = Bound(0, I)
    expected = Substitution(
        [
            (F, Lam(I, mk_app(g, [a, mk_app(H, [x, x, a])]))),
            (G, Lam(I, mk_app(H, [App(f, a), App(f, x), x]))),
        ]
    )
    assert subst_key(sigma, (F, G)) == subst_key(expected, (F, G))

    scoreboard(
        4,
        "F (f a) =?= g a (G a) solved by the single MGU "
        "{F -> \\x. g a (H x x a), G -> \\x. H (f a) (f x) x}, verified",
    )


# ---------------------------------------------------------------------------
# 5. fingerprint features at positions (1, 1.1.1, 2)
# ---------------------------------------------------------------------------


def test_criterion_5_fingerprint_goldens(scoreboard):
    positions = ((1,), (1, 1, 1), (2,))

    g1 = Const("g", II)
    applied = App(Lam(II, Lam(I, App(Bound(1, II), Bound(0, I)))), g1)
    fp_applied = fp_ho(applied, positions)
    assert fp_applied == (Sym(0), N, N)

    f2 = Const("f", III)  # f : alpha -> alpha -> beta
    fp_f = fp_ho(f2, positions)
    assert fp_f == (Sym(1), N, Sym(0))

    assert compatible_unif(fp_applied, fp_f) is False

    scoreboard(
        5,
        "fp((\\x y. x y) g) = (db0, N, N); fp(f) = (db1, N, db0); "
        "unification-incompatible at position 1",
    )


# ---------------------------------------------------------------------------
# 6. soundness: every emitted unifier verifies
# ---------------------------------------------------------------------------


def test_criterion_6_soundness_1000_random_problems(scoreboard):
    rng = random.Random(20260814)
    configs = (
        EngineConfig(max_steps=1_200),
        EngineConfig(oracles=(), max_steps=1_200),
        EngineConfig(variant="pragmatic", max_steps=1_200),
    )
    modes = ("any", "pattern", "solid", "ground")

    t0 = time.monotonic()
    verified = 0
    for trial in range(1_000):
        frees = make_frees(rng, rng.randint(1, 3), 100)
        pairs = [gen_pair(rng, mode=modes[trial % 4], frees_l=frees, max_size=8)]
        st = solve(pairs, configs[trial % 3])
        for sigma in st.unifiers(limit=3, max_pulls=500):
            assert verify_unifier(pairs, sigma), f"unsound unifier, trial {trial}"
            verified += 1
    elapsed = time.monotonic() - t0

    assert elapsed < 300.0
    assert verified >= 200  # the sample actually exercised emission

    scoreboard(
        6,
        f"1000 random problems (size <= 8): {verified} emitted unifiers all "
        f"verified in {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 7. retrieval: no engine-confirmed pair is filtered out
# ---------------------------------------------------------------------------


def _confirm_bounded(query, entry, mode):
    """Bounded engine check with the CLI's --verify semantics.
    Returns True / False / None (= engine did not conclude)."""
    return confirm(query, entry, mode, max_steps=300)


def test_criterion_7_index_no_false_negatives(scoreboard):
    rng = random.Random(77)
    index = FingerprintIndex(DEFAULT_POSITIONS)
    stored = []
    for tid in range(500):
        frees = make_frees(rng, rng.randint(0, 2), 200 + 10 * tid, types=(I, II))
        ty = rng.choice((I, II, III))
        term = gen_sized(rng, ty, mode=("any", "ground")[tid % 2], frees=frees, max_size=7)
        stored.append(term)
        index.insert(tid, term)

    queries = []
    for q in range(60):
        frees = make_frees(rng, rng.randint(0, 2), 20_000 + 10 * q, types=(I, II))
        ty = rng.choice((I, II, III))
        queries.append(
            (("unif", "match")[q % 2], gen_sized(rng, ty, "any", frees, max_size=7), None)
        )
    for q in range(40):
        source = rng.randrange(500)
        ren = Substitution(
            (v, Free(v.id + 500_000, v.ty)) for v in free_vars(stored[source]).values()
        )
        queries.append((("unif", "match")[q % 2], ren.apply(stored[source]), source))

    misses = 0
    total_pairs = 0
    total_candidates = 0
    for mode, query, source in queries:
        if mode == "unif":
            cands = index.retrieve_unifiable(query)
        else:
            cands = index.retrieve_matching(query)
        total_pairs += len(stored)
        total_candidates += len(cands)
        if source is not None:
            # a renamed copy of entry `source` is unifiable with it and an
            # instance-generalization of it, so it must always come back
            assert source in cands, (mode, source)
        for tid, entry in enumerate(stored):
            if tid not in cands and _confirm_bounded(query, entry, mode):
                misses += 1

    ratio = 1.0 - total_candidates / total_pairs
    assert misses == 0
    assert ratio >= 0.20

    scoreboard(
        7,
        f"500 stored terms x 100 queries: 0 retrieval misses, "
        f"filter ratio {ratio:.0%}",
    )


# ---------------------------------------------------------------------------
# 8. oracle verdicts agree with the bounded complete engine
# ---------------------------------------------------------------------------


def _engine_concludes(pairs):
    """True / False when the bounded oracle-free engine settles
    unifiability, None when it runs out of budget."""
    st = solve(pairs, EngineConfig(oracles=(), max_steps=4_000))
    if st.unifiers(limit=1, max_pulls=1_500):
        return True
    return False if st.status == "non-unifiable" else None


def test_criterion_8_oracle_engine_agreement(scoreboard):
    rng = random.Random(88)
    compared = {"pattern": 0, "solid": 0}
    for name, mode, seed_vars in (("pattern", "pattern", 3), ("solid", "solid", 2)):
        oracle = resolve(name)
        for trial in range(200):
            frees = make_frees(rng, rng.randint(1, seed_vars), 300, types=(I, II, III))
            pairs = [gen_pair(rng, mode=mode, frees_l=frees, max_size=8)]
            verdict = oracle(pairs[0][0], pairs[0][1], oracle_ctx())
            if isinstance(verdict, NotApplicable):
                continue
            if isinstance(verdict, Success):
                for sigma in verdict.csu:
                    assert_verifies(pairs, sigma)
            concluded = _engine_concludes(pairs)
            if concluded is None:
                continue
            if concluded:
                assert isinstance(verdict, Success) and verdict.csu, (name, pairs)
            else:
                assert isinstance(verdict, NotUnifiable) or (
                    isinstance(verdict, Success) and not verdict.csu
                ), (name, pairs)
            compared[name] += 1

    assert compared["pattern"] >= 150
    assert compared["solid"] >= 100

    scoreboard(
        8,
        "oracle vs engine verdicts: 0 disagreements "
        f"({compared['pattern']} pattern, {compared['solid']} solid comparisons)",
    )


# ---------------------------------------------------------------------------
# 9. productive divergence stays enumerable and controllable
# ---------------------------------------------------------------------------


def test_criterion_9_divergence_control(scoreboard):
    F = Free(0, II)
    lhs = Lam(I, App(F, App(f, Bound(0, I))))
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    pairs = [(lhs, rhs)]

    st = solve(pairs, EngineConfig())
    keys = set()
    for sigma in st.unifiers(max_pulls=10_000):
        assert verify_unifier(pairs, sigma)
        keys.add(subst_key(sigma, (F,)))
    assert len(keys) >= 4

    st2 = solve(pairs, EngineConfig(variant="pragmatic"))
    found2 = st2.unifiers(max_pulls=1_000_000)
    assert st2.status in ("exhausted", "non-unifiable")
    for sigma in found2:
        assert verify_unifier(pairs, sigma)

    verdict = resolve("solid")(lhs, rhs, oracle_ctx())
    assert isinstance(verdict, NotApplicable)

    scoreboard(
        9,
        f"\\x. F (f x) =?= \\x. f (F x): {len(keys)} distinct verified "
        "unifiers in 10^4 pulls; pragmatic variant terminates; solid oracle "
        "declines (shared variable)",
    )


# ---------------------------------------------------------------------------
# 10. fairness: a productive branch is reached past divergent siblings
# ---------------------------------------------------------------------------


def test_criterion_10_fair_branch_interleaving(scoreboard):
    # F G G =?= f G branches three ways at the root: both projections of F
    # reduce it to the endless G =?= f G imitation ladder, only imitation
    # leads anywhere.  Round-robin exploration must not starve it.
    F, G = Free(0, III), Free(1, I)
    pairs = [(mk_app(F, [G, G]), App(f, G))]

    st = solve(pairs, EngineConfig(oracles=()))
    got = st.unifiers(limit=1, max_pulls=500)
    assert got, "productive branch starved"
    assert verify_unifier(pairs, got[0])
    assert st.pulls <= 500
    assert st.stats.get("bind_imitation", 0) >= 1
    assert st.stats.get("bind_huet_projection", 0) >= 2

    scoreboard(
        10,
        f"3-branch problem with two divergent branches solved after "
        f"{st.pulls} pulls",
    )
