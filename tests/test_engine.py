"""The transition engine: goldens, precedence, laziness, fairness, hygiene."""

import dataclasses
import functools
import hashlib
import itertools
import pathlib
import random
import sys
import types

import pytest

import termgen
from termgen import I, II, III, assert_verifies, gen_pair, make_frees, subst_key
from hounif import bindings, engine, normalize, oracles
from hounif.engine import (
    EngineConfig,
    Limits,
    UnifState,
    confirm,
    prepare,
    solve,
    step,
    verify_unifier,
)
from hounif.errors import TypeMismatch
from hounif.problem_io import parse_index, parse_problem
from hounif.subst import FreshSupply, Substitution, TriangularSubst
from hounif.terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Free,
    Lam,
    PLAIN,
    arrow,
    free_vars,
    mk_app,
    mk_lams,
    spine,
    strip_lams,
)

a = Const("a", I)
b = Const("b", I)
f = Const("f", II)
h = Const("h", II)
g = Const("g", III)

NO_ORACLES = EngineConfig(oracles=())
DEMO_PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "problems"


def hpow(k, t):
    for _ in range(k):
        t = App(h, t)
    return t


def applicable_rules(state, search):
    """The transition `step` applies at this state, as the tests inspect
    it: ["oracle"] for an oracle verdict or the pragmatic cutoff, the kinds
    of a branch point's edges ("decompose", "bind"), otherwise [rule]."""
    rule, _, payload = engine._transition(state, search)
    if rule in ("oracle_succ", "oracle_fail"):
        return ["oracle"]
    if rule != "branch":
        return [rule]
    heads_equal, bindings = payload
    kinds = ["decompose"] if heads_equal else []
    if next(iter(bindings), None) is not None:
        kinds.append("bind")
    return kinds


def drive_to_branch(state, search, max_steps=10_000):
    """Advance through deterministic transitions (including single-edge
    decomposes of rigid pairs); stop at the first real branch point,
    solution, or failure.  Returns (state, label)."""
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


# ------------------------------------------------------------- goldens


def test_first_order_unification():
    F = Free(0, I)
    pairs = [(mk_app(g, [F, b]), mk_app(g, [a, b]))]
    st = solve(pairs, NO_ORACLES)
    got = st.unifiers(max_pulls=2_000)
    assert len(got) == 1 and got[0].image_of(0) == a
    assert st.status == "exhausted"


def test_rigid_clash_is_non_unifiable():
    st = solve([(App(f, a), App(h, a))], NO_ORACLES)
    assert st.unifiers(max_pulls=100) == []
    assert st.status == "non-unifiable"


def test_type_mismatch_rejected():
    with pytest.raises(TypeMismatch):
        solve([(a, f)], NO_ORACLES)


def test_occurs_cycle_fixpoint_oracle():
    # G =?= f G: non-unifiable, decided by the fixpoint oracle
    G = Free(0, I)
    st = solve([(G, App(f, G))], EngineConfig(oracles=("fixpoint",)))
    assert st.unifiers(max_pulls=50) == []
    assert st.status == "non-unifiable"
    assert st.stats.get("oracle_fail") == 1


def test_occurs_cycle_pragmatic_terminates_without_oracles():
    G = Free(0, I)
    st = solve([(G, App(f, G))], EngineConfig(variant="pragmatic", oracles=()))
    assert st.unifiers(max_pulls=100_000) == []
    assert st.status == "non-unifiable"  # exhausted without a result


def test_two_unifier_example():
    # F (G a) =?= F b has exactly two unifiers modulo renaming:
    # {G -> \x. b} and {F -> \x. F'}
    F = Free(0, II)
    G = Free(1, II)
    pairs = [(App(F, App(G, a)), App(F, b))]
    st = solve(pairs, EngineConfig())
    got = st.unifiers(max_pulls=10_000)
    assert st.status == "exhausted"
    assert len(got) == 2
    for sigma in got:
        assert_verifies(pairs, sigma)
    keys = {subst_key(sigma, [F, G]) for sigma in got}
    expected = {
        subst_key(Substitution(((G, Lam(I, b)),)), [F, G]),
        subst_key(Substitution(((F, Lam(I, Free(99, I))),)), [F, G]),
    }
    assert keys == expected


def test_decompose_counts_on_deep_context():
    # h^k (F a) =?= h^k (G b) reaches F a =?= G b after exactly k
    # Decompose transitions, with the branch point still unexpanded
    for k in (25, 100):
        F, G = Free(0, II), Free(1, II)
        pairs = [(hpow(k, App(F, a)), hpow(k, App(G, b)))]
        state, search = prepare(pairs, NO_ORACLES)
        state, label = drive_to_branch(state, search)
        assert label == "branch"
        assert search.stats == {"decompose": k}
        (c,) = state.constraints
        assert {c.lhs, c.rhs} == {App(F, a), App(G, b)}


def test_transition_count_linear_in_context_depth():
    totals = {}
    for k in (25, 50, 100):
        F, G = Free(0, II), Free(1, II)
        pairs = [(hpow(k, App(F, a)), hpow(k, App(G, b)))]
        st = solve(pairs, NO_ORACLES)
        got = st.unifiers(limit=1)
        assert got and verify_unifier(pairs, got[0])
        totals[k] = sum(st.stats.values())
    # constant overhead on top of one decompose per layer
    assert totals[50] - totals[25] == 25
    assert totals[100] - totals[50] == 50


def test_stepping_never_normalizes_fully(monkeypatch):
    # driving the decompose cascade performs no full normalization pass,
    # independently of the context depth
    calls = []
    full = normalize.hereditary
    monkeypatch.setattr(normalize, "hereditary", lambda t, *rest: calls.append(t) or full(t, *rest))
    for k in (30, 120):
        F, G = Free(0, II), Free(1, II)
        pairs = [(hpow(k, App(F, a)), hpow(k, App(G, b)))]
        state, search = prepare(pairs, NO_ORACLES)
        drive_to_branch(state, search)
        assert calls == []


def test_type_of_calls_linear_in_tower_height(monkeypatch):
    # each node's type is computed once and memoized, so solving
    # h^k a =?= h^k X costs O(k) type_of calls, not one walk per layer
    from hounif import engine, terms

    calls = 0
    real = terms.type_of

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(terms, "type_of", counting)
    monkeypatch.setattr(engine, "type_of", counting)
    counts = {}
    for k in (100, 200):
        X = Free(0, I)
        calls = 0
        got = solve([(hpow(k, a), hpow(k, X))], EngineConfig()).unifiers(limit=1)
        assert len(got) == 1 and got[0].apply(X) == a
        counts[k] = calls
    assert counts[200] <= 2.5 * counts[100]


def test_term_order_calls_constant_in_tower_height(monkeypatch):
    # rigid pairs are not oriented, so only the flex pair at the bottom
    # of h^k a =?= h^k X walks term_order, whatever k
    from hounif import engine

    calls = 0
    real = engine.term_order

    def counting(s, t):
        nonlocal calls
        calls += 1
        return real(s, t)

    monkeypatch.setattr(engine, "term_order", counting)
    counts = {}
    for k in (100, 200):
        X = Free(0, I)
        calls = 0
        got = solve([(hpow(k, a), hpow(k, X))], EngineConfig()).unifiers(limit=1)
        assert len(got) == 1 and got[0].apply(X) == a
        counts[k] = calls
    assert counts[100] == counts[200]


def test_tower_600_solves():
    X = Free(0, I)
    st = solve([(hpow(600, a), hpow(600, X))], EngineConfig())
    got = st.unifiers()
    assert [subst_key(sigma, [X]) for sigma in got] == [
        subst_key(Substitution(((X, a),)), [X])
    ]
    assert st.status == "exhausted"


def test_tower_800_unifier_verifies_at_default_recursion_limit():
    # solve finds it; verifying it canonicalizes both 800-deep sides
    X = Free(0, I)
    pairs = [(hpow(800, a), hpow(800, X))]
    got = solve(pairs, EngineConfig()).unifiers(limit=1)
    assert len(got) == 1 and got[0].apply(X) == a
    assert verify_unifier(pairs, got[0])


def test_tower_5000_solves_and_verifies_at_default_recursion_limit():
    # typing, orienting, decomposing and verifying never recurse per layer
    X, F, G = Free(0, I), Free(1, II), Free(2, II)
    for pairs in (
        [(hpow(5000, a), hpow(5000, X))],
        [(hpow(5000, App(F, a)), hpow(5000, App(G, b)))],
    ):
        got = solve(pairs, EngineConfig()).unifiers(limit=1)
        assert len(got) == 1 and verify_unifier(pairs, got[0])
    assert got[0].apply(F) != F


def test_constant_of_500_arguments_solves():
    # hashing and comparing its type walks the 500 arguments without recursion
    n = 500
    c = Const("c", arrow([I] * n, I))
    xs = [Free(k, I) for k in range(n)]
    pairs = [(mk_app(c, [a] * n), mk_app(c, xs))]
    st = solve(pairs, EngineConfig())
    got = st.unifiers()
    assert st.status == "exhausted" and len(got) == 1
    assert verify_unifier(pairs, got[0]) and all(got[0].apply(x) == a for x in xs)


def _wide_signature_stream(n):
    """G1 a =?= G2 a next to g =?= g, g a constant of n arguments whose
    type the iteration bindings' signature holds, pulled to its end."""
    G1, G2 = Free(0, II), Free(1, II)
    c = Const("g", arrow([I] * n, I))
    st = solve([(App(G1, a), App(G2, a)), (c, c)], EngineConfig(oracles=(), max_steps=300))
    return st, st.unifiers(max_pulls=2_000)


@pytest.mark.parametrize("n", [500, 1_000, 5_000])
def test_signature_type_walks_do_not_recurse_on_arity(n):
    # at n = 1,000 `signature_types` raised RecursionError; the 500 record
    # is the one the recursive type walks gave
    st, got = _wide_signature_stream(n)
    assert st.status == "budget"
    if n == 500:
        assert (len(got), st.pulls) == (22, 59)
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "e879da132b75f34e"


def _flat_key(ty):
    """A type's nodes in pre-order, 1 for an arrow and 0, name for a base
    type: the sort key the signature's types and tuples had before types
    were interned, kept here as the reference for the orders that replace it."""
    key, todo = [], [ty]
    while todo:
        ty = todo.pop()
        while isinstance(ty, Arrow):
            key.append(1)
            todo.append(ty.cod)
            ty = ty.dom
        key += (0, ty.name)
    return tuple(key)


def test_flat_type_keys_order_as_nested_keys():
    def nested(ty):
        if isinstance(ty, Arrow):
            return (1, nested(ty.dom), nested(ty.cod))
        return (0, ty.name)

    rng = random.Random(5)
    bases = [I, Base("j"), Base("o")]
    types = []
    for _ in range(300):
        ty = rng.choice(bases)
        for _ in range(rng.randrange(4)):
            other = rng.choice(types) if types and rng.random() < 0.5 else rng.choice(bases)
            ty = Arrow(ty, other) if rng.random() < 0.5 else Arrow(other, ty)
        types.append(ty)
    for s, t in zip(types, types[1:] + types[:1]):
        want = (nested(s) > nested(t)) - (nested(s) < nested(t))
        ks, kt = _flat_key(s), _flat_key(t)
        assert (ks > kt) - (ks < kt) == want == engine.nested_order(s, t)
        ks, kt = (s.bases, ks), (t.bases, kt)
        assert engine.type_order(s, t) == (ks > kt) - (ks < kt)
        assert s.bases == str(nested(s)).count("(0,")


def test_y_tuples_order_as_flat_keys():
    # (i>i)>i has fewer base types than i>i>i>i but the larger nested key:
    # tuples of one total are ordered by their types' flat keys from the
    # left, not by the types' places in `sig_types`
    def arrow_of(*tys):
        return arrow(list(tys[:-1]), tys[-1])

    j = Base("j")
    rng = random.Random(11)
    signatures = [
        [Const("f", arrow_of(II, I)), Const("g", arrow_of(I, I, I, I))],
        [Const("k", arrow_of(I, arrow_of(II, I), I))],
    ]
    for _ in range(40):
        consts = []
        for n in range(rng.randrange(1, 4)):
            ty = rng.choice([I, j])
            for _ in range(rng.randrange(4)):
                ty = Arrow(rng.choice([I, j, II, Arrow(j, I), arrow_of(II, j, I)]), ty)
            consts.append(Const(f"c{n}", ty))
        signatures.append(consts)
    for consts in signatures:
        sig = engine.signature_types(consts)
        want = [()] + sorted(
            itertools.chain(itertools.product(sig), itertools.product(sig, repeat=2)),
            key=lambda tp: (len(tp), sum(ty.bases for ty in tp), tuple(map(_flat_key, tp))),
        )
        assert list(itertools.islice(engine._y_tuples(sig), len(want))) == want
    assert list(engine._y_tuples(())) == [()]


def test_flex_flex_iteration_order_pinned():
    # the first 40 bindings of a complete-variant flex-flex branch point
    # over a signature holding (i>i)>i and i>(i>i)>i; the digest was computed
    # before types were interned
    A = arrow([II], I)
    k = Const("k", arrow([I, II], I))
    G1, G2 = Free(0, II), Free(1, II)
    search = engine.Search(EngineConfig(), [App(G1, a), App(G2, a), k, k])
    assert search.sig_types == (I, II, A, Arrow(I, A))
    got = list(itertools.islice(engine._candidates(G1, G2, search), 40))
    assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "7792a68751e4c6d2"


def _stream_record(pairs, cfg, problem_vars, max_pulls=300):
    """A stream pulled until it ends or reaches `max_pulls`, as (the
    "pull:subst_key" line of each unifier, pulls, status, stats); every
    unifier is verified."""
    st = solve(pairs, cfg)
    lines = []
    for sigma in st:
        if sigma is not None:
            assert verify_unifier(pairs, sigma)
            lines.append(f"{st.pulls}:{subst_key(sigma, problem_vars)}")
        if st.pulls >= max_pulls:
            break
    return lines, st.pulls, st.status, st.stats


def test_swapping_sides_changes_nothing():
    # rigid pairs keep the sides as given; decomposition orients the
    # children, so the stream cannot depend on the input's orientation
    deep = parse_problem((DEMO_PROBLEMS / "deep_context.hou").read_text())
    F, G = Free(0, II), Free(1, II)
    problems = [
        (list(deep.goals), list(deep.variables.values())),
        ([(hpow(40, App(F, a)), hpow(40, App(G, b)))], [F, G]),
    ]
    for pairs, problem_vars in problems:
        swapped = [(t, s) for s, t in pairs]
        for cfg in (EngineConfig(), NO_ORACLES):
            want = _stream_record(pairs, cfg, problem_vars)
            assert want[0]
            assert _stream_record(swapped, cfg, problem_vars) == want


# ------------------------------------------------------- rule precedence


def _reachable_steps(state, search, max_visits):
    """Walk the states reachable from `state` (at most `max_visits`, and
    four children per branch point), yielding each state with the
    transition `_transition` names at it and the successor step() returns."""
    todo = [state]
    visited = 0
    while todo and visited < max_visits:
        st = todo.pop()
        visited += 1
        transition = engine._transition(st, search)
        nxt = step(st, search)
        yield st, transition, nxt
        if type(nxt) is UnifState:
            todo.append(nxt)
        elif isinstance(nxt, types.GeneratorType):
            todo.extend(itertools.islice(nxt, 4))


def _sides(constraints):
    return [(c.lhs, c.rhs, c.seq, c.counters) for c in constraints]


def _assert_step_applies_first_rule(state, search, max_visits):
    """Check at each state reachable from `state` that step() returns the
    successor of the transition `_transition` names: for delete, the state
    without the selected constraint; for a rewrite, the state with it
    replaced by the payload; for succeed, the state's substitution; for a
    failure, None; for a branch point or an oracle's unifiers, a generator
    of children.  Returns the rules met."""
    seen = set()
    for st, (rule, c, payload), nxt in _reachable_steps(state, search, max_visits):
        seen.add(rule)
        if rule == "succeed":
            assert nxt is st.subst
        elif rule in ("fail", "oracle_fail"):
            assert nxt is None, rule
        elif rule in ("branch", "oracle_succ"):
            assert isinstance(nxt, types.GeneratorType), rule
        else:
            want = st.without(c) if rule == "delete" else [
                payload if x is c else x for x in st.constraints
            ]
            assert type(nxt) is UnifState and _sides(nxt.constraints) == _sides(want), rule
            assert nxt.subst is st.subst and nxt.next_seq == st.next_seq
    return seen


PRECEDENCE_CONFIGS = (
    NO_ORACLES,
    EngineConfig(),
    EngineConfig(variant="pragmatic", oracles=()),
    EngineConfig(variant="pragmatic", oracles=(), limits=Limits.parse("1,0,1,1,1")),
)


def test_rule_precedence_instrumented():
    """step() always applies the first applicable transition in the fixed
    precedence order, across a random sample of reachable states."""
    rng = random.Random(41)
    seen = set()
    for trial in range(40):
        frees = make_frees(rng, 3, 10)
        pairs = [gen_pair(rng, mode="any", frees_l=frees, max_size=7)]
        cfg = PRECEDENCE_CONFIGS[trial % len(PRECEDENCE_CONFIGS)]
        state, search = prepare(pairs, cfg)
        seen |= _assert_step_applies_first_rule(state, search, 120)
    assert seen == {
        "succeed", "normalize_eta", "normalize_beta", "dereference", "fail", "delete",
        "oracle_succ", "oracle_fail", "branch",
    }, seen


def _side_view(t):
    tys, body = strip_lams(t)
    return (tys, *spine(body))


def test_constraint_views_match_their_sides():
    """Every constraint of every state reachable from seeded problems
    carries the views strip_lams and spine give of its sides."""
    rng = random.Random(43)
    checked = 0
    for trial in range(40):
        frees = make_frees(rng, 3, 10)
        pairs = [gen_pair(rng, mode="any", frees_l=frees, max_size=7)]
        cfg = PRECEDENCE_CONFIGS[trial % len(PRECEDENCE_CONFIGS)]
        state, search = prepare(pairs, cfg)
        for st, _, _ in _reachable_steps(state, search, 120):
            for c in st.constraints:
                assert c.lview == _side_view(c.lhs), c
                assert c.rview == _side_view(c.rhs), c
                checked += 1
    assert checked > 500


def test_constraint_copies_share_the_views_of_kept_sides():
    F = Free(0, II)
    c = engine.Constraint.make(App(F, a), App(f, a), 0)
    new = App(f, b)
    left_kept = c.with_sides(c.lhs, new)
    assert left_kept.lview is c.lview and left_kept.rview == _side_view(new)
    right_kept = c.with_sides(new, c.rhs)
    assert right_kept.rview is c.rview and right_kept.lview == _side_view(new)
    # make's reoriented pair swaps the views it took
    swapped = engine.Constraint.make(c.rhs, c.lhs, 0)
    assert (swapped.lhs, swapped.rhs) == (c.lhs, c.rhs)
    assert swapped.lview == c.lview and swapped.rview == c.rview


def test_bound_child_shares_the_views_of_its_constraint():
    # the counter bump copies the constraint with both views
    F = Free(0, II)
    state, search = prepare([(App(F, a), App(f, a))], NO_ORACLES)
    (c,) = state.constraints
    assert engine._transition(state, search)[0] == "branch"
    child = next(step(state, search))
    (bumped,) = child.constraints
    assert bumped.counters.total == 1
    assert (bumped.lhs, bumped.rhs, bumped.seq) == (c.lhs, c.rhs, c.seq)
    assert bumped.lview is c.lview and bumped.rview is c.rview
    assert repr(bumped) == repr(c) == f"{c.lhs!r} =?= {c.rhs!r}"


def test_views_taken_about_once_per_constraint(monkeypatch):
    # every copy of a constraint shares the views of the sides it keeps,
    # so the views taken stay below two per constraint built
    counts = {"views": 0, "built": 0}
    view, init = engine._view, engine.Constraint.__init__

    def counted_view(t):
        counts["views"] += 1
        return view(t)

    def counted_init(self, *args):
        counts["built"] += 1
        init(self, *args)

    monkeypatch.setattr(engine, "_view", counted_view)
    monkeypatch.setattr(engine.Constraint, "__init__", counted_init)
    problems = _pinned_problems()
    for name in ("criterion9", "criterion10"):
        pairs, cfg, _ = problems[name]
        solve(pairs, cfg).unifiers(max_pulls=300)
    assert counts["built"] > 1_000
    assert counts["views"] < 2 * counts["built"]


@pytest.mark.parametrize(
    "pair, rule",
    [
        ((hpow(3, a), hpow(3, b)), "branch"),
        ((App(f, a), App(h, a)), "fail"),
        ((hpow(3, a), hpow(3, a)), "delete"),
        ((Lam(I, App(f, Bound(0, I))), Lam(I, App(h, Bound(0, I)))), "fail"),
    ],
    ids=["decompose", "clash", "delete", "bound-prefix"],
)
def test_transition_on_rigid_pair_walks_no_side(monkeypatch, pair, rule):
    # the selected constraint's views answer every question a rigid pair
    # raises, so no side's prefix or spine is taken again
    state, search = prepare([pair], NO_ORACLES)

    def walked(*args):
        raise AssertionError("a constraint side was walked again")

    monkeypatch.setattr(engine, "_view", walked)
    assert engine._transition(state, search)[0] == rule


def test_view_equals_strip_lams_then_spine():
    """`_view`'s inline walk gives what `strip_lams` and `spine` give,
    element by element, on seeded terms with binders, bound heads and
    redex heads (a Lam applied under binders)."""
    rng = random.Random(47)
    seen = {"binders": 0, "bound": 0, "redex": 0}
    for _ in range(300):
        frees = make_frees(rng, 2, 10)
        ty = termgen.rand_type(rng)
        t = termgen.gen_sized(rng, ty, mode="any", frees=frees, max_size=9)
        terms = [t]
        if type(ty) is Arrow:  # a canonical t of arrow type is a Lam
            arg = termgen.gen_sized(rng, ty.dom, mode="any", frees=frees, max_size=5)
            terms += [App(t, arg), Lam(I, App(t, arg)), Lam(ty, App(t, Bound(0, ty.dom)))]
        for u in terms:
            tys, head, args = engine._view(u)
            want_tys, body = strip_lams(u)
            want_head, want_args = spine(body)
            assert len(tys) == len(want_tys) and all(x is y for x, y in zip(tys, want_tys))
            assert head is want_head
            assert len(args) == len(want_args) and all(x is y for x, y in zip(args, want_args))
            seen["binders"] += bool(tys)
            seen["bound"] += type(head) is Bound
            seen["redex"] += type(head) is Lam
    assert min(seen.values()) >= 20, seen


def _decomposition(pair):
    state, search = prepare([pair], NO_ORACLES)
    assert engine._transition(state, search)[0] == "branch"
    return next(step(state, search)).constraints


def test_binder_free_decomposition_children_are_the_arguments():
    # a binder-free rigid pair's arguments become its children's sides as
    # they are, with no copy; under binders each child gets the prefix
    X, Y = Free(0, I), Free(1, I)
    s, t = mk_app(g, [hpow(2, a), X]), mk_app(g, [Y, App(f, b)])
    children = _decomposition((s, t))
    assert len(children) == 2
    for c, u, v in zip(children, spine(s)[1], spine(t)[1]):
        assert (c.lhs is u and c.rhs is v) or (c.lhs is v and c.rhs is u), c
    lam_s, lam_t = Lam(I, App(f, Bound(0, I))), Lam(I, App(f, X))
    (c,) = _decomposition((lam_s, lam_t))
    assert {c.lhs, c.rhs} == {Lam(I, Bound(0, I)), Lam(I, X)}


def _signature_types_calls(monkeypatch, problems):
    calls = 0
    real = engine.signature_types

    def counting(terms):
        nonlocal calls
        calls += 1
        return real(terms)

    monkeypatch.setattr(engine, "signature_types", counting)
    for pairs, cfg in problems:
        assert solve(pairs, cfg).unifiers(max_pulls=300)
    return calls


def test_signature_types_computed_at_first_iteration_only(monkeypatch):
    # only iteration bindings read the signature types, so towers and
    # deep_context never compute them, and criterion 10's stream (complete,
    # no oracles, 300 pulls) computes them once however often it reads
    X, F, G = Free(0, I), Free(1, II), Free(2, II)
    deep = parse_problem((DEMO_PROBLEMS / "deep_context.hou").read_text())
    no_iteration = [
        ([(hpow(50, a), hpow(50, X))], EngineConfig()),
        ([(hpow(50, App(F, a)), hpow(50, App(G, b)))], EngineConfig()),
        (list(deep.goals), EngineConfig()),
    ]
    assert _signature_types_calls(monkeypatch, no_iteration) == 0
    F3, G1 = Free(0, III), Free(1, I)
    criterion_10 = [([(mk_app(F3, [G1, G1]), App(f, G1))], NO_ORACLES)]
    assert _signature_types_calls(monkeypatch, criterion_10) == 1


@pytest.mark.parametrize(
    "pair",
    [
        (Free(0, I), Free(1, I)),
        (Free(0, I), a),
        (App(Free(0, II), a), App(Free(0, II), b)),
    ],
    ids=["flex-flex", "flex-rigid", "same-head"],
)
def test_rule_precedence_zero_limits(pair):
    # with every binding over the limits, the pragmatic cutoff decides
    cfg = EngineConfig(
        variant="pragmatic", oracles=(), limits=Limits.parse("0,0,0,0,0")
    )
    state, search = prepare([pair], cfg)
    _assert_step_applies_first_rule(state, search, 20)


def test_decompose_requires_equal_heads():
    # flex-rigid: branch edges are bindings only, no decompose
    F = Free(0, II)
    state, search = prepare([(App(F, a), App(f, b))], NO_ORACLES)
    state, label = drive_to_branch(state, search)
    assert label == "branch"
    list(itertools.islice(step(state, search), 10))  # all children
    assert "decompose" not in search.stats
    assert any(k.startswith("bind_") for k in search.stats)

    # rigid-rigid with different heads: fail, not decompose
    state, search = prepare([(App(f, a), App(h, a))], NO_ORACLES)
    _, label = drive_to_branch(state, search)
    assert label == "fail" and "decompose" not in search.stats

    # flex-flex with the same head: decompose is among the edges
    state, search = prepare([(App(F, a), App(F, b))], NO_ORACLES)
    state, label = drive_to_branch(state, search)
    list(itertools.islice(step(state, search), 10))
    assert search.stats.get("decompose") == 1


def test_delete_precedes_branching():
    F = Free(0, II)
    t = App(F, a)
    state, search = prepare([(t, t)], NO_ORACLES)
    assert engine._transition(state, search)[0] == "delete"
    assert step(state, search).constraints == ()
    assert "bind_identification" not in search.stats


# ------------------------------------------------------------- fairness


def test_fairness_across_divergent_branches():
    """Three of four branches diverge; the productive one still delivers
    its unifier within a few pulls."""
    P = Free(0, III)
    G1 = Free(1, II)
    G2 = Free(2, II)
    lhs = mk_app(P, [App(G1, a), App(G2, a)])
    rhs = mk_app(P, [mk_app(g, [a, App(G1, a)]), mk_app(g, [a, App(G2, a)])])
    pairs = [(lhs, rhs)]
    st = solve(pairs, NO_ORACLES)
    got = st.unifiers(limit=1, max_pulls=500)
    assert got, "productive branch starved"
    assert st.pulls <= 500
    assert_verifies(pairs, got[0])


def test_divergent_problem_streams_unifiers():
    # \x. F (f x) =?= \x. f (F x): infinitely many unifiers F -> f^n
    from hounif.terms import Bound

    F = Free(0, II)
    lhs = Lam(I, App(F, App(f, Bound(0, I))))
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    pairs = [(lhs, rhs)]
    st = solve(pairs, EngineConfig())
    got = st.unifiers(limit=4, max_pulls=10_000)
    assert len(got) >= 4
    keys = {subst_key(s, [F]) for s in got}
    assert len(keys) == len(got)  # pairwise distinct
    for sigma in got:
        assert_verifies(pairs, sigma)


#: the two enumerate streams of the benchmark, and the pragmatic variant on
#: the same two problems, each pulled until it ends or reaches 300 pulls:
#: (unifiers found, first 16 hex digits of the sha256 of the
#: "pull:subst_key" lines, pulls, final status, final stats)
PINNED_STREAMS = {
    "criterion9": (
        100,
        "0d53aac11ed081ba",
        300,
        "running",
        {"bind_huet_projection": 100, "bind_imitation": 101, "decompose": 200,
         "delete": 100, "dereference": 400, "normalize_beta": 400, "succeed": 100},
    ),
    "criterion10": (
        59,
        "d75f8aa8f1d51ac1",
        300,
        "running",
        {"bind_elimination": 96, "bind_huet_projection": 2, "bind_identification": 143,
         "bind_imitation": 9, "bind_iteration": 151, "bind_jp_projection": 113,
         "decompose": 106, "delete": 88, "dereference": 630, "normalize_beta": 402,
         "succeed": 59},
    ),
    "pragmatic9": (
        3,
        "3e216befb6140bf2",
        8,
        "exhausted",
        {"bind_huet_projection": 3, "bind_imitation": 2, "decompose": 5, "delete": 3,
         "dereference": 10, "normalize_beta": 10, "succeed": 3},
    ),
    "pragmatic10": (
        16,
        "3b673453cf272315",
        52,
        "exhausted",
        {"bind_elimination": 11, "bind_huet_projection": 8, "bind_identification": 9,
         "bind_imitation": 5, "decompose": 16, "delete": 13, "dereference": 88,
         "normalize_beta": 42, "oracle_fail": 2, "oracle_succ": 19, "succeed": 16},
    ),
}


def _pinned_problems():
    from hounif.terms import Bound

    F = Free(0, II)
    divergent = [(Lam(I, App(F, App(f, Bound(0, I)))), Lam(I, App(f, App(F, Bound(0, I)))))]
    F3, G = Free(0, III), Free(1, I)
    fair = [(mk_app(F3, [G, G]), App(f, G))]
    return {
        "criterion9": (divergent, EngineConfig(), [F]),
        "criterion10": (fair, NO_ORACLES, [F3, G]),
        "pragmatic9": (divergent, EngineConfig(variant="pragmatic"), [F]),
        "pragmatic10": (fair, EngineConfig(variant="pragmatic", oracles=()), [F3, G]),
    }


def test_oracle_phase_resolves_each_side_once(monkeypatch):
    # criterion 9: every oracle abstains on every flex pair, so each phase
    # consults all three; the sides are resolved once for all of them
    calls = {"apply": 0, "phases": 0}
    resolve_sides = TriangularSubst.apply
    first_oracle = oracles.resolve("pattern")

    def counted_apply(subst, t):
        calls["apply"] += 1
        return resolve_sides(subst, t)

    def counted_phase(s, t, supply, fuel):
        calls["phases"] += 1
        return first_oracle(s, t, supply, fuel)

    monkeypatch.setattr(TriangularSubst, "apply", counted_apply)
    monkeypatch.setitem(oracles._REGISTRY, "pattern", counted_phase)
    pairs, cfg, _ = _pinned_problems()["criterion9"]
    st = solve(pairs, cfg)
    assert st.unifiers(max_pulls=60)
    assert calls["phases"] > 0
    assert calls["apply"] == 2 * calls["phases"]


def _occurs_cycle(oracle_names):
    """The state and search of G =?= f G with the given oracles."""
    return prepare([(Free(0, I), App(f, Free(0, I)))], EngineConfig(oracles=oracle_names))


def test_oracle_phase_out_of_fuel_skips_the_oracles(monkeypatch):
    state, search = _occurs_cycle(("fixpoint",))
    assert applicable_rules(state, search) == ["oracle"]
    monkeypatch.setattr(engine, "_FUEL_FACTOR", 0)  # canonicalization runs out
    assert applicable_rules(state, search) == ["bind"]


def test_oracle_out_of_fuel_falls_through_to_the_next(monkeypatch):
    calls = []

    def spent(s, t, supply, fuel):
        calls.append((s, t))
        raise normalize.ReductionBudget

    monkeypatch.setitem(oracles._REGISTRY, "spent", spent)
    state, search = _occurs_cycle(("spent", "fixpoint"))
    rule, _, _ = engine._transition(state, search)
    assert rule == "oracle_fail" and len(calls) == 1  # fixpoint refuted it


def test_oracle_size_cap_skips_the_oracles(monkeypatch):
    state, search = _occurs_cycle(("fixpoint",))
    assert applicable_rules(state, search) == ["oracle"]
    monkeypatch.setattr(engine, "_ORACLE_SIZE_CAP", 1)  # f G has size 2
    assert applicable_rules(state, search) == ["bind"]


def test_image_size_cap_ends_the_stream_in_a_budget_stop(monkeypatch):
    # at the default cap criterion 9 ends at pull 746, on the depth guard
    monkeypatch.setattr(engine, "_MAX_IMAGE_SIZE", 50)
    pairs, cfg, _ = _pinned_problems()["criterion9"]
    st = solve(pairs, cfg)
    got = st.unifiers(max_pulls=10_000)
    assert st.status == "budget" and st.pulls < 746 // 4
    assert got
    for sigma in got:
        assert verify_unifier(pairs, sigma)


def test_image_depth_cap_ends_the_stream_in_a_budget_stop(monkeypatch):
    # each unifier of criterion 9 is one layer deeper than the last, so a
    # cap of 50 levels ends the stream after 49 of them
    monkeypatch.setattr(engine, "_MAX_IMAGE_DEPTH", 50)
    pairs, cfg, _ = _pinned_problems()["criterion9"]
    st = solve(pairs, cfg)
    got = st.unifiers(max_pulls=10_000)
    assert st.status == "budget" and st.pulls < 746 // 4
    assert len(got) == 49
    for sigma in got:
        assert verify_unifier(pairs, sigma)


def test_criterion9_stream_ignores_the_recursion_limit():
    # the depth cap is an engine constant, not a share of the interpreter's
    # recursion limit: the stream ends at the same budget stop either way
    pairs, cfg, problem_vars = _pinned_problems()["criterion9"]
    records = []
    old = sys.getrecursionlimit()
    for limit in (old, 3_000):
        sys.setrecursionlimit(limit)
        try:
            lines, pulls, status, stats = _stream_record(
                pairs, cfg, problem_vars, max_pulls=10_000
            )
        finally:
            sys.setrecursionlimit(old)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        records.append((len(lines), digest, pulls, status, stats))
    assert records[0] == records[1]
    assert records[0][0] == 249 and records[0][2:4] == (746, "budget")


def test_oracles_get_what_the_phase_canonicalization_left(monkeypatch):
    seen = []

    def greedy(s, t, supply, fuel):
        seen.append(fuel.left)
        fuel.left = 0  # spends its whole meter, not the next oracle's
        return oracles.NotApplicable()

    monkeypatch.setitem(oracles._REGISTRY, "greedy", greedy)
    monkeypatch.setitem(oracles._REGISTRY, "also_greedy", greedy)
    state, search = _occurs_cycle(("greedy", "also_greedy"))
    assert applicable_rules(state, search) == ["bind"]
    (c,) = state.constraints
    cost = []
    for side in (c.lhs, c.rhs):
        meter = normalize.Fuel(1_000)
        normalize.canonical(side, meter)
        cost.append(1_000 - meter.left)
    shared = normalize.Fuel(1_000)
    normalize.canonical(c.lhs, shared)
    normalize.canonical(c.rhs, shared)
    assert min(cost) > 0 and shared.left == 1_000 - sum(cost)
    phase = engine._FUEL_FACTOR * engine._ORACLE_SIZE_CAP
    assert seen == [phase - sum(cost)] * 2


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_enumerate_streams_pinned(name):
    """Same unifiers at the same pull numbers, the same transitions and
    the same end as the pinned runs of these streams."""
    pairs, cfg, problem_vars = _pinned_problems()[name]
    lines, got_pulls, got_status, got_stats = _stream_record(pairs, cfg, problem_vars)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    count, want_digest, pulls, status, want_stats = PINNED_STREAMS[name]
    assert (len(lines), digest) == (count, want_digest)
    assert (got_pulls, got_status) == (pulls, status)
    assert got_stats == want_stats


#: streams that end when the step budget runs out, pulled to their end:
#: (problem, max_steps) -> the record `PINNED_STREAMS` keeps
PINNED_BUDGET_STOPS = {
    ("criterion10", 50): (
        2,
        "9773afe4981b3048",
        10,
        "budget",
        {"bind_elimination": 2, "bind_huet_projection": 2, "bind_identification": 2,
         "bind_imitation": 5, "bind_iteration": 2, "bind_jp_projection": 2, "decompose": 4,
         "delete": 2, "dereference": 17, "normalize_beta": 10, "succeed": 2},
    ),
    ("criterion10", 137): (
        5,
        "9fab1c2ffb49b61a",
        25,
        "budget",
        {"bind_elimination": 6, "bind_huet_projection": 2, "bind_identification": 10,
         "bind_imitation": 6, "bind_iteration": 9, "bind_jp_projection": 8, "decompose": 11,
         "delete": 5, "dereference": 47, "normalize_beta": 28, "succeed": 5},
    ),
    ("criterion10", 200): (
        8,
        "2022e9291f1f4512",
        36,
        "budget",
        {"bind_elimination": 9, "bind_huet_projection": 2, "bind_identification": 13,
         "bind_imitation": 7, "bind_iteration": 14, "bind_jp_projection": 13, "decompose": 14,
         "delete": 9, "dereference": 69, "normalize_beta": 42, "succeed": 8},
    ),
    ("criterion9", 200): (
        14,
        "ea284a8402279fe6",
        42,
        "budget",
        {"bind_huet_projection": 15, "bind_imitation": 15, "decompose": 28, "delete": 14,
         "dereference": 57, "normalize_beta": 57, "succeed": 14},
    ),
}


@pytest.mark.parametrize(
    "name, max_steps", sorted(PINNED_BUDGET_STOPS), ids=lambda v: str(v)
)
def test_budget_stop_streams_pinned(name, max_steps):
    """A budget stop between or inside branch points ends the stream at
    the same pull, with the same unifiers and transitions, as pinned."""
    pairs, cfg, problem_vars = _pinned_problems()[name]
    cfg = dataclasses.replace(cfg, max_steps=max_steps)
    lines, got_pulls, got_status, got_stats = _stream_record(
        pairs, cfg, problem_vars, max_pulls=100_000
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    count, want_digest, pulls, status, want_stats = PINNED_BUDGET_STOPS[name, max_steps]
    assert (len(lines), digest) == (count, want_digest)
    assert (got_pulls, got_status) == (pulls, status)
    assert got_stats == want_stats
    assert sum(got_stats.values()) == max_steps


#: 200 seeded termgen problems, each solved under the complete variant,
#: with no oracles and under the pragmatic variant, and pulled to 3
#: unifiers or 60 pulls: the first 16 hex digits of the sha256 of one
#: "trial unifiers status stats pulls" line per run
PINNED_CORPUS_DIGEST = "250b534e3455e5a8"


def test_seeded_corpus_streams_pinned():
    """The unifiers (with the ids of their fresh variables), the end, the
    transitions and the pulls of each run are those of the pinned runs."""
    configs = (EngineConfig(), NO_ORACLES, EngineConfig(variant="pragmatic"))
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for trial in range(200):
        frees = make_frees(rng, 3, 10)
        pairs = [gen_pair(rng, mode="any", frees_l=frees, max_size=7)]
        for cfg in configs:
            st = solve(pairs, cfg)
            got = st.unifiers(limit=3, max_pulls=60)
            line = f"{trial} {got!r} {st.status} {sorted(st.stats.items())} {st.pulls}\n"
            digest.update(line.encode())
    assert digest.hexdigest()[:16] == PINNED_CORPUS_DIGEST


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="pragmatc"):
        EngineConfig(variant="pragmatc")
    assert EngineConfig(variant="pragmatic").variant == "pragmatic"
    # the pragmatic limits: their defaults, and the CLI's spelling
    assert Limits() == EngineConfig().limits == (4, 2, 2, 2, 2)
    assert Limits.parse("1,0,1,1,1") == (1, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="five integers"):
        Limits.parse("4,2,2,2")


def test_budget_status():
    from hounif.terms import Bound

    F = Free(0, II)
    lhs = Lam(I, App(F, App(f, Bound(0, I))))
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    st = solve([(lhs, rhs)], EngineConfig(max_steps=200))
    st.unifiers(max_pulls=100_000)
    assert st.status == "budget"


def test_long_chain_ends_in_budget_stop():
    # criterion 9 pulled to 10^4: the imitation ladder deepens F's image
    # by one layer per unifier until the resolved image outgrows the depth
    # guard; the branch is abandoned and reported, never a RecursionError
    from hounif.terms import Bound

    F = Free(0, II)
    lhs = Lam(I, App(F, App(f, Bound(0, I))))
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    pairs = [(lhs, rhs)]
    st = solve(pairs, EngineConfig())
    keys = set()
    for sigma in st.unifiers(max_pulls=10_000):
        assert verify_unifier(pairs, sigma)
        keys.add(subst_key(sigma, [F]))
    assert st.status == "budget"
    assert len(keys) >= 221


def test_occurs_ladder_without_oracles_ends_in_budget_stop():
    # h X =?= X: each imitation binds X one h deeper, forever
    X = Free(0, I)
    st = solve([(App(h, X), X)], NO_ORACLES)
    assert st.unifiers(max_pulls=100_000) == []
    assert st.status == "budget"


def test_live_state_goes_back_on_the_agenda_after_pacing_steps():
    # one delete per pair: after _PACING of them the state is queued again
    # behind a pacing marker, and solved on its next visit
    st = solve([(a, a)] * (engine._PACING + 1), NO_ORACLES)
    assert list(st) == [None, Substitution()]
    assert st.status == "exhausted"
    assert st.stats == {"delete": engine._PACING + 1, "succeed": 1}


def test_image_overgrown_while_stepping_is_a_budget_stop():
    # G's image is resolved only when dereference reads it; each image is
    # within the depth cap of 250, together they go past it
    G, H = Free(0, I), Free(1, I)
    state, search = prepare([(G, a)], NO_ORACLES)
    subst = state.subst.extend(Substitution(((G, hpow(200, H)),)))
    subst = subst.extend(Substitution(((H, hpow(200, a)),)))
    root = engine.UnifState(state.constraints, subst, state.next_seq)
    st = engine.UnifierStream(engine._explore(root, search), search)
    assert list(st) == [] and st.status == "budget" and st.stats == {}


def test_step_budget_ends_a_branch_after_an_overgrown_child(monkeypatch):
    # F a =?= f a: the imitation's image is too deep for a cap of one
    # level; it is charged and skipped, and no step is left for the
    # projection
    monkeypatch.setattr(engine, "_MAX_IMAGE_DEPTH", 1)
    F = Free(0, II)
    pairs = [(App(F, a), App(f, a))]
    st = solve(pairs, EngineConfig(oracles=(), max_steps=1))
    assert list(st) == [] and st.status == "budget"
    assert st.stats == {"bind_imitation": 1}
    st = solve(pairs, EngineConfig(oracles=(), max_steps=2))
    assert list(st) == [] and st.status == "budget"
    assert st.stats == {"bind_imitation": 1, "bind_huet_projection": 1}


def test_ill_sorted_projection_yields_no_child():
    # F : o -> i has no argument of its result type, so only the
    # imitation of a is tried
    O = Base("o")
    F = Free(0, arrow([O], I))
    st = solve([(App(F, Const("c", O)), a)], NO_ORACLES)
    got = st.unifiers()
    assert st.status == "exhausted" and "bind_huet_projection" not in st.stats
    assert [sigma.image_of(0) for sigma in got] == [Lam(O, a)]


# ------------------------------------------------------------- pragmatic


def test_pragmatic_terminates_on_divergent_problem():
    from hounif.terms import Bound

    F = Free(0, II)
    lhs = Lam(I, App(F, App(f, Bound(0, I))))
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    pairs = [(lhs, rhs)]
    st = solve(pairs, EngineConfig(variant="pragmatic"))
    got = st.unifiers(max_pulls=200_000)
    assert st.status in ("exhausted", "non-unifiable")  # terminated
    for sigma in got:
        assert_verifies(pairs, sigma)
    assert got, "pragmatic variant should still find some unifiers"


def test_pragmatic_zero_limits_flex_flex_collapses():
    # arity-0 variables leave no projection, so zero limits drop every
    # candidate binding and the flex-flex pair collapses onto a shared
    # fresh head
    F, G = Free(0, I), Free(1, I)
    pairs = [(F, G)]
    cfg = EngineConfig(
        variant="pragmatic", oracles=(), limits=Limits.parse("0,0,0,0,0")
    )
    st = solve(pairs, cfg)
    got = st.unifiers(max_pulls=1_000)
    assert len(got) == 1
    assert_verifies(pairs, got[0])
    assert st.status == "exhausted"
    assert st.stats.get("oracle_succ") == 1


def test_pragmatic_zero_limits_projections_stay_available():
    # base-type projections never count against the limits (they shrink
    # the problem), so this flex-rigid pair is still explored and refuted
    # outright rather than cut off
    F = Free(0, II)
    cfg = EngineConfig(
        variant="pragmatic", oracles=(), limits=Limits.parse("0,0,0,0,0")
    )
    st = solve([(App(F, a), App(f, a))], cfg)
    assert st.unifiers(max_pulls=1_000) == []
    assert st.status == "non-unifiable"
    assert st.stats.get("bind_huet_projection", 0) >= 1
    # each binding kind's delta, added to a fresh constraint's tally five
    # times: how many of those tallies stay within the default limits and
    # within zero limits (as the separate tally record gave them)
    F4 = Free(1, arrow([II, I, I, I], I))
    supply = FreshSupply(10)
    kinds = {
        "imitation": (bindings.imitation(F4, g, supply), 2, 0),
        "identification": (bindings.identification(F4, Free(2, II), supply), 2, 0),
        "elimination of 3": (bindings.elimination(F4, (1,), supply), 0, 0),
        "elimination of 1": (bindings.elimination(F4, (1, 2, 3), supply), 2, 0),
        "functional projection": (bindings.huet_projection(F4, 1, supply), 2, 0),
        "base-type projection": (bindings.huet_projection(F4, 2, supply), 5, 5),
        "jp projection": (bindings.jp_projection(F4, 2), 5, 5),
        "iteration": (bindings.iteration(F4, 1, (I,), supply), 4, 0),
    }
    for kind, (binding, within_default, within_zero) in kinds.items():
        delta = engine._binding_delta(binding)
        tallies = list(itertools.accumulate([delta] * 5, Limits.add, initial=engine.NO_BINDINGS))
        assert tallies[0] == (0, 0, 0, 0, 0)
        assert [t.within(Limits()) for t in tallies[1:]] == [
            i < within_default for i in range(5)], kind
        assert [t.within(cfg.limits) for t in tallies[1:]] == [
            i < within_zero for i in range(5)], kind


def test_pragmatic_zero_limits_flex_rigid_gives_up():
    # solvable ({F -> a}), but with every binding dropped the pragmatic
    # variant fails the branch: incompleteness by design
    F = Free(0, I)
    cfg = EngineConfig(
        variant="pragmatic", oracles=(), limits=Limits.parse("0,0,0,0,0")
    )
    st = solve([(F, a)], cfg)
    assert st.unifiers(max_pulls=1_000) == []
    assert st.status == "non-unifiable"
    assert st.stats.get("oracle_fail") == 1


# ------------------------------------------------------------- selection


def test_selection_orders_rigid_pairs_first():
    F = Free(0, II)
    pairs = [
        (App(F, a), App(F, b)),  # flex-flex (same head)
        (App(f, a), App(f, a)),  # rigid-rigid, deletable
    ]
    state, search = prepare(pairs, NO_ORACLES)
    assert engine._transition(state, search)[0] == "delete"  # the rigid pair went first
    assert step(state, search).constraints == state.constraints[:1]


def test_determinism_run_twice():
    rng = random.Random(77)
    frees = make_frees(rng, 3, 10)
    problems = [gen_pair(rng, mode="any", frees_l=frees, max_size=7) for _ in range(10)]
    for pairs in map(lambda p: [p], problems):
        runs = []
        for _ in range(2):
            st = solve(pairs, EngineConfig())
            got = st.unifiers(limit=3, max_pulls=1_500)
            runs.append(
                (
                    [subst_key(s, frees) for s in got],
                    st.status,
                    dict(st.stats),
                    st.pulls,
                )
            )
        assert runs[0] == runs[1]


# ------------------------------------------------------------- soundness


def test_random_problems_sound_and_idempotent():
    rng = random.Random(88)
    for trial in range(150):
        frees = make_frees(rng, 3, 10)
        pairs = [gen_pair(rng, mode="any", frees_l=frees, max_size=7)]
        cfg = EngineConfig() if trial % 2 else NO_ORACLES
        st = solve(pairs, cfg)
        for sigma in st.unifiers(limit=3, max_pulls=800):
            assert verify_unifier(pairs, sigma)
            dom = {v.id for v in sigma.domain()}
            assert all(dom.isdisjoint(free_vars(image)) for _, image in sigma.items())


def _assert_triangular_well_formed(subst):
    """Every entry was unbound when its node was added, with an image free
    of variables bound there; the resolved substitution is idempotent."""
    domain = []
    node = subst
    while node.parent is not None:
        for var_id, (image, *_) in node._images.items():
            domain.append(var_id)
            assert node.parent.image_of(var_id) is None
            assert all(node.parent.image_of(i) is None for i in free_vars(image))
            assert not free_vars(image).keys() & node._images.keys()
        node = node.parent
    resolved = subst.restrict(domain)
    assert len(resolved) == len(domain)
    assert all(set(domain).isdisjoint(free_vars(image)) for _, image in resolved.items())


def test_intermediate_substitutions_idempotent():
    rng = random.Random(89)
    for _ in range(20):
        frees = make_frees(rng, 3, 10)
        pairs = [gen_pair(rng, mode="any", frees_l=frees, max_size=7)]
        state, search = prepare(pairs, EngineConfig())
        todo = [state]
        visited = 0
        while todo and visited < 80:
            st = todo.pop()
            visited += 1
            _assert_triangular_well_formed(st.subst)
            nxt = step(st, search)
            if type(nxt) is UnifState:
                todo.append(nxt)
            elif isinstance(nxt, types.GeneratorType):
                todo.extend(itertools.islice(nxt, 3))


def test_fresh_hygiene():
    """Problem variables keep their identity and sort; invented variables
    never collide with them; one supply serves all branches."""
    rng = random.Random(90)
    for _ in range(30):
        frees = make_frees(rng, 3, 10)
        pairs = [gen_pair(rng, mode="any", frees_l=frees, max_size=7)]
        prob_ids = termgen.problem_ids(pairs)
        if not prob_ids:
            continue
        st = solve(pairs, EngineConfig())
        fresh_types = {}
        for sigma in st.unifiers(limit=4, max_pulls=1_000):
            for var, image in sigma.items():
                assert var.id in prob_ids  # emitted domain is problem-only
                assert var.sort == PLAIN
                for vid, v in free_vars(image).items():
                    if vid in prob_ids:
                        continue
                    assert vid > max(prob_ids)  # fresh ids live above
                    seen = fresh_types.setdefault(vid, v.ty)
                    assert seen == v.ty  # one id, one variable


def test_multiple_goals_conjunction():
    F = Free(0, II)
    pairs = [(App(F, a), App(f, a)), (App(F, b), App(f, b))]
    st = solve(pairs, EngineConfig())
    got = st.unifiers(limit=4, max_pulls=20_000)
    assert got
    for sigma in got:
        assert verify_unifier(pairs, sigma)  # both goals simultaneously
    from hounif.terms import Bound

    wanted = subst_key(
        Substitution(((F, Lam(I, App(f, Bound(0, I)))),)), [F]
    )
    assert wanted in {subst_key(s, [F]) for s in got}


def test_verify_unifier_rejects_wrong_substitution():
    F = Free(0, I)
    assert not verify_unifier([(F, a)], Substitution(((F, b),)))
    assert verify_unifier([(F, a)], Substitution(((F, a),)))


# ------------------------------------------------------------ confirmation


def test_confirm_freezes_to_a_name_no_input_can_write():
    # the query names a constant `frozen_0`, and no instance of `f frozen_0`
    # is `f X`
    ix = parse_index((pathlib.Path(__file__).parent / "data" / "frozen_name.hou").read_text())
    ((mode, query),) = ix.queries
    assert confirm(query, ix.entries[0], mode, max_steps=20_000) is False


def test_confirm_renames_the_entry_apart_from_the_query():
    # a renamed copy whose ids are the entry's, swapped: g (f Y) X against
    # g (f X) Y, each way
    X, Y = Free(5, I), Free(6, I)
    entry = mk_app(g, [App(f, X), Y])
    query = mk_app(g, [App(f, Y), X])
    assert confirm(query, entry, "unif", max_steps=300) is True
    assert confirm(query, entry, "match", max_steps=300) is True
    # g X a and g b X unify only once X is renamed apart; g b X is no
    # instance of g X a
    query, entry = mk_app(g, [X, a]), mk_app(g, [b, X])
    assert confirm(query, entry, "unif", max_steps=300) is True
    assert confirm(query, entry, "match", max_steps=300) is False


def test_confirm_rejects_unequal_types():
    for mode in ("unif", "match"):
        assert confirm(Free(0, I), Free(1, II), mode, max_steps=300) is False
        assert confirm(f, a, mode, max_steps=300) is False


def test_confirm_is_undecided_at_a_budget_stop():
    X = Free(0, I)
    assert confirm(hpow(20, X), hpow(20, a), "unif", max_steps=5) is None
    assert confirm(hpow(20, X), hpow(20, a), "unif", max_steps=300) is True
    assert confirm(hpow(20, X), hpow(20, b), "match", max_steps=300) is True
    assert confirm(hpow(20, a), hpow(20, b), "unif", max_steps=300) is False
