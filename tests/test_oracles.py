"""Oracles: fixpoint and pattern goldens, the solid worked example, and
honesty (NotApplicable) on inputs just outside each fragment."""

import collections
import hashlib
import random

import pytest

from termgen import (
    I,
    II,
    III,
    assert_verifies,
    gen_pair,
    make_frees,
    subst_key,
)
from hounif.engine import EngineConfig, consult, solve
from hounif.oracles import (
    NotApplicable,
    NotUnifiable,
    Success,
    binders_in_order,
    eta_bound_index,
    fixpoint,
    pattern,
)
from hounif.oracles.pattern import is_pattern, unify_patterns
from hounif.oracles import solid as solid_mod
from hounif.oracles.solid import is_linear, is_solid
from hounif.normalize import Fuel, canonical
from hounif.subst import FreshSupply, Substitution
from hounif.terms import (
    App,
    Bound,
    Const,
    Free,
    Lam,
    arrow,
    mk_app,
    mk_lams,
    spine,
    strip_lams,
)

a = Const("a", I)
b = Const("b", I)
f = Const("f", II)
g = Const("g", III)
q = Const("q", arrow([II], I))


def ctx(subst=Substitution(), start=1_000) -> tuple[Substitution, FreshSupply]:
    return subst, FreshSupply(start)


def _as_the_engine_calls(oracle):
    """The oracle alone, called on a constraint through the engine's
    oracle phase under the context's substitution."""

    def call(lhs, rhs, context):
        subst, supply = context
        return consult(lhs, rhs, subst, supply, [(oracle.__name__, oracle)])

    return call


fixpoint_oracle = _as_the_engine_calls(fixpoint.fixpoint_oracle)
pattern_oracle = _as_the_engine_calls(pattern.pattern_oracle)
solid_oracle = _as_the_engine_calls(solid_mod.solid_oracle)


# -------------------------------------------------------------- fixpoint


def test_fixpoint_occurs_in_rigid_context_not_unifiable():
    G = Free(0, I)
    assert isinstance(fixpoint_oracle(G, App(f, G), ctx()), NotUnifiable)
    # symmetric: the bare variable may be on either side
    assert isinstance(fixpoint_oracle(App(f, G), G, ctx()), NotUnifiable)
    # deeper rigid prefix
    assert isinstance(
        fixpoint_oracle(G, App(f, mk_app(g, [a, G])), ctx()), NotUnifiable
    )


def test_fixpoint_mgu_when_variable_absent():
    F = Free(0, I)
    v = fixpoint_oracle(F, App(f, a), ctx())
    assert isinstance(v, Success) and len(v.csu) == 1
    assert v.csu[0].image_of(F.id) == App(f, a)
    assert_verifies([(F, App(f, a))], v.csu[0])

    F2 = Free(1, II)
    rhs = Lam(I, App(f, Bound(0, I)))
    v = fixpoint_oracle(F2, rhs, ctx())
    assert isinstance(v, Success)
    assert v.csu[0].image_of(F2.id) == rhs

    # two bare variables: bind one to the other
    G = Free(2, I)
    v = fixpoint_oracle(F, G, ctx())
    assert isinstance(v, Success)
    assert_verifies([(F, G)], v.csu[0])


def test_fixpoint_equal_sides_give_empty_unifier():
    F2 = Free(0, II)
    eta = Lam(I, App(F2, Bound(0, I)))  # the eta-expansion of bare F2
    v = fixpoint_oracle(F2, eta, ctx())
    assert isinstance(v, Success) and len(v.csu) == 1 and len(v.csu[0]) == 0


def test_fixpoint_lambda_side_with_applied_occurrence_undecided():
    # F =?= \x. f (F x): the occurrence has arguments and the other side
    # is an abstraction, so the refutation argument does not apply
    F = Free(0, II)
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    assert isinstance(fixpoint_oracle(F, rhs, ctx()), NotApplicable)


def test_fixpoint_flex_guarded_occurrence_undecided():
    # X =?= f (G X): the occurrence sits below the flexible head G
    X = Free(0, I)
    G = Free(1, II)
    rhs = App(f, App(G, X))
    assert isinstance(fixpoint_oracle(X, rhs, ctx()), NotApplicable)


def test_fixpoint_occurrence_under_binder_undecided():
    # X =?= q (\y. X): the lambda directly above the occurrence is a
    # non-rigid prefix position
    X = Free(0, I)
    rhs = App(q, Lam(I, X))
    assert isinstance(fixpoint_oracle(X, rhs, ctx()), NotApplicable)


def test_fixpoint_applies_current_substitution():
    F, G = Free(0, I), Free(1, II)
    rho = Substitution(((G, Lam(I, App(f, Bound(0, I)))),))
    v = fixpoint_oracle(F, App(G, b), ctx(subst=rho))
    assert isinstance(v, Success)
    assert v.csu[0].image_of(F.id) == App(f, b)


def test_fixpoint_applied_variable_side_undecided():
    # F a is not a bare variable, so the oracle has no opinion
    F = Free(0, II)
    assert isinstance(fixpoint_oracle(App(F, a), App(f, a), ctx()), NotApplicable)


# --------------------------------------------------------------- pattern


def test_pattern_swapped_arguments_golden():
    F, G = Free(0, III), Free(1, III)
    lhs = mk_lams([I, I], mk_app(F, [Bound(1, I), Bound(0, I)]))
    rhs = mk_lams([I, I], mk_app(G, [Bound(0, I), Bound(1, I)]))
    v = pattern_oracle(lhs, rhs, ctx())
    assert isinstance(v, Success) and len(v.csu) == 1  # unitary fragment
    sigma = v.csu[0]
    assert_verifies([(lhs, rhs)], sigma)

    Z = Free(500, III)
    expected = Substitution(
        (
            (F, mk_lams([I, I], mk_app(Z, [Bound(1, I), Bound(0, I)]))),
            (G, mk_lams([I, I], mk_app(Z, [Bound(0, I), Bound(1, I)]))),
        )
    )
    assert subst_key(sigma, [F, G]) == subst_key(expected, [F, G])


def test_pattern_same_head_keeps_agreeing_positions():
    F = Free(0, III)
    lhs = mk_lams([I, I], mk_app(F, [Bound(1, I), Bound(0, I)]))
    rhs = mk_lams([I, I], mk_app(F, [Bound(0, I), Bound(1, I)]))
    v = pattern_oracle(lhs, rhs, ctx())
    assert isinstance(v, Success)
    sigma = v.csu[0]
    assert_verifies([(lhs, rhs)], sigma)
    # no position agrees, so the image ignores both arguments
    Z = Free(500, I)
    expected = Substitution(((F, mk_lams([I, I], Z)),))
    assert subst_key(sigma, [F]) == subst_key(expected, [F])


def test_pattern_occurs_check_not_unifiable():
    F = Free(0, II)
    lhs = Lam(I, App(F, Bound(0, I)))
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    assert isinstance(pattern_oracle(lhs, rhs, ctx()), NotUnifiable)


def test_pattern_pruning_golden():
    # \x y. F x =?= \x y. g (G y) x: G's argument y is not available to
    # F, so G is first pruned to a constant image
    F, G = Free(0, II), Free(1, II)
    lhs = mk_lams([I, I], App(F, Bound(1, I)))
    rhs = mk_lams([I, I], mk_app(g, [App(G, Bound(0, I)), Bound(1, I)]))
    v = pattern_oracle(lhs, rhs, ctx())
    assert isinstance(v, Success)
    sigma = v.csu[0]
    assert_verifies([(lhs, rhs)], sigma)
    H = Free(600, I)
    expected = Substitution(
        (
            (F, Lam(I, mk_app(g, [H, Bound(0, I)]))),
            (G, Lam(I, H)),
        )
    )
    assert subst_key(sigma, [F, G]) == subst_key(expected, [F, G])


def test_pattern_not_applicable_outside_fragment():
    F = Free(0, II)
    # constant argument
    assert isinstance(pattern_oracle(App(F, a), App(f, a), ctx()), NotApplicable)
    # repeated bound-variable arguments
    F2 = Free(1, III)
    lhs = Lam(I, mk_app(F2, [Bound(0, I), Bound(0, I)]))
    rhs = Lam(I, App(f, Bound(0, I)))
    assert isinstance(pattern_oracle(lhs, rhs, ctx()), NotApplicable)
    # type mismatch between the raw sides
    assert isinstance(pattern_oracle(Free(2, I), f, ctx()), NotApplicable)


def test_pattern_unify_patterns_on_several_pairs():
    F, G = Free(0, II), Free(1, II)
    pairs = [
        (Lam(I, App(F, Bound(0, I))), Lam(I, App(f, App(G, Bound(0, I))))),
        (Lam(I, App(G, Bound(0, I))), Lam(I, b)),
    ]
    sigma = unify_patterns(pairs, FreshSupply(1_000))
    assert sigma is not None
    assert canonical(sigma.image_of(F.id)) == Lam(I, App(f, b))
    assert canonical(sigma.image_of(G.id)) == Lam(I, b)


def test_pattern_random_agreement_with_engine():
    rng = random.Random(4242)
    successes = refutations = 0
    for _ in range(60):
        frees = make_frees(rng, 3, start=0)
        s, t = gen_pair(rng, mode="pattern", frees_l=frees, max_size=7)
        if not (is_pattern(s) and is_pattern(t)):
            continue
        v = pattern_oracle(s, t, ctx())
        st = solve([(s, t)], EngineConfig(oracles=()))
        found = st.unifiers(limit=1, max_pulls=3_000)
        if isinstance(v, Success):
            successes += 1
            assert len(v.csu) == 1
            assert_verifies([(s, t)], v.csu[0])
        elif isinstance(v, NotUnifiable):
            refutations += 1
            assert not found, f"engine solved {s!r} =?= {t!r}"
        else:
            pytest.fail(f"pattern oracle undecided on a pattern pair: {s!r} {t!r}")
        if found:
            assert isinstance(v, Success)
    assert successes and refutations  # the sample exercises both verdicts


# ----------------------------------------------------------------- solid


def test_solid_and_linear_predicates():
    X = Free(0, I)
    F = Free(1, II)
    assert is_solid(App(f, a))
    assert is_solid(canonical(App(F, App(f, a))))  # ground base argument
    assert is_solid(Lam(I, App(F, App(f, Bound(0, I)))))  # bound inside arg
    assert not is_solid(App(F, X))  # free variable as argument
    Y = Free(2, arrow([II, I], I))
    assert not is_solid(mk_app(Y, [Lam(I, Bound(0, I)), a]))  # lambda argument
    assert is_linear(mk_app(g, [App(F, a), X]))
    assert not is_linear(mk_app(g, [App(F, a), App(F, b)]))


def test_solid_worked_example_single_mgu():
    # F (f a) =?= g a (G a) has the most general unifier
    #   F -> \x. g a (Z x x a),  G -> \x. Z (f a) (f x) x
    F, G = Free(0, II), Free(1, II)
    lhs = App(F, App(f, a))
    rhs = mk_app(g, [a, App(G, a)])
    v = solid_oracle(lhs, rhs, ctx())
    assert isinstance(v, Success) and len(v.csu) == 1
    sigma = v.csu[0]
    assert_verifies([(lhs, rhs)], sigma)

    Z = Free(700, arrow([I, I, I], I))
    x = Bound(0, I)
    expected = Substitution(
        (
            (F, Lam(I, mk_app(g, [a, mk_app(Z, [x, x, a])]))),
            (G, Lam(I, mk_app(Z, [App(f, a), App(f, x), x]))),
        )
    )
    assert subst_key(sigma, [F, G]) == subst_key(expected, [F, G])


def test_solid_matching_enumerates_both_matchers():
    # F (f a) =?= f a has exactly the imitation and projection matchers
    F = Free(0, II)
    lhs = App(F, App(f, a))
    rhs = App(f, a)
    v = solid_oracle(lhs, rhs, ctx())
    assert isinstance(v, Success)
    keys = {subst_key(s, [F]) for s in v.csu}
    imit = Substitution(((F, Lam(I, App(f, a))),))
    proj = Substitution(((F, Lam(I, Bound(0, I))),))
    assert keys == {subst_key(imit, [F]), subst_key(proj, [F])}
    for s in v.csu:
        assert_verifies([(lhs, rhs)], s)


def test_solid_same_head_shared_variable_mgu():
    # the sides share only their head F, so F keeps the arguments where
    # they agree: F -> \x y. Z y.  No argument is a bound variable and no
    # side a variable, so pattern and fixpoint abstain and the engine
    # takes the unifier in one oracle step
    F = Free(0, III)
    Z = Free(800, II)
    expected = subst_key(Substitution(((F, mk_lams([I, I], App(Z, Bound(0, I)))),)), [F])
    for lhs, rhs in [
        (mk_app(F, [a, b]), mk_app(F, [b, b])),
        (mk_app(F, [a, App(f, a)]), mk_app(F, [b, App(f, a)])),
    ]:
        assert isinstance(pattern_oracle(lhs, rhs, ctx()), NotApplicable)
        assert isinstance(fixpoint_oracle(lhs, rhs, ctx()), NotApplicable)
        v = solid_oracle(lhs, rhs, ctx())
        assert isinstance(v, Success) and len(v.csu) == 1
        sigma = v.csu[0]
        assert_verifies([(lhs, rhs)], sigma)
        assert subst_key(sigma, [F]) == expected

        stream = solve([(lhs, rhs)], EngineConfig())
        assert [subst_key(s, [F]) for s in stream.unifiers()] == [expected]
        assert stream.status == "exhausted"
        assert list(stream.stats.items()) == [("oracle_succ", 1), ("succeed", 1)]


def test_solid_not_applicable_on_shared_variable_divergence():
    # \x. F (f x) =?= \x. f (F x): both sides mention F, no special case
    F = Free(0, II)
    lhs = Lam(I, App(F, App(f, Bound(0, I))))
    rhs = Lam(I, App(f, App(F, Bound(0, I))))
    assert isinstance(solid_oracle(lhs, rhs, ctx()), NotApplicable)


def test_solid_not_applicable_when_neither_side_linear():
    # \x. k (F (f x)) F =?= \x. k (f (G x)) G: variable-disjoint but both
    # sides repeat their variable
    k = Const("k", arrow([I, II], I))
    F, G = Free(0, II), Free(1, II)
    lhs = Lam(I, mk_app(k, [App(F, App(f, Bound(0, I))), F]))
    rhs = Lam(I, mk_app(k, [App(f, App(G, Bound(0, I))), G]))
    assert isinstance(solid_oracle(lhs, rhs, ctx()), NotApplicable)


def test_solid_not_applicable_outside_fragment():
    F, G, X = Free(0, II), Free(1, II), Free(2, I)
    # free variable as argument
    assert isinstance(solid_oracle(App(F, X), App(G, a), ctx()), NotApplicable)
    # lambda as argument of a free variable
    Y = Free(3, arrow([II, I], I))
    lhs = Lam(I, mk_app(Y, [Lam(I, Bound(0, I)), Bound(0, I)]))
    rhs = Lam(I, Bound(0, I))
    assert isinstance(solid_oracle(lhs, rhs, ctx()), NotApplicable)


def test_solid_transition_cap_withdraws(monkeypatch):
    monkeypatch.setattr(solid_mod, "_CAP", 3)
    F, G = Free(0, II), Free(1, II)
    lhs = App(F, App(f, a))
    rhs = mk_app(g, [a, App(G, a)])
    assert isinstance(solid_oracle(lhs, rhs, ctx()), NotApplicable)


def test_solid_random_csu_elements_verify():
    rng = random.Random(2026)
    successes = 0
    for trial in range(120):
        left = make_frees(rng, 2, start=100)
        right = make_frees(rng, 2, start=200)
        s, t = gen_pair(rng, mode="solid", frees_l=left, frees_r=right, max_size=7)
        if not (is_solid(s) and is_solid(t)):
            continue
        v = solid_oracle(s, t, ctx())
        if not isinstance(v, Success):
            continue
        successes += 1
        allowed = {F.id for F in left + right}
        for sigma in v.csu:
            assert_verifies([(s, t)], sigma)
            assert {F.id for F in sigma.domain()} <= allowed
    assert successes >= 20


def test_solid_flex_flex_mgu_exact():
    # F a =?= G b: each argument is matched against a fresh variable
    # applied to the other side's arguments (?3 and ?4), and both images
    # run through one fresh head ?5
    F, G = Free(1, II), Free(2, II)
    Z = Free(5, III)
    v = solid_oracle(App(F, a), App(G, b), ctx(start=3))
    expected = Substitution(
        (
            (F, Lam(I, mk_app(Z, [Bound(0, I), b]))),
            (G, Lam(I, mk_app(Z, [a, Bound(0, I)]))),
        )
    )
    assert v == Success((expected,))


def test_solid_flex_flex_mgu_functional_argument_exact():
    # \y:i>i. F y =?= \y. G y: the matched argument y is functional, so
    # its matcher side is eta-expanded before the matching run; each
    # image passes the eta-long y twice to the fresh head ?5
    T = arrow([II], I)
    F, G = Free(1, T), Free(2, T)
    Z = Free(5, arrow([II, II], I))
    y = Lam(I, App(Bound(1, II), Bound(0, I)))
    v = solid_oracle(Lam(II, App(F, Bound(0, II))), Lam(II, App(G, Bound(0, II))), ctx(start=3))
    image = Lam(II, mk_app(Z, [y, y]))
    assert v == Success((Substitution(((F, image), (G, image))),))


def test_solid_flex_flex_mgu_second_order_argument_exact():
    # \y:(i>i)>i. F y =?= \y. G y a: y's matcher side H y a is
    # eta-expanded to \z:i>i. H y a z, whose extra projection onto z draws
    # a helper for z's argument; so the fresh head is ?12, not ?11
    Y = arrow([II], I)
    F, G = Free(1, arrow([Y], I)), Free(2, arrow([Y, I], I))
    Z = Free(12, arrow([Y, Y, I], I))

    def y(depth):  # the eta-long y under `depth` binders
        return Lam(II, App(Bound(depth, Y), Lam(I, App(Bound(1, II), Bound(0, I)))))

    v = solid_oracle(Lam(Y, App(F, Bound(0, Y))), Lam(Y, mk_app(G, [Bound(0, Y), a])), ctx(start=3))
    f_image = Lam(Y, mk_app(Z, [y(1), y(1), a]))
    g_image = mk_lams([Y, I], mk_app(Z, [y(2), y(2), Bound(0, I)]))
    assert v == Success((Substitution(((F, f_image), (G, g_image))),))


#: 300 seeded solid pairs (a third of them sharing their variables), each
#: through the engine's oracle phase with the solid oracle alone: the
#: first 16 hex digits of the sha256 of one "trial verdict" line per pair,
#: fresh variable ids included, and the count of each verdict
PINNED_SOLID_DIGEST = "48b8f41901deddab"
PINNED_SOLID_VERDICTS = {
    ("NotApplicable", 0): 4,
    ("NotUnifiable", 0): 149,
    ("Success", 1): 132,
    ("Success", 2): 13,
    ("Success", 3): 2,
}


def test_solid_oracle_csus_pinned():
    rng = random.Random(2611)
    digest = hashlib.sha256()
    verdicts = collections.Counter()
    for trial in range(300):
        left = make_frees(rng, 4, start=100)
        right = left if trial % 3 == 0 else make_frees(rng, 4, start=200)
        s, t = gen_pair(rng, mode="solid", frees_l=left, frees_r=right, max_size=8)
        v = solid_oracle(s, t, ctx())
        digest.update(f"{trial} {v!r}\n".encode())
        verdicts[type(v).__name__, len(v.csu) if isinstance(v, Success) else 0] += 1
    assert (digest.hexdigest()[:16], dict(verdicts)) == (PINNED_SOLID_DIGEST, PINNED_SOLID_VERDICTS)


# ------------------------------------------------------------ shared bits


def test_eta_bound_index_recognizes_eta_forms():
    assert eta_bound_index(Bound(3, I)) == 3
    # \y. x y (x functional, directly outside the binder)
    arg = Lam(I, mk_app(Bound(1, II), [Bound(0, I)]))
    assert eta_bound_index(arg) == 0
    assert eta_bound_index(App(f, Bound(0, I))) is None
    assert eta_bound_index(Lam(I, mk_app(Bound(1, III), [Bound(0, I), a]))) is None


def _tower(k, t):
    """f^k t."""
    for _ in range(k):
        t = App(f, t)
    return t


def test_deep_flex_rigid_pairs_end_with_a_status():
    # the oracles walk the rigid side with explicit stacks, so a side far
    # deeper than the recursion limit allows gets a verdict
    F, H = Free(0, I), Free(1, II)
    deep = _tower(600, a)
    (sigma,) = pattern.pattern_oracle(F, deep, FreshSupply(10), Fuel()).csu
    assert sigma.image_of(0) == deep
    occurs = _tower(1_200, App(H, F))
    assert fixpoint.fixpoint_oracle(F, occurs, FreshSupply(10), Fuel()) == NotApplicable()
    assert is_linear(occurs) and not is_linear(App(App(g, occurs), F))
    # F's answer is deeper than the engine's image depth cap, with the
    # oracles or without them
    for cfg in (EngineConfig(), EngineConfig(oracles=())):
        st = solve([(F, deep)], cfg)
        assert st.unifiers(max_pulls=10_000) == [] and st.status == "budget"
    st = solve([(F, occurs)], EngineConfig(oracles=("fixpoint",), max_steps=50))
    assert st.unifiers(max_pulls=10_000) == [] and st.status == "budget"


@pytest.mark.parametrize("k", [1_000, 3_000])
def test_flex_flex_pair_of_high_order_ends_in_a_budget_stop(k):
    # F, G : tau_k, where tau_0 = i and tau_k = tau_(k-1) -> i.  The
    # eta-long binders nest one level per order, and the oracles read them
    # from an explicit stack; the MGU's image is higher than the engine's
    # image depth cap, so the stream stops with a status
    ty = I
    for _ in range(k):
        ty = arrow([ty], I)
    tys, body = strip_lams(canonical(Free(0, ty)))
    assert binders_in_order(spine(body)[1], len(tys))
    st = solve([(Free(0, ty), Free(1, ty))])
    assert st.unifiers(limit=1) == [] and st.status == "budget"
