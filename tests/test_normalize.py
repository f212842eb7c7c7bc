"""Normalization against an independent evaluation-based oracle (termgen.nbe)."""

import random

import pytest

import termgen
from termgen import I, II, gen_term, is_beta_normal, make_frees, nbe
from hounif import normalize
from hounif.normalize import (
    beta_normal,
    canonical,
    eta_expand_prefix,
    eta_long,
    hnf,
)
from hounif.terms import (
    App,
    Bound,
    Const,
    Lam,
    lam_depth,
    loose_bound_ids,
    mk_app,
    shift,
    spine,
    strip_lams,
    type_of,
)

a = Const("a", I)
f = Const("f", II)
g = Const("g", termgen.III)


# ------------------------------------------------- obfuscation helpers


def _redex_wrap(rng, t):
    """(\\v. t) u  --  beta-eta-equal to t, not beta-normal."""
    v = gen_term(rng, rng.choice([I, II]), depth=1, mode="ground")
    return App(Lam(type_of(v), shift(t, 1)), v)


def _eta_reduce_once(t):
    """\\x. u x -> u when x does not occur in u, else None."""
    if (
        isinstance(t, Lam)
        and isinstance(t.body, App)
        and t.body.arg == Bound(0, t.binder)
        and 0 not in loose_bound_ids(t.body.fn)
    ):
        return shift(t.body.fn, -1)
    return None


def obfuscate(rng, t):
    """A term beta-eta-equal to t but generally not normal."""
    if isinstance(t, Lam) and rng.random() < 0.6:
        t = Lam(t.binder, obfuscate(rng, t.body))
    elif isinstance(t, App) and rng.random() < 0.6:
        t = App(obfuscate(rng, t.fn), obfuscate(rng, t.arg))
    reduced = _eta_reduce_once(t)
    if reduced is not None and rng.random() < 0.5:
        t = reduced
    if rng.random() < 0.4:
        t = _redex_wrap(rng, t)
    return t


def _head_not_redex(t):
    _, body = strip_lams(t)
    head, _ = spine(body)
    return not isinstance(head, Lam)


# ------------------------------------------------------------ properties


def test_hnf_beta_eta_equal_and_head_exposed():
    """On 10^4 random well-typed terms: hnf(t) is beta-eta-equal to t and
    its head is not a redex."""
    rng = random.Random(11)
    frees = make_frees(rng, 4, 100)
    for k in range(10_000):
        ty = termgen.rand_type(rng)
        t = gen_term(rng, ty, depth=rng.randint(0, 3), mode="any", frees=frees)
        if k % 2:
            t = obfuscate(rng, t)
        h = hnf(t)
        assert _head_not_redex(h)
        assert type_of(h) == ty
        assert nbe(h, ty) == nbe(t, ty)


def test_hnf_leaves_arguments_untouched():
    inner = App(Lam(I, Bound(0, I)), a)  # a redex, as an argument
    t = App(f, inner)
    assert hnf(t) == t  # head already exposed; argument left unreduced
    assert not is_beta_normal(t)


def test_hnf_does_not_count_as_full_pass(monkeypatch):
    rng = random.Random(3)
    t = obfuscate(rng, gen_term(rng, II, depth=3))
    calls = []
    full = normalize.hereditary
    monkeypatch.setattr(normalize, "hereditary", lambda u, *rest: calls.append(u) or full(u, *rest))
    for _ in range(50):
        hnf(t)
    assert calls == []
    beta_normal(t)
    assert calls


def test_hnf_contracts_a_redex_with_a_deep_body():
    # the redex's body is far deeper than the recursion limit allows a
    # recursive walk to go
    h = Const("h", II)
    body, expected = Bound(0, I), a
    for _ in range(3_000):
        body, expected = App(h, body), App(h, expected)
    assert hnf(App(Lam(I, body), a)) == expected


def test_canonical_matches_independent_normalizer():
    rng = random.Random(12)
    frees = make_frees(rng, 4, 100)
    for _ in range(2_000):
        ty = termgen.rand_type(rng)
        t = obfuscate(rng, gen_term(rng, ty, depth=rng.randint(0, 3), frees=frees))
        c = canonical(t)
        assert c == nbe(t, ty)
        assert canonical(c) == c  # idempotent


def test_eta_long_golden():
    # f  ==>  \x. f x
    assert eta_long(f) == Lam(I, App(f, Bound(0, I)))
    # g a  ==>  \x. g a x
    assert eta_long(App(g, a)) == Lam(I, mk_app(g, [a, Bound(0, I)]))
    # \x. h (g (f x))  ==>  \x. h (\y. g (f x) y): x is renumbered under y
    h = Const("h", termgen.arrow([II], I))
    t = Lam(I, App(h, App(g, App(f, Bound(0, I)))))
    want = Lam(I, App(h, Lam(I, mk_app(g, [App(f, Bound(1, I)), Bound(0, I)]))))
    assert eta_long(t) == want
    # \x. (\y. g y) x is not beta-normal: that spine is normalized first,
    # so its loose x is renumbered under the added binder
    t = Lam(I, App(Lam(I, App(g, Bound(0, I))), Bound(0, I)))
    assert eta_long(t) == canonical(t) == Lam(I, Lam(I, mk_app(g, [Bound(1, I), Bound(0, I)])))


def test_eta_expand_prefix():
    rng = random.Random(14)
    for _ in range(200):
        ty = rng.choice([II, termgen.III, termgen.arrow([II], I)])
        t = gen_term(rng, ty, depth=2)
        have = lam_depth(t)
        # strip some binders back off to get a shorter prefix
        for target in range(have + 1):
            partial = eta_expand_prefix(t, target)
            assert lam_depth(partial) >= target
            assert canonical(partial) == t
    s = f  # no binders at all
    e = eta_expand_prefix(s, 1)
    assert lam_depth(e) == 1 and canonical(e) == canonical(f)


# ------------------------------------------------------------------ fuel


def _church(n, ty):
    """The Church numeral n at type (ty -> ty) -> ty -> ty."""
    body = Bound(0, ty)
    for _ in range(n):
        body = App(Bound(1, termgen.arrow([ty], ty)), body)
    return Lam(termgen.arrow([ty], ty), Lam(ty, body))


def test_church_blow_up_runs_out_of_small_fuel():
    # 3 applied to 4 (as numerals over i -> i and i) is 4^3 = 64: a term
    # of 20 nodes whose normal form applies f 64 times
    t = mk_app(_church(3, II), [_church(4, I), f, a])
    with pytest.raises(normalize.ReductionBudget):
        beta_normal(t, normalize.Fuel(50))
    meter = normalize.Fuel(50)
    with pytest.raises(normalize.ReductionBudget):
        canonical(t, meter)
    assert meter.left < 0
    assert beta_normal(t) == beta_normal(t, normalize.Fuel()) == nbe(t, I)


def test_beta_normal_of_deep_term_at_default_recursion_limit():
    # (\y. f^5000 ((\x. g x y) a)) b: a redex at the head and one at the bottom
    depth = 5000
    t = App(Lam(I, mk_app(g, [Bound(0, I), Bound(1, I)])), a)
    want = mk_app(g, [a, Const("b", I)])
    for _ in range(depth):
        t, want = App(f, t), App(f, want)
    t = App(Lam(I, t), Const("b", I))
    assert beta_normal(t) == want



def test_eta_long_of_deep_term_at_default_recursion_limit():
    # f^3000 (h g) with h : (i -> i -> i) -> i: g is expanded under 3000
    # levels.  Each level is typed as it is built, so the recursive first
    # visit of type_of stays shallow and only eta_long's own depth counts.
    h = Const("h", termgen.arrow([termgen.III], I))
    deep = App(h, g)
    want = App(h, Lam(I, Lam(I, mk_app(g, [Bound(1, I), Bound(0, I)]))))
    for _ in range(3000):
        deep, want = App(f, deep), App(f, want)
        type_of(deep), type_of(want)
    assert eta_long(deep) == want
    assert eta_long(want) is want  # already eta-long: the same object
