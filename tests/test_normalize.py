"""Normalization against an independent evaluation-based oracle (termgen.nbe)."""

import random

import pytest

import termgen
from termgen import I, II, gen_term, is_beta_normal, make_frees, nbe, size
from hounif import bindings, normalize
from hounif.normalize import (
    Fuel,
    ReductionBudget,
    beta_normal,
    canonical,
    eta_expand_prefix,
    eta_long,
    hereditary,
    hnf,
)
from hounif.subst import FreshSupply, Substitution
from hounif.terms import (
    App,
    Bound,
    Const,
    Free,
    Lam,
    instantiate,
    lam_depth,
    loose_bound_ids,
    mk_app,
    mk_lams,
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


def _hnf_stepwise(t):
    """hnf contracting one argument at a time, as a reference."""
    tys, body = strip_lams(t)
    while True:
        head, args = spine(body)
        if isinstance(head, Lam) and args:
            body = mk_app(instantiate(head.body, args[0]), args[1:])
        elif isinstance(body, Lam):
            tys.append(body.binder)
            body = body.body
        else:
            return mk_lams(tys, body)


def test_hnf_contracting_all_arguments_at_once_is_stepwise_hnf():
    rng = random.Random(12)
    frees = make_frees(rng, 3, 100)
    seen = 0
    for k in range(2_000):
        ty = termgen.rand_type(rng)
        fn = gen_term(rng, ty, depth=rng.randint(1, 3), frees=frees)
        doms = termgen.arg_types(ty)
        args = [gen_term(rng, d, depth=1, frees=frees) for d in doms]
        t = mk_app(fn, args[: rng.randint(0, len(args))])
        if k % 2:  # under a binder that the arguments mention
            t = Lam(I, mk_app(shift(fn, 1), [App(f, Bound(0, I)) if d == I else shift(x, 1)
                                             for d, x in zip(doms, args)]))
        t = obfuscate(rng, t) if k % 3 == 0 else t
        seen += lam_depth(spine(strip_lams(t)[1])[0]) > 1
        assert hnf(t) == _hnf_stepwise(t)
    assert seen > 200  # redexes of several binders were contracted at once


def test_instantiate_several_is_instantiate_one_at_a_time():
    body = mk_app(g, [Bound(2, I), mk_app(g, [Bound(0, I), Bound(1, I)])])
    x, y = App(f, Bound(0, I)), a  # x mentions a binder outside the redex
    at_once = instantiate(body, x, y)
    assert at_once == instantiate(instantiate(Lam(I, body), x).body, y)
    assert at_once == mk_app(g, [Bound(0, I), mk_app(g, [y, x])])


def _measures(t):
    """(size, height, loose bound) of t by an independent recursive walk:
    App and Lam nodes add 1 to the height, and loose bound is one more
    than the largest loose index (0 when t is closed)."""
    if isinstance(t, App):
        (sf, hf, _), (sa, ha, _) = _measures(t.fn), _measures(t.arg)
        return sf + sa, 1 + max(hf, ha), 1 + max(loose_bound_ids(t), default=-1)
    if isinstance(t, Lam):
        sb, hb, _ = _measures(t.body)
        return 1 + sb, 1 + hb, 1 + max(loose_bound_ids(t), default=-1)
    return 1, 0, t.index + 1 if isinstance(t, Bound) else 0


def _value(image):
    return hereditary(image, {}, Fuel())


def test_hereditary_values_and_fuel_on_seeded_terms():
    """On seeded terms (redexes among them) and seeded images, binding
    images included: the term is beta_normal of the plain substitution,
    the measures are those of an independent walk, and the pass runs on
    exactly the fuel it spends."""
    rng = random.Random(31)
    frees = make_frees(rng, 4, 100)
    other = make_frees(rng, 2, 200)
    supply = FreshSupply(1_000)
    for trial in range(400):
        images = {}
        for F in frees:
            pick = rng.random()
            if pick < 0.3:
                images[F.id] = _value(gen_term(rng, F.ty, depth=2, frees=other))
            elif pick < 0.6 and termgen.result_type(F.ty) == I:
                c = rng.choice([c for c in termgen.CONSTS if termgen.result_type(c.ty) == I])
                ((_, image),) = bindings.imitation(F, c, supply).entries
                images[F.id] = _value(image)
        t = gen_term(rng, termgen.rand_type(rng), depth=3, frees=frees + other)
        if trial % 2:
            t = obfuscate(rng, t)
        meter = Fuel(10**9)
        term, *measures = hereditary(t, images, meter)
        spent = 10**9 - meter.left
        sigma = Substitution([(F, images[F.id][0]) for F in frees if F.id in images])
        assert term == beta_normal(sigma.apply(t))
        assert tuple(measures) == _measures(term)
        assert measures[0] == size(term)
        exact = Fuel(spent)
        assert hereditary(t, images, exact) == (term, *measures) and exact.left == 0
        with pytest.raises(ReductionBudget):
            hereditary(t, images, Fuel(spent - 1))


# ---------------------------------------------------------------- chains

_H = Free(40, II)  # substituted at the bottom of a chain
_G = Free(41, II)  # never substituted: a neutral head
_h = Const("h", termgen.arrow([II], I))


def _chain(heads, n, bottom):
    """heads[0] (heads[1] (... bottom)): n one-argument spines whose
    heads cycle through `heads`."""
    for i in range(n - 1, -1, -1):
        bottom = App(heads[i % len(heads)], bottom)
    return bottom


def _bottoms():
    """(name, the bottom over x, H's image or None, the bottom's
    beta-normal form after the substitution, over x), for a bound x : i."""
    supply = FreshSupply(1_000)
    ((_, imitation),) = bindings.imitation(_H, f, supply).entries  # \z. f (H1 z)
    ((_, projection),) = bindings.jp_projection(_H, 1).entries  # \z. z
    ((_, elimination),) = bindings.elimination(_H, (), supply).entries  # \z. E
    H1, E = imitation.body.arg.fn, elimination.body

    def lam(x):  # h (\z. g z x)
        return App(_h, Lam(I, mk_app(g, [Bound(0, I), Bound(x.index + 1, I)])))

    return [
        ("leaf", lambda x: x, None, lambda x: x),
        ("lam", lam, None, lam),
        ("imitation", lambda x: App(_H, x), imitation, lambda x: App(f, App(H1, x))),
        ("projection", lambda x: App(_H, x), projection, lambda x: x),
        ("elimination", lambda x: App(_H, x), elimination, lambda x: E),
    ]


def _chain_cases(n, bottom, want):
    """name -> (t, t's expected value) for chains of n spines over
    `bottom`, whose value is `want`."""
    x0, x1 = Bound(0, I), Bound(1, I)
    y1, y2 = Bound(1, II), Bound(2, II)

    def t(heads, x):
        return _chain(heads, n, bottom(x))

    def w(heads, x):
        return _chain(heads, n, want(x))

    return {
        "const": (Lam(I, t([f], x0)), Lam(I, w([f], x0))),
        "free": (Lam(I, t([_G], x0)), Lam(I, w([_G], x0))),
        "inner": (Lam(II, Lam(I, t([y1], x0))), Lam(II, Lam(I, w([y1], x0)))),
        "loose": (Lam(I, t([y1], x0)), Lam(I, w([y1], x0))),
        "mixed": (Lam(II, Lam(I, t([f, _G, y1, y2], x0))), Lam(II, Lam(I, w([f, _G, y1, y2], x0)))),
        # the redex's binder goes, so the loose head drops from #2 to #1
        "contracted": (App(Lam(I, Lam(I, t([y2], x0))), a), Lam(I, w([y1], x0))),
        # the chain is an argument moved under a binder: #1 becomes #2
        "shifted": (Lam(I, App(Lam(I, Lam(I, x1)), t([y1], x0))), Lam(I, Lam(I, w([y2], x1)))),
    }


#: cases whose every head and bottom is left as it is
_UNTOUCHED = ("const", "free", "inner", "loose", "mixed")


def test_hereditary_chains_values_measures_and_fuel():
    """Chains of 1 to 5,000 one-argument spines with constant, neutral
    free, inner bound and loose bound heads (loose ones renumbered by a
    contraction or a shift, and not), over a leaf, an abstraction and a
    substituted H x: the value is beta_normal of the plain substitution
    and the one built by hand, the measures are the independent walk's,
    the pass runs on exactly the fuel it spends, and a chain nothing
    touches comes back as the same object.

    `_measures` recurses and re-walks each level, so at 5,000 spines the
    measures are those of the 64-spine chain plus one size and one height
    per added spine (64 and 5,000 are both multiples of every cycle of
    heads, so the loose bound is the same)."""
    small = {}
    for n in (1, 2, 3, 64, 5_000):
        for name, bottom, image, want in _bottoms():
            images = {} if image is None else {_H.id: _value(image)}
            rho = Substitution([] if image is None else [(_H, image)])
            for kind, (t, expect) in _chain_cases(n, bottom, want).items():
                meter = Fuel(10**9)
                term, *measures = hereditary(t, images, meter)
                spent = 10**9 - meter.left
                assert term == beta_normal(rho.apply(t)) == expect, (n, name, kind)
                if n <= 64:
                    assert tuple(measures) == _measures(term), (n, name, kind)
                    small[name, kind] = measures
                else:
                    s, h, loose = small[name, kind]
                    assert measures == [s + n - 64, h + n - 64, loose], (n, name, kind)
                exact = Fuel(spent)
                assert hereditary(t, images, exact) == (term, *measures) and exact.left == 0
                with pytest.raises(ReductionBudget):
                    hereditary(t, images, Fuel(spent - 1))
                if image is None and kind in _UNTOUCHED:
                    assert term is t, (n, name, kind)
                if (name, kind) == ("leaf", "const"):  # one unit per spine
                    assert spent == n + 1


def test_hereditary_chain_of_100000_at_default_recursion_limit():
    # \x. f^100000 (H x) with H -> \z. f (H1 z): 100,000 spines, one frame
    n = 100_000
    ((_, image),) = bindings.imitation(_H, f, FreshSupply(1_000)).entries
    H1 = image.body.arg.fn
    x = Bound(0, I)
    t = Lam(I, _chain([f], n, App(_H, x)))
    meter = Fuel(10**9)
    value = hereditary(t, {_H.id: _value(image)}, meter)
    # sizes: the binder, n + 1 f's, H1 and x; heights: the binder and
    # n + 2 applications
    assert value == (Lam(I, _chain([f], n + 1, App(H1, x))), n + 4, n + 3, 0)
    # t's n + 2 spines (the chain, H x and x), the contraction, and the
    # three spines of the image's body, f (H1 z)
    assert 10**9 - meter.left == n + 6
    assert hereditary(t, {}, Fuel())[0] is t


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


def test_canonical_out_of_fuel_raises():
    # g : i -> i -> i becomes \x y. g x y: three visits of eta_long
    with pytest.raises(ReductionBudget):
        canonical(g, Fuel(2))
    meter = Fuel(10)
    assert canonical(g, meter) == Lam(I, Lam(I, mk_app(g, [Bound(1, I), Bound(0, I)])))
    assert meter.left < 10


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
