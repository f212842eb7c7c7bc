"""Substitutions: validation, application, composition algebra, the
triangular state substitution, supply."""

import random

import pytest

import termgen
from termgen import I, II, III, gen_term, nbe, size
from hounif import bindings
from hounif.errors import IdempotenceViolation, IllTyped
from hounif.normalize import beta_normal, canonical
from hounif.subst import (
    IDENTITY,
    FreshSupply,
    Overgrown,
    Substitution,
    TriangularSubst,
    compose,
)
from hounif.terms import (
    App,
    Bound,
    Const,
    Free,
    IDENTIFICATION,
    Lam,
    PLAIN,
    arrow,
    free_vars,
    mk_app,
    type_of,
)

a = Const("a", I)
f = Const("f", II)
g = Const("g", III)


def test_construction_validates_images():
    F = Free(1, II)
    with pytest.raises(IllTyped):
        Substitution(((F, a),))  # type mismatch
    with pytest.raises(IllTyped):
        Substitution(((F, Lam(I, App(f, Bound(1, I)))),))  # loose index
    ok = Substitution(((F, Lam(I, App(f, Bound(0, I)))),))
    assert len(ok) == 1 and 1 in ok and 2 not in ok


def test_apply_golden():
    F = Free(1, II)
    sigma = Substitution(((F, Lam(I, mk_app(g, [Bound(0, I), a]))),))
    t = Lam(I, App(F, Bound(0, I)))  # \y. F y
    applied = sigma.apply(t)
    # plain apply substitutes without reducing
    assert applied == Lam(I, App(Lam(I, mk_app(g, [Bound(0, I), a])), Bound(0, I)))
    # beta-normalizing contracts the redex; no capture is possible (closed image)
    assert beta_normal(sigma.apply(t)) == Lam(I, mk_app(g, [Bound(0, I), a]))
    assert sigma.apply(a) == a
    assert IDENTITY.apply(t) is t
    # unmapped subterms come back as the same objects, at any depth
    fa = App(f, a)
    u = mk_app(g, [fa, App(F, a)])
    assert sigma.apply(u).fn.arg is fa
    assert sigma.apply(fa) is fa
    deep = App(F, a)
    for _ in range(5_000):
        deep = App(f, deep)
    out = sigma.apply(deep)
    for _ in range(5_000):
        out = out.arg
    assert out == App(sigma.image_of(1), a)


def _random_subst(rng, domain, image_frees, depth=2):
    entries = []
    for F in domain:
        if rng.random() < 0.7:
            entries.append((F, gen_term(rng, F.ty, depth, "any", image_frees)))
    return Substitution(entries)


def test_apply_preserves_type_and_idempotence():
    rng = random.Random(21)
    pool_a = termgen.make_frees(rng, 4, 100)
    pool_b = termgen.make_frees(rng, 3, 200)
    for _ in range(300):
        sigma = _random_subst(rng, pool_a, pool_b)
        dom = {v.id for v in sigma.domain()}
        assert all(dom.isdisjoint(free_vars(image)) for _, image in sigma.items())
        ty = termgen.rand_type(rng)
        t = gen_term(rng, ty, depth=2, frees=pool_a)
        out = sigma.apply(t)
        assert type_of(out) == ty
        # idempotent: a second application changes nothing modulo beta-eta
        once = canonical(out)
        assert canonical(sigma.apply(once)) == once


def test_compose_is_application_composition():
    rng = random.Random(22)
    pool_a = termgen.make_frees(rng, 3, 100)
    pool_b = termgen.make_frees(rng, 3, 200)
    pool_c = termgen.make_frees(rng, 3, 300)
    for _ in range(200):
        inner = _random_subst(rng, pool_a, pool_b)
        outer = _random_subst(rng, pool_b, pool_c)
        both = compose(outer, inner)
        dom = {v.id for v in both.domain()}
        assert all(dom.isdisjoint(free_vars(image)) for _, image in both.items())
        t = gen_term(rng, termgen.rand_type(rng), depth=2, frees=pool_a + pool_b)
        assert canonical(both.apply(t)) == canonical(outer.apply(inner.apply(t)))


def test_compose_associative_mod_beta_eta():
    rng = random.Random(23)
    pool_a = termgen.make_frees(rng, 3, 100)
    pool_b = termgen.make_frees(rng, 3, 200)
    pool_c = termgen.make_frees(rng, 3, 300)
    pool_d = termgen.make_frees(rng, 2, 400)
    for _ in range(150):
        s1 = _random_subst(rng, pool_a, pool_b)
        s2 = _random_subst(rng, pool_b, pool_c)
        s3 = _random_subst(rng, pool_c, pool_d)
        s32, s21 = compose(s3, s2), compose(s2, s1)
        left, right = compose(s32, s1), compose(s3, s21)
        for sigma in (s32, s21, left, right):
            dom = {v.id for v in sigma.domain()}
            assert all(dom.isdisjoint(free_vars(image)) for _, image in sigma.items())
        assert {v.id for v, _ in left.items()} == {v.id for v, _ in right.items()}
        for (v, img_l), (_, img_r) in zip(left.items(), right.items()):
            assert canonical(img_l) == canonical(img_r), v


def test_triangular_resolves_as_the_composition():
    rng = random.Random(24)
    pool_a = termgen.make_frees(rng, 3, 100)
    pool_b = termgen.make_frees(rng, 3, 200)
    pool_c = termgen.make_frees(rng, 3, 300)
    pool_d = termgen.make_frees(rng, 2, 400)
    ids = [v.id for v in pool_a + pool_b + pool_c + pool_d]
    for _ in range(150):
        s1 = _random_subst(rng, pool_a, pool_b)
        s2 = _random_subst(rng, pool_b, pool_c)
        s3 = _random_subst(rng, pool_c, pool_d)
        tri = TriangularSubst.root(10_000, 1_000_000, 250).extend(s1).extend(s2).extend(s3)
        eager = compose(s3, compose(s2, s1))
        resolved = tri.restrict(ids)
        assert [v.id for v in resolved.domain()] == [v.id for v in eager.domain()]
        for (v, img_t), (_, img_e) in zip(resolved.items(), eager.items()):
            assert canonical(img_t) == canonical(img_e), v
        dom = {v.id for v in resolved.domain()}
        assert all(dom.isdisjoint(free_vars(image)) for _, image in resolved.items())
        t = gen_term(rng, termgen.rand_type(rng), depth=2, frees=pool_a + pool_b)
        assert canonical(tri.apply(t)) == canonical(eager.apply(t))


def test_triangular_extension_is_checked():
    F, G, H = Free(1, II), Free(2, II), Free(3, I)
    tri = TriangularSubst.root(100, 10_000, 250).extend(
        Substitution(((F, Lam(I, App(G, App(f, Bound(0, I))))),))
    )
    with pytest.raises(IdempotenceViolation):  # F is already bound
        tri.extend(Substitution(((F, Lam(I, a)),)))
    with pytest.raises(IdempotenceViolation):  # the image mentions bound F
        tri.extend(Substitution(((H, App(F, a)),)))
    with pytest.raises(IdempotenceViolation):  # the image mentions G itself
        tri.extend(Substitution(((G, Lam(I, App(G, Bound(0, I)))),)))
    child = tri.extend(Substitution(((G, Lam(I, App(f, Bound(0, I)))),)))
    assert child.image_of(1) == Lam(I, App(f, App(f, Bound(0, I))))  # beta-normal
    assert tri.image_of(1) == Lam(I, App(G, App(f, Bound(0, I))))  # parent unchanged
    assert child.image_of(3) is None


def test_triangular_resolution_is_guarded():
    F, G = Free(1, II), Free(2, II)
    twice_g = Substitution(((F, Lam(I, App(G, App(G, Bound(0, I))))),))
    g_to_ff = Substitution(((G, Lam(I, App(f, App(f, Bound(0, I))))),))
    # F resolves to \x. f (f (f (f x))): 6 nodes
    assert TriangularSubst.root(6, 10_000, 250).extend(twice_g).extend(g_to_ff).image_of(1)
    with pytest.raises(Overgrown):
        TriangularSubst.root(5, 10_000, 250).extend(twice_g).extend(g_to_ff).image_of(1)
    with pytest.raises(Overgrown):  # not enough fuel to normalize it
        TriangularSubst.root(6, 2, 250).extend(twice_g).extend(g_to_ff).image_of(1)


def _binding_rho(rng, domain, supply):
    """One engine-style binding (imitation, projection, elimination,
    iteration, identification, or an eta-short renaming) per chosen
    variable of the domain."""
    entries = []
    todo = [F for F in domain if rng.random() < 0.8]
    while todo:
        F = todo.pop()
        n = len(termgen.arg_types(F.ty))
        kind = rng.choice(
            ["imitation", "huet", "jp", "elimination", "iteration", "identification", "rename"]
        )
        if kind == "rename":
            b = bindings.Binding("rename", ((F, supply.fresh(F.ty)),))
        elif kind == "imitation":
            c = rng.choice([c for c in termgen.CONSTS if termgen.result_type(c.ty) == termgen.result_type(F.ty)])
            b = bindings.imitation(F, c, supply)
        elif kind == "huet" and n:
            b = bindings.huet_projection(F, rng.randint(1, n), supply)
        elif kind == "jp" and n:
            b = bindings.jp_projection(F, rng.randint(1, n))
        elif kind == "elimination" and n:
            keep = sorted(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
            b = bindings.elimination(F, keep, supply)
        elif kind == "iteration" and n:
            b = bindings.iteration(F, rng.randint(1, n), (I,) * rng.randint(0, 1), supply)
        elif kind == "identification" and todo:
            b = bindings.identification(F, todo.pop(), supply)
        else:
            b = None
        if b is None:  # the family does not fit F's type: a closed image
            b = bindings.Binding("ground", ((F, gen_term(rng, F.ty, 2, "ground")),))
        entries.extend(b.entries)
    return Substitution(entries)


def test_hereditary_resolution_is_beta_normal_substitution():
    rng = random.Random(27)
    pool = termgen.make_frees(rng, 4, 100)
    other = termgen.make_frees(rng, 2, 200)
    supply = FreshSupply(1_000)
    # F's argument mentions the outer x and is applied under a binder of
    # the iteration's image, so it is shifted there and then contracted
    F = Free(100, arrow([II], I))
    fixed = (
        Lam(I, App(F, Lam(I, mk_app(g, [Bound(0, I), Bound(1, I)])))),
        Substitution(bindings.iteration(F, 1, (I,), supply).entries),
    )
    for trial in range(300):
        rho = _binding_rho(rng, pool, supply)
        X = Free(1, termgen.rand_type(rng))
        image = gen_term(rng, X.ty, depth=3, frees=pool + other)
        if trial == 0:
            image, rho = fixed
            X = Free(1, type_of(image))
        tri = TriangularSubst.root(10**6, 10**7, 250).extend(Substitution(((X, image),))).extend(rho)
        expected = beta_normal(rho.apply(image))
        assert tri.image_of(1) == expected
        assert tri._lookup(1)[2] == free_vars(expected).keys()  # exact free variables
        if not free_vars(image).keys() & {v.id for v in rho.domain()}:
            assert tri.image_of(1) is image
        untouched = gen_term(rng, X.ty, depth=3, frees=other)
        Y = Free(2, X.ty)
        tri = TriangularSubst.root(10**6, 10**7, 250).extend(Substitution(((Y, untouched),))).extend(rho)
        assert tri.image_of(2) is untouched


def test_duplicating_chain_overgrows_at_the_size_cap():
    # F_i -> \x. g (F_{i+1} x) (F_{i+1} x): every link doubles F_0's image
    chain = [Free(i, II) for i in range(10)]
    links = [
        Substitution(((F, Lam(I, mk_app(g, [App(G, Bound(0, I))] * 2))),))
        for F, G in zip(chain, chain[1:])
    ]

    def resolve(max_size):
        tri = TriangularSubst.root(max_size, 10**7, 250)
        for rho in links:
            tri = tri.extend(rho)
        return tri.image_of(0)

    full = resolve(10**6)
    assert size(full) == 1 + 2**9 - 1 + 2**9 * 2  # the binder, 511 g's, 512 spines F_9 x
    assert resolve(size(full)) == full
    with pytest.raises(Overgrown):
        resolve(size(full) - 1)


def test_deep_image_resolves_iteratively():
    # F -> \x. q (\y. q (\y. ... G x)) with 118 q's, G -> \x. q (\y. f x):
    # G's argument moves under 119 binders and F's image is 240 deep
    q = Const("q", arrow([II], I))
    F, G = Free(1, II), Free(2, II)
    layers = 118
    body = App(G, Bound(layers, I))
    for _ in range(layers):
        body = App(q, Lam(I, body))
    rho_f = Substitution(((F, Lam(I, body)),))
    rho_g = Substitution(((G, Lam(I, App(q, Lam(I, App(f, Bound(1, I)))))),))
    expected = App(q, Lam(I, App(f, Bound(layers + 1, I))))
    for _ in range(layers):
        expected = App(q, Lam(I, expected))
    expected = Lam(I, expected)
    tri = TriangularSubst.root(10**6, 10**7, 250).extend(rho_f).extend(rho_g)
    assert tri.image_of(1) == expected
    assert tri._lookup(1)[2] == frozenset()


def test_non_normal_binding_is_normalized_first():
    # F -> (\h x. h (h x)) f: the node normalizes the image before any
    # resolution reads it, under the same fuel
    F, G = Free(1, II), Free(2, II)
    twice = Lam(II, Lam(I, App(Bound(1, II), App(Bound(1, II), Bound(0, I)))))
    rho = Substitution(((F, App(twice, f)),))
    tri = TriangularSubst.root(100, 10_000, 250).extend(rho)
    assert tri.image_of(1) == Lam(I, App(f, App(f, Bound(0, I))))
    child = TriangularSubst.root(100, 10_000, 250).extend(
        Substitution(((G, Lam(I, App(F, Bound(0, I)))),))
    ).extend(rho)
    assert child.image_of(2) == Lam(I, App(f, App(f, Bound(0, I))))
    with pytest.raises(Overgrown):
        TriangularSubst.root(100, 2, 250).extend(rho)


def test_restrict_and_items_are_deterministic():
    F, G = Free(5, I), Free(3, I)
    sigma = Substitution(((F, a), (G, Const("b", I))))
    assert [v.id for v, _ in sigma.items()] == [3, 5]
    r = sigma.restrict({5})
    assert len(r) == 1 and r.image_of(5) == a and r.image_of(3) is None
    assert sigma.domain()[0].id == 3


def test_fresh_supply_monotone_and_reserving():
    s = FreshSupply()
    v0 = s.fresh(I)
    v1 = s.fresh(II, sort=IDENTIFICATION)
    assert (v0.id, v1.id) == (0, 1)
    assert v0.sort == PLAIN and v1.sort == IDENTIFICATION
    s.reserve_ids({10, 4})
    assert s.next_id == 11
    s.reserve_ids(free_vars(App(Free(20, II), a)).keys())
    assert s.next_id == 21
    ids = {s.fresh(I).id for _ in range(50)}
    assert len(ids) == 50 and min(ids) == 21  # never reuses


def test_nbe_agrees_on_substituted_terms():
    # cross-check normalizing substituted terms against the independent
    # normalizer
    rng = random.Random(24)
    pool = termgen.make_frees(rng, 3, 100)
    ground = termgen.make_frees(rng, 0, 900)
    for _ in range(200):
        sigma = _random_subst(rng, pool, ground)  # ground images
        t = gen_term(rng, termgen.rand_type(rng), depth=2, frees=pool)
        assert canonical(sigma.apply(t)) == nbe(sigma.apply(t))
