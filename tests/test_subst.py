"""Substitutions: validation, application, composition algebra, the
triangular state substitution, supply."""

import random

import pytest

import termgen
from termgen import I, II, III, gen_term, nbe
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
        assert sigma.is_idempotent()
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
        both = compose(outer, inner, check=True)
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
        left = compose(compose(s3, s2, check=True), s1, check=True)
        right = compose(s3, compose(s2, s1, check=True), check=True)
        assert {v.id for v, _ in left.items()} == {v.id for v, _ in right.items()}
        for (v, img_l), (_, img_r) in zip(left.items(), right.items()):
            assert canonical(img_l) == canonical(img_r), v


def test_compose_check_flags_violation():
    F, G = Free(1, I), Free(2, I)
    inner = Substitution(((F, G),))
    outer = Substitution(((G, F),))
    with pytest.raises(IdempotenceViolation):
        compose(outer, inner, check=True)


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
        tri = TriangularSubst.root(10_000, 1_000_000).extend(s1).extend(s2).extend(s3)
        eager = compose(s3, compose(s2, s1))
        resolved = tri.restrict(ids)
        assert [v.id for v in resolved.domain()] == [v.id for v in eager.domain()]
        for (v, img_t), (_, img_e) in zip(resolved.items(), eager.items()):
            assert canonical(img_t) == canonical(img_e), v
        assert resolved.is_idempotent()
        t = gen_term(rng, termgen.rand_type(rng), depth=2, frees=pool_a + pool_b)
        assert canonical(tri.apply(t)) == canonical(eager.apply(t))


def test_triangular_extension_is_checked():
    F, G, H = Free(1, II), Free(2, II), Free(3, I)
    tri = TriangularSubst.root(100, 10_000).extend(
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
    assert TriangularSubst.root(6, 10_000).extend(twice_g).extend(g_to_ff).image_of(1)
    with pytest.raises(Overgrown):
        TriangularSubst.root(5, 10_000).extend(twice_g).extend(g_to_ff).image_of(1)
    with pytest.raises(Overgrown):  # not enough fuel to normalize it
        TriangularSubst.root(6, 2).extend(twice_g).extend(g_to_ff).image_of(1)


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
