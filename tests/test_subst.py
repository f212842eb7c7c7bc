"""Substitutions: validation, application, composition algebra, the
triangular state substitution, supply."""

import pickle
import random

import pytest

import termgen
from termgen import I, II, III, gen_term, nbe, size
from hounif import bindings, subst
from hounif.errors import IdempotenceViolation, IllTyped
from hounif.normalize import Fuel, beta_normal, canonical, hereditary
from hounif.subst import (
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
    rebuild,
    type_of,
)

a = Const("a", I)
f = Const("f", II)
g = Const("g", III)


def test_construction_validates_images():
    # a loose index or a wrong type raises; a closed, well-typed image is
    # accepted, a redex too
    F = Free(1, II)
    with pytest.raises(IllTyped, match="has type i, expected i>i"):
        Substitution(((F, a),))  # type mismatch
    with pytest.raises(IllTyped, match="has loose bound variables"):
        Substitution(((F, Lam(I, App(f, Bound(1, I)))),))  # loose index
    ok = Substitution(((F, Lam(I, App(f, Bound(0, I)))),))
    assert len(ok) == 1 and 1 in ok and 2 not in ok
    redex = App(Lam(II, Bound(0, II)), f)  # (\h. h) f
    assert Substitution(((F, redex),)).image_of(1) is redex


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
    assert Substitution().apply(t) is t
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


def test_triangular_extension_checks_unvalidated_images(monkeypatch):
    # the engine's bindings and oracle unifiers are built unvalidated;
    # extend raises what Substitution's validation would, and checks a
    # beta-normal image by one walk, with no type_of, hereditary or
    # free_vars pass
    F = Free(1, II)
    root = TriangularSubst.root(100, 10_000, 250)
    for image, message in ((a, "has type i, expected i>i"),
                           (Lam(I, App(f, Bound(1, I))), "has loose bound variables")):
        with pytest.raises(IllTyped, match=message):
            Substitution(((F, image),))
        with pytest.raises(IllTyped, match=message):
            root.extend(Substitution(((F, image),), validate=False))
    calls = []

    def counted(name, real):
        return lambda t, *rest: calls.append((name, t)) or real(t, *rest)

    for name in ("type_of", "free_vars", "hereditary", "check_image"):
        monkeypatch.setattr(subst, name, counted(name, getattr(subst, name)))
    image = Lam(I, App(f, App(Free(2, II), Bound(0, I))))
    binding = bindings.Binding("imitation", ((F, image),))
    child = root.extend(binding.as_subst())
    assert calls == [("check_image", image)] and child.image_of(1) is image
    assert image._ty is II and image.body._ty is I


def test_triangular_extension_reads_normal_images_and_overgrows_last():
    # closedness and idempotence read the beta-normal image: a redex that
    # drops a bound variable or a loose index passes, and the node keeps
    # the normal form
    X, Y, Z, V = Free(1, I), Free(2, I), Free(3, I), Free(5, I)
    node = TriangularSubst.root(3, 10_000, 250).extend(Substitution(((X, a), (V, a))))
    drop = Lam(I, a)
    child = node.extend(
        Substitution(((Y, App(drop, X)), (Z, App(drop, Bound(4, I)))), validate=False)
    )
    assert child.image_of(2) is a and child.image_of(3) is a
    with pytest.raises(IdempotenceViolation, match="mentions the bound variable 1"):
        node.extend(Substitution(((Y, App(f, X)),)))
    # an image over the size cap, or out of fuel, does not hide a rule
    # that a later variable breaks
    starved = TriangularSubst.root(3, 2, 250).extend(Substitution(((X, a), (V, a))))
    for first, root in ((App(f, App(f, App(f, a))), node), (App(drop, a), starved)):
        with pytest.raises(Overgrown):
            root.extend(Substitution(((Y, first),)))
        with pytest.raises(IdempotenceViolation, match="is already bound"):
            root.extend(Substitution(((Y, first), (V, a))))
        with pytest.raises(IdempotenceViolation, match="mentions the bound variable 1"):
            root.extend(Substitution(((Y, first), (Z, App(f, X)))))


def _nodes(t):
    """t's App and Lam nodes in pre-order."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        if type(u) is App:
            out.append(u)
            todo += (u.arg, u.fn)
        elif type(u) is Lam:
            out.append(u)
            todo.append(u.body)
    return out


def _image(rng, ty, frees, bound_ids):
    """A seeded termgen image of type ty, or a copy that is a redex, is of
    another type, or has one constant replaced by a bound index (closed
    or loose), a constant of another type or a bound variable."""
    t = gen_term(rng, ty, rng.randrange(4), "any", frees)
    kind = rng.choice(("good", "good", "redex", "type", "leaf"))
    if kind == "redex":
        return App(Lam(I, t), a)
    if kind == "type":
        return gen_term(rng, rng.choice([u for u in termgen.TYPES if u is not ty]), 2)
    if kind == "good":
        return t
    pick, swap = [rng.randrange(3)], rng.choice(("index", "type", "var"))

    def leaf(c, depth):
        pick[0] -= 1
        if pick[0] != -1:
            return c
        if swap == "index":
            return Bound(rng.randrange(depth + 2), c.ty)
        if swap == "type":
            return Const("z", II if c.ty is I else I)
        return Free(rng.choice(bound_ids), c.ty)

    return rebuild(t, Const, leaf)


def test_one_walk_agrees_with_the_general_path(monkeypatch):
    # the walk that checks a binding image, and the general path it leaves
    # an image to (type_of, hereditary, free_vars), give the same size,
    # height and free-variable order, the same node or the same error, and
    # the same type memos
    rng = random.Random(17)
    X, frees = Free(1, I), (Free(2, II), Free(3, I), Free(4, III))
    guards = ((100, 10_000, 250), (6, 10_000, 250), (100, 4, 250), (100, 10_000, 3))
    passed = failed = 0
    checked = subst.check_image
    for _ in range(400):
        guard = rng.choice(guards)
        parent = TriangularSubst.root(*guard).extend(Substitution(((X, a),)))
        tys = rng.sample(termgen.TYPES, rng.choice((1, 2, 3)))
        rho = [(Free(10 + k, ty), _image(rng, ty, frees, (1, 10, 11))) for k, ty in enumerate(tys)]
        data = pickle.dumps(rho)  # a copy with no memos for each side
        for var, image in pickle.loads(data):
            walk = checked(image, var.ty, guard[1])
            if walk is None:
                failed += 1
                continue
            passed += 1
            other = pickle.loads(pickle.dumps(image))
            _, size, height, loose = hereditary(other, {}, Fuel(guard[1]))
            assert (walk[0], walk[1], loose) == (size, height, 0)
            assert list(walk[2].items()) == list(free_vars(other).items())
            assert type_of(other) is var.ty
            assert [u._ty for u in _nodes(image)] == [u._ty for u in _nodes(other)]
        outcomes = []
        for walk in (checked, lambda *args: None):
            monkeypatch.setattr(subst, "check_image", walk)
            entries = pickle.loads(data)
            try:
                node = parent.extend(Substitution(entries, validate=False))
                got = node._memo, node._images
            except (IllTyped, IdempotenceViolation, Overgrown) as e:
                got = type(e), str(e)
            memos = [getattr(u, "_ty", None) for _, t in entries for u in _nodes(t)]
            outcomes.append((got, memos))
        assert outcomes[0] == outcomes[1]
    assert passed > 100 and failed > 100


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
    # each image passes `extend` on 10 units, but F's resolution needs more
    tri = TriangularSubst.root(6, 10, 250).extend(twice_g).extend(g_to_ff)
    with pytest.raises(Overgrown):
        tri.image_of(1)


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


def test_substitutions_are_values():
    F, G = Free(1, I), Free(2, II)
    one = Substitution(((F, a), (G, f)))
    other_order = Substitution(((G, f), (F, a)))
    assert one == other_order and hash(one) == hash(other_order)
    assert one != Substitution(((F, a),))
    assert one != Substitution(((F, Const("b", I)), (G, f)))
    assert one != {1: a, 2: f}
    assert one and not Substitution()


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
