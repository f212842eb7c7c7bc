"""Binding constructors: golden shapes and well-formedness properties."""

import random

import termgen
from termgen import I, II, III, is_beta_normal
from hounif.normalize import canonical
from hounif.subst import FreshSupply
from hounif.terms import (
    App,
    Base,
    Bound,
    Const,
    ELIMINATION,
    Free,
    IDENTIFICATION,
    Lam,
    arg_types,
    arrow,
    free_vars,
    is_closed,
    mk_app,
    mk_lams,
    result_type,
    type_of,
)
from hounif.bindings import (
    elimination,
    huet_projection,
    identification,
    imitation,
    iteration,
    jp_projection,
)

a = Const("a", I)
f = Const("f", II)
g = Const("g", III)
O = Base("o")  # a second base type, for result-type mismatches


def _well_formed(binding):
    """Every binding yields a valid substitution with closed, well-typed,
    canonical-ready images."""
    sigma = binding.as_subst()  # unchecked: the asserts below check each image
    for var, image in binding.entries:
        assert is_closed(image)
        assert type_of(image) == var.ty
    return sigma


def test_jp_projection_golden():
    F = Free(1, arrow([I, I], I))
    b = jp_projection(F, 2)
    assert b.kind == "jp_projection"
    assert b.entries == ((F, mk_lams([I, I], Bound(0, I))),)
    assert jp_projection(F, 1).entries == ((F, mk_lams([I, I], Bound(1, I))),)
    # argument of the wrong type: no binding
    G = Free(2, arrow([II], I))
    assert jp_projection(G, 1) is None
    assert jp_projection(F, 3) is None and jp_projection(F, 0) is None


def test_huet_projection_golden():
    # F : (i>i) > i > i, project on the functional first argument
    F = Free(1, arrow([II, I], I))
    s = FreshSupply(10)
    b = huet_projection(F, 1, s)
    (var, image), = b.entries
    H, = free_vars(image).values()
    assert H.id == 10 and H.ty == arrow([II, I], I)
    assert image == mk_lams(
        [II, I], App(Bound(1, II), mk_app(H, [Bound(1, II), Bound(0, I)]))
    )
    _well_formed(b)
    # base-type argument: collapses to the jp form
    b2 = huet_projection(F, 2, FreshSupply(10))
    assert b2.entries == ((F, mk_lams([II, I], Bound(0, I))),)
    # G : (i>o) > o > i: no argument returns G's result type i, and the
    # indices out of range project nothing
    G = Free(2, arrow([arrow([I], O), O], I))
    s = FreshSupply(10)
    assert huet_projection(G, 1, s) is None and huet_projection(G, 2, s) is None
    assert huet_projection(G, 0, s) is None and huet_projection(G, 3, s) is None
    assert s.next_id == 10  # no fresh variable drawn


def test_imitation_golden():
    F = Free(1, arrow([I], I))
    s = FreshSupply(7)
    b = imitation(F, g, s)
    (var, image), = b.entries
    F1, F2 = free_vars(image).values()
    assert F1.ty == F2.ty == arrow([I], I)
    assert image == Lam(
        I, mk_app(g, [App(F1, Bound(0, I)), App(F2, Bound(0, I))])
    )
    _well_formed(b)
    # result types must agree (note i>(i>i) curries to result type i, so a
    # distinct base type is needed for a mismatch)
    assert imitation(Free(2, arrow([I], O)), g, FreshSupply()) is None


def test_elimination_golden():
    F = Free(1, arrow([I, I, I], I))
    s = FreshSupply(5)
    b = elimination(F, (1, 3), s)
    (var, image), = b.entries
    G, = free_vars(image).values()
    assert G.sort == ELIMINATION
    assert G.ty == arrow([I, I], I)
    assert image == mk_lams(
        [I, I, I], mk_app(G, [Bound(2, I), Bound(0, I)])
    )
    _well_formed(b)
    # keep-all is not an elimination; out-of-range and unsorted are rejected
    assert elimination(F, (1, 2, 3), s) is None
    assert elimination(F, (3, 1), s) is None
    assert elimination(F, (0,), s) is None
    # empty keep set drops every argument
    b0 = elimination(F, (), FreshSupply(5))
    assert b0.entries[0][1] == mk_lams([I, I, I], Free(5, I, ELIMINATION))


def test_identification_golden():
    F = Free(1, arrow([I], I))
    G = Free(2, arrow([I, I], I))
    s = FreshSupply(20)
    b = identification(F, G, s)
    imgs = dict((v.id, img) for v, img in b.entries)
    H, F1, F2 = free_vars(imgs[1]).values()  # F1, F2: one per G-argument
    assert H.sort == IDENTIFICATION
    assert H.ty == arrow([I, I, I], I)
    _, G1 = free_vars(imgs[2]).values()
    x = Bound(0, I)
    assert imgs[1] == Lam(
        I, mk_app(H, [x, App(F1, x), App(F2, x)])
    )
    y1, y0 = Bound(1, I), Bound(0, I)
    assert imgs[2] == mk_lams(
        [I, I], mk_app(H, [mk_app(G1, [y1, y0]), y1, y0])
    )
    _well_formed(b)
    assert identification(F, F, s) is None
    assert identification(F, Free(3, arrow([I], O)), s) is None


def test_iteration_golden():
    # F : (i>i) > i, iterate on the functional argument with ybar = (i,)
    F = Free(1, arrow([II], I))
    s = FreshSupply(30)
    b = iteration(F, 1, (I,), s)
    (var, image), = b.entries
    H, G1 = free_vars(image).values()
    assert H.ty == arrow([II, arrow([I], I)], I)
    assert G1.ty == arrow([II, I], I)
    x = Bound(0, II)
    inner = Lam(I, App(Bound(1, II), mk_app(G1, [Bound(1, II), Bound(0, I)])))
    assert image == Lam(II, mk_app(H, [x, inner]))
    _well_formed(b)
    assert iteration(F, 2, (I,), s) is None


def test_all_bindings_well_formed_on_random_variables():
    rng = random.Random(31)
    types = [
        arrow([I], I),
        arrow([I, I], I),
        arrow([II], I),
        arrow([II, I], I),
        arrow([III, I], I),
    ]
    consts = [a, f, g, Const("q", arrow([II], I))]
    for k in range(300):
        F = Free(1000 + k, rng.choice(types))
        n = len(arg_types(F.ty))
        s = FreshSupply(5000)
        for i in range(1, n + 1):
            for b in (jp_projection(F, i), huet_projection(F, i, s)):
                if b is not None:
                    _well_formed(b)
            bi = iteration(F, i, (rng.choice([I, II]),), s)
            if bi is not None:
                _well_formed(bi)
        for c in consts:
            bim = imitation(F, c, s)
            if bim is not None:
                _well_formed(bim)
        keep = tuple(j for j in range(1, n + 1) if rng.random() < 0.5)
        be = elimination(F, keep, s)
        if len(keep) < n:
            _well_formed(be)
        G = Free(2000 + k, rng.choice(types))
        bid = identification(F, G, s)
        if result_type(G.ty) == result_type(F.ty) and F.id != G.id:
            _well_formed(bid)
        else:
            assert bid is None


def test_binding_images_are_beta_normal():
    # images are built redex-free (eta-long form is only imposed where a
    # canonical representative is needed, e.g. before printing)
    F = Free(1, arrow([II, I], I))
    s = FreshSupply(50)
    for b in (
        huet_projection(F, 1, s),
        imitation(F, g, s),
        elimination(F, (2,), s),
        identification(F, Free(2, arrow([I], I)), s),
        iteration(F, 1, (I,), s),
    ):
        for var, image in b.entries:
            assert is_beta_normal(image)
            c = canonical(image)
            assert type_of(c) == var.ty and is_closed(c)
