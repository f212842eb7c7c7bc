"""Term representation: typing, spine views, measures, ordering."""

import random

import pytest

import termgen
from termgen import I, II, III, gen_sized, make_frees
from hounif.errors import IllTyped
from hounif.terms import (
    App,
    Arrow,
    Bound,
    Const,
    Free,
    Lam,
    arg_types,
    arity,
    arrow,
    free_vars,
    instantiate,
    is_closed,
    lam_depth,
    loose_bound_ids,
    mk_app,
    mk_lams,
    result_type,
    shift,
    size,
    spine,
    strip_lams,
    term_key,
    type_of,
)

a = Const("a", I)
b = Const("b", I)
f = Const("f", II)
g = Const("g", III)


def test_type_helpers():
    ty = arrow([I, II], I)
    assert ty == Arrow(I, Arrow(II, I))
    assert arg_types(ty) == (I, II)
    assert result_type(ty) == I
    assert arity(ty) == 2
    assert arity(I) == 0


def test_type_of_golden_and_failure():
    assert type_of(App(f, a)) == I
    assert type_of(Lam(I, Bound(0, I))) == II
    assert type_of(mk_app(g, [a, b])) == I
    with pytest.raises(IllTyped):
        type_of(App(a, b))  # base-type head applied
    with pytest.raises(IllTyped):
        type_of(App(f, f))  # domain mismatch


def test_spine_mk_app_roundtrip():
    t = mk_app(g, [App(f, a), b])
    head, args = spine(t)
    assert head == g and args == [App(f, a), b]
    assert mk_app(head, args) == t


def test_strip_mk_lams_roundtrip():
    body = mk_app(g, [Bound(1, I), Bound(0, I)])
    t = mk_lams([I, I], body)
    tys, b2 = strip_lams(t)
    assert tys == [I, I] and b2 == body
    assert lam_depth(t) == 2
    assert mk_lams(tys, b2) == t


def test_shift_instantiate():
    # (\x. g x y)[y := a]  via instantiate on the open body
    body = mk_app(g, [Bound(0, I), Bound(1, I)])
    assert loose_bound_ids(Lam(I, body)) == {0}
    # instantiate replaces index 0 and lowers the rest
    assert instantiate(body, a) == mk_app(g, [a, Bound(0, I)])
    assert shift(Bound(0, I), 2) == Bound(2, I)
    assert shift(Bound(0, I), 2, cutoff=1) == Bound(0, I)
    assert is_closed(mk_lams([I, I], body))
    assert not is_closed(Lam(I, body)) and not is_closed(body)


def test_free_vars_occurs_ground():
    F = Free(1, II)
    t = App(f, App(F, a))
    assert set(free_vars(t)) == {1}
    assert 1 in free_vars(t) and 2 not in free_vars(t)
    assert free_vars(t) and not free_vars(App(f, a))


def test_size_measure():
    assert size(a) == 1
    assert size(App(f, a)) == 2
    assert size(mk_app(g, [a, b])) == 3
    assert size(Lam(I, Bound(0, I))) == 2


def test_term_key_total_order():
    rng = random.Random(5)
    frees = make_frees(rng, 2, 70)
    terms = [gen_sized(rng, termgen.rand_type(rng), frees=frees) for _ in range(60)]
    keys = [term_key(t) for t in terms]
    assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable
    for t, k in zip(terms, keys):
        assert term_key(t) == k  # deterministic
    for s in terms:
        for t in terms:
            if s == t:
                assert term_key(s) == term_key(t)
