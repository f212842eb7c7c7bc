"""Term representation: typing, spine views, measures, ordering."""

import os
import pathlib
import pickle
import random
import subprocess
import sys
import threading

import pytest

import termgen
from termgen import I, II, III, gen_sized, make_frees, size
from hounif.engine import signature_types
from hounif.errors import IllTyped
from hounif.terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Free,
    Lam,
    arg_types,
    arrow,
    free_vars,
    head_of,
    instantiate,
    is_closed,
    lam_depth,
    loose_bound_ids,
    mk_app,
    mk_lams,
    result_type,
    shift,
    size_within,
    spine,
    strip_lams,
    term_key,
    term_order,
    type_of,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

a = Const("a", I)
b = Const("b", I)
f = Const("f", II)
g = Const("g", III)


def test_type_helpers():
    ty = arrow([I, II], I)
    assert ty == Arrow(I, Arrow(II, I))
    assert arg_types(ty) == (I, II)
    assert result_type(ty) == I
    assert ty.arity == 2
    assert I.arity == 0


def test_type_of_golden_and_failure():
    assert type_of(App(f, a)) == I
    assert type_of(Lam(I, Bound(0, I))) == II
    assert type_of(mk_app(g, [a, b])) == I
    with pytest.raises(IllTyped):
        type_of(App(a, b))  # base-type head applied
    with pytest.raises(IllTyped):
        type_of(App(f, f))  # domain mismatch
    # a leaf child's type is read in place; a child without one is not a term
    for bad in (App(f, 3), App(None, a), Lam(I, "x"), App(f, App(f, Lam(I, None)))):
        with pytest.raises(IllTyped, match="not a term"):
            type_of(bad)


def test_type_of_deep_terms_at_default_recursion_limit():
    # the first visit walks without recursion and types a shared node
    # once; the memo makes the second visit O(1), and an ill-typed node is
    # never memoized
    assert type_of(Lam(I, _tower(5000, Bound(0, I)))) == II
    bad = Lam(I, _tower(5000, App(a, Bound(0, I))))
    for _ in range(2):
        with pytest.raises(IllTyped, match="base-type"):
            type_of(bad)
    mismatch = _tower(5000, App(f, f))
    for _ in range(2):
        with pytest.raises(IllTyped, match="does not match"):
            type_of(mismatch)
    shared = a  # 2^60 paths, 61 distinct nodes: each is typed once
    for _ in range(60):
        shared = mk_app(g, [shared, shared])
    assert type_of(shared) == I


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


def _key_sign(s, t):
    ks, kt = term_key(s), term_key(t)
    return (ks > kt) - (ks < kt)


def _rebuilt(t):
    """A term equal to t that shares no node with it."""
    return pickle.loads(pickle.dumps(t))


def _fpow(k, t):
    for _ in range(k):
        t = App(f, t)
    return t


def _seeded_pairs():
    """10,000 seeded pairs of random terms, plus equal but distinct
    objects and pairs that differ only at depth >= 200."""
    rng = random.Random(17)
    frees = make_frees(rng, 3, 80)
    pool = [
        gen_sized(rng, termgen.rand_type(rng), frees=frees, max_size=10)
        for _ in range(150)
    ]
    pool += [_rebuilt(t) for t in pool[:50]]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(10_000)]
    pairs += [(t, _rebuilt(t)) for t in pool[:50]]
    X = Free(80, I)
    for k in (200, 250):
        for lo, hi in ((a, b), (a, X), (App(f, a), App(f, b)), (a, _rebuilt(a))):
            s, t = _fpow(k, lo), _fpow(k, hi)
            pairs += [(s, t), (t, s), (Lam(I, s), Lam(I, t))]
            pairs += [(mk_app(g, [s, a]), mk_app(g, [t, b]))]
    return pairs


def test_term_order_matches_term_key():
    pairs = _seeded_pairs()
    seen = set()
    for s, t in pairs:
        want = _key_sign(s, t)
        assert term_order(s, t) == want, (s, t)
        seen.add(want)
    assert seen == {-1, 0, 1}


def test_equality_matches_term_order_and_hash():
    # once without memoized hashes, once with: the memo may only cut
    # the walk short, never change the verdict
    pairs = _seeded_pairs()  # freshly built: no node has a memoized hash
    verdicts = [s == t for s, t in pairs]
    assert True in verdicts and False in verdicts
    for (s, t), equal in zip(pairs, verdicts):
        # term_order ignores types, which equally typed terms share
        if type_of(s) == type_of(t):
            assert equal == (term_order(s, t) == 0), (s, t)
        elif equal:
            assert term_order(s, t) == 0
        assert (s != t) == (not equal)
        if equal:
            assert hash(s) == hash(t)
    assert [s == t for s, t in pairs] == verdicts


def test_hash_is_the_dataclass_hash_and_walks_shared_nodes_once():
    # the memo holds what a frozen dataclass computes, hash(fields); a
    # term of 2^60 paths but 61 distinct nodes hashes at once
    t = a
    for _ in range(60):
        t = mk_app(g, [t, t])
    t = Lam(I, t)
    u = t.body.arg
    assert hash(t) == hash((I, App(App(g, u), u)))
    assert t._hash == hash(t) and u._hash == hash((App(g, u.arg), u.arg))


def _tower(k, leaf):
    t = leaf
    for _ in range(k):
        t = App(f, t)
    return t


def test_deep_equality_and_hash_do_not_recurse():
    # two distinct 5,000-deep towers, under the default recursion limit
    for lo, hi, equal in ((a, a, True), (a, b, False), (App(f, a), b, False)):
        s, t = _tower(5000, lo), _tower(5000, hi)
        assert s is not t
        assert (s == t) is equal and (s != t) is not equal
        assert (Lam(I, s) == Lam(I, t)) is equal
        assert (hash(s) == hash(t)) is equal
        assert (s == t) is equal  # now with both hashes memoized


def _free_vars_reference(t):
    out = {}

    def go(t):
        if isinstance(t, Free):
            out.setdefault(t.id, t)
        elif isinstance(t, App):
            go(t.fn)
            go(t.arg)
        elif isinstance(t, Lam):
            go(t.body)

    go(t)
    return out


def test_free_vars_matches_recursive_reference():
    rng = random.Random(11)
    frees = make_frees(rng, 4, 60)
    for _ in range(300):
        t = gen_sized(rng, termgen.rand_type(rng), frees=frees, max_size=14)
        want = _free_vars_reference(t)
        got = free_vars(t)
        assert list(got.items()) == list(want.items())  # first-occurrence order


def test_free_vars_follows_chains_in_first_occurrence_order():
    """Chains of one-argument spines with free heads at several depths,
    with App-headed functions (K u) t and (K t) u and abstractions among
    them: the recursive reference's variables, in its order."""
    F, K, L = Free(0, II), Free(1, III), Free(2, arrow([II], I))
    X, Y = Free(3, I), Free(4, I)
    assert list(free_vars(mk_app(K, [X, App(F, App(F, Y))]))) == [1, 3, 0, 4]
    rng = random.Random(47)
    frees = [Free(10 + i, II) for i in range(4)]
    leaves = [a, b, Free(20, I), Free(21, I)]
    for _ in range(300):
        t = rng.choice(leaves)
        for _ in range(rng.randint(1, 250)):
            pick = rng.random()
            if pick < 0.3:
                t = App(f, t)
            elif pick < 0.6:
                t = App(rng.choice(frees), t)
            elif pick < 0.75:
                t = mk_app(rng.choice([K, g]), [rng.choice(leaves), t])
            elif pick < 0.9:
                t = mk_app(rng.choice([K, g]), [t, rng.choice(leaves)])
            else:
                t = App(L, Lam(I, t))
        assert list(free_vars(t).items()) == list(_free_vars_reference(t).items())


def _loose_reference(t, depth=0):
    if isinstance(t, Bound):
        return {t.index - depth} if t.index >= depth else set()
    if isinstance(t, App):
        return _loose_reference(t.fn, depth) | _loose_reference(t.arg, depth)
    if isinstance(t, Lam):
        return _loose_reference(t.body, depth + 1)
    return set()


def _types_reference(t, out):
    def add(ty):
        out.add(ty)
        if isinstance(ty, Arrow):
            add(ty.dom)
            add(ty.cod)

    if isinstance(t, App):
        _types_reference(t.fn, out)
        _types_reference(t.arg, out)
    elif isinstance(t, Lam):
        add(t.binder)
        _types_reference(t.body, out)
    else:
        add(t.ty)
    return out


def test_walkers_match_recursive_references():
    # closed terms, their open bodies and arguments, and redexes over them
    rng = random.Random(29)
    frees = make_frees(rng, 4, 70)
    for _ in range(300):
        t = gen_sized(rng, termgen.rand_type(rng), frees=frees, max_size=14)
        _, body = strip_lams(t)
        _, args = spine(body)
        redex = App(Lam(I, shift(body, 1)), a)
        for u in (t, body, redex, Lam(I, redex), *args):
            assert head_of(u) == spine(strip_lams(u)[1])[0]
            assert loose_bound_ids(u) == _loose_reference(u)
            n = size(u)
            assert size_within(u, n) and not size_within(u, n - 1)
        want = _types_reference(body, _types_reference(t, set()))
        assert set(signature_types([t, body])) == want
    assert head_of(Lam(I, redex)) == Lam(I, shift(body, 1))


def test_free_vars_at_depth_5000():
    X, Y = Free(0, I), Free(1, I)
    t = Lam(I, mk_app(g, [Y, _tower(5000, mk_app(g, [X, Y]))]))
    assert list(free_vars(t)) == [1, 0]


def test_type_of_ill_typed_raises_every_time():
    # a type is memoized only after its check passed
    for bad in (App(a, b), App(f, f), Lam(I, App(f, App(a, b)))):
        for _ in range(2):
            with pytest.raises(IllTyped):
                type_of(bad)


def test_type_memo_invisible_to_equality_hash_and_pickle():
    rng = random.Random(3)
    frees = make_frees(rng, 2, 90)
    for _ in range(20):
        ty = termgen.rand_type(rng)
        t = _rebuilt(gen_sized(rng, ty, frees=frees, max_size=12))  # no memo yet
        before = pickle.dumps(t)
        assert type_of(t) == ty
        if isinstance(t, (App, Lam)):
            assert t._ty == ty  # memoized on the node
        assert pickle.dumps(t) == before
        h = hash(t)
        if isinstance(t, (App, Lam)):
            assert t._hash == h  # memoized on the node
        assert pickle.dumps(t) == before
        back = pickle.loads(before)  # untyped and unhashed again
        assert back == t and hash(back) == h
        assert type_of(back) == ty


def test_repr_pins():
    E = arrow([II], I)
    pins = [
        (App(f, a), "f a"),
        (mk_app(g, [a, App(f, b)]), "g a (f b)"),
        (App(Free(3, II), a), "?3 a"),
        # a redex head and a Lam argument are parenthesized around their parentheses
        (App(Lam(I, Bound(0, I)), App(f, a)), "((\\:i. #0)) (f a)"),
        (Lam(II, Lam(I, App(Bound(1, II), Bound(0, I)))), "(\\:i>i. (\\:i. #1 #0))"),
        (Lam(E, App(Bound(0, E), f)), "(\\:(i>i)>i. #0 f)"),
        (
            mk_app(Lam(I, Lam(I, Bound(1, I))), [Lam(I, Bound(0, I)), Free(4, I, "elimination")]),
            "((\\:i. (\\:i. #1))) ((\\:i. #0)) ?4e",
        ),
    ]
    for t, want in pins:
        assert repr(t) == want


def test_repr_at_depth_5000():
    # at the default recursion limit
    assert repr(_tower(5000, a)) == "f (" * 4999 + "f a" + ")" * 4999
    t = Bound(0, I)
    for _ in range(5000):
        t = Lam(I, t)
    assert repr(t) == "(\\:i. " * 5000 + "#0" + ")" * 5000


def test_arrow_hash_equality_and_repr_along_5000_arguments():
    # at the default recursion limit
    ty, same, other = (arrow([I] * 5000, r) for r in (I, I, II))
    assert ty == same and hash(ty) == hash(same) == hash((ty.dom, ty.cod))
    assert ty != other and not ty == I and I != ty
    assert repr(ty) == "i>" * 5000 + "i"
    assert repr(arrow([II, I], II)) == "(i>i)>i>i>i"
    assert Const("g", ty) == Const("g", same)


def test_arrow_repr_of_high_order_types():
    # at the default recursion limit: tau_3000, tau_k = tau_(k-1) > i,
    # nests its domains 3000 deep
    ty = I
    for _ in range(3000):
        ty = Arrow(ty, I)
    assert repr(ty) == "(" * 2999 + "i>i" + ")>i" * 2999
    pins = [
        (I, "i"),
        (II, "i>i"),
        (III, "i>i>i"),
        (arrow([II], I), "(i>i)>i"),
        (arrow([II, II], II), "(i>i)>(i>i)>i>i"),
        (arrow([arrow([II], I)], Base("o")), "((i>i)>i)>o"),
    ]
    for ty, want in pins:
        assert repr(ty) == want


def test_arrow_pickles_its_fields_only():
    # types pickle through their constructor with their fields only, no
    # stored hash: a process with another string-hash seed pickles a type
    # to the bytes a pickle made here gives, and reading them back gives
    # the interned object
    script = ("import pickle, sys; from hounif.terms import Arrow, Base; i = Base('i'); "
              "sys.stdout.buffer.write(pickle.dumps("
              "Arrow(Arrow(i, i), Arrow(i, Arrow(i, Arrow(i, i))))))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    data = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          check=True, timeout=60).stdout
    ty = Arrow(Arrow(I, I), Arrow(I, Arrow(I, Arrow(I, I))))
    assert data == pickle.dumps(ty)
    back = pickle.loads(data)
    assert back is ty is arrow([II, I], III)
    assert hash(back) == hash(ty) == hash(arrow([II, I], III))


def test_app_and_lam_are_plain_slotted_nodes():
    # no instance dict; the memoized hash is the one hash(fields) gives
    t = Lam(I, mk_app(g, [Bound(0, I), App(f, a)]))
    assert not hasattr(t, "__dict__") and not hasattr(t.body, "__dict__")
    assert hash(t) == hash((I, t.body)) and hash(t.body) == hash((t.body.fn, App(f, a)))
    assert t == Lam(I, mk_app(g, [Bound(0, I), App(f, a)])) and t != Lam(II, t.body)
    assert App(f, a) != App(f, b) and App(f, a) != Lam(I, a) and not App(f, a) == a
    # pickling keeps the fields only: the same bytes before and after
    # typing and hashing, and a copy that equals and hashes as the original
    fresh = Lam(I, mk_app(g, [Bound(0, I), App(f, a)]))
    data = pickle.dumps(fresh)
    type_of(fresh)
    hash(fresh)
    assert pickle.dumps(fresh) == data
    back = pickle.loads(data)
    assert back == t and back is not t and hash(back) == hash(t) and type_of(back) == II
    match back:
        case Lam(binder, App(App(head, Bound(index=0)), App(fn=fn, arg=arg))):
            assert (binder, head, fn, arg) == (I, g, f, a)
        case _:
            raise AssertionError("class patterns do not match")


def test_base_type_keeps_its_hash_and_pickles_its_name():
    j = Base("j")
    assert hash(j) == hash(("j",)) and j is Base("j") and j == Base("j") and j != I
    assert pickle.loads(pickle.dumps(j)) is j and hash(pickle.loads(pickle.dumps(j))) == hash(j)
    match j:
        case Base(name):
            assert name == "j"


def test_types_are_interned():
    # one object per type: equality is identity, the hash is structural,
    # and pickling (here and from a process with another string-hash
    # seed) gives back the interned object
    d, c = arrow([I, II], I), Arrow(I, I)
    assert Arrow(d, c) is Arrow(d, c) and Arrow(d, c) is arrow([d, I], I)
    assert arrow([II, I], III) is Arrow(Arrow(I, I), Arrow(I, Arrow(I, Arrow(I, I))))
    ty = Arrow(d, c)
    assert hash(ty) == hash((ty.dom, ty.cod)) and hash(I) == hash(("i",))
    assert ty.bases == 6 and I.bases == 1 and Arrow(ty, ty).bases == 12
    assert pickle.loads(pickle.dumps(ty)) is ty and pickle.loads(pickle.dumps([ty, I]))[0] is ty
    script = ("import pickle, sys; from hounif.terms import Arrow, Base; i = Base('i'); "
              "sys.stdout.buffer.write(pickle.dumps(Arrow(Arrow(i, i), Arrow(i, i))))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    data = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          check=True, timeout=60).stdout
    assert pickle.loads(data) is Arrow(II, II)
    match ty:
        case Arrow(Arrow(Base(x), _), Arrow(Base(y), Base(z))):
            assert x == y == z == "i"
        case _:
            raise AssertionError("class patterns do not match")
    # threads racing to intern the same new types all get one object each
    built, start = [], threading.Barrier(4)

    def build():
        start.wait()
        built.append([arrow([Base(f"race{k}")] * 3, Base(f"race{k + 1}")) for k in range(2_000)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(built) == 4
    assert all(a is b for other in built[1:] for a, b in zip(built[0], other))


def test_types_store_their_arity():
    # every type of seeded terms keeps the number of arrows along its
    # codomains, as built and after a pickle round trip
    rng = random.Random(83)
    frees = make_frees(rng, 4, 0)
    terms = [gen_sized(rng, termgen.rand_type(rng), frees=frees, max_size=14) for _ in range(200)]
    arities = set()
    for ty in signature_types(terms):
        n, t = 0, ty
        while type(t) is Arrow:
            n, t = n + 1, t.cod
        back = pickle.loads(pickle.dumps(ty))
        assert ty.arity == back.arity == n == len(arg_types(ty))
        arities.add(n)
    assert arities == {0, 1, 2}


def test_a_repeated_solve_adds_no_type():
    # criterion 10 (F G G =?= f G) solved twice: the second solve builds
    # only types the first one interned
    from hounif import terms
    from hounif.engine import EngineConfig, solve

    F, G = Free(0, III), Free(1, I)
    pairs = [(mk_app(F, [G, G]), App(f, G))]
    streams, sizes = [], []
    for _ in range(2):
        streams.append(solve(pairs, EngineConfig(oracles=())).unifiers(max_pulls=300))
        sizes.append(len(terms._TYPES))
    assert sizes[0] == sizes[1] and repr(streams[0]) == repr(streams[1])
