"""Fingerprints: encoding and sampling goldens, the lazy sampling pass
against the reference model (the whole first-order image, then sampled),
the two compatibility matrices, the no-false-negatives guarantee, and
trie-vs-scan equality."""

import pickle
import random

import pytest

from termgen import I, II, III, gen_sized, make_frees, rand_type
from hounif.errors import IllTyped, ParseError
from hounif.fingerprint import (
    A,
    B,
    DEFAULT_POSITIONS,
    FingerprintIndex,
    FOTerm,
    N,
    Sym,
    encode,
    feature_match,
    feature_unif,
    fp_ho,
    parse_position,
    parse_positions,
)
from hounif.normalize import canonical
from hounif.subst import Substitution
from hounif.terms import (
    App,
    Base,
    Bound,
    Const,
    Free,
    Lam,
    arrow,
    free_vars,
    loose_bound_ids,
    mk_app,
    shift,
    type_of,
)

a = Const("a", I)
b = Const("b", I)
f1 = Const("f", II)

#: the worked examples sample at the root's first child, its
#: grand-grandchild, and the second child
P3 = ((1,), (1, 1, 1), (2,))


# ---------------------------------------------------------- reference model


def gfpf(t: FOTerm, pos):
    """The feature of the whole first-order image t at one position."""
    for k in pos:
        if t.sym is None:
            return B
        if not 1 <= k <= len(t.args):
            return N
        t = t.args[k - 1]
    return A if t.sym is None else Sym(t.sym)


def fp(t: FOTerm, positions):
    return tuple(gfpf(t, p) for p in positions)


def eta_contract(t):
    """Every eta-redex \\x. u x (x not free in u) contracted, bottom-up."""
    if isinstance(t, Lam):
        body = eta_contract(t.body)
        if (
            isinstance(body, App)
            and body.arg == Bound(0, t.binder)
            and 0 not in loose_bound_ids(body.fn)
        ):
            return shift(body.fn, -1)
        return Lam(t.binder, body)
    if isinstance(t, App):
        return App(eta_contract(t.fn), eta_contract(t.arg))
    return t


def beta_expand(rng, t):
    """t with one subterm u on a random path replaced by a redex that
    reduces to it: (\\x. x) u, or (\\x. u) a with x not free in u."""
    if isinstance(t, Lam):
        return Lam(t.binder, beta_expand(rng, t.body))
    if isinstance(t, App) and rng.random() < 0.6:
        if rng.random() < 0.5:
            return App(beta_expand(rng, t.fn), t.arg)
        return App(t.fn, beta_expand(rng, t.arg))
    ty = type_of(t)
    if rng.random() < 0.5:
        return App(Lam(ty, Bound(0, ty)), t)
    return App(Lam(I, shift(t, 1)), a)


DEEP3 = ((1, 2, 1), (2,), (3, 1, 1), (1, 1, 1))


# ------------------------------------------------------------------ goldens


def test_first_order_sampling_golden():
    # f(g(X), b) -> (g, B, b) and f(f(a, a), b) -> (f, N, b); the first
    # components clash, so the pair cannot unify
    bin_f = Const("f", III)
    un_g = Const("g", II)
    X = Free(0, I)
    s = mk_app(bin_f, [App(un_g, X), b])
    t = mk_app(bin_f, [mk_app(bin_f, [a, a]), b])
    assert fp_ho(s, P3) == (Sym("g"), B, Sym("b"))
    assert fp_ho(t, P3) == (Sym("f"), N, Sym("b"))
    assert not compatible_unif(fp_ho(s, P3), fp_ho(t, P3))


def test_higher_order_sampling_golden():
    # s = (\x y. x y) g with g : alpha -> beta reduces to the eta-long
    # \y. g y, encoded g(db0); t = f with f : alpha -> alpha -> beta
    # encodes as f(db1, db0)
    alpha, beta = Base("alpha"), Base("beta")
    g1 = Const("g", arrow([alpha], beta))
    f2 = Const("f", arrow([alpha, alpha], beta))
    s = App(
        Lam(arrow([alpha], beta), Lam(alpha, App(Bound(1, arrow([alpha], beta)), Bound(0, alpha)))),
        g1,
    )
    assert encode(s) == FOTerm("g", (FOTerm(0),))
    assert encode(f2) == FOTerm("f", (FOTerm(1), FOTerm(0)))
    fs, ft = fp_ho(s, P3), fp_ho(f2, P3)
    assert fs == (Sym(0), N, N)
    assert ft == (Sym(1), N, Sym(0))
    assert not compatible_unif(fs, ft)
    assert not compatible_match(fs, ft) and not compatible_match(ft, fs)


def test_encoding_erases_binders_and_swallows_flex_arguments():
    F = Free(0, II)
    assert encode(App(F, a)) == FOTerm(None)  # flex head swallows arguments
    assert encode(Free(1, I)) == FOTerm(None)
    assert encode(f1) == FOTerm("f", (FOTerm(0),))  # eta-expanded first
    assert encode(Lam(I, Bound(0, I))) == FOTerm(0)
    assert encode(App(Lam(I, Bound(0, I)), a)) == FOTerm("a")  # beta first
    # root sampling: () is position "e"
    assert fp_ho(App(F, a), ((),)) == (A,)
    assert fp_ho(a, ((),)) == (Sym("a"),)


# ------------------------------------------------------ the lazy pass


def test_lazy_pass_equals_reference_model():
    # canonical, eta-short, beta-expanded and open forms of seeded terms
    rng = random.Random(4242)
    # a repeated position and a lone non-root one: the compiled selection
    # gives each position's feature in the order given
    postuples = (DEFAULT_POSITIONS, P3, ((),), DEEP3, ((2,), (1, 1), (2,)), ((1,),))
    for _ in range(400):
        frees = make_frees(rng, 3, start=0)
        t = gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=10)
        short = eta_contract(t)
        forms = [t, short, beta_expand(rng, t), beta_expand(rng, short)]
        u = t
        while isinstance(u, Lam) and rng.random() < 0.7:
            u = u.body  # loose bound variables at the root
        forms += [u, eta_contract(u)]
        for form in forms:
            image = encode(form)
            for ps in postuples:
                assert fp_ho(form, ps) == fp(image, ps), (form, ps)
            assert FingerprintIndex(DEEP3).fingerprint(form) == fp(image, DEEP3)


def test_lazy_pass_normalizes_a_redex_at_a_sampled_head():
    # f ((\x. g x x) a) b, the redex at position 1; g's arguments are read
    # from the contracted redex, and positions 3 and 1.1.1 do not exist
    f2 = Const("f", III)
    g2 = Const("g", III)
    redex = App(Lam(I, mk_app(g2, [Bound(0, I), Bound(0, I)])), a)
    t = mk_app(f2, [redex, b])
    ps = ((), (1,), (1, 1), (1, 2), (2,), (3,), (1, 1, 1))
    assert fp_ho(t, ps) == (Sym("f"), Sym("g"), Sym("a"), Sym("a"), Sym("b"), N, N)
    assert fp_ho(t, ps) == fp(encode(t), ps)
    # a redex at the root that reduces to an eta-short function: \y. f a y
    root = App(Lam(II, Bound(0, II)), App(f2, a))
    assert fp_ho(root, ps) == fp(encode(root), ps)
    assert fp_ho(root, ps)[:3] == (Sym("f"), Sym("a"), N)


def test_eta_binder_renumbers_the_variables_below_it():
    # \x. h (g (f x)) with h : (i -> i) -> i is eta-long as
    # \x. h (\y. g (f x) y): under the added binder, x is db1
    h1 = Const("h", arrow([II], I))
    g2 = Const("g", III)
    t = Lam(I, App(h1, App(g2, App(f1, Bound(0, I)))))
    ps = ((), (1,), (1, 1), (1, 1, 1), (1, 2))
    assert fp_ho(t, ps) == (Sym("h"), Sym("g"), Sym("f"), Sym(1), Sym(0))
    assert fp_ho(t, ps) == fp(encode(t), ps)


def test_ill_typed_term_still_raises_on_insert():
    index = FingerprintIndex()
    # f applied to a function: the argument type does not match
    with pytest.raises(IllTyped):
        index.insert(0, App(f1, f1))
    # the ill-typed part lies below every sampled position
    deep = App(f1, App(f1, App(f1, App(f1, App(f1, f1)))))
    with pytest.raises(IllTyped):
        index.insert(1, deep)
    with pytest.raises(IllTyped):
        index.insert(2, Lam(I, deep))
    assert index.retrieve_unifiable(a) == set()


def test_deep_tower_fingerprints_at_default_recursion_limit():
    t = a
    for _ in range(900):
        t = App(f1, t)
    f = Sym("f")
    assert FingerprintIndex().fingerprint(t) == (f, f, N, f, N, N)


# ------------------------------------------------------------ compatibility


def compatible_unif(a, b):
    """Could terms with these fingerprints unify?  The componentwise
    reference that trie retrieval is checked against."""
    return len(a) == len(b) and all(feature_unif(x, y) for x, y in zip(a, b))


def compatible_match(query, target):
    """Could a term with fingerprint `query` be instantiated to one with
    fingerprint `target`?"""
    return len(query) == len(target) and all(
        feature_match(x, y) for x, y in zip(query, target)
    )


def _classify(feat):
    return feat if feat in (A, B, N) else "sym"


#: unification compatibility, rows/columns over {sym-equal, sym-distinct,
#: A, B, N}; True entries omitted, False listed
_UNIF_FALSE = {("sym", "sym!"), ("sym", N), (A, N)}
_MATCH_FALSE = {
    ("sym", "sym!"),
    ("sym", A),
    ("sym", B),
    ("sym", N),
    (A, B),
    (A, N),
    (N, "sym"),
    (N, A),
    (N, B),
}


def _pair_kind(x, y):
    cx, cy = _classify(x), _classify(y)
    if cx == "sym" and cy == "sym":
        return ("sym", "sym") if x.sym == y.sym else ("sym", "sym!")
    return (cx, cy)


def test_compatibility_matrices_exhaustive():
    feats = [Sym("f"), Sym("g"), Sym(0), Sym(1), A, B, N]
    for x in feats:
        for y in feats:
            kind = _pair_kind(x, y)
            flipped = (kind[1], kind[0])
            want_unif = kind not in _UNIF_FALSE and flipped not in _UNIF_FALSE
            assert compatible_unif((x,), (y,)) is want_unif, (x, y)
            # the unification table is symmetric
            assert compatible_unif((x,), (y,)) == compatible_unif((y,), (x,))
            want_match = kind not in _MATCH_FALSE
            assert compatible_match((x,), (y,)) is want_match, (x, y)


def test_fingerprints_of_unequal_length_never_compatible():
    assert not compatible_unif((B,), (B, B))
    assert not compatible_match((B,), (B, B))


# ------------------------------------------------- no false negatives


def _random_instance(rng, n_vars=3):
    """A term, a substitution for its variables, and the instance."""
    frees = make_frees(rng, n_vars, start=0)
    s = gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=8)
    aux = make_frees(rng, 2, start=500)
    entries = []
    for fid, var in sorted(free_vars(s).items()):
        entries.append((var, gen_sized(rng, var.ty, mode="any", frees=aux, max_size=6)))
    sigma = Substitution(entries)
    return s, canonical(sigma.apply(s))


def test_no_false_negatives_on_random_instances():
    rng = random.Random(777)
    postuples = (DEFAULT_POSITIONS, P3, ((),))
    for _ in range(300):
        s, t = _random_instance(rng)
        for query in (s, eta_contract(s)):
            for ps in postuples:
                fs, ft = fp_ho(query, ps), fp_ho(t, ps)
                # s and t are unifiable (the substitution is a unifier), and
                # s instantiates to t; an eta-short s stands for the same term
                assert compatible_unif(fs, ft), (query, t, ps)
                assert compatible_unif(ft, fs), (query, t, ps)
                assert compatible_match(fs, ft), (query, t, ps)


def test_index_retrieval_never_misses_a_true_candidate():
    rng = random.Random(778)
    index = FingerprintIndex()
    queries = []
    for i in range(150):
        s, t = _random_instance(rng)
        index.insert(i, t)
        queries.append((i, s))
    for i, s in queries:
        assert i in index.retrieve_unifiable(s)
        assert i in index.retrieve_matching(s)


# ------------------------------------------------------------------- trie


def test_trie_retrieval_equals_linear_scan():
    rng = random.Random(97)
    index = FingerprintIndex()
    stored = {}
    for i in range(200):
        frees = make_frees(rng, 2, start=0)
        t = gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=8)
        stored[i] = index.fingerprint(t)
        index.insert(i, t)
    filtered_somewhere = False
    for _ in range(60):
        frees = make_frees(rng, 2, start=0)
        q = gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=8)
        fq = index.fingerprint(q)
        scan_unif = {i for i, ft in stored.items() if compatible_unif(fq, ft)}
        scan_match = {i for i, ft in stored.items() if compatible_match(fq, ft)}
        assert index.retrieve_unifiable(q) == scan_unif
        assert index.retrieve_matching(q) == scan_match
        if len(scan_unif) < len(stored):
            filtered_somewhere = True
    assert filtered_somewhere  # the filter is not vacuous on this sample


def test_index_rejects_empty_positions():
    with pytest.raises(ValueError):
        FingerprintIndex(positions=())


def test_steps_that_name_no_child_are_rejected():
    for pos in ((0,), (1, 0), (-1,), (1.0,), ("1",)):
        with pytest.raises(ValueError):
            FingerprintIndex(((), pos))
        with pytest.raises(ValueError):
            fp_ho(a, (pos,))


#: every feature kind at both of two positions: equal and distinct
#: constants, a bound head db0 beside a constant named "0", A, B and N
KIND_POSITIONS = ((1,), (1, 1))


def _kind_terms():
    r = Const("r", II)
    r2 = Const("r", arrow([II], I))
    g1 = Const("g", II)
    zero = Const("0", I)
    X = Free(0, I)
    F = Free(1, II)
    return [
        App(r, App(f1, a)),  # f, a
        App(r, App(f1, b)),  # f, b
        App(r, App(g1, a)),  # g, a
        App(r, App(g1, App(f1, a))),  # g, f
        App(r, a),  # a, N
        App(r, zero),  # "0", N
        App(r2, Lam(I, Bound(0, I))),  # db0, N
        App(r2, Lam(I, App(f1, Bound(0, I)))),  # f, db0
        App(r, App(f1, zero)),  # f, "0"
        App(r, App(f1, X)),  # f, A
        App(r, X),  # A, B
        App(r, App(F, a)),  # A, B
        X,  # B, B
        a,  # N, N
    ]


def test_key_lookup_equals_linear_scan_on_every_feature_kind():
    terms = _kind_terms()
    index = FingerprintIndex(KIND_POSITIONS)
    stored = {}
    for i, t in enumerate(terms):
        stored[i] = index.insert(i, t)
    for k in range(2):
        seen = {x[k] for x in stored.values()}
        assert {A, B, N, Sym("f"), Sym("a"), Sym(0), Sym("0")} <= seen
    for q in terms:
        fq = index.fingerprint(q)
        assert index.retrieve_unifiable(q) == {
            i for i, ft in stored.items() if compatible_unif(fq, ft)
        }, fq
        assert index.retrieve_matching(q) == {
            i for i, ft in stored.items() if compatible_match(fq, ft)
        }, fq


def test_one_id_under_several_terms():
    index = FingerprintIndex()
    t1 = App(f1, App(f1, App(f1, a)))
    t2 = App(f1, App(f1, App(f1, b)))  # t1's fingerprint: the leaf is found by map
    assert index.insert(7, t1) == index.insert(7, t2)
    index.insert(8, t2)  # a second id in the same leaf
    assert index.insert(9, a) != index.insert(9, b)  # two leaves
    X = Free(0, I)
    assert index.retrieve_unifiable(t1) == {7, 8}
    assert index.retrieve_matching(App(f1, X)) == {7, 8}
    assert index.retrieve_unifiable(a) == index.retrieve_unifiable(b) == {9}
    assert index.retrieve_unifiable(X) == {7, 8, 9}
    assert index.retrieve_matching(Const("c", I)) == set()


def test_sym_value_semantics():
    assert Sym("f") == Sym("f") and hash(Sym("f")) == hash(Sym("f"))
    assert Sym(0) != Sym("0") and Sym(0) != Sym(1)
    table = {Sym("f"): 1, Sym(0): 2, Sym("0"): 3, A: 4}
    assert table[Sym("f")] == 1 and table[Sym(0)] == 2 and table[Sym("0")] == 3
    for x in (Sym("f"), Sym(0)):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and type(back) is Sym
    assert repr(Sym("f")) == "Sym(sym='f')" and repr(Sym(0)) == "Sym(sym=0)"
    assert str(Sym("f")) == "f" and str(Sym(0)) == "db0"
    # the sampler builds its features without Sym's Python-level __new__
    (sampled,) = fp_ho(Const("f", I), ((),))
    assert type(sampled) is Sym and sampled == Sym("f") and hash(sampled) == hash(Sym("f"))
    back = pickle.loads(pickle.dumps(sampled))
    assert type(back) is Sym and back == sampled


def test_populated_index_survives_pickling():
    # the markers unpickle as the module's own, so the copy's trie keys
    # still meet the query features: f X (0) and f a (1) both answer f a
    X = Free(0, I)
    index = FingerprintIndex()
    index.insert(0, App(f1, X))
    index.insert(1, App(f1, a))
    assert pickle.loads(pickle.dumps((A, B, N))) == (A, B, N)
    copy = pickle.loads(pickle.dumps(index))
    assert copy.retrieve_unifiable(App(f1, a)) == index.retrieve_unifiable(App(f1, a)) == {0, 1}
    rng = random.Random(31)
    for i in range(2, 150):
        frees = make_frees(rng, 2, start=0)
        index.insert(i, gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=8))
    copy = pickle.loads(pickle.dumps(index))
    for _ in range(60):
        frees = make_frees(rng, 2, start=0)
        q = gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=8)
        assert copy.retrieve_unifiable(q) == index.retrieve_unifiable(q)
        assert copy.retrieve_matching(q) == index.retrieve_matching(q)


def test_one_position_index_survives_pickling():
    # one position is picked by a module-level function, not a lambda
    rng = random.Random(32)
    index = FingerprintIndex(((1,),))
    for i in range(100):
        frees = make_frees(rng, 2, start=0)
        index.insert(i, gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=8))
    copy = pickle.loads(pickle.dumps(index))
    answered = 0
    for _ in range(40):
        frees = make_frees(rng, 2, start=0)
        q = gen_sized(rng, rand_type(rng), mode="any", frees=frees, max_size=8)
        assert copy.retrieve_unifiable(q) == index.retrieve_unifiable(q)
        assert copy.retrieve_matching(q) == index.retrieve_matching(q)
        answered += bool(index.retrieve_unifiable(q))
    assert answered


# -------------------------------------------------------------- positions


def test_position_parsing():
    assert parse_position("e") == ()
    assert parse_position("1") == (1,)
    assert parse_position("1.1.1") == (1, 1, 1)
    assert parse_positions("e, 1, 2.1") == ((), (1,), (2, 1))
    for bad in ("0", "x", "1..2", "-1"):
        with pytest.raises(ParseError):
            parse_position(bad)


def test_default_positions_are_pinned():
    assert DEFAULT_POSITIONS == ((), (1,), (2,), (1, 1), (1, 2), (2, 1))
