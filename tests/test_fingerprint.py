"""Fingerprints: encoding and sampling goldens, the lazy sampling pass
against the reference model (the whole first-order image, then sampled),
the two compatibility matrices, the no-false-negatives guarantee, and
trie-vs-scan equality."""

import random

import pytest

from termgen import I, II, III, gen_sized, make_frees, rand_type
from hounif.errors import IllTyped, ParseError
from hounif.fingerprint import (
    A,
    B,
    DEFAULT_POSITIONS,
    FingerprintIndex,
    FingerprintTrie,
    FOTerm,
    N,
    Sym,
    compatible_match,
    compatible_unif,
    encode,
    fp_ho,
    parse_position,
    parse_positions,
    print_position,
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

#: steps below 1 name no child, so they sample as N (or B below a variable)
NONPOS = ((0,), (1, 0), (-1,), ())


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
    postuples = (DEFAULT_POSITIONS, P3, ((),), DEEP3, NONPOS)
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


def test_trie_rejects_wrong_depth():
    trie = FingerprintTrie(2)
    with pytest.raises(ValueError):
        trie.insert(1, (A,))
    with pytest.raises(ValueError):
        trie.retrieve_unifiable((A, A, A))
    with pytest.raises(ValueError):
        trie.retrieve_matching(())
    for depth in (0, -1):
        with pytest.raises(ValueError):
            FingerprintTrie(depth)
    with pytest.raises(ValueError):
        FingerprintIndex(positions=())


# -------------------------------------------------------------- positions


def test_position_parsing_and_printing():
    assert parse_position("e") == ()
    assert parse_position("1") == (1,)
    assert parse_position("1.1.1") == (1, 1, 1)
    assert print_position(()) == "e"
    assert print_position((2, 1)) == "2.1"
    assert parse_positions("e, 1, 2.1") == ((), (1,), (2, 1))
    for bad in ("0", "x", "1..2", "-1"):
        with pytest.raises(ParseError):
            parse_position(bad)
    roundtrip = [(), (1,), (3, 1, 4)]
    assert [parse_position(print_position(p)) for p in roundtrip] == roundtrip


def test_default_positions_are_pinned():
    assert DEFAULT_POSITIONS == ((), (1,), (2,), (1, 1), (1, 2), (2, 1))
