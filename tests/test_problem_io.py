"""Problem files: parsing goldens, declaration errors, printing
roundtrips, and the unifier block format."""

import re

import pytest

from termgen import subst_key
from hounif.errors import DeclError, ParseError
from hounif.problem_io import (
    AUX_PREFIX,
    _tokenize,
    Problem,
    parse_index,
    parse_problem,
    parse_unifier,
    print_problem,
    print_term,
    print_type,
    print_unifier,
)
from hounif.subst import Substitution
from hounif.terms import App, Arrow, Base, Bound, Const, Free, Lam, mk_app

I = Base("i")

PROBLEM_TEXT = """\
% a tiny signature and two goals
tp i.
const a : i.
const f : i > i.
const g : i > i > i.
var F : i > i.
var G : i.
unify: F (f a) =?= f a.     % goals may share declarations
unify: G =?= g a a.
"""


def test_parse_problem_golden():
    p = parse_problem(PROBLEM_TEXT)
    assert p.base_types == ("i",)
    assert set(p.consts) == {"a", "f", "g"}
    assert p.consts["g"].ty == Arrow(I, Arrow(I, I))
    assert [v.id for v in p.variables.values()] == [0, 1]
    F, G = p.variables["F"], p.variables["G"]
    assert F.ty == Arrow(I, I) and G.ty == I
    a, f, g = p.consts["a"], p.consts["f"], p.consts["g"]
    assert p.goals[0] == (App(F, App(f, a)), App(f, a))
    assert p.goals[1] == (G, mk_app(g, [a, a]))


def test_types_associate_right_and_parenthesize():
    p = parse_problem(
        "tp i. var F : i > i > i. var G : (i > i) > i."
    )
    assert p.variables["F"].ty == Arrow(I, Arrow(I, I))
    assert p.variables["G"].ty == Arrow(Arrow(I, I), I)
    assert print_type(p.variables["F"].ty) == "i > i > i"
    assert print_type(p.variables["G"].ty) == "(i > i) > i"


def test_lambda_body_extends_right_and_binders_shadow():
    p = parse_problem(
        "tp i. const x : i. const f : i > i. var E : i > i. var D : i > i > i.\n"
        "unify: E =?= \\x:i. f x.\n"
        "unify: D =?= \\x:i. \\x:i. x.\n"
    )
    f = p.consts["f"]
    # the body reaches as far right as possible: \x. (f x), not (\x. f) x
    assert p.goals[0][1] == Lam(I, App(f, Bound(0, I)))
    # the binder shadows the constant x, innermost first
    assert p.goals[1][1] == Lam(I, Lam(I, Bound(0, I)))


def test_beta_redex_input_is_accepted():
    p = parse_problem(
        "tp i. const a : i. const f : i > i. var F : i.\n"
        "unify: F =?= (\\x:i. f x) a.\n"
    )
    f, a = p.consts["f"], p.consts["a"]
    assert p.goals[0][1] == App(Lam(I, App(f, Bound(0, I))), a)


@pytest.mark.parametrize(
    "text",
    [
        "tp i. var F : i unify: F =?= F.",  # missing dot
        "tp i. frobnicate: a.",  # unknown declaration
        "tp i. const a : i. unify a =?= a.",  # missing colon
        "tp i. const a : i. unify: a = a.",  # bad equality token
        "tp i. @",  # stray character
        "tp i. const a-b : i.",  # '-' outside the query keywords
        "tp i. term: a.",  # index declaration in a problem file
        "tp i. var F : .",  # expected a type
        "tp i. const a : i. unify: =?= a.",  # expected a term
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_problem(text)


@pytest.mark.parametrize(
    "text",
    [
        "var F : i.",  # undeclared type
        "tp i. const a : i. const a : i.",  # duplicate
        "tp i. const A : i.",  # constant must start lowercase
        "tp i. var f : i.",  # variable must start uppercase
        "tp i. var H_1 : i.",  # reserved auxiliary namespace
        "tp i. const a : i. unify: b =?= a.",  # undeclared symbol
        "tp i. const a : i. unify: a a =?= a.",  # ill-typed application
        "tp i. const a : i. const f : i > i. unify: f =?= a.",  # type clash
    ],
)
def test_declaration_errors(text):
    with pytest.raises(DeclError):
        parse_problem(text)


def test_problem_print_parse_roundtrip():
    p = parse_problem(PROBLEM_TEXT)
    text = print_problem(p)
    q = parse_problem(text)
    assert q.base_types == p.base_types
    assert q.consts == p.consts
    assert {n: v.ty for n, v in q.variables.items()} == {
        n: v.ty for n, v in p.variables.items()
    }
    assert q.goals == p.goals
    assert print_problem(q) == text  # printing is a fixed point


def test_print_term_shapes():
    f = Const("f", Arrow(I, I))
    g = Const("g", Arrow(I, Arrow(I, I)))
    a = Const("a", I)
    assert print_term(Lam(I, App(f, Bound(0, I))), {}) == "\\x1:i. f x1"
    assert (
        print_term(Lam(I, Lam(I, App(f, Bound(1, I)))), {}) == "\\x1:i. \\x2:i. f x1"
    )
    assert print_term(mk_app(g, [App(f, a), a]), {}) == "g (f a) a"
    assert print_term(Free(7, I), {7: "F"}) == "F"
    assert print_term(Free(7, I), {}) == "?7"  # unnamed variables stay readable


def test_unifier_identity_and_golden_block():
    p = parse_problem(PROBLEM_TEXT)
    assert print_unifier(Substitution(), p) == "identity\n"
    assert len(parse_unifier("identity\n", p)) == 0

    F = p.variables["F"]
    g = p.consts["g"]
    H = Free(57, I)  # an auxiliary introduced by the solver
    sigma = Substitution(((F, Lam(I, mk_app(g, [H, Bound(0, I)]))),))
    text = print_unifier(sigma, p)
    assert text == "var H_1 : i.\nF -> \\x1:i. g H_1 x1\n"


def test_unifier_print_parse_roundtrip_mod_renaming():
    p = parse_problem(PROBLEM_TEXT)
    F, G = p.variables["F"], p.variables["G"]
    g, a = p.consts["g"], p.consts["a"]
    H = Free(57, I)
    sigma = Substitution(
        (
            (F, Lam(I, mk_app(g, [H, Bound(0, I)]))),
            (G, mk_app(g, [H, a])),  # the auxiliary is shared
        )
    )
    back = parse_unifier(print_unifier(sigma, p), p)
    fixed = [F, G]
    assert subst_key(back, fixed) == subst_key(sigma, fixed)
    # the shared auxiliary stays a single variable after the roundtrip
    aux_ids = {
        v.id for _, img in back.items() for v in _frees(img) if v.id not in (0, 1)
    }
    assert len(aux_ids) == 1


def _frees(t):
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Free):
            yield u
        elif isinstance(u, Lam):
            stack.append(u.body)
        elif isinstance(u, App):
            stack.extend((u.fn, u.arg))


def test_unifier_block_errors():
    p = parse_problem(PROBLEM_TEXT)
    with pytest.raises(DeclError):
        parse_unifier("Q -> a\n", p)  # not a problem variable
    with pytest.raises(DeclError):
        # image mentions an undeclared symbol
        parse_unifier("F -> \\x1:i. q x1\n", p)
    with pytest.raises(DeclError):
        # printing a substitution that maps a variable the problem lacks
        print_unifier(Substitution(((Free(99, I), Const("a", I)),)), p)


def test_aux_prefix_is_reserved_but_printable():
    assert AUX_PREFIX == "H_"
    p = parse_problem(PROBLEM_TEXT)
    # parse_unifier may declare H_-auxiliaries even though problems cannot
    sigma = parse_unifier("var H_1 : i.\nG -> g a H_1\n", p)
    image = sigma.image_of(p.variables["G"].id)
    assert image is not None and len(list(_frees(image))) == 1


def test_index_file_parsing():
    text = """\
tp i.
const a : i.
const f : i > i.
var F : i > i.
term: f a.
term: a.
query-unif: F a.
query-match: f a.
"""
    idx = parse_index(text)
    f, a, F = idx.consts["f"], idx.consts["a"], idx.variables["F"]
    assert idx.entries == (App(f, a), a)
    assert idx.queries == (("unif", App(F, a)), ("match", App(f, a)))
    with pytest.raises(ParseError):
        parse_index("tp i. const a : i. unify: a =?= a.")


def test_tokens_kinds_and_positions():
    toks = _tokenize("query-unif: \\X:i>i.\n  %c\n F =?= G_1 -> (a) %end", line=3)
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("ident", "query-unif", 3, 1), ("colon", ":", 3, 11), ("lam", "\\", 3, 13),
        ("ident", "X", 3, 14), ("colon", ":", 3, 15), ("ident", "i", 3, 16),
        ("gt", ">", 3, 17), ("ident", "i", 3, 18), ("dot", ".", 3, 19), ("ident", "F", 5, 2),
        ("unifeq", "=?=", 5, 4), ("ident", "G_1", 5, 8), ("arrow", "->", 5, 12),
        ("lparen", "(", 5, 15), ("ident", "a", 5, 16), ("rparen", ")", 5, 17),
        ("eof", "", 5, 19),  # a comment does not advance the column
    ]
    # '-' belongs only to the query keywords, which end before a word character
    assert [t.text for t in _tokenize("query-match query-unif-> query_unif")] == [
        "query-match", "query-unif", "->", "query_unif", ""
    ]
    for text, message in [("a-b", "expected '->'"), ("query-unifx", "expected '->'"),
                          ("a = b", "expected '=?='"), ("\u00b2", "unexpected character"),
                          ("1a", "unexpected character")]:
        with pytest.raises(ParseError, match=re.escape(message)):
            _tokenize(text)


def test_deep_input_round_trips():
    # at the default recursion limit: a 5,000-deep application tower, λ
    # nest, parenthesized term and parenthesized type, and a 5,000-argument type
    k = 5000
    tower = "h (" * (k - 1) + "h a" + ")" * (k - 1)
    binders = "".join(f"\\x{n}:i. " for n in range(1, k + 1))
    text = (
        "tp i.\nconst a : i.\nconst h : i > i.\n"
        f"var F : {' > '.join(['i'] * (k + 1))}.\nvar G : {'(' * k}i > i{')' * k}.\nvar X : i.\n"
        f"unify: {tower} =?= X.\n"
        f"unify: F =?= {binders}x1.\n"
        f"unify: G =?= {'(' * k}h{')' * k}.\n"
    )
    p = parse_problem(text)
    assert p.variables["G"].ty == Arrow(I, I)
    h, a = p.consts["h"], p.consts["a"]
    t = a
    for _ in range(k):
        t = App(h, t)
    assert p.goals[0][0] == t and p.goals[2][1] == h
    printed = print_problem(p)
    assert printed.splitlines()[-3] == f"unify: {tower} =?= X."
    assert printed.splitlines()[-2] == f"unify: F =?= {binders}x1."
    q = parse_problem(printed)
    assert q.goals == p.goals and print_problem(q) == printed
    sigma = Substitution(((p.variables["X"], t),))
    assert print_unifier(sigma, p) == f"X -> {tower}\n"
    assert parse_unifier(print_unifier(sigma, p), p).image_of(p.variables["X"].id) == t
