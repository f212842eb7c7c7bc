"""Reading and writing unification problems in a small text format.

A problem file (conventional extension ``.hou``) is a sequence of
declarations, each ended by a period:

    tp i.                       % a base type
    const f : i > i.            % a constant (name starts lowercase)
    var F : i > i.              % a free variable (name starts uppercase)
    unify: F (f a) =?= f a.     % one goal; several may be given

Types associate to the right (``i > i > i`` is ``i > (i > i)``) and may
be parenthesized.  Terms are identifiers, applications (left
associative), parenthesized terms, or abstractions ``\\x:ty. body``
whose body extends as far right as possible.  ``%`` starts a comment
that runs to the end of the line.  Binder names may shadow declared
symbols; resolution is innermost-first.

Index files reuse the declaration grammar but list terms instead of
goals, plus retrieval queries:

    term: f a.
    query-unif: F b.
    query-match: f B.

Unifier blocks, as printed by `print_unifier`, are line oriented: first
``var H_k : ty.`` declarations for auxiliary variables, then one
``F -> image`` line per mapped problem variable (sorted by name), or the
single word ``identity``.  The ``H_`` namespace is reserved for these
auxiliaries; problem files may not declare names starting with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import DeclError, ParseError
from .normalize import canonical
from .subst import Substitution
from .terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Free,
    Lam,
    Term,
    Type,
    free_vars,
    spine,
    type_of,
)

AUX_PREFIX = "H_"


@dataclass(frozen=True)
class Problem:
    base_types: tuple[str, ...]
    consts: dict[str, Const]
    variables: dict[str, Free]
    goals: tuple[tuple[Term, Term], ...]

    def var_names(self) -> dict[int, str]:
        return {v.id: name for name, v in self.variables.items()}


@dataclass(frozen=True)
class IndexFile:
    base_types: tuple[str, ...]
    consts: dict[str, Const]
    variables: dict[str, Free]
    entries: tuple[Term, ...]
    queries: tuple[tuple[str, Term], ...]  # ("unif" | "match", term)

    def var_names(self) -> dict[int, str]:
        return {v.id: name for name, v in self.variables.items()}


# ---------------------------------------------------------------- tokenizer


@dataclass(frozen=True)
class _Tok:
    kind: str  # ident dot colon lparen rparen lam gt uniq arrow eof
    text: str
    line: int
    col: int


def _tokenize(text: str, start_line: int = 1) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = start_line, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            word = text[i:j]
            # '-' is only part of the two query keywords
            while "-" in word and word not in ("query-unif", "query-match"):
                j = i + word.rindex("-")
                word = text[i:j]
            if not word:
                raise ParseError("stray '-'", line, col)
            toks.append(_Tok("ident", word, line, col))
            col += j - i
            i = j
            continue
        simple = {".": "dot", ":": "colon", "(": "lparen", ")": "rparen",
                  "\\": "lam", ">": "gt"}
        if ch in simple:
            toks.append(_Tok(simple[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "=":
            if text[i : i + 3] == "=?=":
                toks.append(_Tok("unifeq", "=?=", line, col))
                i += 3
                col += 3
                continue
            raise ParseError("expected '=?='", line, col)
        if ch == "-":
            if text[i : i + 2] == "->":
                toks.append(_Tok("arrow", "->", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("expected '->'", line, col)
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, toks: list[_Tok], scope: "_Scope"):
        self.toks = toks
        self.pos = 0
        self.scope = scope

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    # types ------------------------------------------------------------

    def parse_type(self) -> Type:
        dom = self._type_atom()
        if self.peek().kind == "gt":
            self.next()
            return Arrow(dom, self.parse_type())
        return dom

    def _type_atom(self) -> Type:
        t = self.next()
        if t.kind == "lparen":
            inner = self.parse_type()
            self.expect("rparen", "')'")
            return inner
        if t.kind == "ident":
            if t.text not in self.scope.base_types:
                raise DeclError(f"undeclared type {t.text!r} at {t.line}:{t.col}")
            return Base(t.text)
        raise ParseError("expected a type", t.line, t.col)

    # terms ------------------------------------------------------------

    _ATOM_STARTS = {"ident", "lparen", "lam"}

    def parse_term(self, binders: list[tuple[str, Type]]) -> Term:
        t = self.peek()
        if t.kind == "lam":
            return self._lambda(binders)
        out = self._atom(binders)
        while self.peek().kind in self._ATOM_STARTS:
            if self.peek().kind == "lam":
                arg = self._lambda(binders)
            else:
                arg = self._atom(binders)
            out = self._apply(out, arg, t)
        return out

    def _lambda(self, binders) -> Term:
        self.expect("lam", "'\\'")
        name = self.expect("ident", "a binder name").text
        self.expect("colon", "':'")
        ty = self.parse_type()
        self.expect("dot", "'.' after the binder type")
        body = self.parse_term(binders + [(name, ty)])
        return Lam(ty, body)

    def _atom(self, binders) -> Term:
        t = self.next()
        if t.kind == "lparen":
            inner = self.parse_term(binders)
            self.expect("rparen", "')'")
            return inner
        if t.kind == "ident":
            for depth, (name, ty) in enumerate(reversed(binders)):
                if name == t.text:
                    return Bound(depth, ty)
            return self.scope.lookup(t.text, t.line, t.col)
        raise ParseError("expected a term", t.line, t.col)

    @staticmethod
    def _apply(fn: Term, arg: Term, at: _Tok) -> Term:
        fn_ty = type_of(fn)
        if not isinstance(fn_ty, Arrow) or fn_ty.dom != type_of(arg):
            raise DeclError(
                f"ill-typed application near {at.line}:{at.col}: "
                f"{fn_ty} applied to {type_of(arg)}"
            )
        return App(fn, arg)


@dataclass
class _Scope:
    base_types: set = field(default_factory=set)
    consts: dict = field(default_factory=dict)
    variables: dict = field(default_factory=dict)
    next_var_id: int = 0
    allow_aux: bool = False

    def declare(self, kind: str, name: str, ty: Optional[Type], tok: _Tok):
        if name in self.base_types or name in self.consts or name in self.variables:
            raise DeclError(f"{name!r} declared twice (at {tok.line}:{tok.col})")
        if name.startswith(AUX_PREFIX) and not self.allow_aux:
            raise DeclError(
                f"{name!r} at {tok.line}:{tok.col}: the {AUX_PREFIX} prefix is "
                "reserved for printed auxiliary variables"
            )
        if kind == "tp":
            self.base_types.add(name)
        elif kind == "const":
            if not name[0].islower():
                raise DeclError(f"constant {name!r} must start lowercase "
                                f"(at {tok.line}:{tok.col})")
            self.consts[name] = Const(name, ty)
        else:
            if not name[0].isupper():
                raise DeclError(f"variable {name!r} must start uppercase "
                                f"(at {tok.line}:{tok.col})")
            self.variables[name] = Free(self.next_var_id, ty)
            self.next_var_id += 1

    def lookup(self, name: str, line: int, col: int) -> Term:
        if name in self.variables:
            return self.variables[name]
        if name in self.consts:
            return self.consts[name]
        raise DeclError(f"undeclared symbol {name!r} at {line}:{col}")


def _parse_file(text: str, kind: str):
    scope = _Scope()
    p = _Parser(_tokenize(text), scope)
    goals: list[tuple[Term, Term]] = []
    entries: list[Term] = []
    queries: list[tuple[str, Term]] = []
    while p.peek().kind != "eof":
        tok = p.expect("ident", "a declaration keyword")
        word = tok.text
        if word in ("tp", "const", "var"):
            name = p.expect("ident", "a name").text
            ty = None
            if word != "tp":
                p.expect("colon", "':'")
                ty = p.parse_type()
            scope.declare(word, name, ty, tok)
        elif word == "unify" and kind == "problem":
            p.expect("colon", "':'")
            lhs = p.parse_term([])
            p.expect("unifeq", "'=?='")
            rhs = p.parse_term([])
            if type_of(lhs) != type_of(rhs):
                raise DeclError(
                    f"goal at {tok.line}:{tok.col} relates distinct types "
                    f"{type_of(lhs)} and {type_of(rhs)}"
                )
            goals.append((lhs, rhs))
        elif word == "term" and kind == "index":
            p.expect("colon", "':'")
            entries.append(p.parse_term([]))
        elif word in ("query-unif", "query-match") and kind == "index":
            p.expect("colon", "':'")
            queries.append((word.removeprefix("query-"), p.parse_term([])))
        else:
            raise ParseError(f"unknown declaration {word!r}", tok.line, tok.col)
        p.expect("dot", "'.' ending the declaration")
    return scope, goals, entries, queries


def parse_problem(text: str) -> Problem:
    scope, goals, _, _ = _parse_file(text, "problem")
    return Problem(tuple(sorted(scope.base_types)), dict(scope.consts),
                   dict(scope.variables), tuple(goals))


def parse_index(text: str) -> IndexFile:
    scope, _, entries, queries = _parse_file(text, "index")
    return IndexFile(tuple(sorted(scope.base_types)), dict(scope.consts),
                     dict(scope.variables), tuple(entries), tuple(queries))


# ------------------------------------------------------------------ printing


def print_type(ty: Type) -> str:
    if isinstance(ty, Arrow):
        dom = print_type(ty.dom)
        if isinstance(ty.dom, Arrow):
            dom = f"({dom})"
        return f"{dom} > {print_type(ty.cod)}"
    return ty.name


def print_term(t: Term, names: dict[int, str], depth: int = 0) -> str:
    if isinstance(t, Lam):
        body = print_term(t.body, names, depth + 1)
        return f"\\x{depth + 1}:{print_type(t.binder)}. {body}"
    head, args = spine(t)
    if isinstance(head, Free):
        head_str = names.get(head.id, f"?{head.id}")
    elif isinstance(head, Bound):
        head_str = f"x{depth - head.index}"
    elif isinstance(head, Const):
        head_str = head.name
    else:  # a beta redex head: print it parenthesized
        head_str = f"({print_term(head, names, depth)})"
    parts = [head_str]
    for a in args:
        s = print_term(a, names, depth)
        if isinstance(a, (App, Lam)):
            s = f"({s})"
        parts.append(s)
    return " ".join(parts)


def print_problem(problem: Problem) -> str:
    lines = [f"tp {name}." for name in problem.base_types]
    lines += [f"const {name} : {print_type(c.ty)}." for name, c in problem.consts.items()]
    lines += [f"var {name} : {print_type(v.ty)}." for name, v in problem.variables.items()]
    names = problem.var_names()
    lines += [
        f"unify: {print_term(s, names)} =?= {print_term(t, names)}."
        for s, t in problem.goals
    ]
    return "\n".join(lines) + "\n"


def print_unifier(sigma: Substitution, problem: Problem) -> str:
    """Deterministic text for a unifier of the problem's goals: auxiliary
    variable declarations first, then one mapping line per problem
    variable, sorted by name."""
    names = problem.var_names()
    mapped = []
    for var, image in sigma.items():
        name = names.get(var.id)
        if name is None:
            raise DeclError(f"unifier maps unknown variable id {var.id}")
        mapped.append((name, canonical(image)))
    mapped.sort()
    if not mapped:
        return "identity\n"
    aux: dict[int, tuple[str, Free]] = {}
    for _, image in mapped:
        for v in free_vars(image).values():
            if v.id not in names and v.id not in aux:
                aux[v.id] = (f"{AUX_PREFIX}{len(aux) + 1}", v)
    all_names = dict(names)
    all_names.update({vid: nm for vid, (nm, _) in aux.items()})
    lines = [f"var {nm} : {print_type(v.ty)}." for nm, v in aux.values()]
    lines += [f"{name} -> {print_term(image, all_names)}" for name, image in mapped]
    return "\n".join(lines) + "\n"


def parse_unifier(text: str, problem: Problem) -> Substitution:
    """Parse `print_unifier` output back into a substitution over the
    problem's variables."""
    scope = _Scope(
        base_types=set(problem.base_types),
        consts=dict(problem.consts),
        variables=dict(problem.variables),
        next_var_id=1 + max((v.id for v in problem.variables.values()), default=-1),
        allow_aux=True,
    )
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line == "identity":
            continue
        p = _Parser(_tokenize(line, start_line=lineno), scope)
        first = p.expect("ident", "a variable name or 'var'")
        if first.text == "var":
            name = p.expect("ident", "a name").text
            p.expect("colon", "':'")
            ty = p.parse_type()
            scope.declare("var", name, ty, first)
            p.expect("dot", "'.' ending the declaration")
            p.expect("eof", "end of line")
            continue
        if first.text not in problem.variables:
            raise DeclError(
                f"line {lineno}: {first.text!r} is not a problem variable"
            )
        p.expect("arrow", "'->'")
        image = p.parse_term([])
        p.expect("eof", "end of line")
        entries.append((problem.variables[first.text], image))
    return Substitution(entries)
