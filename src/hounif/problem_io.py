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

Both read into one `Problem`: a problem file leaves `entries` and
`queries` empty, an index file leaves `goals` empty.

Unifier blocks, as printed by `print_unifier`, are line oriented: first
``var H_k : ty.`` declarations for auxiliary variables, then one
``F -> image`` line per mapped problem variable (sorted by name), or the
single word ``identity``.  The ``H_`` namespace is reserved for these
auxiliaries; problem files may not declare names starting with it.

The reader and the printers keep their pending work on explicit stacks,
so no call recurses on the nesting of a term or a type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    arrow,
    free_vars,
    show_type,
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
    entries: tuple[Term, ...] = ()
    queries: tuple[tuple[str, Term], ...] = ()  # ("unif" | "match", term)

    def var_names(self) -> dict[int, str]:
        return {v.id: name for name, v in self.variables.items()}


# ---------------------------------------------------------------- tokenizer


class _Tok(NamedTuple):
    kind: str  # ident dot colon lparen rparen lam gt unifeq arrow eof
    text: str
    line: int
    col: int


# A group's name is its token's kind.  An identifier starts with a letter
# or '_'; '-' belongs only to the two query keywords.  A comment does not
# advance the column.
_TOKEN = re.compile(r"""
    (?P<blank>[ \t\r\n]+) | (?P<comment>%[^\n]*)
  | (?P<ident>query-(?:unif|match)(?!\w) | [^\W\d]\w*)
  | (?P<unifeq>=\?=) | (?P<arrow>->) | (?P<dot>\.) | (?P<colon>:)
  | (?P<lparen>\() | (?P<rparen>\)) | (?P<lam>\\) | (?P<gt>>)
""", re.VERBOSE)


def _tokenize(text: str, line: int = 1) -> list[_Tok]:
    toks: list[_Tok] = []
    i, col = 0, 1
    while i < len(text):
        m = _TOKEN.match(text, i)
        ch = text[i]
        # `[^\W\d]` also admits numeric characters that are not digits
        if m is None or m.lastgroup == "ident" and not (ch.isalpha() or ch == "_"):
            if ch in "=-":
                raise ParseError(f"expected {'=?=' if ch == '=' else '->'!r}", line, col)
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind, word, i = m.lastgroup, m.group(), m.end()
        if kind == "blank" and "\n" in word:
            line += word.count("\n")
            col = len(word) - word.rindex("\n")
        elif kind != "comment":
            if kind != "blank":
                toks.append(_Tok(kind, word, line, col))
            col += len(word)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ------------------------------------------------------------------- parser


class _Parser:
    """A token list, read against the names declared so far.  A unifier
    block is read against its problem's names, and only it may declare
    the auxiliaries of the reserved namespace."""

    def __init__(self, text: str, problem: Optional[Problem] = None):
        self.toks, self.pos = _tokenize(text), 0
        self.base_types = set(problem.base_types if problem else ())
        self.consts = dict(problem.consts if problem else {})
        self.variables = dict(problem.variables if problem else {})
        self.next_var_id = 1 + max((v.id for v in self.variables.values()), default=-1)
        self.allow_aux = problem is not None

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def declaration(self, tok: _Tok) -> None:
        """The rest of the ``tp``, ``const`` or ``var`` declaration `tok`
        starts, up to its period."""
        name = self.expect("ident", "a name").text
        ty = None
        if tok.text != "tp":
            self.expect("colon", "':'")
            ty = self.parse_type()
        if name in self.base_types or name in self.consts or name in self.variables:
            raise DeclError(f"{name!r} declared twice (at {tok.line}:{tok.col})")
        if name.startswith(AUX_PREFIX) and not self.allow_aux:
            raise DeclError(f"{name!r} at {tok.line}:{tok.col}: the {AUX_PREFIX} prefix is "
                            "reserved for printed auxiliary variables")
        if tok.text == "tp":
            self.base_types.add(name)
        elif tok.text == "const":
            if not name[0].islower():
                raise DeclError(f"constant {name!r} must start lowercase (at {tok.line}:{tok.col})")
            self.consts[name] = Const(name, ty)
        else:
            if not name[0].isupper():
                raise DeclError(f"variable {name!r} must start uppercase (at {tok.line}:{tok.col})")
            self.variables[name] = Free(self.next_var_id, ty)
            self.next_var_id += 1

    def parse_type(self) -> Type:
        """`doms` holds the domains read so far in the innermost open
        parenthesis, `opened` those of the enclosing ones."""
        opened: list[list[Type]] = []
        doms: list[Type] = []
        while True:
            t = self.next()
            if t.kind == "lparen":
                opened.append(doms)
                doms = []
                continue
            if t.kind != "ident":
                raise ParseError("expected a type", t.line, t.col)
            if t.text not in self.base_types:
                raise DeclError(f"undeclared type {t.text!r} at {t.line}:{t.col}")
            ty: Type = Base(t.text)
            while self.peek().kind != "gt":
                ty = arrow(doms, ty)
                if not opened:
                    return ty
                self.expect("rparen", "')'")
                doms = opened.pop()
            self.next()
            doms.append(ty)

    def parse_term(self) -> Term:
        """Each open parenthesis or λ body suspends the application read
        so far as a frame (binder type or None, its first token, its
        function); `binders` holds the open λs, innermost last."""
        frames: list[tuple[Optional[Type], _Tok, Optional[Term]]] = []
        binders: list[tuple[str, Type]] = []
        start, fn = self.peek(), None
        while True:
            t = self.next()
            if t.kind == "lam" or t.kind == "lparen":
                ty = None
                if t.kind == "lam":
                    name = self.expect("ident", "a binder name").text
                    self.expect("colon", "':'")
                    ty = self.parse_type()
                    self.expect("dot", "'.' after the binder type")
                    binders.append((name, ty))
                frames.append((ty, start, fn))
                start, fn = self.peek(), None
                continue
            if t.kind != "ident":
                raise ParseError("expected a term", t.line, t.col)
            atom = next((Bound(depth, ty) for depth, (name, ty) in enumerate(reversed(binders))
                         if name == t.text), None)
            atom = atom or self.variables.get(t.text) or self.consts.get(t.text)
            if atom is None:
                raise DeclError(f"undeclared symbol {t.text!r} at {t.line}:{t.col}")
            while True:
                fn = atom if fn is None else self._apply(fn, atom, start)
                if self.peek().kind in ("ident", "lparen", "lam"):
                    break
                if not frames:
                    return fn
                ty, start, outer = frames.pop()
                if ty is None:
                    self.expect("rparen", "')'")
                    atom = fn
                else:
                    binders.pop()
                    atom = Lam(ty, fn)
                fn = outer

    @staticmethod
    def _apply(fn: Term, arg: Term, at: _Tok) -> Term:
        fn_ty = type_of(fn)
        if not isinstance(fn_ty, Arrow) or fn_ty.dom is not type_of(arg):
            raise DeclError(
                f"ill-typed application near {at.line}:{at.col}: "
                f"{fn_ty} applied to {type_of(arg)}"
            )
        return App(fn, arg)


def _parse_file(text: str, kind: str) -> Problem:
    p = _Parser(text)
    goals: list[tuple[Term, Term]] = []
    entries: list[Term] = []
    queries: list[tuple[str, Term]] = []
    while p.peek().kind != "eof":
        tok = p.expect("ident", "a declaration keyword")
        word = tok.text
        if word in ("tp", "const", "var"):
            p.declaration(tok)
        elif word == "unify" and kind == "problem":
            p.expect("colon", "':'")
            lhs = p.parse_term()
            p.expect("unifeq", "'=?='")
            rhs = p.parse_term()
            if type_of(lhs) != type_of(rhs):
                raise DeclError(f"goal at {tok.line}:{tok.col} relates distinct types "
                                f"{type_of(lhs)} and {type_of(rhs)}")
            goals.append((lhs, rhs))
        elif word == "term" and kind == "index":
            p.expect("colon", "':'")
            entries.append(p.parse_term())
        elif word in ("query-unif", "query-match") and kind == "index":
            p.expect("colon", "':'")
            queries.append((word.removeprefix("query-"), p.parse_term()))
        else:
            raise ParseError(f"unknown declaration {word!r}", tok.line, tok.col)
        p.expect("dot", "'.' ending the declaration")
    return Problem(tuple(sorted(p.base_types)), p.consts, p.variables,
                   tuple(goals), tuple(entries), tuple(queries))


def parse_problem(text: str) -> Problem:
    return _parse_file(text, "problem")


def parse_index(text: str) -> Problem:
    return _parse_file(text, "index")


# ------------------------------------------------------------------ printing
# Each printer pops pieces pushed in reverse order: a string to emit, or a
# type or (term, binder depth) to print.


def print_type(ty: Type) -> str:
    return show_type(ty, " > ")


def print_term(t: Term, names: dict[int, str]) -> str:
    out, todo = [], [(t, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, depth = item
        if type(t) is Lam:
            out.append(f"\\x{depth + 1}:{print_type(t.binder)}. ")
            todo.append((t.body, depth + 1))
            continue
        head, args = spine(t)
        for a in reversed(args):
            todo += (")", (a, depth), " (") if type(a) in (App, Lam) else ((a, depth), " ")
        cls = type(head)
        if cls is Free:
            out.append(names.get(head.id, f"?{head.id}"))
        elif cls is Bound:
            out.append(f"x{depth - head.index}")
        elif cls is Const:
            out.append(head.name)
        else:  # a beta redex head: print it parenthesized
            out.append("(")
            todo += (")", (head, depth))
    return "".join(out)


def print_problem(problem: Problem) -> str:
    lines = [f"tp {name}." for name in problem.base_types]
    lines += [f"const {name} : {print_type(c.ty)}." for name, c in problem.consts.items()]
    lines += [f"var {name} : {print_type(v.ty)}." for name, v in problem.variables.items()]
    names = problem.var_names()
    lines += [f"unify: {print_term(s, names)} =?= {print_term(t, names)}."
              for s, t in problem.goals]
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
    all_names = names | {vid: nm for vid, (nm, _) in aux.items()}
    lines = [f"var {nm} : {print_type(v.ty)}." for nm, v in aux.values()]
    lines += [f"{name} -> {print_term(image, all_names)}" for name, image in mapped]
    return "\n".join(lines) + "\n"


def parse_unifier(text: str, problem: Problem) -> Substitution:
    """Parse `print_unifier` output back into a substitution over the
    problem's variables."""
    p = _Parser("", problem)
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if line in ("", "identity"):
            continue
        p.toks, p.pos = _tokenize(line, lineno), 0
        first = p.expect("ident", "a variable name or 'var'")
        if first.text == "var":
            p.declaration(first)
            p.expect("dot", "'.' ending the declaration")
        elif first.text in problem.variables:
            p.expect("arrow", "'->'")
            entries.append((problem.variables[first.text], p.parse_term()))
        else:
            raise DeclError(f"line {lineno}: {first.text!r} is not a problem variable")
        p.expect("eof", "end of line")
    return Substitution(entries)
