"""Simply typed lambda terms in de Bruijn representation.

Terms are immutable and structurally shared.  Bound variables carry their
type and a de Bruijn index (0 = innermost enclosing binder).  Free
variables are identified by an interned integer id; display names live in
a side table owned by whoever created the variable (see problem_io).

The measure `size` is defined on beta-reduced terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import IllTyped

# ---------------------------------------------------------------- types


@dataclass(frozen=True, slots=True)
class Base:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Arrow:
    dom: "Type"
    cod: "Type"

    def __repr__(self):
        d = f"({self.dom!r})" if isinstance(self.dom, Arrow) else repr(self.dom)
        return f"{d}>{self.cod!r}"


Type = Union[Base, Arrow]


def arrow(doms, cod: Type) -> Type:
    """alpha_1 -> ... -> alpha_n -> cod, right associated."""
    ty = cod
    for d in reversed(tuple(doms)):
        ty = Arrow(d, ty)
    return ty


def arg_types(ty: Type) -> tuple[Type, ...]:
    out = []
    while isinstance(ty, Arrow):
        out.append(ty.dom)
        ty = ty.cod
    return tuple(out)


def result_type(ty: Type) -> Base:
    while isinstance(ty, Arrow):
        ty = ty.cod
    return ty


def arity(ty: Type) -> int:
    n = 0
    while isinstance(ty, Arrow):
        n += 1
        ty = ty.cod
    return n


# ---------------------------------------------------------------- terms

#: Sorts of free variables.  Variables of the initial problem are plain;
#: the engine tags some freshly invented variables to restrict which
#: bindings may later be applied to them.
PLAIN = "plain"
IDENTIFICATION = "identification"
ELIMINATION = "elimination"


@dataclass(frozen=True, slots=True)
class Free:
    id: int
    ty: Type
    sort: str = PLAIN

    def __repr__(self):
        tag = "" if self.sort == PLAIN else self.sort[0]
        return f"?{self.id}{tag}"


@dataclass(frozen=True, slots=True)
class Bound:
    index: int
    ty: Type

    def __repr__(self):
        return f"#{self.index}"


@dataclass(frozen=True, slots=True)
class Const:
    name: str
    ty: Type

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"

    def __repr__(self):
        a = f"({self.arg!r})" if isinstance(self.arg, (App, Lam)) else repr(self.arg)
        f = f"({self.fn!r})" if isinstance(self.fn, Lam) else repr(self.fn)
        return f"{f} {a}"


@dataclass(frozen=True, slots=True)
class Lam:
    binder: Type
    body: "Term"

    def __repr__(self):
        return f"(\\:{self.binder!r}. {self.body!r})"


Term = Union[Free, Bound, Const, App, Lam]


# ------------------------------------------------------- deconstruction


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split into (head, arguments): head is never an App."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def mk_app(head: Term, args) -> Term:
    for a in args:
        head = App(head, a)
    return head


def strip_lams(t: Term) -> tuple[list[Type], Term]:
    tys: list[Type] = []
    while isinstance(t, Lam):
        tys.append(t.binder)
        t = t.body
    return tys, t


def mk_lams(tys, body: Term) -> Term:
    for ty in reversed(tuple(tys)):
        body = Lam(ty, body)
    return body


def lam_depth(t: Term) -> int:
    n = 0
    while isinstance(t, Lam):
        n += 1
        t = t.body
    return n


def bvars(n: int, tys) -> list[Term]:
    """x_1 ... x_n as seen under n binders with the given types."""
    tys = tuple(tys)
    return [Bound(n - 1 - i, tys[i]) for i in range(n)]


# ------------------------------------------------------ de Bruijn plumbing


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every loose index >= cutoff."""
    match t:
        case Bound(index=i, ty=ty):
            return Bound(i + by, ty) if i >= cutoff else t
        case App(fn=f, arg=a):
            return App(shift(f, by, cutoff), shift(a, by, cutoff))
        case Lam(binder=b, body=u):
            return Lam(b, shift(u, by, cutoff + 1))
        case _:
            return t


def instantiate(body: Term, arg: Term) -> Term:
    """Contract one beta redex: replace index 0 of `body` by `arg`."""

    def go(t: Term, depth: int) -> Term:
        match t:
            case Bound(index=i, ty=ty):
                if i == depth:
                    return shift(arg, depth)
                return Bound(i - 1, ty) if i > depth else t
            case App(fn=f, arg=a):
                return App(go(f, depth), go(a, depth))
            case Lam(binder=b, body=u):
                return Lam(b, go(u, depth + 1))
            case _:
                return t

    return go(body, 0)


def loose_bound_ids(t: Term) -> set[int]:
    out: set[int] = set()

    def go(t: Term, depth: int):
        match t:
            case Bound(index=i):
                if i >= depth:
                    out.add(i - depth)
            case App(fn=f, arg=a):
                go(f, depth)
                go(a, depth)
            case Lam(body=u):
                go(u, depth + 1)

    go(t, 0)
    return out


def is_closed(t: Term) -> bool:
    return not loose_bound_ids(t)


def free_vars(t: Term) -> dict[int, Free]:
    """All free variables, keyed by id (insertion order = first occurrence)."""
    out: dict[int, Free] = {}

    def go(t: Term):
        match t:
            case Free():
                out.setdefault(t.id, t)
            case App(fn=f, arg=a):
                go(f)
                go(a)
            case Lam(body=u):
                go(u)

    go(t)
    return out


# ------------------------------------------------------------- measures


def size(t: Term) -> int:
    """Variables and constants count 1, an application adds the sizes of
    both sides, a binder adds 1."""
    match t:
        case App(fn=f, arg=a):
            return size(f) + size(a)
        case Lam(body=u):
            return 1 + size(u)
        case _:
            return 1


def size_within(t: Term, bound: int) -> bool:
    """size(t) <= bound, computed iteratively with early exit, so the cost
    is O(min(size, bound)) and independent of term depth."""
    count = 0
    stack = [t]
    while stack:
        match stack.pop():
            case App(fn=f, arg=a):  # the App node itself counts 0
                stack.append(f)
                stack.append(a)
                continue
            case Lam(body=b):
                stack.append(b)
        count += 1
        if count > bound:
            return False
    return True


def type_of(t: Term, depth_tys: tuple[Type, ...] = ()) -> Type:
    """Compute the type, raising IllTyped on inconsistent applications.

    Bound variables carry their own types; depth_tys is only used to
    cross-check indices when provided by internal callers.
    """
    match t:
        case Free(ty=ty) | Bound(ty=ty) | Const(ty=ty):
            return ty
        case Lam(binder=b, body=u):
            return Arrow(b, type_of(u, depth_tys))
        case App(fn=f, arg=a):
            tf = type_of(f, depth_tys)
            if not isinstance(tf, Arrow):
                raise IllTyped(f"application of a base-type term: {f!r}")
            ta = type_of(a, depth_tys)
            if tf.dom != ta:
                raise IllTyped(
                    f"argument type {ta!r} does not match expected {tf.dom!r}"
                )
            return tf.cod
    raise IllTyped(f"not a term: {t!r}")


def is_beta_normal(t: Term) -> bool:
    match t:
        case App(fn=f, arg=a):
            if isinstance(f, Lam):
                return False
            return is_beta_normal(f) and is_beta_normal(a)
        case Lam(body=u):
            return is_beta_normal(u)
        case _:
            return True


# ----------------------------------------------------------- determinism


def term_key(t: Term):
    """A structural sort key; used wherever a fixed total order on terms
    is needed for deterministic output (never Python's builtin hash)."""
    match t:
        case Free(id=i):
            return (0, i)
        case Bound(index=i):
            return (1, i)
        case Const(name=n):
            return (2, n)
        case App(fn=f, arg=a):
            return (3, term_key(f), term_key(a))
        case Lam(body=u):
            return (4, term_key(u))
