"""Simply typed lambda terms in de Bruijn representation.

Terms are immutable and structurally shared.  Bound variables carry their
type and a de Bruijn index (0 = innermost enclosing binder).  Free
variables are identified by an interned integer id; display names live in
a side table owned by whoever created the variable (see problem_io).
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


# App and Lam carry two slots beyond their fields: `_ty`, where `type_of`
# memoizes the node's type, and `_hash`, where `__hash__` memoizes the
# node's structural hash.  Neither is a dataclass field: `__init__` leaves
# them unset (reads go through `getattr(t, "_ty", None)`), equality ignores
# them, and pickling saves the fields only, exactly as a slots dataclass
# does, so pickled terms are the same bytes whether typed or hashed or not.
def _fields_state(self):
    return [getattr(self, f) for f in self.__match_args__]


def _set_fields_state(self, state):
    for f, value in zip(self.__match_args__, state):
        object.__setattr__(self, f, value)


def _term_hash(self):
    """The dataclass hash, `hash(fields)`, memoized on every App/Lam node.

    The nodes below `self` that have no hash yet are hashed bottom-up by
    an explicit post-order walk, so each child's hash is a memo read, no
    call recurses, and a shared subterm is walked once.
    """
    h = getattr(self, "_hash", None)
    if h is not None:
        return h
    todo = [(self, False)]
    while todo:
        t, kids_done = todo.pop()
        app = type(t) is App
        if kids_done:
            h = hash((t.fn, t.arg)) if app else hash((t.binder, t.body))
            object.__setattr__(t, "_hash", h)
            continue
        todo.append((t, True))
        for u in (t.fn, t.arg) if app else (t.body,):
            cls = type(u)
            if (cls is App or cls is Lam) and getattr(u, "_hash", None) is None:
                todo.append((u, False))
    return h


def _term_eq(self, other):
    """Structural equality, walking both terms together without recursion.

    Identical subterms are skipped, and the walk stops at the first pair
    of nodes whose memoized hashes both exist and differ.  It never
    computes a hash, so comparing fresh terms costs one visit per node.
    """
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    pending = []
    s, t = self, other
    while True:
        cls = type(s)
        if type(t) is not cls:
            return False
        if cls is App or cls is Lam:
            hs = getattr(s, "_hash", None)
            if hs is not None:
                ht = getattr(t, "_hash", None)
                if ht is not None and hs != ht:
                    return False
            if cls is App:
                u, v = s.fn, t.fn
                if u is not v:
                    pending.append((u, v))
                s, t = s.arg, t.arg
            else:
                if s.binder != t.binder:
                    return False
                s, t = s.body, t.body
            if s is not t:
                continue
        elif s != t:
            return False
        if not pending:
            return True
        s, t = pending.pop()


@dataclass(frozen=True)
class App:
    __slots__ = ("fn", "arg", "_ty", "_hash")
    fn: "Term"
    arg: "Term"

    __getstate__ = _fields_state
    __setstate__ = _set_fields_state
    __eq__ = _term_eq
    __hash__ = _term_hash

    def __repr__(self):
        a = f"({self.arg!r})" if isinstance(self.arg, (App, Lam)) else repr(self.arg)
        f = f"({self.fn!r})" if isinstance(self.fn, Lam) else repr(self.fn)
        return f"{f} {a}"


@dataclass(frozen=True)
class Lam:
    __slots__ = ("binder", "body", "_ty", "_hash")
    binder: Type
    body: "Term"

    __getstate__ = _fields_state
    __setstate__ = _set_fields_state
    __eq__ = _term_eq
    __hash__ = _term_hash

    def __repr__(self):
        return f"(\\:{self.binder!r}. {self.body!r})"


Term = Union[Free, Bound, Const, App, Lam]


# ------------------------------------------------------- deconstruction


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split into (head, arguments): head is never an App."""
    args: list[Term] = []
    while type(t) is App:
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
    while type(t) is Lam:
        tys.append(t.binder)
        t = t.body
    return tys, t


def head_of(t: Term) -> Term:
    """The head below t's binders: never an App, and a Lam only when it
    is the abstraction of a redex."""
    while type(t) is Lam:
        t = t.body
    while type(t) is App:
        t = t.fn
    return t


def mk_lams(tys, body: Term) -> Term:
    """Abstract `body` over binders of the given types, outermost first;
    `tys` is a list or a tuple."""
    for ty in reversed(tys):
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


def rebuild(t: Term, kind: type, leaf) -> Term:
    """t with each leaf u of class `kind` (Free or Bound) replaced by
    leaf(u, d), d being the number of binders above u.  Iterative; a
    subterm in which no leaf changes comes back as the same object."""
    done: list[Term] = []
    todo: list = [t]
    depth = 0
    while todo:
        u = todo.pop()
        cls = type(u)
        if cls is App:
            todo += ((u,), u.arg, u.fn)
        elif cls is Lam:
            todo += ((u,), u.body)
            depth += 1
        elif cls is tuple:  # the children of u[0] are done
            u = u[0]
            if type(u) is App:
                a = done.pop()
                f = done.pop()
                done.append(u if f is u.fn and a is u.arg else App(f, a))
            else:  # a body is rebuilt whole between its binder's visits
                depth -= 1
                b = done.pop()
                done.append(u if b is u.body else Lam(u.binder, b))
        elif cls is kind:
            done.append(leaf(u, depth))
        else:
            done.append(u)
    return done[0]


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every loose index >= cutoff."""

    def leaf(u: Bound, depth: int) -> Term:
        return Bound(u.index + by, u.ty) if u.index >= cutoff + depth else u

    return rebuild(t, Bound, leaf)


def instantiate(body: Term, arg: Term) -> Term:
    """Contract one beta redex: replace index 0 of `body` by `arg`."""

    def leaf(u: Bound, depth: int) -> Term:
        i = u.index
        if i == depth:
            return shift(arg, depth)
        return Bound(i - 1, u.ty) if i > depth else u

    return rebuild(body, Bound, leaf)


def loose_bound_ids(t: Term) -> set[int]:
    out: set[int] = set()
    stack = [(t, 0)]
    while stack:
        u, depth = stack.pop()
        cls = type(u)
        if cls is App:
            stack.append((u.fn, depth))
            stack.append((u.arg, depth))
        elif cls is Lam:
            stack.append((u.body, depth + 1))
        elif cls is Bound and u.index >= depth:
            out.add(u.index - depth)
    return out


def is_closed(t: Term) -> bool:
    return not loose_bound_ids(t)


def free_vars(t: Term) -> dict[int, Free]:
    """All free variables, keyed by id (insertion order = first occurrence,
    left to right).  Iterative, so term depth is not bounded by the
    interpreter's recursion limit."""
    out: dict[int, Free] = {}
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is App:
            stack.append(t.arg)
            stack.append(t.fn)
        elif cls is Lam:
            stack.append(t.body)
        elif cls is Free and t.id not in out:
            out[t.id] = t
    return out


# ------------------------------------------------------------- measures


def size_within(t: Term, bound: int) -> bool:
    """Is t's size at most `bound`?  Variables and constants count 1, an
    application adds the sizes of both sides, a binder adds 1.  Computed
    iteratively with early exit, so the cost is O(min(size, bound)) and
    independent of term depth."""
    count = 0
    stack = [t]
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is App:  # the App node itself counts 0
            stack.append(u.fn)
            stack.append(u.arg)
            continue
        if cls is Lam:
            stack.append(u.body)
        count += 1
        if count > bound:
            return False
    return True


def type_of(t: Term) -> Type:
    """Compute the type, raising IllTyped on inconsistent applications.

    Bound variables carry their own types.  The type of an App or Lam node
    is memoized on the node once its check has passed, so a later call
    costs O(1) and an ill-typed node raises on every call.

    The nodes below `t` with no memo yet are typed by an explicit walk
    that finishes a node once its children are typed (a function before
    its argument, as the checks read them), so no call recurses.

    Dispatches on the exact class rather than with `match`: class patterns
    cost more than the whole lookup on a leaf or a memoized node.
    """
    cls = type(t)
    if cls is App or cls is Lam:
        ty = getattr(t, "_ty", None)
        if ty is not None:
            return ty
    elif cls is Free or cls is Bound or cls is Const:
        return t.ty
    else:
        raise IllTyped(f"not a term: {t!r}")
    todo = [t]
    while todo:
        u = todo[-1]
        if type(u) is Lam:
            v = u.body
            ty = getattr(v, "_ty", None) if type(v) in _NODES else _leaf_type(v)
            if ty is None:
                todo.append(v)
                continue
            ty = Arrow(u.binder, ty)
        else:
            v = u.fn
            tf = getattr(v, "_ty", None) if type(v) in _NODES else _leaf_type(v)
            if tf is None:
                todo.append(v)
                continue
            if type(tf) is not Arrow:
                raise IllTyped(f"application of a base-type term: {v!r}")
            v = u.arg
            ta = getattr(v, "_ty", None) if type(v) in _NODES else _leaf_type(v)
            if ta is None:
                todo.append(v)
                continue
            if tf.dom is not ta and tf.dom != ta:
                raise IllTyped(f"argument type {ta!r} does not match expected {tf.dom!r}")
            ty = tf.cod
        object.__setattr__(u, "_ty", ty)
        todo.pop()
    return ty


_NODES = (App, Lam)


def _leaf_type(t: Term) -> Type:
    """The type a variable or constant carries."""
    if type(t) in (Free, Bound, Const):
        return t.ty
    raise IllTyped(f"not a term: {t!r}")


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


_RANK = {Free: 0, Bound: 1, Const: 2, App: 3, Lam: 4}


def term_order(s: Term, t: Term) -> int:
    """-1, 0 or 1 as term_key(s) is below, equal to or above term_key(t).

    Walks both terms together in the order the keys compare, skips
    identical subterms and stops at the first difference, so no key is
    built and shared structure costs nothing.
    """
    pending = [(s, t)]
    while pending:
        s, t = pending.pop()
        if s is t:
            continue
        cs, ct = type(s), type(t)
        if cs is not ct:
            return -1 if _RANK[cs] < _RANK[ct] else 1
        if cs is App:
            pending.append((s.arg, t.arg))
            pending.append((s.fn, t.fn))
            continue
        if cs is Lam:
            pending.append((s.body, t.body))
            continue
        if cs is Free:
            x, y = s.id, t.id
        elif cs is Bound:
            x, y = s.index, t.index
        else:
            x, y = s.name, t.name
        if x != y:
            return -1 if x < y else 1
    return 0
