"""Simply typed lambda terms in de Bruijn representation.

Types are interned: equal types are one object.  Terms are immutable and
structurally shared: no node is mutated after construction, apart from
the type and hash memos of App and Lam nodes, each written once.  Bound
variables carry their type and a de Bruijn index (0 = innermost binder).
Free variables are identified by an integer id; display names live in a
side table owned by whoever created the variable (see problem_io).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import IllTyped

# ---------------------------------------------------------------- types


# Types are interned: `Base(name)` and `Arrow(dom, cod)` return the one
# object with those contents from `_TYPES`, keyed by the name or the ids of
# the children it keeps alive.  Equality is identity, the hash structural,
# pickling by constructor; `bases` counts base types, `arity` arrows along `cod`.
_TYPES: dict = {}


def _stored_hash(self):
    return self._hash


def show_type(ty: "Type", sep: str = ">") -> str:
    """`ty` with `sep` for each arrow and an arrow domain in parentheses,
    printed from an explicit stack, so neither arity nor order recurses."""
    out, todo = [], [ty]
    while todo:
        t = todo.pop()
        if type(t) is Arrow:
            todo += (t.cod, sep)
            todo += (")", t.dom, "(") if type(t.dom) is Arrow else (t.dom,)
        else:
            out.append(t if type(t) is str else t.name)
    return "".join(out)


class Base:
    __slots__ = ("name", "_hash", "bases", "arity")
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        if (ty := _TYPES.get(name)) is None:
            ty = object.__new__(cls)
            ty.name, ty._hash, ty.bases, ty.arity = name, hash((name,)), 1, 0
            ty = _TYPES.setdefault(name, ty)  # the first of racing threads wins
        return ty

    def __reduce__(self):
        return Base, (self.name,)

    __hash__ = _stored_hash
    __repr__ = show_type


class Arrow:
    """A function type; `repr` is `show_type`, never recursing on arity or order."""

    __slots__ = ("dom", "cod", "_hash", "bases", "arity")
    __match_args__ = ("dom", "cod")

    def __new__(cls, dom: "Type", cod: "Type"):
        if (ty := _TYPES.get(key := (id(dom), id(cod)))) is None:
            ty = object.__new__(cls)
            ty.dom, ty.cod, ty._hash = dom, cod, hash((dom, cod))
            ty.bases, ty.arity = dom.bases + cod.bases, cod.arity + 1
            ty = _TYPES.setdefault(key, ty)
        return ty

    def __reduce__(self):
        return Arrow, (self.dom, self.cod)

    __hash__ = _stored_hash
    __repr__ = show_type


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
            t._hash = h
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


def _term_repr(self):
    """`f a` for an application, `(\\:ty. body)` for an abstraction; an
    argument that is an App or a Lam, and a function that is a Lam, are
    parenthesized.  Printed from an explicit stack of pieces, either a
    string to emit or a subterm to print, so no call recurses."""
    out, todo = [], [self]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is str:
            out.append(t)
        elif cls is App:
            fn, arg = t.fn, t.arg
            todo += (")", arg, " (") if type(arg) is App or type(arg) is Lam else (arg, " ")
            todo += (")", fn, "(") if type(fn) is Lam else (fn,)
        elif cls is Lam:
            todo += (")", t.body, f"(\\:{t.binder!r}. ")
        else:
            out.append(repr(t))
    return "".join(out)


# App and Lam carry memo slots beyond their fields, `_hash` and `_ty` (see
# `type_of`).  Equality ignores them, and pickling saves the fields only: a
# pickle is the same bytes either way and carries no string hash.
def _fields_state(self):
    return [getattr(self, f) for f in self.__match_args__]


def _set_fields_state(self, state):
    self.__init__(*state)


# App and Lam are plain slotted classes, like the engine's Constraint: a
# frozen dataclass's `__init__` costs about 2.5 times as much.
class App:
    __slots__ = ("fn", "arg", "_ty", "_hash")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: "Term", arg: "Term"):
        self.fn = fn
        self.arg = arg

    __getstate__ = _fields_state
    __setstate__ = _set_fields_state
    __eq__ = _term_eq
    __hash__ = _term_hash

    __repr__ = _term_repr


class Lam:
    __slots__ = ("binder", "body", "_ty", "_hash")
    __match_args__ = ("binder", "body")

    def __init__(self, binder: Type, body: "Term"):
        self.binder = binder
        self.body = body

    __getstate__ = _fields_state
    __setstate__ = _set_fields_state
    __eq__ = _term_eq
    __hash__ = _term_hash

    __repr__ = _term_repr


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


def view(t: Term) -> tuple[list[Type], Term, list[Term]]:
    """(binder types, head, arguments) of t, as `strip_lams` and then
    `spine` give them, in one walk."""
    tys, args = [], []
    while type(t) is Lam:
        tys.append(t.binder)
        t = t.body
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return tys, t, args


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


def instantiate(body: Term, *args: Term) -> Term:
    """Contract a redex's leading binders at once: `body` is what lies under
    len(args) of them, args[0] replaces the outermost one's variable, and
    the other loose indices drop by len(args)."""
    m = len(args)

    def leaf(u: Bound, depth: int) -> Term:
        j = u.index - depth
        if 0 <= j < m:
            return shift(args[m - 1 - j], depth) if depth else args[m - 1 - j]
        return Bound(u.index - m, u.ty) if j >= m else u

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
    interpreter's recursion limit: the walk goes on into a function, a
    binder's body, and the argument of an application whose function is
    a leaf, and stacks only the arguments of the other applications."""
    out: dict[int, Free] = {}
    stack = [t]
    while stack:
        t = stack.pop()
        while True:
            cls = type(t)
            if cls is App:
                fn = t.fn
                cls = type(fn)
                if cls is App or cls is Lam:
                    stack.append(t.arg)
                    t = fn
                    continue
                if cls is Free and fn.id not in out:
                    out[fn.id] = fn
                t = t.arg
            elif cls is Lam:
                t = t.body
            else:
                if cls is Free and t.id not in out:
                    out[t.id] = t
                break
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
            if tf.dom is not ta:
                raise IllTyped(f"argument type {ta!r} does not match expected {tf.dom!r}")
            ty = tf.cod
        u._ty = ty
        todo.pop()
    return ty


_NODES = (App, Lam)


def _leaf_type(t: Term) -> Type:
    """The type a variable or constant carries."""
    if type(t) in (Free, Bound, Const):
        return t.ty
    raise IllTyped(f"not a term: {t!r}")


def check_image(image: Term, ty: Type, fuel: int) -> Optional[tuple[int, int, dict[int, Free]]]:
    """Check a closed beta-normal term against the type `ty` in one walk
    building no type: an abstraction's type is the expected arrow, and a
    spine's partial applications take the sub-arrows of its head's type.
    If it passes with fewer App and Lam nodes than `fuel`, their types are
    memoized and it returns its size and height, measured as `hereditary`
    does, and its `free_vars`; otherwise None."""
    typed, fv, height = [], {}, 0  # typed: (node, its type), memoized on a pass
    todo = [(image, ty, 0, 0)]  # (subterm, expected type, binders above, depth)
    while todo:
        t, ty, k, d = todo.pop()
        while type(t) is Lam:
            if type(ty) is not Arrow or ty.dom is not t.binder:
                return None
            typed.append((t, ty))
            t, ty, k, d = t.body, ty.cod, k + 1, d + 1
        apps, top = [], len(todo)
        while type(t) is App:
            apps.append(t)
            t = t.fn
        if type(t) is Free:
            fv.setdefault(t.id, t)
        elif type(t) is not Const and (type(t) is not Bound or t.index >= k):
            return None  # a loose index, a redex, or not a term
        d += len(apps)  # the depth of the head and of the first argument
        height, hty = max(height, d), t.ty
        for app in reversed(apps):
            if type(hty) is not Arrow:
                return None
            todo.insert(top, (app.arg, hty.dom, k, d))  # the first argument pops first
            hty, d = hty.cod, d - 1
            typed.append((app, hty))
        if hty is not ty:
            return None
    if len(typed) >= fuel:  # hereditary charges a spine per App and one more
        return None
    for node, ty in typed:
        node._ty = ty
    return len(typed) + 1, height, fv  # a node per App and Lam, and a leaf more


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
