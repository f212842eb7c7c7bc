"""Normalization: head normal forms, full beta reduction, eta-long forms.

The unification engine itself only ever head-normalizes (it exposes the
head of a constraint and stops), while oracles and verification work on
the eta-long beta-normal canonical representative.

Full beta normalization and the resolution of substitution images are
one iterative pass, `hereditary`, metered (as `eta_long` is) by an
explicit `Fuel`; `hnf` is unmetered, since it only exposes one head.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import TypeMismatch
from .terms import (
    App,
    Arrow,
    Bound,
    Const,
    Free,
    Lam,
    Term,
    arg_types,
    head_of,
    instantiate,
    lam_depth,
    mk_app,
    mk_lams,
    shift,
    spine,
    strip_lams,
    type_of,
)


class ReductionBudget(Exception):
    """A fuelled normalization exceeded its work allowance."""


class Fuel:
    """A meter of reduction work with `left` units, unlimited by default.

    The beta pass charges one unit per spine it visits and one per
    contraction, `eta_long` one per node; a charge below zero raises
    ReductionBudget.  Calls given the same meter draw on one allowance."""

    __slots__ = ("left",)

    def __init__(self, left: float = math.inf):
        self.left = left

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise ReductionBudget


def is_hnf(t: Term) -> bool:
    """lambda x1...xn. a t1...tm with a not an abstraction."""
    return type(head_of(t)) is not Lam


def hnf(t: Term) -> Term:
    """Reduce the leftmost outermost redex until the head is exposed.

    Arguments are left untouched; newly exposed binders are absorbed into
    the prefix, so the result is lambda x1...xn. a t1...tm.
    """
    tys, body = strip_lams(t)
    while True:
        head, args = spine(body)
        if isinstance(head, Lam) and args:
            body = mk_app(instantiate(head.body, args[0]), args[1:])
        elif isinstance(body, Lam):
            tys.append(body.binder)
            body = body.body
        else:
            return mk_lams(tys, body)


#: a term with its size, height and loose-index bound (one more than its
#: largest loose bound index, 0 when it is closed)
_Value = tuple[Term, int, int, int]

_EVAL, _SPINE, _WRAP, _REST = range(4)

#: the environment of a plain traversal: no bound variable instantiated,
#: none shifted
_PLAIN = ((), 0, None)


def _applied(head: _Value, argv: list[_Value], same: Optional[Term] = None) -> _Value:
    """The value of a neutral head applied to argument values; `same`,
    when given, is an existing term equal to that application, and then
    nothing is built."""
    term, size, height, loose = head
    i = len(argv)
    height += i
    for a, s, h, l in argv:
        if same is None:
            term = App(term, a)
        size += s
        h += i
        if h > height:
            height = h
        if l > loose:
            loose = l
        i -= 1
    return (term if same is None else same), size, height, loose


def hereditary(t: Term, images: dict[int, _Value], fuel: Fuel) -> tuple[_Value, bool]:
    """Hereditary substitution (Watkins, Cervesato, Pfenning & Walker, *A
    Concurrent Logical Framework I*, CMU-CS-02-101): the beta-normal form
    of t with every variable in `images` replaced by its image, for closed
    beta-normal images.

    Where a replaced variable, a bound variable being instantiated or an
    abstraction of t itself heads a spine, the head's value is contracted
    with the arguments' values by the same pass, which may in turn create
    redexes further down.  For a beta-normal t only the redexes the
    substitution creates are contracted; with no images the pass is full
    beta normalization.  A subterm nothing touches comes back as the same
    object.  Every result carries its size and height, so no further walk
    measures it.

    One fuel unit goes to each spine visited and each contraction; running
    out raises ReductionBudget.  Returns t's value and whether every
    argument a contraction dropped was a bound variable or a constant (if
    so, no free variable was lost).  Iterative: `todo` holds frames, `out`
    values.

    A traversal's environment is (vals, k, used): at depth d below its
    root, a loose index d + j becomes vals[j] shifted by d for j < len(vals),
    and the index d + j - len(vals) + k otherwise; `used` marks the vals
    that occurred."""
    out: list[_Value] = []
    todo: list = [(_EVAL, t, 0, _PLAIN)]
    kept = True
    left = fuel.left

    def contract(head: _Value, argv: list[_Value]) -> None:
        nonlocal left
        fn = head[0]
        if type(fn) is not Lam:
            out.append(_applied(head, argv))
            return
        left -= 1
        if left < 0:
            fuel.left = left
            raise ReductionBudget
        m = 0
        while m < len(argv) and type(fn) is Lam:
            fn = fn.body
            m += 1
        vals = tuple(argv[m - 1::-1])
        used = [False] * m
        todo.append((_REST, argv[m:], vals, used))
        todo.append((_EVAL, fn, 0, (vals, 0, used)))

    while todo:
        frame = todo.pop()
        tag = frame[0]
        if tag == _EVAL:
            _, u, d, env = frame
            left -= 1
            if left < 0:
                fuel.left = left
                raise ReductionBudget
            body = u
            nl = 0
            while type(body) is Lam:
                body = body.body
                nl += 1
            if nl:
                todo.append((_WRAP, u, body, nl))
                d += nl
            args_rev = []
            head = body
            while type(head) is App:
                args_rev.append(head.arg)
                head = head.fn
            new_head = head
            value = None  # the head's replacement
            head_eval = None  # the frame computing the head's value into `out`
            cls = type(head)
            if cls is Free:
                value = images.get(head.id)
            elif cls is Bound and head.index >= d:
                vals, k, used = env
                j = head.index - d
                if j < len(vals):
                    used[j] = True
                    value = vals[j]
                    if d > 0 and value[3] > 0:  # the argument, moved under d binders
                        head_eval = (_EVAL, value[0], 0, ((), d, None))
                elif k != len(vals):
                    new_head = Bound(head.index - len(vals) + k, head.ty)
            elif cls is Lam:  # a redex of t: contract the abstraction's value
                head_eval = (_EVAL, head, d, env)
            if args_rev:
                todo.append((_SPINE, body, head, new_head, value, args_rev, head_eval))
                for a in args_rev:
                    todo.append((_EVAL, a, d, env))
            if head_eval is not None:
                todo.append(head_eval)
            elif not args_rev:
                if value is None:
                    value = new_head, 1, 0, new_head.index + 1 if cls is Bound else 0
                out.append(value)
        elif tag == _SPINE:
            _, body, head, new_head, value, args_rev, head_eval = frame
            n = len(args_rev)
            argv = out[-n:]
            del out[-n:]
            if head_eval is not None:
                value = out.pop()
            if value is not None:
                contract(value, argv)
                continue
            same = body if new_head is head else None
            for a, _, _, _ in argv:
                n -= 1
                if a is not args_rev[n]:
                    same = None
                    break
            loose = new_head.index + 1 if type(new_head) is Bound else 0
            out.append(_applied((new_head, 1, 0, loose), argv, same))
        elif tag == _WRAP:
            _, u, body, nl = frame
            term, size, height, loose = out.pop()
            if term is body:
                term = u
            else:
                binders = []
                for _ in range(nl):
                    binders.append(u.binder)
                    u = u.body
                for b in reversed(binders):
                    term = Lam(b, term)
            out.append((term, size + nl, height + nl, loose - nl if loose > nl else 0))
        else:  # _REST: a contraction's body is done
            _, rest, vals, used = frame
            if kept and not all(used):
                kept = all(
                    hit or type(v[0]) in (Bound, Const) for v, hit in zip(vals, used)
                )
            result = out.pop()
            if rest:
                contract(result, rest)
            else:
                out.append(result)
    fuel.left = left
    return out[0], kept


def beta_normal(t: Term, fuel: Optional[Fuel] = None) -> Term:
    """Full beta normal form (unique, since the calculus is simply typed),
    by the hereditary pass with nothing substituted."""
    return hereditary(t, {}, Fuel() if fuel is None else fuel)[0][0]


def eta_index(j: int, env) -> int:
    """The index that bound variable j of a beta-normal spine takes in the
    eta-long image.

    `env` is the chain (n, k, outer) of the levels from the spine outward:
    a level has n written binders, and k more binders inside them in its
    image; a level where both are 0 may be left out, and None ends the
    chain.  Past the chain, j is a loose index of the whole term, which
    the image keeps."""
    passed = 0  # image binders of the levels left behind
    while env is not None:
        n, k, env = env
        if j < n:
            return j + k + passed
        passed += n + k
        j -= n
    return j + passed


def eta_long(t: Term, fuel: Optional[Fuel] = None) -> Term:
    """Fully eta-expand a beta-normal term.

    Every subterm of functional type becomes an explicit abstraction and
    every head is applied to as many arguments as its type allows.  A
    subterm already in that form comes back as the same object; one
    headed by a redex is beta-normalized first.

    Iterative: `todo` holds (subterm, env) visits and the build of each
    visited spine, `out` the finished subterms.  A spine's bound
    variables are renumbered by `eta_index` as it is visited, so nothing
    is shifted after it is built."""
    out: list[Term] = []
    todo: list = [(t, None)]
    while todo:
        frame = todo.pop()
        if len(frame) == 2:
            u, env = frame
            body = u
            n = 0
            while type(body) is Lam:
                body = body.body
                n += 1
            if fuel is not None:
                for _ in range(n + 1):
                    fuel.spend()
            args_rev = []
            head = body
            while type(head) is App:
                args_rev.append(head.arg)
                head = head.fn
            if type(head) is Lam:  # a redex: normalize this spine, then visit it again
                todo.append((beta_normal(u, fuel), env))
                continue
            ty = type_of(body)
            extra = arg_types(ty) if type(ty) is Arrow else ()
            k = len(extra)
            if n or k:
                env = (n, k, env)
            new_head = head
            if type(head) is Bound and env is not None:
                i = eta_index(head.index, env)
                if i != head.index:
                    new_head = Bound(i, head.ty)
            if not args_rev and not k and new_head is head:
                out.append(u)
                continue
            todo.append((u, n, new_head, args_rev, extra))
            for q in range(k - 1, -1, -1):
                todo.append((Bound(k - 1 - q, extra[q]), None))
            todo.extend((a, env) for a in args_rev)
        else:
            u, n, head, args_rev, extra = frame
            m = len(args_rev) + len(extra)
            done = out[len(out) - m:]
            del out[len(out) - m:]
            if not extra and head is head_of(u):
                i = len(args_rev)
                for x in done:
                    i -= 1
                    if x is not args_rev[i]:
                        break
                else:
                    out.append(u)
                    continue
            binders = []
            for _ in range(n):
                binders.append(u.binder)
                u = u.body
            out.append(mk_lams(binders + list(extra), mk_app(head, done)))
    return out[0]


def canonical(t: Term, fuel: Optional[Fuel] = None) -> Term:
    """The eta-long beta-normal representative of t's equivalence class;
    both passes draw on `fuel` when it is given."""
    return eta_long(beta_normal(t, fuel), fuel)


def alpha_beta_eta_equal(s: Term, t: Term) -> bool:
    """Equality modulo alpha, beta and eta (alpha is free with de Bruijn)."""
    ts, tt = type_of(s), type_of(t)
    if ts != tt:
        raise TypeMismatch(f"{ts!r} vs {tt!r}")
    return canonical(s) == canonical(t)


def eta_expand_prefix(t: Term, target: int) -> Term:
    """Add binders until t has `target` leading lambdas (eta-expansion).

    Used to align the binder prefixes of the two sides of a constraint;
    the body is not reduced.
    """
    have = lam_depth(t)
    need = target - have
    if need <= 0:
        return t
    tys, body = strip_lams(t)
    extra = arg_types(type_of(t))[have:target]
    assert len(extra) == need, "type too short for requested eta-expansion"
    body = shift(body, need)
    body = mk_app(body, [Bound(need - 1 - i, extra[i]) for i in range(need)])
    return mk_lams(list(tys) + list(extra), body)
