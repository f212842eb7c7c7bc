"""Normalization: head normal forms, full beta reduction, eta-long forms.

The unification engine itself only ever head-normalizes (it exposes the
head of a constraint and stops), while oracles and verification work on
the eta-long beta-normal canonical representative.

Full beta normalization and the resolution of substitution images are
one iterative pass, `hereditary`, metered (as `eta_long` is) by an
explicit `Fuel`; `hnf` is unmetered, since it only exposes one head.
The canonical form is `eta_long`'s, which beta-normalizes each spine
headed by a redex as it visits it, so no beta pass runs before it.
"""

from __future__ import annotations

import math
from typing import Optional

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


def hnf(t: Term) -> Term:
    """Reduce the leftmost outermost redex until the head is exposed.

    Arguments are left untouched; newly exposed binders are absorbed into
    the prefix, so the result is lambda x1...xn. a t1...tm.  A t with no
    redex at its head is returned itself.
    """
    tys, body = strip_lams(t)
    stripped = body
    while True:
        head, args = spine(body)
        if type(head) is Lam and args:  # contract all the leading arguments
            m = min(len(args), lam_depth(head))
            for _ in range(m):
                head = head.body
            body = mk_app(instantiate(head, *args[:m]), args[m:])
        elif type(body) is Lam:
            tys.append(body.binder)
            body = body.body
        else:
            return t if body is stripped else mk_lams(tys, body)


#: a term with its size, height and loose-index bound (one more than its
#: largest loose bound index, 0 when it is closed)
_Value = tuple[Term, int, int, int]

_EVAL, _CHAIN, _SPINE, _WRAP, _REST = range(5)

#: the environment of a plain traversal: no bound variable instantiated,
#: none shifted
_PLAIN = ((), 0)


def hereditary(t: Term, images: dict[int, _Value], fuel: Fuel) -> _Value:
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
    out raises ReductionBudget.  Returns t's value.  Iterative: `todo`
    holds frames, `out` values.

    A spine with one argument and a neutral head (a constant, a free
    variable with no image, a bound variable not being instantiated) is
    the top of a chain: its frame descends every such spine below it,
    charging each its unit as it goes, and leaves one frame for the
    chain's bottom and one that rebuilds the chain on the bottom's value,
    keeping each node whose head and argument are unchanged.  The fuel
    spent and the values are those of a frame per spine.

    A traversal's environment is (vals, k): at depth d below its root, a
    loose index d + j becomes vals[j] shifted by d for j < len(vals), and
    the index d + j - len(vals) + k otherwise."""
    out: list[_Value] = []
    todo: list = [(_EVAL, t, 0, _PLAIN)]
    left = fuel.left
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
                vals, k = env
                j = head.index - d
                if j < len(vals):
                    value = vals[j]
                    if d > 0 and value[3] > 0:  # the argument, moved under d binders
                        head_eval = (_EVAL, value[0], 0, ((), d))
                elif k != len(vals):
                    new_head = Bound(head.index - len(vals) + k, head.ty)
            elif cls is Lam:  # a redex of t: contract the abstraction's value
                head_eval = (_EVAL, head, d, env)
            if len(args_rev) == 1 and value is None and head_eval is None:
                # a neutral head with one argument: descend the chain of
                # such spines below it in this frame
                vals, k = env
                chain = [(body, head, new_head)]
                u = body.arg
                while type(u) is App:
                    head = new_head = u.fn
                    cls = type(head)
                    if cls is Free:
                        if head.id in images:
                            break
                    elif cls is Bound:
                        if head.index >= d:
                            if head.index - d < len(vals):
                                break
                            if k != len(vals):
                                new_head = Bound(head.index - len(vals) + k, head.ty)
                    elif cls is not Const:
                        break
                    left -= 1
                    if left < 0:
                        fuel.left = left
                        raise ReductionBudget
                    chain.append((u, head, new_head))
                    u = u.arg
                todo.append((_CHAIN, chain))
                todo.append((_EVAL, u, d, env))
                continue
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
            continue
        if tag == _CHAIN:  # rebuild a chain bottom-up on its bottom's value
            _, chain = frame
            a, size, height, loose = out.pop()
            for body, head, new_head in reversed(chain):
                if new_head is not head or a is not body.arg:
                    body = App(new_head, a)
                a = body
                if type(new_head) is Bound and new_head.index >= loose:
                    loose = new_head.index + 1
            n = len(chain)
            out.append((a, size + n, height + n, loose))
            continue
        if tag == _SPINE:
            _, body, head, new_head, value, args_rev, head_eval = frame
            n = len(args_rev)
            argv = out[-n:]
            del out[-n:]
            if head_eval is not None:
                value = out.pop()
            same = None  # an existing term equal to the application
            if value is None:
                if new_head is head and all(v[0] is a for v, a in zip(argv, reversed(args_rev))):
                    same = body
                value = new_head, 1, 0, new_head.index + 1 if type(new_head) is Bound else 0
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
            continue
        else:  # _REST: a contraction's body is done; apply it to the rest
            _, argv = frame
            if not argv:  # the body's value is the result
                continue
            value = out.pop()
            same = None
        # apply `value` to the argument values `argv`
        term, size, height, loose = value
        if type(term) is Lam:  # contract: instantiate the leading binders
            left -= 1
            if left < 0:
                fuel.left = left
                raise ReductionBudget
            n = len(argv)
            m = 1
            term = term.body
            while m < n and type(term) is Lam:
                term = term.body
                m += 1
            vals, argv = tuple(argv[m - 1::-1]), argv[m:]
            todo.append((_REST, argv))
            todo.append((_EVAL, term, 0, (vals, 0)))
            continue
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
        out.append((term if same is None else same, size, height, loose))
    fuel.left = left
    return out[0]


def beta_normal(t: Term, fuel: Optional[Fuel] = None) -> Term:
    """Full beta normal form (unique, since the calculus is simply typed),
    by the hereditary pass with nothing substituted."""
    return hereditary(t, {}, Fuel() if fuel is None else fuel)[0]


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
    """The eta-long beta-normal form of t.

    Every subterm of functional type becomes an explicit abstraction and
    every head is applied to as many arguments as its type allows.  A
    subterm already in that form comes back as the same object; one
    headed by a redex is beta-normalized (on `fuel`) and visited again,
    so t need not be beta-normal.

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
    """The eta-long beta-normal representative of t's equivalence class,
    by `eta_long`, drawing on `fuel` when it is given."""
    return eta_long(t, fuel)


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
