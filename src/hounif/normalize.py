"""Normalization: head normal forms, full beta reduction, eta-long forms.

The unification engine itself only ever head-normalizes (it exposes the
head of a constraint and stops), while oracles and verification work on
the eta-long beta-normal canonical representative.
"""

from __future__ import annotations

from contextlib import contextmanager

from .errors import TypeMismatch
from .terms import (
    App,
    Arrow,
    Bound,
    Lam,
    Term,
    Type,
    arg_types,
    arity,
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


# Reduction can blow up (beta duplicates arguments), so callers that
# normalize untrusted terms run inside `reduction_fuel`.  The stack is
# only pushed/popped around atomic calls, never across a generator yield,
# so nesting is well bracketed.
_FUEL: list[int] = []


@contextmanager
def reduction_fuel(limit: int):
    """Make reductions within the block raise ReductionBudget after
    roughly `limit` work units (one unit per exposed redex or visited
    spine node)."""
    _FUEL.append(limit)
    try:
        yield
    finally:
        _FUEL.pop()


def fuel_left() -> int:
    """The units left in the innermost `reduction_fuel` block."""
    return _FUEL[-1]


def _charge() -> None:
    if _FUEL:
        _FUEL[-1] -= 1
        if _FUEL[-1] < 0:
            raise ReductionBudget


def is_hnf(t: Term) -> bool:
    """lambda x1...xn. a t1...tm with a not an abstraction."""
    _, body = strip_lams(t)
    head, _ = spine(body)
    return not isinstance(head, Lam)


def hnf(t: Term) -> Term:
    """Reduce the leftmost outermost redex until the head is exposed.

    Arguments are left untouched; newly exposed binders are absorbed into
    the prefix, so the result is lambda x1...xn. a t1...tm.
    """
    tys, body = strip_lams(t)
    while True:
        _charge()
        head, args = spine(body)
        if isinstance(head, Lam) and args:
            body = mk_app(instantiate(head.body, args[0]), args[1:])
        elif isinstance(body, Lam):
            tys.append(body.binder)
            body = body.body
        else:
            return mk_lams(tys, body)


def beta_normal(t: Term) -> Term:
    """Full beta normal form (unique, since the calculus is simply typed)."""
    return _bnf(t)


def _bnf(t: Term) -> Term:
    _charge()
    t = hnf(t)
    tys, body = strip_lams(t)
    head, args = spine(body)
    return mk_lams(tys, mk_app(head, [_bnf(a) for a in args]))


def eta_long(t: Term) -> Term:
    """Fully eta-expand a beta-normal term.

    Every subterm of functional type becomes an explicit abstraction and
    every head is applied to as many arguments as its type allows.
    """
    _charge()
    match t:
        case Lam(binder=b, body=u):
            return Lam(b, eta_long(u))
        case _:
            head, args = spine(t)
            args = [eta_long(a) for a in args]
            ty = type_of(t)
            extra = arg_types(ty)
            if not extra:
                return mk_app(head, args)
            k = len(extra)
            shifted = [shift(a, k) for a in args]
            news = [
                eta_long(Bound(k - 1 - i, extra[i])) for i in range(k)
            ]
            return mk_lams(extra, mk_app(shift(head, k), shifted + news))


def canonical(t: Term) -> Term:
    """The eta-long beta-normal representative of t's equivalence class."""
    return eta_long(beta_normal(t))


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
