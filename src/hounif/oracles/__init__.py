"""Oracles: decision procedures for fragments of higher-order unification.

An oracle is a callable ``oracle(s, t, supply, fuel) -> verdict`` where
the verdict is one of

* ``Success(csu)`` -- the constraint lies in the oracle's fragment and
  ``csu`` is a complete set of unifiers for it (an empty tuple means the
  constraint is unsolvable);
* ``NotUnifiable()`` -- the constraint provably has no unifier;
* ``NotApplicable()`` -- the oracle cannot decide this constraint.

The sides ``s`` and ``t`` are resolved and canonical: the engine
applies the current substitution to a constraint and brings both sides
to eta-long beta-normal form once per oracle phase, and every oracle of
the phase reads the same pair.  Fresh variables come from ``supply``.
Unlike the main solver loop, oracles are free to normalize terms fully,
but they pass ``fuel`` (a ``normalize.Fuel`` holding what the phase's
canonicalization left) to every ``canonical`` and ``compose`` call; an
oracle that runs out raises ``ReductionBudget`` and the engine moves on
to the next one.
The registry holds the three decision procedures of this package:
``pattern``, ``solid`` and ``fixpoint``.  The pragmatic variant's
binding limits are not an oracle; the engine applies them when it builds
a constraint's bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..normalize import Fuel
from ..subst import FreshSupply, Substitution
from ..terms import Bound, Term, spine, strip_lams


@dataclass(frozen=True)
class Success:
    csu: tuple[Substitution, ...]


@dataclass(frozen=True)
class NotUnifiable:
    pass


@dataclass(frozen=True)
class NotApplicable:
    pass


Verdict = Success | NotUnifiable | NotApplicable


OracleFn = Callable[[Term, Term, FreshSupply, Fuel], Verdict]

_REGISTRY: dict[str, OracleFn] = {}


def register(name: str):
    def deco(fn: OracleFn) -> OracleFn:
        _REGISTRY[name] = fn
        return fn

    return deco


def resolve(name: str) -> OracleFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown oracle {name!r}; known oracles: {known}") from None


def eta_bound_index(arg: Term) -> int | None:
    """If ``arg`` is the eta-long form of a bound variable, return that
    variable's de Bruijn index relative to the argument's root; else None.

    A base-type bound variable is just ``Bound(i)``; a functional one of
    arity k appears as ``\\ybar_k. x y1 ... yk``.
    """
    tys, body = strip_lams(arg)
    k = len(tys)
    head, args = spine(body)
    if not isinstance(head, Bound) or head.index < k or not binders_in_order(args, k):
        return None
    return head.index - k


def binders_in_order(args: list[Term], n: int) -> bool:
    """Are ``args`` the eta-long forms of the n binders around them, in
    order, as in ``\\x1...xn. F x1 ... xn``?  Walked with a stack, not by
    `eta_bound_index`: the forms nest one level per order of the type."""
    if len(args) != n:
        return False
    todo = [(a, n - 1 - i) for i, a in enumerate(args)]
    while todo:
        a, want = todo.pop()
        tys, body = strip_lams(a)
        head, sub = spine(body)
        if type(head) is not Bound or head.index != want + len(tys) or len(sub) != len(tys):
            return False
        todo += ((s, len(tys) - 1 - j) for j, s in enumerate(sub))
    return True


from . import fixpoint, pattern, solid  # noqa: E402,F401  (populate the registry)
