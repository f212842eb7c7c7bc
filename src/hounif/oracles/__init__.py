"""Oracles: decision procedures for fragments of higher-order unification.

An oracle is a callable ``oracle(s, t, supply, fuel) -> verdict`` where
the verdict is one of

* ``Success(csu)`` -- the constraint lies in the oracle's fragment and
  ``csu``, never empty, is a complete set of unifiers for it;
* ``NotUnifiable()`` -- the constraint provably has no unifier;
* ``NotApplicable()`` -- the oracle cannot decide this constraint.

The engine calls oracles only through ``engine.consult``, which hands
every oracle of a phase the same pair ``s``, ``t``: the constraint's
sides with the current substitution applied, in eta-long beta-normal
form.  Fresh variables come from ``supply``.  Unlike the main solver
loop, oracles are free to normalize terms fully, but they pass ``fuel``
(a ``normalize.Fuel`` holding what the phase's canonicalization left) to
every normalizing call (``canonical``, ``hereditary``); an oracle that
runs out raises ``ReductionBudget`` and ``consult`` moves on to the next
one.  An empty ``Success`` is a defect there, as is any other return
value.

Inside the pattern and solid oracles a substitution is a dict from
variable ids to ``normalize.hereditary`` values over closed eta-long
beta-normal terms; one hereditary pass, which keeps that form, takes a
binding into each remaining pair (and, in ``_then``, into each image).
Their answers are unvalidated: ``TriangularSubst.extend`` checks each image.

The registry is the table ``_REGISTRY`` of the three decision procedures
of this package, by name: ``pattern``, ``fixpoint`` and ``solid``.  The
pragmatic variant's binding limits are not an oracle; the engine applies
them when it builds a constraint's bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..normalize import Fuel, canonical, hereditary
from ..subst import FreshSupply, Substitution
from ..terms import Bound, Free, Term, arg_types, arrow, mk_app, mk_lams, result_type, view


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
    tys, head, args = view(arg)
    k = len(tys)
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
        tys, head, sub = view(a)
        if type(head) is not Bound or head.index != want + len(tys) or len(sub) != len(tys):
            return False
        todo += ((s, len(tys) - 1 - j) for j, s in enumerate(sub))
    return True


def _values(entries) -> dict:
    """The substitution of (variable, eta-long beta-normal image) entries,
    unmeasured, as (image, 0, 0, 0): only a pass's result terms are read."""
    return {var.id: (image, 0, 0, 0) for var, image in entries}


def _bound(entries, fuel: Fuel, *tys) -> dict:
    """The substitution of (variable, image) entries, each image built
    over binders and helper results of the argument types of `tys`:
    eta-long as built when those are all base types, and eta-expanded
    otherwise."""
    if all(ty.bases == ty.arity + 1 for ty in tys):
        return _values(entries)
    return _values((var, canonical(image, fuel)) for var, image in entries)


def _then(sigma: dict, rho: dict, fuel: Fuel) -> dict:
    """The substitution applying sigma, then rho."""
    return {**rho, **{i: hereditary(v[0], rho, fuel) for i, v in sigma.items()}}


def _narrow(kept, supply: FreshSupply, fuel: Fuel) -> dict:
    """Each (variable, positions) of `kept` bound to one fresh head, shared
    by all, applied to the variable's arguments at those positions."""
    F, first = kept[0]
    tys = arg_types(F.ty)
    fresh = supply.fresh(arrow([tys[j] for j in first], result_type(F.ty)))
    entries = []
    for var, keep in kept:
        tys = arg_types(var.ty)
        body = mk_app(fresh, [Bound(len(tys) - 1 - j, tys[j]) for j in keep])
        entries.append((var, mk_lams(tys, body)))
    return _bound(entries, fuel, *(var.ty for var, _ in kept))


def same_head_mgu(F: Free, us: list, vs: list, supply: FreshSupply, fuel: Fuel) -> dict:
    """The MGU of ``F us =?= F vs``: F keeps the argument positions where
    both sides agree."""
    return _narrow([(F, [j for j in range(len(us)) if us[j] == vs[j]])], supply, fuel)


from . import fixpoint, pattern, solid  # noqa: E402

_REGISTRY: dict[str, OracleFn] = {
    "pattern": pattern.pattern_oracle,
    "fixpoint": fixpoint.fixpoint_oracle,
    "solid": solid.solid_oracle,
}
