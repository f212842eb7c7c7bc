"""Fixpoint oracle: decides constraints with a bare variable on one side.

For a constraint ``F =?= t`` (where the variable side may appear as the
eta-expansion ``\\zbar. F zbar``):

* if F does not occur in t, ``{F -> t}`` is an MGU;
* if F occurs applied to m arguments at a position whose proper prefixes
  all have rigid heads, and moreover m = 0 or t is not an abstraction,
  the constraint has no unifier (a rigid context can never be collapsed
  away, so any solution would have to contain itself);
* otherwise the occurrence is guarded by a flexible head and the oracle
  cannot tell.
"""

from __future__ import annotations

from ..normalize import Fuel, canonical  # noqa: F401  (perfbench/tracer.py wraps fixpoint.canonical)
from ..subst import FreshSupply, Substitution
from ..terms import Free, Lam, Term, view
from . import NotApplicable, NotUnifiable, Success, binders_in_order


def _bare_var(t: Term) -> Free | None:
    """The free variable F if t is the eta-long form of bare F."""
    tys, head, args = view(t)
    if not isinstance(head, Free) or not binders_in_order(args, len(tys)):
        return None
    return head


def _occurrences(t: Term, var_id: int) -> list[tuple[int, bool]]:
    """All occurrences of the variable as (argument count, whether every
    proper prefix of the occurrence has a rigid head)."""
    out: list[tuple[int, bool]] = []
    stack = [(t, True)]
    while stack:
        sub, rigid_path = stack.pop()
        tys, head, args = view(sub)
        if isinstance(head, Free) and head.id == var_id:
            # a lambda directly above the occurrence is a prefix position
            # whose head is the variable itself, hence not rigid
            out.append((len(args), rigid_path and not tys))
            below = False
        else:
            below = rigid_path and not isinstance(head, Free)
        stack.extend((a, below) for a in reversed(args))
    return out


def fixpoint_oracle(s: Term, t: Term, supply: FreshSupply, fuel: Fuel):
    if s == t:
        return Success((Substitution(),))
    for a, b in ((s, t), (t, s)):
        var = _bare_var(a)
        if var is None:
            continue
        occs = _occurrences(b, var.id)
        if not occs:
            return Success((Substitution(((var, b),)),))
        if any(rig and (m == 0 or not isinstance(b, Lam)) for m, rig in occs):
            return NotUnifiable()
        return NotApplicable()
    return NotApplicable()
