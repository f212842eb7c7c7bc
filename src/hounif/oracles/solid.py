"""Solid oracle: computes a finite complete set of unifiers for pairs
whose free variables take only bound variables or variable-free base-type
terms as arguments, provided the sides share no variables and one side is
linear, or their one variable is the head of both (whose MGU it returns).

PT keeps its constraints and substitutions in the oracles' one format
(see the package docstring); only an image or matcher side built over
functional types is eta-expanded.

The computation follows a three-stage plan:

1. Run the PT transformation (Deletion, Decomposition, Failure, Solution,
   Imitation, Projection) to enumerate preunifiers.  Selection is
   admissible: deterministic rules are closed over eagerly, and
   descendants of base-type projections are preferred among the
   remaining flex-rigid pairs.  Branch order is imitation first, then
   projections by argument index.
2. Each preunifier leaves a multiset of flex-flex pairs, which in this
   fragment admit a most general unifier: same-head pairs keep the
   argument positions where both sides agree syntactically; different-
   head pairs are solved by expressing each argument of one side in
   terms of the other side's arguments (finitely many ways, found by PT
   on matching problems) and funnelling everything through one shared
   fresh variable.
3. Every resulting unifier is verified against the input: one hereditary
   pass per side must give both sides one beta-normal form, so they are
   beta-eta-equal.  A mismatch is a defect in the construction, not in
   the input, and raises InternalError.  No unifier is NotUnifiable.

The whole oracle gives up (returns NotApplicable) if a safety cap on PT
transitions is exceeded; under the fragment's preconditions this cannot
happen, but the cap keeps a misjudged input from hanging the solver.
"""

from __future__ import annotations

from typing import Iterator

from ..bindings import huet_projection, imitation
from ..errors import InternalError
from ..normalize import Fuel, canonical, hereditary
from ..subst import FreshSupply, Substitution
from ..subst import compose  # noqa: F401  (perfbench/tracer.py wraps solid.compose)
from ..terms import (
    Base,
    Bound,
    Const,
    Free,
    Term,
    arg_types,
    arrow,
    free_vars,
    mk_app,
    mk_lams,
    result_type,
    strip_lams,
    type_of,
    view,
)
from . import (
    NotApplicable,
    NotUnifiable,
    Success,
    _bound,
    _then,
    binders_in_order,
    eta_bound_index,
    same_head_mgu,
)

_CAP = 1_000_000


class _GiveUp(Exception):
    """Safety cap exceeded; the oracle withdraws."""


def is_solid(t: Term) -> bool:
    """Are all arguments of free variables either bound variables or
    base-type terms without free variables?  Expects a canonical term."""
    stack = [t]
    while stack:
        _, head, args = view(stack.pop())
        if isinstance(head, Free):
            for a in args:
                if eta_bound_index(a) is not None:
                    continue
                if isinstance(type_of(a), Base) and not free_vars(a):
                    continue
                return False
        else:
            stack.extend(args)
    return True


def is_linear(t: Term) -> bool:
    """Does no free variable occur twice?"""
    seen: set[int] = set()
    stack = [t]
    while stack:
        _, head, args = view(stack.pop())
        if isinstance(head, Free):
            if head.id in seen:
                return False
            seen.add(head.id)
        stack.extend(reversed(args))
    return True


# ------------------------------------------------------------------ PT

# A constraint is (lhs, rhs, tagged); `tagged` marks descendants of
# base-type projections, which admissible selection must prefer.
#
# No variable of one side of a pair occurs in the other: PT starts from
# sides that share none, one of them linear (a matching problem's ground
# side trivially so), and each variable of the linear side's pairs keeps
# one occurrence, on that side alone.  Solution for a head there changes
# no other pair; Solution for the other side's head moves the variables
# of one pair's linear side across; imitation and projection bring in
# fresh variables only.  So Solution needs no occurs check, and no
# binding touches its own pair's children.


def _flex_head(side: Term):
    _, head, args = view(side)
    return (head, args) if isinstance(head, Free) else None


class _PT:
    def __init__(self, supply: FreshSupply, fuel: Fuel):
        self.supply = supply
        self.fuel = fuel
        self.transitions = 0

    def _tick(self) -> None:
        self.transitions += 1
        if self.transitions > _CAP:
            raise _GiveUp

    def _apply(self, t: Term, rho: dict) -> Term:
        """t with rho substituted: one hereditary pass."""
        return hereditary(t, rho, self.fuel)[0] if rho else t

    def enumerate(self, constraints) -> Iterator[tuple[dict, list]]:
        """Depth-first enumeration of (preunifier, flex-flex residue)."""
        stack = [(list(constraints), {})]
        while stack:
            E, sigma = stack.pop()
            closed = self._closure(E)
            if closed is None:
                continue
            E, picked = closed
            if picked is None:
                yield sigma, E
                continue
            rest = E[:picked] + E[picked + 1 :]
            for rho, children in reversed(self._branches(*E[picked])):
                self._tick()
                applied = [(self._apply(a, rho), self._apply(b, rho), tg) for a, b, tg in rest]
                stack.append((applied + children, _then(sigma, rho, self.fuel)))

    def _closure(self, E):
        """Apply Deletion, Failure and Decomposition exhaustively, in the
        order of E with decomposed pairs joining at its end; these are
        deterministic and admissible selection takes them first.  Returns
        the remaining pairs and the index of the selected flex-rigid one
        (the first tagged one, else the first, else None), or None when
        Failure fires."""
        work = list(E)
        out = []
        picked = None
        for s, t, tag in work:  # Decomposition extends `work` as it goes
            if s == t:
                self._tick()
                continue
            tys, hs, sargs = view(s)
            _, ht, targs = view(t)
            flex = (type(hs) is Free) + (type(ht) is Free)
            if flex:
                if flex == 1 and (picked is None or tag and not out[picked][2]):
                    picked = len(out)
                out.append((s, t, tag))
                continue
            self._tick()
            if hs != ht or len(sargs) != len(targs):
                return None  # Failure
            work += ((mk_lams(tys, a), mk_lams(tys, b), tag) for a, b in zip(sargs, targs))
        return out, picked

    def _branches(self, s: Term, t: Term, tag: bool):
        """Solution alone when it applies; otherwise imitation (for a
        constant head) followed by all projections, as (binding, children)
        pairs.  The children of the imitation are the pairs of arguments
        below the imitated head, that of a projection the projected pair."""
        tys, F, sargs = view(s)
        if type(F) is not Free:
            s, t = t, s
            tys, F, sargs = view(s)
        if binders_in_order(sargs, len(tys)):  # F is not in t, see above
            return [({F.id: (t, 0, 0, 0)}, [])]

        out = []
        _, head, targs = view(t)
        if type(head) is Const:
            rho = _bound(imitation(F, head, self.supply).entries, self.fuel, F.ty, head.ty)
            gs = view(self._apply(s, rho))[2] if targs else ()
            out.append((rho, [(mk_lams(tys, g), mk_lams(tys, ti), tag) for g, ti in zip(gs, targs)]))
        for i, u in enumerate(sargs):
            b = huet_projection(F, i + 1, self.supply)
            if b is None:  # u does not return F's result type
                continue
            rho = _bound(b.entries, self.fuel, F.ty)
            if type_of(u).arity:
                out.append((rho, [(self._apply(s, rho), t, tag)]))
            else:  # F's image projects s onto u itself
                out.append((rho, [(mk_lams(tys, u), t, True)]))
        return out

    # ------------------------------------------------- flex-flex residue

    def matching_csu(self, flex: Term, ground: Term) -> list[dict]:
        out = []
        for sigma, residue in self.enumerate([(flex, ground, False)]):
            if residue:
                raise InternalError("matching problem left flex-flex residue")
            out.append(sigma)
        return out

    def discharge(self, residue) -> dict:
        """MGU of the remaining flex-flex constraints."""
        sigma = {}
        for s, t, _tag in residue:
            s, t = self._apply(s, sigma), self._apply(t, sigma)
            if s == t:
                continue
            tys, F, us = view(s)
            _, G, vs = view(t)
            if not (isinstance(F, Free) and isinstance(G, Free)):
                raise InternalError("non flex-flex constraint in residue")
            if F.id == G.id:
                rho = same_head_mgu(F, us, vs, self.supply, self.fuel)
            else:
                rho = self._diff_head_mgu(tys, F, us, G, vs)
            sigma = _then(sigma, rho, self.fuel)
        return sigma

    def _diff_head_mgu(self, tys, F: Free, us, G: Free, vs) -> dict:
        """The shared-variable construction: each argument u_i of F is
        matched against a fresh variable applied to G's arguments (and
        vice versa); a single fresh head Z then receives one copy of
        binder x_i per matcher of u_i plus the matcher bodies for G's
        arguments, making both images reproduce every agreeing
        instantiation."""
        f_tys, g_tys = arg_types(F.ty), arg_types(G.ty)
        m, n = len(us), len(vs)

        def matcher_bodies(args_other, u):
            H = self.supply.fresh(arrow([type_of(v) for v in args_other], type_of(u)))
            flex = mk_lams(tys, mk_app(H, args_other))
            if type_of(u).arity:  # eta-expand H's application to a functional u
                flex = canonical(flex, self.fuel)
            bodies = []
            for sg in self.matching_csu(flex, mk_lams(tys, u)):
                if H.id not in sg:
                    raise InternalError("matcher left its own variable unbound")
                # keep the image open under one binder per argument of the
                # other head; extra binders (for functional u) stay in place
                i_tys, i_body = strip_lams(sg[H.id][0])
                bodies.append(mk_lams(i_tys[len(args_other) :], i_body))
            return bodies

        s_bodies = [matcher_bodies(vs, u) for u in us]  # each body under n binders
        t_bodies = [matcher_bodies(us, v) for v in vs]  # each body under m binders

        z_arg_tys = [f_tys[i] for i in range(m) for _ in s_bodies[i]] + [
            g_tys[i] for i in range(n) for _ in t_bodies[i]
        ]
        Z = self.supply.fresh(arrow(z_arg_tys, result_type(F.ty)))

        f_args = [Bound(m - 1 - i, f_tys[i]) for i in range(m) for _ in s_bodies[i]] + [
            b for bodies in t_bodies for b in bodies
        ]
        g_args = [b for bodies in s_bodies for b in bodies] + [
            Bound(n - 1 - i, g_tys[i]) for i in range(n) for _ in t_bodies[i]
        ]
        return _bound(
            ((F, mk_lams(f_tys, mk_app(Z, f_args))), (G, mk_lams(g_tys, mk_app(Z, g_args)))),
            self.fuel,
            F.ty,
            G.ty,
        )


def solid_oracle(s: Term, t: Term, supply: FreshSupply, fuel: Fuel):
    if not (is_solid(s) and is_solid(t)):
        return NotApplicable()
    fvs, fvt = free_vars(s), free_vars(t)
    problem = fvs | fvt
    pt = _PT(supply, fuel)
    try:
        if fvs.keys() & fvt.keys():
            hs, ht = _flex_head(s), _flex_head(t)
            if (
                hs is not None
                and ht is not None
                and hs[0].id == ht[0].id
                and fvs.keys() == fvt.keys() == {hs[0].id}
            ):
                rho = same_head_mgu(hs[0], hs[1], ht[1], supply, fuel)
                return Success((_checked(rho, s, t, problem, fuel),))
            return NotApplicable()
        if not (is_linear(s) or is_linear(t)):
            return NotApplicable()
        csu = []
        for sigma, residue in pt.enumerate([(s, t, False)]):
            full = _then(sigma, pt.discharge(residue), fuel)
            csu.append(_checked(full, s, t, problem, fuel))
        return Success(tuple(csu)) if csu else NotUnifiable()
    except _GiveUp:
        return NotApplicable()


def _checked(sigma: dict, s: Term, t: Term, problem: dict[int, Free], fuel: Fuel) -> Substitution:
    """sigma on the problem's variables, once both sides with it
    substituted have one beta-normal form."""
    images = {i: v for i, v in sigma.items() if i in problem}
    if hereditary(s, images, fuel)[0] != hereditary(t, images, fuel)[0]:
        raise InternalError("solid oracle produced a non-unifier")
    return Substitution(((problem[i], v[0]) for i, v in images.items()), validate=False)
