"""Solid oracle: computes a finite complete set of unifiers for pairs
whose free variables take only bound variables or variable-free base-type
terms as arguments, provided the sides share no variables and one side is
linear.

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
3. Every resulting unifier is re-verified against the input; a mismatch
   would mean a defect in the construction, not in the input, and raises
   InternalError.

The whole oracle gives up (returns NotApplicable) if a safety cap on PT
transitions is exceeded; under the fragment's preconditions this cannot
happen, but the cap keeps a misjudged input from hanging the solver.
"""

from __future__ import annotations

from typing import Iterator

from ..bindings import Binding, huet_projection, imitation
from ..errors import InternalError
from ..normalize import Fuel, canonical
from ..subst import FreshSupply, Substitution, compose
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
    spine,
    strip_lams,
    type_of,
)
from . import NotApplicable, Success, binders_in_order, eta_bound_index, register
from .pattern import same_head_mgu

_CAP = 1_000_000


class _GiveUp(Exception):
    """Safety cap exceeded; the oracle withdraws."""


def is_solid(t: Term) -> bool:
    """Are all arguments of free variables either bound variables or
    base-type terms without free variables?  Expects a canonical term."""
    stack = [t]
    while stack:
        _, body = strip_lams(stack.pop())
        head, args = spine(body)
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
        _, body = strip_lams(stack.pop())
        head, args = spine(body)
        if isinstance(head, Free):
            if head.id in seen:
                return False
            seen.add(head.id)
        stack.extend(reversed(args))
    return True


# ------------------------------------------------------------------ PT

# a constraint is (lhs, rhs, tagged) with closed lambda-wrapped sides;
# `tagged` marks descendants of base-type projections, which admissible
# selection must prefer


def _flex_head(side: Term):
    _, body = strip_lams(side)
    head, args = spine(body)
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

    def enumerate(self, constraints) -> Iterator[tuple[Substitution, list]]:
        """Depth-first enumeration of (preunifier, flex-flex residue)."""
        stack = [(tuple(constraints), Substitution())]
        while stack:
            E, sigma = stack.pop()
            E = self._closure(E)
            if E is None:
                continue
            picked = self._select(E)
            if picked is None:
                yield sigma, list(E)
                continue
            s, t, _tag = E[picked]
            rest = E[:picked] + E[picked + 1 :]
            for rho, children in reversed(self._branches(E[picked])):
                self._tick()
                applied = tuple(
                    (canonical(rho.apply(a), self.fuel), canonical(rho.apply(b), self.fuel), tg)
                    for a, b, tg in rest + tuple(children)
                )
                stack.append((applied, compose(rho, sigma, self.fuel)))

    def _closure(self, E):
        """Apply Deletion, Failure, and Decomposition exhaustively; these
        are deterministic and admissible selection takes them first.
        Returns None when Failure fires."""
        cs = list(E)
        changed = True
        while changed:
            changed = False
            for i, (s, t, tag) in enumerate(cs):
                if s == t:
                    self._tick()
                    del cs[i]
                    changed = True
                    break
                tys, sbody = strip_lams(s)
                _, tbody = strip_lams(t)
                hs, sargs = spine(sbody)
                ht, targs = spine(tbody)
                if isinstance(hs, Free) or isinstance(ht, Free):
                    continue
                self._tick()
                if hs != ht or len(sargs) != len(targs):
                    return None  # Failure
                del cs[i]
                cs.extend(
                    (mk_lams(tys, a), mk_lams(tys, b), tag)
                    for a, b in zip(sargs, targs)
                )
                changed = True
                break
        return tuple(cs)

    @staticmethod
    def _select(E):
        fallback = None
        for i, (s, t, tag) in enumerate(E):
            flex = (_flex_head(s) is None) != (_flex_head(t) is None)
            if flex and tag:
                return i
            if flex and fallback is None:
                fallback = i
        return fallback

    def _branches(self, constraint):
        """Solution alone when it applies; otherwise imitation (for a
        constant head) followed by all projections, as (binding, children)
        pairs."""
        s, t, tag = constraint
        if _flex_head(s) is None:
            s, t = t, s
        tys, sbody = strip_lams(s)
        _, tbody = strip_lams(t)
        F, sargs = spine(sbody)
        rigid_head, targs = spine(tbody)

        if binders_in_order(sargs, len(tys)) and F.id not in free_vars(t):
            rho = Substitution(((F, canonical(t, self.fuel)),))
            return [(rho, ())]

        out = []
        if isinstance(rigid_head, Const):
            image, fresh = self._bound(imitation(F, rigid_head, self.supply))
            children = tuple(
                (
                    canonical(mk_lams(tys, mk_app(g, sargs)), self.fuel),
                    canonical(mk_lams(tys, ti), self.fuel),
                    tag,
                )
                for g, ti in zip(fresh, targs)
            )
            out.append((Substitution(((F, image),)), children))
        for i, u in enumerate(sargs):
            b = huet_projection(F, i + 1, self.supply)
            if b is None:  # u does not return F's result type
                continue
            image, fresh = self._bound(b)
            child = (
                canonical(mk_lams(tys, mk_app(u, [mk_app(g, sargs) for g in fresh])), self.fuel),
                canonical(mk_lams(tys, tbody), self.fuel),
                tag or not fresh,
            )
            out.append((Substitution(((F, image),)), (child,)))
        return out

    def _bound(self, binding: Binding) -> tuple[Term, list[Free]]:
        """The canonical image of a one-variable binding, and its fresh
        helper variables in the order they were drawn."""
        (_, image), = binding.entries
        image = canonical(image, self.fuel)
        return image, list(free_vars(image).values())

    # ------------------------------------------------- flex-flex residue

    def matching_csu(self, flex: Term, ground: Term) -> list[Substitution]:
        out = []
        for sigma, residue in self.enumerate([(flex, ground, False)]):
            if residue:
                raise InternalError("matching problem left flex-flex residue")
            out.append(sigma)
        return out

    def discharge(self, residue) -> Substitution:
        """MGU of the remaining flex-flex constraints."""
        sigma = Substitution()
        work = list(residue)
        while work:
            s, t, _tag = work.pop(0)
            s = canonical(sigma.apply(s), self.fuel)
            t = canonical(sigma.apply(t), self.fuel)
            if s == t:
                continue
            tys, sbody = strip_lams(s)
            _, tbody = strip_lams(t)
            F, us = spine(sbody)
            G, vs = spine(tbody)
            if not (isinstance(F, Free) and isinstance(G, Free)):
                raise InternalError("non flex-flex constraint in residue")
            if F.id == G.id:
                rho = same_head_mgu(F, us, vs, self.supply, self.fuel)
            else:
                rho = self._diff_head_mgu(tys, F, us, G, vs)
            sigma = compose(rho, sigma, self.fuel)
        return sigma

    def _diff_head_mgu(self, tys, F: Free, us, G: Free, vs) -> Substitution:
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
            csu = self.matching_csu(
                canonical(mk_lams(tys, mk_app(H, args_other)), self.fuel),
                canonical(mk_lams(tys, u), self.fuel),
            )
            bodies = []
            for sg in csu:
                image = sg.image_of(H.id)
                if image is None:
                    raise InternalError("matcher left its own variable unbound")
                # keep the image open under one binder per argument of the
                # other head; extra binders (for functional u) stay in place
                i_tys, i_body = strip_lams(canonical(image, self.fuel))
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
        return Substitution(
            (
                (F, canonical(mk_lams(f_tys, mk_app(Z, f_args)), self.fuel)),
                (G, canonical(mk_lams(g_tys, mk_app(Z, g_args)), self.fuel)),
            )
        )


@register("solid")
def solid_oracle(s: Term, t: Term, supply: FreshSupply, fuel: Fuel):
    if type_of(s) != type_of(t):
        return NotApplicable()
    if not (is_solid(s) and is_solid(t)):
        return NotApplicable()
    fvs, fvt = free_vars(s), free_vars(t)
    problem_ids = frozenset(fvs) | frozenset(fvt)
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
                return Success((_checked(rho, s, t, problem_ids, fuel),))
            return NotApplicable()
        if not (is_linear(s) or is_linear(t)):
            return NotApplicable()
        csu = []
        for sigma, residue in pt.enumerate([(s, t, False)]):
            full = compose(pt.discharge(residue), sigma, fuel)
            csu.append(_checked(full, s, t, problem_ids, fuel))
        return Success(tuple(csu))
    except _GiveUp:
        return NotApplicable()


def _checked(
    sigma: Substitution, s: Term, t: Term, keep: frozenset[int], fuel: Fuel
) -> Substitution:
    out = sigma.restrict(keep)
    if canonical(out.apply(s), fuel) != canonical(out.apply(t), fuel):
        raise InternalError("solid oracle produced a non-unifier")
    return out
