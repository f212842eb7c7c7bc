"""Pattern oracle: Miller patterns, where every free variable is applied
to distinct bound variables.

Within this fragment unification is decidable and unitary.  The solver
below is the classic transformation algorithm: decompose rigid pairs,
invert a rigid side over a flexible head's argument list (pruning inner
variables whose arguments are not expressible), intersect argument lists
for flex-flex pairs.  An occurs-check failure or an inexpressible rigid
bound variable means there is no unifier at all.
"""

from __future__ import annotations

from ..errors import InternalError
from ..normalize import Fuel, canonical
from ..subst import FreshSupply, Substitution, compose
from ..terms import (
    Bound,
    Free,
    Term,
    arg_types,
    arrow,
    mk_app,
    mk_lams,
    result_type,
    spine,
    strip_lams,
    view,
)
from ..terms import type_of  # noqa: F401  (perfbench/tracer.py wraps pattern.type_of)
from . import NotApplicable, NotUnifiable, Success, eta_bound_index


class _Clash(Exception):
    """No unifier exists."""


class _Prune(Exception):
    """Restart the current pair after narrowing an inner variable."""

    def __init__(self, rho: Substitution):
        self.rho = rho


def is_pattern(t: Term) -> bool:
    """Is every free variable applied to distinct bound variables?
    Expects a canonical (beta-normal eta-long) term."""
    stack = [t]
    while stack:
        _, head, args = view(stack.pop())
        if isinstance(head, Free):
            idxs = [eta_bound_index(a) for a in args]
            if None in idxs or len(set(idxs)) != len(idxs):
                return False
        else:
            stack.extend(args)
    return True


def _flex_args(args) -> list[int]:
    idxs = [eta_bound_index(a) for a in args]
    if None in idxs:
        raise InternalError("pattern solver saw a non-pattern argument")
    return idxs


def _invert(F: Free, inv: dict[int, int], t_body: Term, supply: FreshSupply, fuel: Fuel) -> Term:
    """Rewrite the rigid side into the body of F's image: bound references
    into the constraint prefix become references to F's own binders via
    `inv` (prefix index -> argument position).  Raises _Clash when a rigid
    position mentions an unmapped prefix variable or F itself, and _Prune
    when an inner variable must first drop some arguments."""
    m = F.ty.arity
    out: list[Term] = []
    # (subterm, binder depth) visits in preorder, and (binders, head,
    # argument count) builds once the arguments are in `out`
    todo: list = [(t_body, 0)]
    while todo:
        frame = todo.pop()
        if len(frame) == 3:
            tys, head, n = frame
            args = out[len(out) - n:]
            del out[len(out) - n:]
            out.append(mk_lams(tys, mk_app(head, args)))
            continue
        u, depth = frame
        tys, head, args = view(u)
        d = depth + len(tys)
        if isinstance(head, Bound):
            if head.index >= d:
                r = head.index - d
                if r not in inv:
                    raise _Clash
                head = Bound(m - 1 - inv[r] + d, head.ty)
        elif isinstance(head, Free):
            if head.id == F.id:
                raise _Clash  # occurs check
            keep = []
            for pos, a in enumerate(args):
                ai = eta_bound_index(a)
                if ai < d or (ai - d) in inv:
                    keep.append(pos)
            if len(keep) != len(args):
                g_tys = arg_types(head.ty)
                narrowed = supply.fresh(
                    arrow([g_tys[p] for p in keep], result_type(head.ty))
                )
                image = mk_lams(
                    g_tys,
                    mk_app(narrowed, [Bound(len(g_tys) - 1 - p, g_tys[p]) for p in keep]),
                )
                raise _Prune(Substitution(((head, canonical(image, fuel)),)))
        todo.append((tys, head, len(args)))
        todo.extend((a, d) for a in reversed(args))
    return out[0]


def _bind(F: Free, body: Term, fuel: Fuel) -> Substitution:
    return Substitution(((F, canonical(mk_lams(arg_types(F.ty), body), fuel)),))


def same_head_mgu(F: Free, us: list, vs: list, supply: FreshSupply, fuel: Fuel) -> Substitution:
    """The MGU of ``F us =?= F vs``: F keeps the argument positions where
    both sides agree, through one fresh head."""
    tys = arg_types(F.ty)
    keep = [j for j in range(len(us)) if us[j] == vs[j]]
    fresh = supply.fresh(arrow([tys[j] for j in keep], result_type(F.ty)))
    m = len(tys)
    body = mk_app(fresh, [Bound(m - 1 - j, tys[j]) for j in keep])
    return _bind(F, body, fuel)


def _flex_diff(
    F: Free, us: list[int], G: Free, vs: list[int], supply: FreshSupply, fuel: Fuel
) -> Substitution:
    f_tys, g_tys = arg_types(F.ty), arg_types(G.ty)
    common = [u for u in us if u in set(vs)]
    fresh = supply.fresh(
        arrow([f_tys[us.index(c)] for c in common], result_type(F.ty))
    )
    m, n = len(us), len(vs)
    f_body = mk_app(fresh, [Bound(m - 1 - us.index(c), f_tys[us.index(c)]) for c in common])
    g_body = mk_app(fresh, [Bound(n - 1 - vs.index(c), g_tys[vs.index(c)]) for c in common])
    return Substitution(
        (
            (F, canonical(mk_lams(f_tys, f_body), fuel)),
            (G, canonical(mk_lams(g_tys, g_body), fuel)),
        )
    )


def unify_patterns(pairs, supply: FreshSupply, fuel: Fuel | None = None) -> Substitution | None:
    """MGU of the given pattern pairs, or None if there is no unifier;
    the normalization draws on `fuel`, unlimited by default."""
    fuel = Fuel() if fuel is None else fuel
    sigma = Substitution()
    work = list(pairs)
    steps = 0
    try:
        while work:
            steps += 1
            if steps > 100_000:
                raise InternalError("pattern unification did not converge")
            s, t = work.pop()
            s = canonical(sigma.apply(s), fuel)
            t = canonical(sigma.apply(t), fuel)
            if s == t:
                continue
            tys, sbody = strip_lams(s)
            _, tbody = strip_lams(t)
            hs, sargs = spine(sbody)
            ht, targs = spine(tbody)
            sflex, tflex = isinstance(hs, Free), isinstance(ht, Free)
            if not sflex and not tflex:
                if hs != ht or len(sargs) != len(targs):
                    raise _Clash
                work.extend(
                    (mk_lams(tys, a), mk_lams(tys, b)) for a, b in zip(sargs, targs)
                )
            elif sflex and tflex and hs.id == ht.id:
                rho = same_head_mgu(hs, _flex_args(sargs), _flex_args(targs), supply, fuel)
                sigma = compose(rho, sigma, fuel)
            elif sflex and tflex:
                rho = _flex_diff(hs, _flex_args(sargs), ht, _flex_args(targs), supply, fuel)
                sigma = compose(rho, sigma, fuel)
            else:
                if not sflex:
                    hs, sargs, tbody = ht, targs, sbody
                inv = {u: j for j, u in enumerate(_flex_args(sargs))}
                try:
                    rho = _bind(hs, _invert(hs, inv, tbody, supply, fuel), fuel)
                except _Prune as p:
                    rho = p.rho
                    work.append((s, t))
                sigma = compose(rho, sigma, fuel)
    except _Clash:
        return None
    return sigma


def pattern_oracle(s: Term, t: Term, supply: FreshSupply, fuel: Fuel):
    if not (is_pattern(s) and is_pattern(t)):
        return NotApplicable()
    sigma = unify_patterns([(s, t)], supply, fuel)
    if sigma is None:
        return NotUnifiable()
    return Success((sigma,))
