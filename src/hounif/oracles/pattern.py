"""Pattern oracle: Miller patterns, where every free variable is applied
to distinct bound variables.

Within this fragment unification is decidable and unitary.  The solver
below is the classic transformation algorithm: decompose rigid pairs,
invert a rigid side over a flexible head's argument list (pruning inner
variables whose arguments are not expressible), intersect argument lists
for flex-flex pairs.  An occurs-check failure or an inexpressible rigid
bound variable means there is no unifier at all.

The pairs are canonicalized once, on entry, and kept in the oracles' one
format (see the package docstring), as is the substitution.
"""

from __future__ import annotations

from ..errors import InternalError
from ..normalize import Fuel, canonical, hereditary
from ..subst import FreshSupply, Substitution
from ..subst import compose  # noqa: F401  (perfbench/tracer.py wraps pattern.compose)
from ..terms import (
    Bound,
    Free,
    Term,
    arg_types,
    mk_app,
    mk_lams,
    strip_lams,
    view,
)
from ..terms import type_of  # noqa: F401  (perfbench/tracer.py wraps pattern.type_of)
from . import (
    NotApplicable,
    NotUnifiable,
    Success,
    _narrow,
    _then,
    _values,
    eta_bound_index,
    same_head_mgu,
)


class _Clash(Exception):
    """No unifier exists."""


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


def _invert(F: Free, inv: dict[int, int], t_body: Term, supply: FreshSupply, fuel: Fuel):
    """F's binding, as (F, substitution): the rigid side with references
    into the constraint prefix turned into F's own binders via `inv`
    (prefix index -> argument position); or first, as (G, substitution),
    the pruning of an inner variable G that must drop arguments.  Raises
    _Clash when a rigid position mentions an unmapped prefix variable or F."""
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
                return head, _narrow([(head, keep)], supply, fuel)
        todo.append((tys, head, len(args)))
        todo.extend((a, d) for a in reversed(args))
    # eta-long as built: only heads of the canonical rigid side were renamed
    return F, _values(((F, mk_lams(arg_types(F.ty), out[0])),))


def _flex_diff(F: Free, us: list, G: Free, vs: list, supply: FreshSupply, fuel: Fuel) -> dict:
    """The MGU of ``F us =?= G vs``: both keep the arguments they share,
    in F's order."""
    at = {v: k for k, v in enumerate(vs)}
    common = [(j, at[u]) for j, u in enumerate(us) if u in at]
    return _narrow([(F, [j for j, _ in common]), (G, [k for _, k in common])], supply, fuel)


def unify_patterns(pairs, supply: FreshSupply, fuel: Fuel | None = None) -> Substitution | None:
    """MGU of the given pattern pairs, or None if there is no unifier;
    the normalization draws on `fuel`, unlimited by default."""
    fuel = Fuel() if fuel is None else fuel
    work = [(canonical(s, fuel), canonical(t, fuel)) for s, t in pairs]
    sigma: dict = {}
    bound: dict[int, Free] = {}  # the variables of sigma's domain
    steps = 0
    try:
        while work:
            steps += 1
            if steps > 100_000:
                raise InternalError("pattern unification did not converge")
            s, t = work.pop()
            if s == t:
                continue
            tys, hs, sargs = view(s)
            _, ht, targs = view(t)
            sflex, tflex = isinstance(hs, Free), isinstance(ht, Free)
            if not sflex and not tflex:
                if hs != ht or len(sargs) != len(targs):
                    raise _Clash
                work.extend(
                    (mk_lams(tys, a), mk_lams(tys, b)) for a, b in zip(sargs, targs)
                )
                continue
            if sflex and tflex and hs.id == ht.id:
                rho = same_head_mgu(hs, _flex_args(sargs), _flex_args(targs), supply, fuel)
                bound[hs.id] = hs
            elif sflex and tflex:
                rho = _flex_diff(hs, _flex_args(sargs), ht, _flex_args(targs), supply, fuel)
                bound[hs.id], bound[ht.id] = hs, ht
            else:
                if not sflex:
                    hs, sargs = ht, targs
                inv = {u: j for j, u in enumerate(_flex_args(sargs))}
                var, rho = _invert(hs, inv, strip_lams(t if sflex else s)[1], supply, fuel)
                bound[var.id] = var
                if var is not hs:  # a pruning: the pair comes back
                    work.append((s, t))
            work = [(hereditary(a, rho, fuel)[0], hereditary(b, rho, fuel)[0]) for a, b in work]
            sigma = _then(sigma, rho, fuel)
    except _Clash:
        return None
    return Substitution(((bound[i], v[0]) for i, v in sigma.items()), validate=False)


def pattern_oracle(s: Term, t: Term, supply: FreshSupply, fuel: Fuel):
    if not (is_pattern(s) and is_pattern(t)):
        return NotApplicable()
    sigma = unify_patterns([(s, t)], supply, fuel)
    if sigma is None:
        return NotUnifiable()
    return Success((sigma,))
