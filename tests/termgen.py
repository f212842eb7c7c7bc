"""Shared helpers for the test suite.

* a seeded random generator of well-typed terms over a small fixed
  signature, with modes restricting free-variable arguments (pattern /
  solid / ground);
* an independent normalizer (`nbe`) implemented by evaluation and
  type-directed readback, used as the oracle for the normalization code;
* a canonical rendering of substitutions that is invariant under
  renaming of auxiliary variables, used for "equal mod renaming" checks.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from hounif.normalize import canonical
from hounif.subst import Substitution
from hounif.terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Free,
    Lam,
    Term,
    Type,
    arg_types,
    arrow,
    free_vars,
    mk_app,
    mk_lams,
    result_type,
    type_of,
)

I = Base("i")
II = arrow([I], I)
III = arrow([I, I], I)

#: the fixed signature every random term draws from
CONSTS = (
    Const("a", I),
    Const("b", I),
    Const("c", I),
    Const("f", II),
    Const("h", II),
    Const("g", III),
    Const("q", arrow([II], I)),
)

#: candidate types for random free variables and problems
TYPES = (I, II, III, arrow([II], I))


def make_frees(rng: random.Random, n: int, start: int, types: Sequence[Type] = TYPES):
    """n fresh problem variables with ids start, start+1, ..."""
    return tuple(Free(start + k, rng.choice(types)) for k in range(n))


def rand_type(rng: random.Random, functional: bool = True) -> Type:
    pool = TYPES if functional else (I, II, III)
    return rng.choice(pool)


# ------------------------------------------------------------- generator


def _heads(base: Type, env: tuple[Type, ...], frees, mode: str):
    """All heads whose result type is `base`: ('c', Const) / ('b', index)
    / ('v', Free)."""
    out = [("c", c) for c in CONSTS if result_type(c.ty) == base]
    for i in range(len(env)):
        ty = env[-1 - i]
        if result_type(ty) == base:
            out.append(("b", i))
    if mode != "ground":
        out.extend(("v", F) for F in frees if result_type(F.ty) == base)
    return out


def _head_arity(kind, obj, env) -> int:
    if kind == "c":
        return obj.ty.arity
    if kind == "b":
        return env[-1 - obj].arity
    return obj.ty.arity


def _bound_args(rng, doms, env, distinct: bool):
    """Pick a bound variable of each domain type (distinct indices when
    asked); None when impossible."""
    used: set[int] = set()
    args = []
    for d in doms:
        options = [
            i
            for i in range(len(env))
            if env[-1 - i] == d and not (distinct and i in used)
        ]
        if not options:
            return None
        i = rng.choice(options)
        used.add(i)
        args.append(Bound(i, d))
    return args


def _gen_body(rng, base, env, depth, mode, frees) -> Term:
    heads = _heads(base, env, frees, mode)
    if depth <= 0:
        atoms = [h for h in heads if _head_arity(*h[:2], env) == 0]
        if atoms:
            heads = atoms
    for _ in range(24):
        kind, obj = rng.choice(heads)
        ar = _head_arity(kind, obj, env)
        if depth <= 0 and ar > 0 and any(_head_arity(*h[:2], env) == 0 for h in heads):
            continue
        if kind == "c":
            head, hty = obj, obj.ty
        elif kind == "b":
            head, hty = Bound(obj, env[-1 - obj]), env[-1 - obj]
        else:
            head, hty = obj, obj.ty
        doms = arg_types(hty)
        if kind != "v" or mode == "any":
            args = [_gen_open(rng, d, env, depth - 1, mode, frees) for d in doms]
            return mk_app(head, args)
        if mode == "pattern":
            args = _bound_args(rng, doms, env, distinct=True)
            if args is None:
                continue
            return mk_app(head, args)
        # mode == "solid": every argument of a free variable is a bound
        # variable or a first-order term without free variables
        args = []
        ok = True
        for d in doms:
            pick = _bound_args(rng, [d], env, distinct=False)
            if not isinstance(d, Arrow) and (pick is None or rng.random() < 0.5):
                args.append(_gen_open(rng, d, env, depth - 1, "ground", ()))
            elif pick is not None:
                args.append(pick[0])
            else:
                ok = False
                break
        if ok:
            return mk_app(head, args)
    # fall back to a guaranteed base constant chain
    return Const("a", I)


def _gen_open(rng, ty, env, depth, mode, frees) -> Term:
    doms = arg_types(ty)
    body = _gen_body(rng, result_type(ty), env + tuple(doms), depth, mode, frees)
    return mk_lams(list(doms), body)


def gen_term(
    rng: random.Random,
    ty: Type,
    depth: int = 3,
    mode: str = "any",
    frees: Iterable[Free] = (),
) -> Term:
    """A closed, canonical (beta-normal eta-long) random term of the given
    type.  `mode` restricts arguments of free variables: "pattern" =
    distinct bound variables, "solid" = bound variables or variable-free
    first-order terms, "ground" = no free variables at all."""
    return canonical(_gen_open(rng, ty, (), depth, mode, tuple(frees)))


def size(t: Term) -> int:
    """Variables and constants count 1, an application adds the sizes of
    both sides, a binder adds 1: the recursive reference for
    `terms.size_within`."""
    match t:
        case App(fn=f, arg=a):
            return size(f) + size(a)
        case Lam(body=u):
            return 1 + size(u)
        case _:
            return 1


def gen_sized(rng, ty, mode="any", frees=(), max_size=8, depth=3) -> Term:
    """Like gen_term but resampled until `size` fits the bound."""
    for d in (depth, 2, 1, 0):
        for _ in range(30):
            t = gen_term(rng, ty, d, mode, frees)
            if size(t) <= max_size:
                return t
    return canonical(Const("a", I))


def gen_pair(rng, mode="any", frees_l=(), frees_r=None, max_size=8, depth=3):
    """A random constraint (two closed terms of one shared type)."""
    ty = rand_type(rng, functional=True)
    s = gen_sized(rng, ty, mode, frees_l, max_size, depth)
    t = gen_sized(rng, ty, mode, frees_l if frees_r is None else frees_r, max_size, depth)
    return s, t


# --------------------------------------------- independent normalization


def is_beta_normal(t: Term) -> bool:
    """No subterm is a beta redex."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            if isinstance(u.fn, Lam):
                return False
            stack += [u.fn, u.arg]
        elif isinstance(u, Lam):
            stack.append(u.body)
    return True


def nbe(t: Term, ty: Type | None = None) -> Term:
    """Beta-eta normal form by evaluation and type-directed readback.

    Wholly independent of hounif.normalize: values are Python closures
    over an environment, and readback eta-expands by type, so the result
    is the eta-long beta-normal form of any closed well-typed term.
    """
    if ty is None:
        ty = type_of(t)
    return _reify(_eval(t, ()), ty, 0)


def _eval(t: Term, env: tuple):
    if isinstance(t, Bound):
        return env[-1 - t.index]
    if isinstance(t, (Const, Free)):
        return ("ne", t, ())
    if isinstance(t, Lam):
        return ("clos", t.body, env)
    if isinstance(t, App):
        return _apply_v(_eval(t.fn, env), _eval(t.arg, env))
    raise AssertionError(f"unexpected term in nbe: {t!r}")


def _apply_v(fv, av):
    if fv[0] == "clos":
        _, body, env = fv
        return _eval(body, env + (av,))
    _, head, args = fv
    return ("ne", head, args + (av,))


def _reify(v, ty: Type, depth: int) -> Term:
    if isinstance(ty, Arrow):
        fresh = ("ne", ("lv", depth, ty.dom), ())
        return Lam(ty.dom, _reify(_apply_v(v, fresh), ty.cod, depth + 1))
    _, head, args = v
    if isinstance(head, tuple):
        _, level, hty = head
        h: Term = Bound(depth - 1 - level, hty)
    else:
        h, hty = head, head.ty
    out = h
    for a, d in zip(args, arg_types(hty)):
        out = App(out, _reify(a, d, depth))
    return out


# ------------------------------------------- renaming-invariant printing


def term_mod_renaming(t: Term, fixed_ids: frozenset[int], ren: dict[int, str]) -> str:
    """Rendering of the canonical form where free variables outside
    `fixed_ids` are numbered by first occurrence."""
    return _render(canonical(t), fixed_ids, ren)


def _render(t: Term, fixed_ids: frozenset[int], ren: dict[int, str]) -> str:
    if isinstance(t, Lam):
        return f"L{t.binder!r}.{_render(t.body, fixed_ids, ren)}"
    if isinstance(t, App):
        return f"({_render(t.fn, fixed_ids, ren)} {_render(t.arg, fixed_ids, ren)})"
    if isinstance(t, Bound):
        return f"#{t.index}"
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Free):
        if t.id in fixed_ids:
            return f"V{t.id}"
        return ren.setdefault(t.id, f"aux{len(ren)}")
    raise AssertionError(t)


def subst_key(sigma: Substitution, problem_vars: Iterable[Free]) -> str:
    """Canonical string for a substitution restricted to the problem
    variables, invariant under renaming of auxiliary variables."""
    fixed = frozenset(v.id for v in problem_vars)
    by_id = {F.id: img for F, img in sigma.items() if F.id in fixed}
    ren: dict[int, str] = {}
    parts = []
    for vid in sorted(fixed):
        img = by_id.get(vid)
        if img is None:
            continue
        rendered = term_mod_renaming(img, fixed, ren)
        # an image that is just the eta-expansion of the variable itself
        # is no constraint at all
        parts.append(f"V{vid}={rendered}")
    return ";".join(parts)


def assert_verifies(pairs, sigma: Substitution) -> None:
    for s, t in pairs:
        left = canonical(sigma.apply(s))
        right = canonical(sigma.apply(t))
        assert left == right, f"unifier fails on {s!r} =?= {t!r}"


def problem_ids(pairs) -> frozenset[int]:
    ids: set[int] = set()
    for s, t in pairs:
        ids |= free_vars(s).keys()
        ids |= free_vars(t).keys()
    return frozenset(ids)
