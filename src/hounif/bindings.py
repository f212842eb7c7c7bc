"""Variable bindings: the schematic substitutions the engine branches on.

Each constructor builds the image(s) for one binding applied to a flex
head F : a1 -> ... -> an -> b.  Fresh helper variables are drawn from the
supplied FreshSupply; some carry a sort restricting which bindings may be
applied to them later (identification variables never get projected,
elimination variables never get eliminated again).
"""

from __future__ import annotations

from dataclasses import dataclass

from .subst import FreshSupply, Substitution
from .terms import (
    Bound,
    Const,
    ELIMINATION,
    Free,
    IDENTIFICATION,
    Term,
    arg_types,
    arrow,
    bvars,
    mk_app,
    mk_lams,
    result_type,
)


@dataclass(frozen=True)
class Binding:
    kind: str
    entries: tuple[tuple[Free, Term], ...]

    def as_subst(self) -> Substitution:
        """Unchecked: `TriangularSubst.extend` checks each image."""
        return Substitution(self.entries, validate=False)

    def __repr__(self):
        inner = ", ".join(f"{v!r} -> {t!r}" for v, t in self.entries)
        return f"<{self.kind} {inner}>"


def jp_projection(F: Free, i: int) -> Binding | None:
    """F -> \\x1...xn. xi, possible when the type of xi is exactly F's
    result type (no fresh variables needed)."""
    alphas = arg_types(F.ty)
    n = len(alphas)
    if not 1 <= i <= n or alphas[i - 1] is not result_type(F.ty):
        return None
    image = mk_lams(alphas, Bound(n - i, alphas[i - 1]))
    return Binding("jp_projection", ((F, image),))


def huet_projection(F: Free, i: int, supply: FreshSupply) -> Binding | None:
    """F -> \\x1...xn. xi (F1 xbar) ... (Fm xbar), where xi takes m
    arguments and returns F's result type."""
    alphas = arg_types(F.ty)
    beta = result_type(F.ty)
    n = len(alphas)
    if not 1 <= i <= n:
        return None
    gammas = arg_types(alphas[i - 1])
    if result_type(alphas[i - 1]) is not beta:
        return None
    xs = bvars(n, alphas)
    fresh = [supply.fresh(arrow(alphas, g)) for g in gammas]
    args = [mk_app(Fj, xs) for Fj in fresh]
    image = mk_lams(alphas, mk_app(Bound(n - i, alphas[i - 1]), args))
    return Binding("huet_projection", ((F, image),))


def imitation(F: Free, g: Const, supply: FreshSupply) -> Binding | None:
    """F -> \\x1...xn. g (F1 xbar) ... (Fm xbar)."""
    alphas = arg_types(F.ty)
    if result_type(g.ty) is not result_type(F.ty):
        return None
    gammas = arg_types(g.ty)
    xs = bvars(len(alphas), alphas)
    fresh = [supply.fresh(arrow(alphas, gm)) for gm in gammas]
    image = mk_lams(alphas, mk_app(g, [mk_app(Fj, xs) for Fj in fresh]))
    return Binding("imitation", ((F, image),))


def elimination(F: Free, keep, supply: FreshSupply) -> Binding | None:
    """F -> \\x1...xn. G x_j1 ... x_ji for a proper subsequence of the
    arguments; G is an elimination variable."""
    alphas = arg_types(F.ty)
    n = len(alphas)
    keep = tuple(keep)
    if len(keep) >= n or any(not 1 <= j <= n for j in keep):
        return None
    if list(keep) != sorted(set(keep)):
        return None
    kept_tys = [alphas[j - 1] for j in keep]
    G = supply.fresh(arrow(kept_tys, result_type(F.ty)), ELIMINATION)
    image = mk_lams(alphas, mk_app(G, [Bound(n - j, alphas[j - 1]) for j in keep]))
    return Binding("elimination", ((F, image),))


def identification(F: Free, G: Free, supply: FreshSupply) -> Binding | None:
    """Bind both heads of a flex-flex pair to a shared fresh head H:

        F -> \\x1...xn. H xbar (F1 xbar) ... (Fm xbar)
        G -> \\y1...ym. H (G1 ybar) ... (Gn ybar) ybar

    H is an identification variable (it never gets projected)."""
    if F.id == G.id:
        return None
    alphas = arg_types(F.ty)
    gammas = arg_types(G.ty)
    beta = result_type(F.ty)
    if result_type(G.ty) is not beta:
        return None
    n, m = len(alphas), len(gammas)
    H = supply.fresh(arrow(list(alphas) + list(gammas), beta), IDENTIFICATION)
    Fs = [supply.fresh(arrow(alphas, g)) for g in gammas]
    Gs = [supply.fresh(arrow(gammas, a)) for a in alphas]
    xs = bvars(n, alphas)
    image_F = mk_lams(
        alphas, mk_app(H, xs + [mk_app(Fj, xs) for Fj in Fs])
    )
    ys = bvars(m, gammas)
    image_G = mk_lams(
        gammas, mk_app(H, [mk_app(Gk, ys) for Gk in Gs] + ys)
    )
    return Binding("identification", ((F, image_F), (G, image_G)))


def iteration(F: Free, i: int, y_tys, supply: FreshSupply) -> Binding | None:
    """F -> \\x1...xn. H xbar (\\ybar. xi (G1 xbar ybar) ... (Gm xbar ybar))

    Duplicates the i-th argument under an extra abstraction over ybar;
    the types of ybar are a free choice, which is what makes the full
    search infinitely branching."""
    alphas = arg_types(F.ty)
    n = len(alphas)
    if not 1 <= i <= n:
        return None
    y_tys = tuple(y_tys)
    k = len(y_tys)
    gammas = arg_types(alphas[i - 1])
    beta2 = result_type(alphas[i - 1])

    Gs = [supply.fresh(arrow(list(alphas) + list(y_tys), g)) for g in gammas]
    # under binders x1..xn then y1..yk
    xs_in = [Bound(k + n - l, alphas[l - 1]) for l in range(1, n + 1)]
    ys_in = [Bound(k - p, y_tys[p - 1]) for p in range(1, k + 1)]
    xi = Bound(k + n - i, alphas[i - 1])
    inner = mk_lams(
        y_tys, mk_app(xi, [mk_app(Gj, xs_in + ys_in) for Gj in Gs])
    )
    inner_ty = arrow(y_tys, beta2)
    H = supply.fresh(arrow(list(alphas) + [inner_ty], result_type(F.ty)))
    xs = bvars(n, alphas)
    image = mk_lams(alphas, mk_app(H, xs + [inner]))
    return Binding("iteration", ((F, image),))
