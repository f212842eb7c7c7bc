"""The unification engine: a lazy transition system on constraint states.

A state is a multiset of constraints plus a triangular substitution:
the branch substitutions applied on the way from the root, whose
idempotent composition is never built.  Every transition reads a
variable's resolved image (its beta-normal image under that composition,
memoized on the substitution node), so the transitions are those of an
engine that composes eagerly.  A binding step only appends the binding
and re-resolves the problem variables' images; other images are
resolved when something reads them.

One step applies the first applicable transition, in this order:

    succeed, align binder prefixes (eta), expose the head (beta),
    dereference a substituted head, clash of distinct rigid heads,
    delete a syntactically equal pair, oracle verdicts, and finally
    decompose and/or branch on bindings.

Terms are never normalized beyond what head classification needs; full
normalization happens only inside oracles, when resolving an image that
a binding touched, and when verifying a result.
Search trees are enumerated fairly: every branch point dovetails its
children, and long deterministic stretches emit pacing markers so that
siblings keep getting probed.  The solver therefore yields a stream of
"subsingletons": either a unifier or None (no news yet).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional

from . import oracles as _oracles
from .bindings import (
    Binding,
    elimination,
    huet_projection,
    identification,
    imitation,
    iteration,
    jp_projection,
)
from .errors import InternalError, TypeMismatch
from .normalize import (
    ReductionBudget,
    canonical,
    eta_expand_prefix,
    hnf,
    is_hnf,
    reduction_fuel,
)
from .oracles import NotApplicable, NotUnifiable, OracleContext, Success, register
from .subst import FreshSupply, Overgrown, Substitution, TriangularSubst
from .subst import compose  # noqa: F401  (perfbench/tracer.py wraps engine.compose)
from .terms import (
    Arrow,
    Base,
    Bound,
    Const,
    ELIMINATION,
    Free,
    IDENTIFICATION,
    Lam,
    Term,
    Type,
    arg_types,
    arity,
    arrow,
    free_vars,
    lam_depth,
    mk_app,
    mk_lams,
    result_type,
    size_within,
    spine,
    strip_lams,
    term_key,
    type_of,
)

# ------------------------------------------------------------- constraints

RIGID_RIGID, FLEX_RIGID, FLEX_FLEX = 0, 1, 2


@dataclass(frozen=True)
class Counters:
    """Per-constraint tallies of bindings applied on the way here."""

    total: int = 0
    func_proj: int = 0
    elim: int = 0
    imit: int = 0
    ident: int = 0

    def add(self, other: "Counters") -> "Counters":
        return Counters(
            self.total + other.total,
            self.func_proj + other.func_proj,
            self.elim + other.elim,
            self.imit + other.imit,
            self.ident + other.ident,
        )

    def within(self, limits: "Limits") -> bool:
        return (
            self.total <= limits.total
            and self.func_proj <= limits.func_proj
            and self.elim <= limits.elim
            and self.imit <= limits.imit
            and self.ident <= limits.ident
        )


@dataclass(frozen=True)
class Limits:
    total: int = 4
    func_proj: int = 2
    elim: int = 2
    imit: int = 2
    ident: int = 2

    @classmethod
    def parse(cls, text: str) -> "Limits":
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 5:
            raise ValueError("limits must be five integers: total,funcProj,elim,imit,ident")
        return cls(*parts)


@dataclass(frozen=True)
class Constraint:
    """An unordered pair of terms of equal type, kept in a canonical
    orientation; `seq` is the insertion sequence number used to break
    selection ties."""

    lhs: Term
    rhs: Term
    seq: int
    counters: Counters = Counters()

    @staticmethod
    def make(s: Term, t: Term, seq: int, counters: Counters = Counters()) -> "Constraint":
        ts, tt = type_of(s), type_of(t)
        if ts != tt:
            raise TypeMismatch(f"constraint sides differ in type: {ts!r} vs {tt!r}")
        if term_key(s) > term_key(t):
            s, t = t, s
        return Constraint(s, t, seq, counters)

    def with_sides(self, s: Term, t: Term) -> "Constraint":
        return Constraint(s, t, self.seq, self.counters)

    def __repr__(self):
        return f"{self.lhs!r} =?= {self.rhs!r}"


@dataclass(frozen=True)
class UnifState:
    constraints: tuple[Constraint, ...]
    subst: TriangularSubst
    next_seq: int

    def without(self, c: Constraint) -> tuple[Constraint, ...]:
        out = list(self.constraints)
        out.remove(c)
        return tuple(out)


@dataclass(frozen=True)
class EngineConfig:
    variant: str = "complete"  # or "pragmatic"
    oracles: tuple[str, ...] = ("pattern", "fixpoint", "solid")
    limits: Limits = Limits()
    max_steps: int = 100_000
    pacing: int = 8
    selection: str = "priority"  # or "fifo"
    preunify: bool = False
    #: a branch whose substitution resolves an image to more than this many
    #: nodes is abandoned (and the truncation reported as a budget stop);
    #: bindings that duplicate arguments can otherwise double the state size
    #: on every transition, making a single step arbitrarily expensive.
    #: The same stop applies to a resolved image deeper than the interpreter's
    #: recursion limit allows, or one whose normalization needs more than
    #: `_FUEL_FACTOR` reduction units per node of this cap.
    max_image_size: int = 2_000
    #: constraints larger than this skip the oracle phase (oracles have to
    #: fully normalize both sides up front, which is the one place a huge
    #: mid-search term would get traversed eagerly).
    oracle_size_cap: int = 10_000


# ------------------------------------------------------------ step results


@dataclass
class StepResult:
    kind: str  # "solved" | "failed" | "children"
    rule: str
    solution: Optional[TriangularSubst] = None
    states: Iterable[UnifState] = ()


class Search:
    """Mutable context shared by every branch of one solver call."""

    def __init__(
        self,
        cfg: EngineConfig,
        supply: FreshSupply,
        problem_ids: frozenset[int],
        sig_types: tuple[Type, ...],
    ):
        self.cfg = cfg
        self.supply = supply
        self.problem_ids = problem_ids
        self.sig_types = sig_types
        self.steps_left = cfg.max_steps
        self.budget_hit = False
        self.stats: dict[str, int] = {}
        self.oracle_fns: list[tuple[str, Callable]] = [
            (name, _oracles.resolve(name)) for name in cfg.oracles
        ]

    def charge(self, rule: str) -> None:
        self.steps_left -= 1
        self.stats[rule] = self.stats.get(rule, 0) + 1


# ----------------------------------------------------------- head analysis


def _head_of(t: Term) -> Term:
    _, body = strip_lams(t)
    head, _ = spine(body)
    return head


def side_is_flex(t: Term, subst: TriangularSubst) -> bool:
    """Head classification through the resolved image of a substituted
    head, with no normalization; a redex head counts as rigid (it will
    resolve soon)."""
    head = _head_of(t)
    if isinstance(head, Free):
        image = subst.image_of(head.id)
        if image is None:
            return True
        return isinstance(_head_of(image), Free)
    return False


def rank(c: Constraint, subst: TriangularSubst) -> int:
    return side_is_flex(c.lhs, subst) + side_is_flex(c.rhs, subst)


def select(
    constraints: tuple[Constraint, ...],
    subst: TriangularSubst,
    cfg: EngineConfig,
) -> Optional[Constraint]:
    """Pick the constraint to work on: rigid-rigid first, then flex-rigid,
    then flex-flex; ties go to the oldest (lowest sequence number)."""
    if not constraints:
        return None
    pool = constraints
    if cfg.preunify:
        pool = tuple(c for c in constraints if rank(c, subst) < FLEX_FLEX)
        if not pool:
            return None
    if cfg.selection == "fifo":
        return min(pool, key=lambda c: c.seq)
    return min(pool, key=lambda c: (rank(c, subst), c.seq))


# ------------------------------------------------------- binding families


def _type_size(ty: Type) -> int:
    if isinstance(ty, Arrow):
        return _type_size(ty.dom) + _type_size(ty.cod)
    return 1


def _type_key(ty: Type):
    if isinstance(ty, Arrow):
        return (1, _type_key(ty.dom), _type_key(ty.cod))
    return (0, ty.name)


def signature_types(terms: Iterable[Term]) -> tuple[Type, ...]:
    """All types occurring in the given terms, closed under argument and
    result decomposition, in a deterministic order."""
    seen: set = set()

    def add(ty: Type):
        if ty in seen:
            return
        seen.add(ty)
        if isinstance(ty, Arrow):
            add(ty.dom)
            add(ty.cod)

    def walk(t: Term):
        match t:
            case Free(ty=ty) | Bound(ty=ty) | Const(ty=ty):
                add(ty)
            case Lam(binder=b, body=u):
                add(b)
                walk(u)
            case _:
                if hasattr(t, "fn"):
                    walk(t.fn)
                    walk(t.arg)

    for t in terms:
        walk(t)
    return tuple(sorted(seen, key=lambda ty: (_type_size(ty), _type_key(ty))))


def _y_tuples(sig_types: tuple[Type, ...]) -> Iterator[tuple[Type, ...]]:
    """All tuples over the signature's types, by (length, total size)."""
    yield ()
    for length in itertools.count(1):
        if not sig_types:
            return
        tuples = sorted(
            itertools.product(sig_types, repeat=length),
            key=lambda tp: (
                sum(_type_size(ty) for ty in tp),
                tuple(_type_key(ty) for ty in tp),
            ),
        )
        yield from tuples


def _iterations_for(F: Free, positions: list[int], search: Search) -> Iterator[Binding]:
    if not positions:
        return
    for ytup in _y_tuples(search.sig_types):
        for i in positions:
            b = iteration(F, i, ytup, search.supply)
            if b is not None:
                yield b


def _roundrobin(*iters: Iterator) -> Iterator:
    pending = [iter(it) for it in iters]
    while pending:
        nxt = []
        for it in pending:
            try:
                yield next(it)
            except StopIteration:
                continue
            nxt.append(it)
        pending = nxt


def _proper_subsequences(n: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing proper subsequences of 1..n, longest first."""
    for keep_len in range(n - 1, -1, -1):
        yield from itertools.combinations(range(1, n + 1), keep_len)


_NO_DELTA = Counters()


def _binding_delta(b: Binding, F: Free) -> Counters:
    match b.kind:
        case "imitation":
            return Counters(total=1, imit=1)
        case "identification":
            return Counters(total=1, ident=1)
        case "elimination":
            removed = arity(F.ty) - (len(spine(strip_lams(b.entries[0][1])[1])[1]))
            return Counters(total=1, elim=removed)
        case "huet_projection":
            _, image_body = strip_lams(b.entries[0][1])
            _, args = spine(image_body)
            if args:
                return Counters(total=1, func_proj=1)
            return _NO_DELTA  # base-type projection: shrinks the problem
        case "jp_projection":
            return _NO_DELTA
        case _:
            return Counters(total=1)


def p_complete(
    c: Constraint, subst: TriangularSubst, search: Search
) -> Iterator[tuple[Binding, Counters]]:
    """Bindings of the complete variant for an exposed constraint."""
    hl, hr = _head_of(c.lhs), _head_of(c.rhs)
    flex_l, flex_r = isinstance(hl, Free), isinstance(hr, Free)

    def tagged(it):
        for b in it:
            if b is not None:
                yield b, _binding_delta(b, b.entries[0][0])

    if not flex_l and not flex_r:
        return
    if flex_l != flex_r:  # flex-rigid
        F, a = (hl, hr) if flex_l else (hr, hl)
        out: list[Binding | None] = []
        if isinstance(a, Const):
            out.append(imitation(F, a, search.supply))
        if F.sort != IDENTIFICATION:
            out.extend(
                huet_projection(F, i, search.supply)
                for i in range(1, arity(F.ty) + 1)
            )
        yield from tagged(out)
        return
    # flex-flex
    F, G = hl, hr
    if F.id != G.id:
        head: list[Binding | None] = [identification(F, G, search.supply)]
        for V in (F, G):
            if V.sort != IDENTIFICATION:
                head.extend(jp_projection(V, i) for i in range(1, arity(V.ty) + 1))
        yield from tagged(head)
        yield from tagged(
            _roundrobin(
                _iterations_for(F, list(range(1, arity(F.ty) + 1)), search),
                _iterations_for(G, list(range(1, arity(G.ty) + 1)), search),
            )
        )
        return
    # same head
    if F.sort == ELIMINATION:
        return
    n = arity(F.ty)
    elims = (elimination(F, keep, search.supply) for keep in _proper_subsequences(n))
    func_args = [
        i for i, ty in enumerate(arg_types(F.ty), start=1) if isinstance(ty, Arrow)
    ]
    yield from tagged(elims)
    yield from tagged(_iterations_for(F, func_args, search))


def p_pragmatic(
    c: Constraint, subst: TriangularSubst, search: Search
) -> tuple[list[tuple[Binding, Counters]], bool]:
    """Bindings of the pragmatic variant, filtered by the per-constraint
    limits.  Returns (kept bindings, whether any candidate was dropped
    because a limit would be exceeded)."""
    limits = search.cfg.limits
    hl, hr = _head_of(c.lhs), _head_of(c.rhs)
    flex_l, flex_r = isinstance(hl, Free), isinstance(hr, Free)
    candidates: list[Binding | None] = []

    if not flex_l and not flex_r:
        return [], False
    if flex_l != flex_r:
        F, a = (hl, hr) if flex_l else (hr, hl)
        if isinstance(a, Const):
            candidates.append(imitation(F, a, search.supply))
        if F.sort != IDENTIFICATION:
            candidates.extend(
                huet_projection(F, i, search.supply)
                for i in range(1, arity(F.ty) + 1)
            )
    elif hl.id != hr.id:
        candidates.append(identification(hl, hr, search.supply))
        if hl.sort != IDENTIFICATION:
            candidates.extend(
                huet_projection(hl, i, search.supply)
                for i in range(1, arity(hl.ty) + 1)
            )
    else:
        if hl.sort == ELIMINATION:
            return [], False
        candidates.extend(
            elimination(hl, keep, search.supply)
            for keep in _proper_subsequences(arity(hl.ty))
        )

    kept: list[tuple[Binding, Counters]] = []
    dropped = False
    for b in candidates:
        if b is None:
            continue
        delta = _binding_delta(b, b.entries[0][0])
        if c.counters.add(delta).within(limits):
            kept.append((b, delta))
        else:
            dropped = True
    return kept, dropped


# ------------------------------------------------------------ limit oracle


def _trivial_unifier(c: Constraint, supply: FreshSupply) -> Substitution:
    """{F -> \\xbar. H, G -> \\ybar. H}: collapse a flex-flex pair whose
    binding budget is spent onto a shared fresh head."""
    hl, hr = _head_of(c.lhs), _head_of(c.rhs)
    H = supply.fresh(result_type(hl.ty))
    entries = [(hl, mk_lams(arg_types(hl.ty), H))]
    if hr.id != hl.id:
        entries.append((hr, mk_lams(arg_types(hr.ty), H)))
    return Substitution(entries)


@register("limit")
def limit_oracle(lhs: Term, rhs: Term, ctx: OracleContext):
    """Pragmatic cutoff: when the limits leave no binding applicable to a
    constraint, solve a flex-flex pair trivially and fail a flex-rigid
    one.  Registered for completeness; the pragmatic variant applies the
    same logic inline."""
    if ctx.limits is None or ctx.search is None:
        return NotApplicable()
    c = Constraint.make(lhs, rhs, seq=-1, counters=ctx.counters)
    kept, dropped = p_pragmatic(c, ctx.subst, ctx.search)
    if kept or not dropped:
        return NotApplicable()
    hl, hr = _head_of(lhs), _head_of(rhs)
    if isinstance(hl, Free) and isinstance(hr, Free):
        return Success((_trivial_unifier(c, ctx.supply),))
    return NotUnifiable()


# ------------------------------------------------------------------- step


def _aligned_views(s: Term, t: Term):
    tys, sbody = strip_lams(s)
    tys2, tbody = strip_lams(t)
    assert len(tys) == len(tys2)
    hs, sargs = spine(sbody)
    ht, targs = spine(tbody)
    return tys, hs, sargs, ht, targs


#: reduction-fuel headroom per node of the relevant size cap: normalizing
#: a well-behaved image takes work linear in its size, so anything needing
#: more than this factor is treated as a blow-up.
_FUEL_FACTOR = 25


def _extended(rho: Substitution, state: UnifState, search: Search) -> TriangularSubst:
    """Apply a branch substitution to the state.  The problem variables'
    images are resolved at once, so a branch whose answer overgrows is
    abandoned (`Overgrown`) here rather than at every later emission."""
    subst = state.subst.extend(rho)
    for var_id in search.problem_ids:
        subst.image_of(var_id)
    return subst


def _oracle_sized(s: Term, t: Term, cfg: EngineConfig) -> bool:
    """Whether a constraint is small enough to hand to the oracles."""
    cap = cfg.oracle_size_cap
    return size_within(s, cap) and size_within(t, cap)


def _decomposed(c: Constraint, state: UnifState) -> UnifState:
    tys, hs, sargs, ht, targs = _aligned_views(c.lhs, c.rhs)
    if len(sargs) != len(targs):
        raise InternalError("equal heads with unequal argument counts")
    rest = list(state.without(c))
    seq = state.next_seq
    for a, b in zip(sargs, targs):
        rest.append(
            Constraint.make(mk_lams(tys, a), mk_lams(tys, b), seq, c.counters)
        )
        seq += 1
    return UnifState(tuple(rest), state.subst, seq)


def _bound_child(
    c: Constraint, state: UnifState, b: Binding, delta: Counters, search: Search
) -> UnifState:
    new_subst = _extended(b.as_subst(), state, search)
    bumped = replace(c, counters=c.counters.add(delta))
    constraints = tuple(bumped if x is c else x for x in state.constraints)
    return UnifState(constraints, new_subst, state.next_seq)


def _oracle_child(
    c: Constraint, state: UnifState, rho: Substitution, search: Search
) -> UnifState:
    new_subst = _extended(rho, state, search)
    return UnifState(state.without(c), new_subst, state.next_seq)


def step(state: UnifState, search: Search) -> StepResult:
    """Apply the first applicable transition (charging the budget); for a
    branch point, return lazily materialized children."""
    cfg = search.cfg
    subst = state.subst

    if not state.constraints:
        search.charge("succeed")
        return StepResult("solved", "succeed", solution=subst)
    if cfg.preunify and all(rank(c, subst) == FLEX_FLEX for c in state.constraints):
        search.charge("succeed")
        return StepResult("solved", "succeed", solution=subst)

    c = select(state.constraints, subst, cfg)
    s, t = c.lhs, c.rhs

    # align binder prefixes (alpha is implicit in de Bruijn representation)
    m, n = lam_depth(s), lam_depth(t)
    if m != n:
        target = max(m, n)
        c2 = c.with_sides(eta_expand_prefix(s, target), eta_expand_prefix(t, target))
        search.charge("normalize_eta")
        return _single(state, c, c2, "normalize_eta")

    # expose both heads
    if not (is_hnf(s) and is_hnf(t)):
        c2 = c.with_sides(hnf(s), hnf(t))
        search.charge("normalize_beta")
        return _single(state, c, c2, "normalize_beta")

    # replace a substituted head
    for which, side in (("lhs", s), ("rhs", t)):
        tys, body = strip_lams(side)
        head, args = spine(body)
        if isinstance(head, Free):
            image = subst.image_of(head.id)
            if image is not None:
                new_side = mk_lams(tys, mk_app(image, args))
                c2 = c.with_sides(new_side, t) if which == "lhs" else c.with_sides(s, new_side)
                search.charge("dereference")
                return _single(state, c, c2, "dereference")

    tys, hs, sargs, ht, targs = _aligned_views(s, t)
    flex_l, flex_r = isinstance(hs, Free), isinstance(ht, Free)

    if not flex_l and not flex_r and hs != ht:
        search.charge("fail")
        return StepResult("failed", "fail")

    if s == t:
        search.charge("delete")
        return StepResult("children", "delete", states=(UnifState(state.without(c), subst, state.next_seq),))

    # oracle phase: the first oracle with an opinion wins (oversized
    # constraints skip it; oracles normalize eagerly)
    if (flex_l or flex_r) and _oracle_sized(s, t, cfg):
        octx = OracleContext(
            subst=subst,
            supply=search.supply,
            counters=c.counters,
            limits=cfg.limits if cfg.variant == "pragmatic" else None,
            variant=cfg.variant,
            search=search,
        )
        for name, fn in search.oracle_fns:
            try:
                with reduction_fuel(_FUEL_FACTOR * cfg.oracle_size_cap):
                    verdict = fn(s, t, octx)
            except ReductionBudget:
                continue  # too expensive to decide; fall through to branching
            match verdict:
                case Success(csu=csu):
                    if not csu:
                        search.charge("oracle_fail")
                        return StepResult("failed", "oracle_fail")
                    return StepResult(
                        "children",
                        "oracle_succ",
                        states=_charged(
                            search,
                            ((lambda r=rho: _oracle_child(c, state, r, search)) for rho in csu),
                            "oracle_succ",
                        ),
                    )
                case NotUnifiable():
                    search.charge("oracle_fail")
                    return StepResult("failed", "oracle_fail")
                case NotApplicable():
                    continue
                case _:
                    raise InternalError(f"oracle {name} returned {verdict!r}")

    # pragmatic limit handling doubles as an oracle of last resort
    bindings: Iterable[tuple[Binding, Counters]]
    if cfg.variant == "pragmatic":
        kept, dropped = p_pragmatic(c, subst, search)
        if not kept and dropped:
            if flex_l and flex_r:
                rho = _trivial_unifier(c, search.supply)
                return StepResult(
                    "children",
                    "oracle_succ",
                    states=_charged(
                        search,
                        iter([lambda: _oracle_child(c, state, rho, search)]),
                        "oracle_succ",
                    ),
                )
            search.charge("oracle_fail")
            return StepResult("failed", "oracle_fail")
        bindings = kept
    else:
        bindings = p_complete(c, subst, search) if (flex_l or flex_r) else ()

    heads_equal = (flex_l and flex_r and hs.id == ht.id) or (
        not flex_l and not flex_r and hs == ht
    )

    def edges():
        if heads_equal:
            yield "decompose", (lambda: _decomposed(c, state))
        for b, delta in bindings:
            yield f"bind_{b.kind}", (lambda b=b, d=delta: _bound_child(c, state, b, d, search))

    gen = _charged_edges(search, edges())
    return StepResult("children", "branch", states=gen)


def _single(state: UnifState, old: Constraint, new: Constraint, rule: str) -> StepResult:
    constraints = tuple(new if x is old else x for x in state.constraints)
    return StepResult(
        "children", rule, states=(UnifState(constraints, state.subst, state.next_seq),)
    )


def _charged(search: Search, thunks: Iterator[Callable[[], UnifState]], rule: str):
    for mk in thunks:
        if search.steps_left <= 0:
            search.budget_hit = True
            return
        search.charge(rule)
        try:
            yield mk()
        except Overgrown:
            search.budget_hit = True  # branch abandoned: search truncated


def _charged_edges(search: Search, edges: Iterator[tuple[str, Callable[[], UnifState]]]):
    for rule, mk in edges:
        if search.steps_left <= 0:
            search.budget_hit = True
            return
        search.charge(rule)
        try:
            yield mk()
        except Overgrown:
            search.budget_hit = True


# ------------------------------------------------------------- exploration

_DONE = object()


class UnifierStream:
    """Iterator of subsingletons: a Substitution when a unifier was found,
    None as a pacing marker.  After exhaustion, `status` reports why the
    stream ended."""

    def __init__(self, gen: Iterator, search: Search):
        self._gen = gen
        self._search = search
        self.pulls = 0
        self.found = 0
        self._ended = False

    def __iter__(self):
        return self

    def __next__(self) -> Optional[Substitution]:
        try:
            item = next(self._gen)
        except StopIteration:
            self._ended = True
            raise
        self.pulls += 1
        if item is not None:
            self.found += 1
        return item

    @property
    def status(self) -> str:
        if not self._ended:
            return "running"
        if self._search.budget_hit:
            return "budget"
        return "exhausted" if self.found else "non-unifiable"

    @property
    def stats(self) -> dict[str, int]:
        return self._search.stats

    def unifiers(self, limit: Optional[int] = None, max_pulls: Optional[int] = None):
        out = []
        for item in self:
            if item is not None:
                out.append(item)
                if limit is not None and len(out) >= limit:
                    break
            if max_pulls is not None and self.pulls >= max_pulls:
                break
        return out


def prepare(pairs, cfg: EngineConfig) -> tuple[UnifState, Search]:
    """Build the root state and search context for a list of (s, t) pairs."""
    ids: set[int] = set()
    all_terms = []
    for s, t in pairs:
        ids |= free_vars(s).keys()
        ids |= free_vars(t).keys()
        all_terms += [s, t]
    supply = FreshSupply()
    supply.reserve_ids(ids)
    search = Search(cfg, supply, frozenset(ids), signature_types(all_terms))
    constraints = tuple(
        Constraint.make(s, t, seq) for seq, (s, t) in enumerate(pairs)
    )
    subst = TriangularSubst.root(cfg.max_image_size, _FUEL_FACTOR * cfg.max_image_size)
    state = UnifState(constraints, subst, len(constraints))
    return state, search


def _emit(subst: TriangularSubst, search: Search) -> Substitution:
    return subst.restrict(search.problem_ids)


def _explore(root: UnifState, search: Search) -> Iterator[Optional[Substitution]]:
    """Fair, lazy exploration of the transition tree.

    The agenda holds two kinds of tasks in one round-robin queue: live
    states, which advance along deterministic transitions (at most
    `pacing` per visit), and branch sources, lazy iterators that
    materialize one child per visit.  Every live branch is therefore
    revisited once per queue cycle, so a unifier at any finite depth is
    reached after finitely many pulls even when siblings spawn infinite
    subtrees.  A None is yielded roughly every `pacing` transitions so
    callers can meter work between unifiers."""
    agenda: deque = deque([root])
    pending = 0
    while agenda:
        if search.steps_left <= 0:
            search.budget_hit = True
            return
        task = agenda.popleft()
        if isinstance(task, UnifState):
            spent = 0
            while True:
                try:
                    res = step(task, search)
                except Overgrown:  # a lazily resolved image overgrew
                    search.budget_hit = True
                    break
                spent += 1
                if res.kind == "solved":
                    yield _emit(res.solution, search)
                    break
                if res.kind == "failed":
                    break
                states = res.states
                if isinstance(states, tuple):
                    task = states[0]
                    if spent >= search.cfg.pacing:
                        agenda.append(task)
                        break
                    if search.steps_left <= 0:
                        search.budget_hit = True
                        return
                    continue
                agenda.append(iter(states))
                break
            pending += spent
        else:
            child = next(task, _DONE)
            pending += 1
            if child is not _DONE:
                agenda.append(child)
                agenda.append(task)
        if pending >= search.cfg.pacing:
            pending = 0
            yield None


def solve(pairs, cfg: EngineConfig = EngineConfig()) -> UnifierStream:
    """Enumerate unifiers for the conjunction of the given term pairs."""
    state, search = prepare(pairs, cfg)
    return UnifierStream(_explore(state, search), search)


def verify_unifier(pairs, subst: Substitution) -> bool:
    """Does the substitution make every pair equal modulo alpha-beta-eta?"""
    for s, t in pairs:
        if canonical(subst.apply(s)) != canonical(subst.apply(t)):
            return False
    return True


# --------------------------------------------------- rule-order inspection


def applicable_rules(state: UnifState, search: Search) -> list[str]:
    """Names of all transitions whose guard holds at this state, in the
    fixed precedence order.  Used by tests to check that `step` always
    applies the first one."""
    out = []
    if not state.constraints:
        return ["succeed"]
    subst = state.subst
    c = select(state.constraints, subst, search.cfg)
    s, t = c.lhs, c.rhs
    if lam_depth(s) != lam_depth(t):
        out.append("normalize_eta")
        return out
    if not (is_hnf(s) and is_hnf(t)):
        out.append("normalize_beta")
    deref = False
    for side in (s, t):
        head = _head_of(side)
        if isinstance(head, Free) and subst.image_of(head.id) is not None:
            deref = True
    if deref:
        out.append("dereference")
    if out:
        return out
    hs, ht = _head_of(s), _head_of(t)
    flex_l, flex_r = isinstance(hs, Free), isinstance(ht, Free)
    if not flex_l and not flex_r and hs != ht:
        out.append("fail")
        return out
    if s == t:
        out.append("delete")
        return out
    if (flex_l or flex_r) and _oracle_sized(s, t, search.cfg):
        octx = OracleContext(
            subst=subst,
            supply=search.supply,
            counters=c.counters,
            limits=search.cfg.limits if search.cfg.variant == "pragmatic" else None,
            variant=search.cfg.variant,
            search=search,
        )
        for name, fn in search.oracle_fns:
            try:
                with reduction_fuel(_FUEL_FACTOR * search.cfg.oracle_size_cap):
                    verdict = fn(s, t, octx)
            except ReductionBudget:
                continue
            if not isinstance(verdict, NotApplicable):
                out.append("oracle")
                return out
    heads_equal = (flex_l and flex_r and hs.id == ht.id) or (
        not flex_l and not flex_r and hs == ht
    )
    if heads_equal:
        out.append("decompose")
    if flex_l or flex_r:
        if search.cfg.variant == "pragmatic":
            kept, _ = p_pragmatic(c, subst, search)
            if kept:
                out.append("bind")
        else:
            probe = next(iter(p_complete(c, subst, search)), None)
            if probe is not None:
                out.append("bind")
    return out
