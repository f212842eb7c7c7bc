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
    delete a syntactically equal pair, oracle verdicts, the pragmatic
    cutoff, and finally decompose and/or branch on bindings.

`_transition` is the one place that decides which transition applies;
`step` applies it and returns the successor.  It reads each side's
binder prefix, head and arguments from the constraint's views, which
copies of the constraint share (see `Constraint`).  A branch point's
children come from one generator, `_children`, which charges each
child's rule before building it.  Both variants draw their bindings from
one generator, `_candidates`; the pragmatic variant takes a finite subset
on flex-flex pairs and keeps the bindings within its per-constraint
limits.  When the limits drop every binding, its cutoff solves a
flex-flex pair by a shared fresh head and fails a flex-rigid one.  The
signature types that iteration bindings range over are computed when
the first of them is built.

Terms are never normalized beyond what head classification needs.  An
image a binding touched is kept beta-normal by hereditary substitution,
which contracts only the redexes the binding creates.  Full
normalization happens once per oracle phase (`consult`), when the
selected constraint's sides are resolved and canonicalized for all the
oracles on one explicit `Fuel` meter (each oracle then gets a meter of
what is left), and when verifying a result.
Search trees are enumerated fairly: every branch point dovetails its
children, and long deterministic stretches emit pacing markers so that
siblings keep getting probed.  The solver therefore yields a stream of
"subsingletons": either a unifier or None (no news yet).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from typing import Iterable, Iterator, NamedTuple, Optional

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
from .normalize import Fuel, ReductionBudget, canonical, eta_expand_prefix, hnf
from .oracles import NotApplicable, NotUnifiable, OracleFn, Success, Verdict
from .subst import FreshSupply, Overgrown, Substitution, TriangularSubst
from .subst import compose  # noqa: F401  (perfbench/tracer.py wraps engine.compose)
from .terms import (
    App,
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
    free_vars,
    head_of,
    mk_app,
    mk_lams,
    result_type,
    size_within,
    term_key,  # noqa: F401  (perfbench/tracer.py wraps engine.term_key)
    term_order,
    type_of,
    view,
)

# ------------------------------------------------------------- constraints


class Limits(NamedTuple):
    """Bindings counted by kind.  The pragmatic variant's per-constraint
    limits are one; each constraint's tally of the bindings applied on
    the way to it, which the limits bound, is another."""

    total: int = 4
    func_proj: int = 2
    elim: int = 2
    imit: int = 2
    ident: int = 2

    def add(self, other: "Limits") -> "Limits":
        return Limits(
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

    @classmethod
    def parse(cls, text: str) -> "Limits":
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 5:
            raise ValueError("limits must be five integers: total,funcProj,elim,imit,ident")
        return cls(*parts)


#: the tally of a constraint no binding has touched, and the delta of a
#: binding that counts against no limit
NO_BINDINGS = Limits(0, 0, 0, 0, 0)


class Constraint:
    """An unordered pair of terms of equal type; `seq` is the insertion
    sequence number used to break selection ties.

    Constraints and states are `__slots__` records filled by plain
    assignment; nothing changes them after construction.  The
    engine tells constraints apart by identity only.  A constraint also
    holds its sides' views (see `terms.view`) in `lview` and `rview`.  A
    side's view is taken once, where the side first enters a constraint,
    and every copy that keeps the side shares it: `make`'s reoriented
    pair swaps the views, `with_sides` keeps the view of a side passed
    back unchanged, and a counter bump (in `_children`) keeps both.

    `make` puts a pair in the canonical orientation (`term_order`), except
    a rigid pair: one whose sides have equally long binder prefixes and
    constant or bound-variable heads.  No transition reads the orientation
    of a rigid pair, since it is only ever failed, deleted or decomposed,
    and decomposition orients each child through `make`.  So a tower of
    rigid layers is built without walking to the first difference on
    every layer."""

    __slots__ = ("lhs", "rhs", "seq", "counters", "lview", "rview")

    def __init__(self, lhs: Term, rhs: Term, seq: int, counters: Limits = NO_BINDINGS,
                 lview=None, rview=None):
        self.lhs = lhs
        self.rhs = rhs
        self.seq = seq
        self.counters = counters
        self.lview = view(lhs) if lview is None else lview
        self.rview = view(rhs) if rview is None else rview

    @staticmethod
    def make(s: Term, t: Term, seq: int, counters: Limits = NO_BINDINGS) -> "Constraint":
        # an App/Lam's type memo is read in place; `type_of` types the rest
        ts, tt = getattr(s, "_ty", None) or type_of(s), getattr(t, "_ty", None) or type_of(t)
        if ts is not tt:
            raise TypeMismatch(f"constraint sides differ in type: {ts!r} vs {tt!r}")
        sv, tv = view(s), view(t)
        (stys, hs, _), (ttys, ht, _) = sv, tv
        rigid = len(stys) == len(ttys) and type(hs) in (Const, Bound) and type(ht) in (Const, Bound)
        if rigid or term_order(s, t) <= 0:
            return Constraint(s, t, seq, counters, sv, tv)
        return Constraint(t, s, seq, counters, tv, sv)

    def with_sides(self, s: Term, t: Term) -> "Constraint":
        return Constraint(
            s, t, self.seq, self.counters,
            self.lview if s is self.lhs else None,
            self.rview if t is self.rhs else None,
        )

    def __repr__(self):
        return f"{self.lhs!r} =?= {self.rhs!r}"


class UnifState:
    __slots__ = ("constraints", "subst", "next_seq")

    def __init__(self, constraints: tuple[Constraint, ...], subst: TriangularSubst, next_seq: int):
        self.constraints = constraints
        self.subst = subst
        self.next_seq = next_seq

    def without(self, c: Constraint) -> tuple[Constraint, ...]:
        return tuple([x for x in self.constraints if x is not c])


@dataclass(frozen=True)
class EngineConfig:
    variant: str = "complete"  # or "pragmatic"
    oracles: tuple[str, ...] = ("pattern", "fixpoint", "solid")
    limits: Limits = Limits()
    max_steps: int = 100_000

    def __post_init__(self):
        if self.variant not in ("complete", "pragmatic"):
            raise ValueError(
                f"unknown variant {self.variant!r}: expected 'complete' or 'pragmatic'"
            )


class Search:
    """Mutable context shared by every branch of one solver call on the
    problem whose constraint sides are `terms`."""

    def __init__(self, cfg: EngineConfig, terms: list[Term]):
        self.cfg = cfg
        self.terms = terms
        self.problem_ids = frozenset(i for t in terms for i in free_vars(t))
        self.supply = FreshSupply()
        self.supply.reserve_ids(self.problem_ids)
        self.steps_left = cfg.max_steps
        self.budget_hit = False
        self.stats: dict[str, int] = {}
        self.oracle_fns: list[tuple[str, OracleFn]] = [
            (name, _oracles.resolve(name)) for name in cfg.oracles
        ]

    def charge(self, rule: str) -> bool:
        """Spend a step on `rule`; with no step left, record the budget
        stop instead and return False."""
        if self.steps_left <= 0:
            self.budget_hit = True
            return False
        self.steps_left -= 1
        self.stats[rule] = self.stats.get(rule, 0) + 1
        return True

    @cached_property
    def sig_types(self) -> tuple[Type, ...]:
        """The signature types of the problem's terms, computed when the
        first iteration binding reads them; most searches never do."""
        return signature_types(self.terms)


# ----------------------------------------------------------- head analysis


def head_is_flex(head: Term, subst: TriangularSubst) -> bool:
    """Head classification through the resolved image of a substituted
    head, with no normalization; a redex head counts as rigid (it will
    resolve soon)."""
    if type(head) is Free:
        image = subst.image_of(head.id)
        return image is None or type(head_of(image)) is Free
    return False


def rank(c: Constraint, subst: TriangularSubst) -> int:
    return head_is_flex(c.lview[1], subst) + head_is_flex(c.rview[1], subst)


def select(constraints: tuple[Constraint, ...], subst: TriangularSubst) -> Constraint:
    """Pick the constraint to work on: rigid-rigid first, then flex-rigid,
    then flex-flex; ties go to the oldest (lowest sequence number)."""
    return min(constraints, key=lambda c: (rank(c, subst), c.seq))


# ------------------------------------------------------- binding families


def nested_order(s: Type, t: Type) -> int:
    """-1, 0 or 1 as s sorts below, equal to or above t by the nested key
    (1, dom, cod) or (0, name).  Types are interned, so a loop follows the
    domains if they are not one type, else the codomains, to the difference."""
    while s is not t:
        if type(s) is not type(t):
            return 1 if type(s) is Arrow else -1
        if type(s) is Base:  # distinct base types have distinct names
            return -1 if s.name < t.name else 1
        s, t = (s.dom, t.dom) if s.dom is not t.dom else (s.cod, t.cod)
    return 0


def type_order(s: Type, t: Type) -> int:
    """Like `nested_order`, but by number of base types first."""
    return (s.bases > t.bases) - (s.bases < t.bases) or nested_order(s, t)


def signature_types(terms: Iterable[Term]) -> tuple[Type, ...]:
    """All types occurring in the given terms, closed under argument and
    result decomposition, in `type_order`."""
    seen: set = set()
    stack = list(terms)  # terms and types
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is App:
            stack += (t.fn, t.arg)
        elif cls is Lam:
            stack += (t.binder, t.body)
        elif cls is Arrow or cls is Base:
            if t not in seen:
                seen.add(t)
                if cls is Arrow:
                    stack += (t.dom, t.cod)
        else:
            stack.append(t.ty)
    return tuple(sorted(seen, key=cmp_to_key(type_order)))


def _y_tuples(sig_types: tuple[Type, ...]) -> Iterator[tuple[Type, ...]]:
    """All tuples over the signature's types, by length, total number of
    base types, then nested keys from the left.  The singletons take
    `sig_types`' order, so a wide signature sorts no nested keys for them."""
    yield ()
    yield from ((ty,) for ty in sig_types)
    rank = {ty: r for r, ty in enumerate(sorted(sig_types, key=cmp_to_key(nested_order)))}
    for length in itertools.count(2) if sig_types else ():
        yield from sorted(
            itertools.product(sig_types, repeat=length),
            key=lambda tp: (sum(ty.bases for ty in tp), tuple(rank[ty] for ty in tp)),
        )


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


def _binding_delta(b: Binding) -> Limits:
    match b.kind:
        case "imitation":
            return Limits(1, 0, 0, 1, 0)
        case "identification":
            return Limits(1, 0, 0, 0, 1)
        case "elimination":
            F, image = b.entries[0]
            return Limits(1, 0, F.ty.arity - len(view(image)[2]), 0, 0)
        case "huet_projection":
            if view(b.entries[0][1])[2]:
                return Limits(1, 1, 0, 0, 0)
            return NO_BINDINGS  # base-type projection: shrinks the problem
        case "jp_projection":
            return NO_BINDINGS
        case _:
            return Limits(1, 0, 0, 0, 0)


def _candidates(F: Free, other: Term, search: Search) -> Iterator[Binding | None]:
    """The bindings for a constraint between flex head `F` and head `other`,
    in the order a branch tries them.

    Flex-rigid pairs get imitation and Huet-style projections in both
    variants.  On flex-flex pairs the pragmatic variant keeps the paper's
    finite subset (identification and Huet-style projections of `F` for
    distinct heads, eliminations for equal ones); the complete variant
    takes JP-style projections of both heads instead of Huet-style ones
    and adds the infinite iterations.  The imitation, projection and
    identification bindings are built together when the first of them is
    pulled; eliminations and iterations are built one at a time."""
    supply = search.supply
    complete = search.cfg.variant != "pragmatic"
    if not isinstance(other, Free):
        group = [imitation(F, other, supply)] if isinstance(other, Const) else []
        if F.sort != IDENTIFICATION:
            group.extend(huet_projection(F, i, supply) for i in range(1, F.ty.arity + 1))
        yield from group
    elif F.id != other.id:
        group = [identification(F, other, supply)]
        if complete:
            for V in (F, other):
                if V.sort != IDENTIFICATION:
                    group.extend(jp_projection(V, i) for i in range(1, V.ty.arity + 1))
        elif F.sort != IDENTIFICATION:
            group.extend(huet_projection(F, i, supply) for i in range(1, F.ty.arity + 1))
        yield from group
        if complete:
            yield from _roundrobin(
                _iterations_for(F, list(range(1, F.ty.arity + 1)), search),
                _iterations_for(other, list(range(1, other.ty.arity + 1)), search),
            )
    elif F.sort != ELIMINATION:
        for keep in _proper_subsequences(F.ty.arity):
            yield elimination(F, keep, supply)
        if complete:
            func_args = [
                i for i, ty in enumerate(arg_types(F.ty), start=1) if isinstance(ty, Arrow)
            ]
            yield from _iterations_for(F, func_args, search)


def _trivial_unifier(c: Constraint, supply: FreshSupply) -> Substitution:
    """{F -> \\xbar. H, G -> \\ybar. H}: collapse a flex-flex pair whose
    binding budget is spent onto a shared fresh head."""
    hl, hr = c.lview[1], c.rview[1]
    H = supply.fresh(result_type(hl.ty))
    entries = [(hl, mk_lams(arg_types(hl.ty), H))]
    if hr.id != hl.id:
        entries.append((hr, mk_lams(arg_types(hr.ty), H)))
    return Substitution(entries, validate=False)  # checked by `TriangularSubst.extend`


# ------------------------------------------------------------------- step


#: reduction-fuel headroom per node of the relevant size cap: normalizing
#: a well-behaved image takes work linear in its size, so anything needing
#: more than this factor is treated as a blow-up.
_FUEL_FACTOR = 25

#: at most this many deterministic transitions per visit of a live state,
#: and a pacing marker about every this many transitions (see `_explore`)
_PACING = 8

#: a branch whose substitution resolves an image to more than this many
#: nodes is abandoned (and the truncation reported as a budget stop);
#: bindings that duplicate arguments can otherwise double the state size
#: on every transition, making a single step arbitrarily expensive.
#: The same stop applies to an image whose beta normalization needs more
#: than `_FUEL_FACTOR` reduction units per node of this cap.
_MAX_IMAGE_SIZE = 2_000

#: the same stop for a resolved image higher than this
_MAX_IMAGE_DEPTH = 250

#: constraints larger than this skip the oracle phase (oracles have to
#: fully normalize both sides up front, which is the one place a huge
#: mid-search term would get traversed eagerly).
_ORACLE_SIZE_CAP = 10_000


def _extended(rho: Substitution, state: UnifState, search: Search) -> TriangularSubst:
    """Apply a branch substitution to the state.  The problem variables'
    images are resolved at once, so a branch whose answer overgrows is
    abandoned (`Overgrown`) here rather than at every later emission."""
    subst = state.subst.extend(rho)
    for var_id in search.problem_ids:
        subst.image_of(var_id)
    return subst


def _decomposed(c: Constraint, state: UnifState) -> UnifState:
    (tys, _, sargs), targs = c.lview, c.rview[2]
    if len(sargs) != len(targs):
        raise InternalError("equal heads with unequal argument counts")
    if tys:  # else the arguments themselves are the children's sides
        sargs, targs = [mk_lams(tys, a) for a in sargs], [mk_lams(tys, b) for b in targs]
    seq, counters, children = state.next_seq, c.counters, []
    for a, b in zip(sargs, targs):
        children.append(Constraint.make(a, b, seq, counters))
        seq += 1
    rest = [x for x in state.constraints if x is not c] if len(state.constraints) > 1 else []
    return UnifState(tuple(rest + children), state.subst, seq)


def consult(s: Term, t: Term, subst, supply: FreshSupply, oracle_fns: list) -> Verdict:
    """The oracle phase on s =?= t under `subst`: the first verdict other
    than NotApplicable of the (name, oracle) pairs `oracle_fns`, in order.
    Oversized sides skip the phase (oracles normalize eagerly), and so do
    sides of two types, which no constraint has (the check reads the raw
    sides' type memos).  Both sides are resolved and canonicalized once,
    on the phase's fuel; each oracle gets a meter of what that leaves, and
    one that runs out falls through.  An empty Success or a non-verdict is
    an oracle's defect."""
    cap = _ORACLE_SIZE_CAP
    if not (oracle_fns and size_within(s, cap) and size_within(t, cap)):
        return NotApplicable()
    if type_of(s) is not type_of(t):
        return NotApplicable()
    phase = Fuel(_FUEL_FACTOR * cap)
    try:
        cs, ct = canonical(subst.apply(s), phase), canonical(subst.apply(t), phase)
    except ReductionBudget:
        return NotApplicable()  # too expensive to decide, for every oracle alike
    for name, fn in oracle_fns:
        try:
            verdict = fn(cs, ct, supply, Fuel(phase.left))
        except ReductionBudget:
            continue  # too expensive to decide
        match verdict:
            case NotApplicable():
                continue
            case NotUnifiable() | Success(csu=[_, *_]):
                return verdict
        raise InternalError(f"oracle {name} returned {verdict!r}")
    return NotApplicable()


def _transition(state: UnifState, search: Search) -> tuple[str, Optional[Constraint], object]:
    """The first applicable transition at `state`, in the fixed precedence
    order, as (rule, selected constraint, payload).  Charges nothing.

    The payload is the rewritten constraint for normalize_eta,
    normalize_beta and dereference, the unifiers for oracle_succ, and
    (heads_equal, bindings) for a branch; otherwise None."""
    cfg = search.cfg
    subst = state.subst
    cs = state.constraints
    if not cs:
        return "succeed", None, None

    c = cs[0] if len(cs) == 1 else select(cs, subst)
    s, t = c.lhs, c.rhs
    (stys, hs, _), (ttys, ht, _) = c.lview, c.rview

    # align binder prefixes (alpha is implicit in de Bruijn representation)
    m, n = len(stys), len(ttys)
    if m != n:
        target = max(m, n)
        return "normalize_eta", c, c.with_sides(
            eta_expand_prefix(s, target), eta_expand_prefix(t, target)
        )

    # expose both heads
    if type(hs) is Lam or type(ht) is Lam:
        return "normalize_beta", c, c.with_sides(hnf(s), hnf(t))

    # a rigid pair (no substituted head to replace) clashes, is deleted
    # or is decomposed
    flex_l, flex_r = type(hs) is Free, type(ht) is Free
    if not flex_l and not flex_r:
        if hs is not ht and hs != ht:
            return "fail", c, None
        # hashes are memoized per node (read in place, computed where empty), so
        # along a cascade of decomposes each node is hashed once and each check is O(1)
        hash_s, hash_t = getattr(s, "_hash", None) or hash(s), getattr(t, "_hash", None) or hash(t)
        if hash_s == hash_t and s == t:
            return "delete", c, None
        return "branch", c, (True, ())

    # replace a substituted head
    for which, (tys, head, args) in (("lhs", c.lview), ("rhs", c.rview)):
        if type(head) is Free:
            image = subst.image_of(head.id)
            if image is not None:
                new_side = mk_lams(tys, mk_app(image, args))
                c2 = c.with_sides(new_side, t) if which == "lhs" else c.with_sides(s, new_side)
                return "dereference", c, c2

    if s == t:
        return "delete", c, None

    match consult(s, t, subst, search.supply, search.oracle_fns):
        case Success(csu=csu):
            return "oracle_succ", c, csu
        case NotUnifiable():
            return "oracle_fail", c, None

    F, other = (hs, ht) if flex_l else (ht, hs)
    bindings = ((b, _binding_delta(b)) for b in _candidates(F, other, search) if b is not None)
    if cfg.variant == "pragmatic":
        # keep the bindings within the limits; when they drop every
        # binding, the pragmatic cutoff solves a flex-flex pair trivially
        # and fails a flex-rigid one
        every = list(bindings)
        bindings = [(b, d) for b, d in every if c.counters.add(d).within(cfg.limits)]
        if every and not bindings:
            if flex_l and flex_r:
                return "oracle_succ", c, (_trivial_unifier(c, search.supply),)
            return "oracle_fail", c, None
    return "branch", c, (flex_l and flex_r and hs.id == ht.id, bindings)


def step(
    state: UnifState, search: Search
) -> UnifState | TriangularSubst | Iterator[UnifState] | None:
    """Apply the first applicable transition (charging the budget) and
    return its successor: the solved state's substitution for `succeed`,
    the next state of a deterministic transition, a lazy generator of a
    branch point's or an oracle's children, or None when the step fails."""
    rule, c, payload = _transition(state, search)
    if rule == "branch":
        return _children(c, state, search, *payload)
    if rule == "oracle_succ":
        return _children(c, state, search, False, [(rho, None) for rho in payload])

    search.charge(rule)  # `_explore` steps a state only with a step left
    if rule == "succeed":
        return state.subst
    if rule in ("fail", "oracle_fail"):
        return None
    if rule == "delete":
        constraints = state.without(c)
    else:  # a rewritten constraint replaces the selected one
        constraints = tuple([payload if x is c else x for x in state.constraints])
    return UnifState(constraints, state.subst, state.next_seq)


def _children(
    c: Constraint, state: UnifState, search: Search, heads_equal: bool, edges: Iterable[tuple]
) -> Iterator[UnifState]:
    """A branch point's children, built one at a time: the decomposition
    first if `heads_equal`, then one child per edge of `edges`.  An edge
    is a (binding, counters delta) pair, whose child keeps `c` with its
    counters bumped, or an oracle's (unifier, None), whose child drops
    `c`.  Each child's rule is charged before the child is built.  When
    the step budget is spent the branch ends, and a child whose
    substitution overgrows is abandoned; both are budget stops."""
    if heads_equal:
        if not search.charge("decompose"):
            return
        yield _decomposed(c, state)
    for edge, delta in edges:
        if not search.charge("oracle_succ" if delta is None else f"bind_{edge.kind}"):
            return
        if delta is None:  # an oracle's unifier solves c
            rho, constraints = edge, state.without(c)
        else:
            bumped = Constraint(c.lhs, c.rhs, c.seq, c.counters.add(delta), c.lview, c.rview)
            rho = edge.as_subst()
            constraints = tuple([bumped if x is c else x for x in state.constraints])
        try:
            subst = _extended(rho, state, search)
        except Overgrown:
            search.budget_hit = True  # branch abandoned: search truncated
            continue
        yield UnifState(constraints, subst, state.next_seq)


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
    search = Search(cfg, [u for pair in pairs for u in pair])
    constraints = tuple(
        Constraint.make(s, t, seq) for seq, (s, t) in enumerate(pairs)
    )
    subst = TriangularSubst.root(
        _MAX_IMAGE_SIZE, _FUEL_FACTOR * _MAX_IMAGE_SIZE, _MAX_IMAGE_DEPTH
    )
    state = UnifState(constraints, subst, len(constraints))
    return state, search


def _explore(root: UnifState, search: Search) -> Iterator[Optional[Substitution]]:
    """Fair, lazy exploration of the transition tree.

    The agenda holds two kinds of tasks in one round-robin queue: live
    states, which advance along deterministic transitions (at most
    `_PACING` per visit), and branch sources, lazy iterators that
    materialize one child per visit.  Every live branch is therefore
    revisited once per queue cycle, so a unifier at any finite depth is
    reached after finitely many pulls even when siblings spawn infinite
    subtrees.  A None is yielded roughly every `_PACING` transitions so
    callers can meter work between unifiers."""
    agenda: deque = deque([root])
    pending = 0
    while agenda:
        if search.steps_left <= 0:
            search.budget_hit = True
            return
        task = agenda.popleft()
        if type(task) is UnifState:
            spent = 0
            while True:
                try:
                    nxt = step(task, search)
                except Overgrown:  # a lazily resolved image overgrew
                    search.budget_hit = True
                    break
                spent += 1
                if type(nxt) is UnifState:
                    task = nxt
                    if spent >= _PACING:
                        agenda.append(task)
                        break
                    if search.steps_left <= 0:
                        search.budget_hit = True
                        return
                    continue
                if type(nxt) is TriangularSubst:
                    yield nxt.restrict(search.problem_ids)
                elif nxt is not None:  # a branch point's children
                    agenda.append(nxt)
                break
            pending += spent
        else:
            child = next(task, _DONE)
            pending += 1
            if child is not _DONE:
                agenda.append(child)
                agenda.append(task)
        if pending >= _PACING:
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


def confirm(query: Term, entry: Term, mode: str, max_steps: int) -> Optional[bool]:
    """True when a run of at most `max_steps` steps unifies the pair ("unif")
    or instantiates the query to the entry ("match"), False when it refutes
    that, None otherwise.  A match freezes each entry variable to a constant
    `frozen-<id>`, a name no input can write; unif renames them apart."""
    if type_of(query) is not type_of(entry):
        return False
    fvs = sorted(free_vars(entry).items())
    if mode == "match":
        rho = [(v, Const(f"frozen-{i}", v.ty)) for i, v in fvs]
    else:
        supply = FreshSupply()
        supply.reserve_ids([*free_vars(query), *(i for i, _ in fvs)])
        rho = [(v, supply.fresh(v.ty, v.sort)) for _, v in fvs]
    stream = solve([(query, Substitution(rho).apply(entry))], EngineConfig(max_steps=max_steps))
    if stream.unifiers(limit=1):
        return True
    return False if stream.status == "non-unifiable" else None
