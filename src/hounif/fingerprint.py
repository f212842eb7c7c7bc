"""Fingerprint pre-filtering for unifiability and matching candidates.

A term stands for its untyped first-order image: the eta-long
beta-normal form with binders erased, where a free-variable head
swallows its arguments, a bound-variable head becomes the indexed
constant ``db_i``, and a constant head keeps its encoded arguments.
The image is sampled at a fixed tuple of positions; each sample is one
of four features:

    Sym(s)  a rigid symbol heads the subterm at the position
    A       a variable sits exactly at the position
    B       a variable sits strictly above the position
    N       the position does not exist and no variable can create it

The image is never built.  A fingerprint reads it lazily, down to the
deepest sampled position only: at each subterm on the way it strips the
written binders and takes the spine, reads the eta-expansion off the
type, and beta-normalizes only a subterm headed by a redex.  A rigid
symbol's feature is built by the C constructor that `Sym(...)` calls,
and the sampled features are picked by a selection compiled once per
position tuple.  `encode` builds the whole image; the tests sample it as
the reference.

Two fingerprints are compared componentwise with one of two tables: the
symmetric one answers "could these terms possibly unify?", the
asymmetric one answers "could the query possibly be instantiated to
equal the target?".  Both only ever report false when no substitution
can reconcile the samples, so retrieval never loses a true candidate;
it merely filters.

A `FingerprintIndex` keeps the fingerprints of a term population in a
trie, one level per sampled position, beside a map from each fingerprint
to its leaf (the same set object), so an insert under a known
fingerprint skips the walk.  Retrieval visits only compatible branches
and finds them by key: a rigid-symbol feature looks up its own key and
the markers it accepts, an A feature scans a node's children, and a B
feature, which accepts every key, takes the level whole.  Which keys a
feature looks up is read off the two tables once per index, so they stay
the only statement of compatibility.
Retrievals are pure reads over a snapshot; concurrent readers are safe
as long as no insert runs at the same time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple, Union

from .errors import ParseError
from .normalize import beta_normal, canonical, eta_index
from .terms import (
    App,
    Bound,
    Const,
    Free,
    Lam,
    Term,
    arg_types,
    type_of,
    view,
)

# ----------------------------------------------------------------- features


class Sym(NamedTuple):
    """A rigid head: a constant's name, or an integer de Bruijn index
    (kept disjoint from constant names by its type).  A tuple, so the
    trie hashes and compares features in C."""

    sym: Union[str, int]

    def __str__(self) -> str:
        return f"db{self.sym}" if isinstance(self.sym, int) else self.sym


class _Marker:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):  # unpickles as the module-level marker of that name
        return self._name


A = _Marker("A")
B = _Marker("B")
N = _Marker("N")

Feature = Union[Sym, _Marker]
Fingerprint = tuple  # of Feature
Position = tuple  # of int, 1-based child steps; () is the root


# ----------------------------------------------------- first-order encoding


@dataclass(frozen=True)
class FOTerm:
    """Untyped first-order image; ``sym`` is None for a collapsed
    variable, a str for a constant, an int for a de Bruijn constant.
    Fingerprinting never builds one (see `encode`)."""

    sym: Union[str, int, None]
    args: tuple["FOTerm", ...] = ()


_FOVAR = FOTerm(None)


def encode(t: Term) -> FOTerm:
    """Collapse a term to its whole first-order image (canonicalizing
    first).  No fingerprint calls it: it is the image the lazy pass reads,
    kept as the tests' reference model, and because perfbench's tracer
    hooks `encode` and this module's `canonical` by name."""
    return _encode(canonical(t))


def _encode(t: Term) -> FOTerm:
    _, head, args = view(t)
    if isinstance(head, Free):
        return _FOVAR
    sym = head.index if isinstance(head, Bound) else head.name
    return FOTerm(sym, tuple(_encode(a) for a in args))


# ------------------------------------------------------------- fingerprints

#: a compiled position tuple: the prefixes of its positions as (parent,
#: step) nodes, every parent before its children and the root first as
#: (-1, 0); and what picks the features at the positions, in their order
_Plan = tuple[tuple[tuple[int, int], ...], Callable[[list], Fingerprint]]


def _compile(positions: tuple[Position, ...]) -> _Plan:
    nodes = [(-1, 0)]
    node_of = {(): 0}
    for pos in positions:
        if any(type(k) is not int or k < 1 for k in pos):
            raise ValueError(f"position steps are 1-based ints: {pos!r}")
        for d in range(1, len(pos) + 1):
            if pos[:d] not in node_of:
                node_of[pos[:d]] = len(nodes)
                nodes.append((node_of[pos[:d - 1]], pos[d - 1]))
    where = tuple(node_of[pos] for pos in positions)
    if len(where) > 1:
        select = itemgetter(*where)  # picks in C, no Python step per feature
    else:  # itemgetter returns one item bare and takes no zero
        select = partial(_pick, where)  # module-level, so an index pickles
    return tuple(nodes), select


def _pick(where: tuple[int, ...], fs: list) -> Fingerprint:
    return tuple(fs[i] for i in where)


def _sample(t: Term, plan: _Plan) -> Fingerprint:
    """The features of t's first-order image at the planned positions,
    read without building the image or t's canonical form.

    Each node of the plan is a subterm of the eta-long beta-normal form,
    reached from its parent's written argument, or from one of the
    parent's eta-variables past them.  The subterm's binders are
    stripped and its spine taken; a redex head has that subterm (and only
    it) beta-normalized first.  Its type gives k, the eta-arguments its
    image adds.  A bound head is renumbered into the image by
    `eta_index`, through the chain of (written binders, k) of the levels
    above it.  Nothing is kept between calls."""
    nodes, select = plan
    feats: list = []
    # per node: (reversed written args, body type, k, env) below a rigid
    # head, else None
    views: list = []
    for parent, step in nodes:
        if parent < 0:
            u, env = t, None
        else:
            view = views[parent]
            if view is None:  # nothing rigid above: a variable or a gap
                feats.append(N if feats[parent] is N else B)
                views.append(None)
                continue
            args, ty, k, env = view
            m = len(args)
            if 0 < step <= m:
                u = args[m - step]
            elif m < step <= m + k:
                q = step - m - 1
                u, env = Bound(k - 1 - q, arg_types(ty)[q]), None
            else:
                feats.append(N)
                views.append(None)
                continue
        while True:
            body = u
            n = 0
            while type(body) is Lam:
                body = body.body
                n += 1
            # at the root this checks the whole term (a binder adds no
            # check): an ill-typed term raises IllTyped
            ty = type_of(body)
            args = []
            head = body
            while type(head) is App:
                args.append(head.arg)
                head = head.fn
            if type(head) is not Lam:
                break
            u = beta_normal(u)
        cls = type(head)
        if cls is Free:
            feats.append(A)
            views.append(None)
            continue
        k = ty.arity
        if n or k:
            env = (n, k, env)
        sym = head.name if cls is Const else eta_index(head.index, env)
        feats.append(tuple.__new__(Sym, (sym,)))  # what Sym(sym) calls, in C only
        views.append((args, ty, k, env))
    return select(feats)


def fp_ho(t: Term, positions: tuple[Position, ...]) -> Fingerprint:
    return _sample(t, _compile(positions))


DEFAULT_POSITIONS: tuple[Position, ...] = ((), (1,), (2,), (1, 1), (1, 2), (2, 1))


# ------------------------------------------------------------ compatibility


def feature_unif(x: Feature, y: Feature) -> bool:
    if x is B or y is B:
        return True
    if x is A or y is A:
        return x is not N and y is not N
    if x is N and y is N:
        return True
    if x is N or y is N:
        return False  # a rigid symbol against a missing position
    return x.sym == y.sym


def feature_match(query: Feature, target: Feature) -> bool:
    if query is B:
        return True
    if query is N:
        return target is N
    if query is A:
        return target is A or isinstance(target, Sym)
    return isinstance(target, Sym) and query.sym == target.sym


# -------------------------------------------------------------------- index

_MARKERS = (A, B, N)


def _lookups(compat) -> tuple[dict, tuple]:
    """How retrieval picks a node's children under one compatibility
    table, read off the table once.

    For a query marker: the stored markers it accepts, and, when it also
    accepts rigid symbols, the markers it rejects (its children are then
    scanned).  For a rigid-symbol query: the markers it accepts beside its
    own key.  The tables treat every rigid symbol alike against a marker,
    and accept a symbol only against itself, so one probe symbol stands
    for all of them."""
    probe = Sym(0)
    by_marker = {}
    for q in _MARKERS:
        accepted = tuple(m for m in _MARKERS if compat(q, m))
        rejected = frozenset(_MARKERS).difference(accepted) if compat(q, probe) else None
        by_marker[q] = (accepted, rejected)
    return by_marker, tuple(m for m in _MARKERS if compat(probe, m))


class FingerprintIndex:
    """Fingerprints terms over a fixed position tuple and keeps them in a
    trie with one level per position; leaves collect term ids.  A map
    from fingerprint to leaf shares the trie's leaf sets, and retrieval
    looks compatible children up by key, with the key lists of both
    tables worked out when the index is built."""

    def __init__(self, positions: tuple[Position, ...] = DEFAULT_POSITIONS):
        if not positions:
            raise ValueError("need at least one sample position")
        self._plan = _compile(tuple(tuple(p) for p in positions))
        self._root: dict = {}
        self._leaves: dict = {}  # fingerprint -> its leaf set in the trie
        self._unif = _lookups(feature_unif)
        self._match = _lookups(feature_match)

    def fingerprint(self, t: Term) -> Fingerprint:
        return _sample(t, self._plan)

    def insert(self, term_id, t: Term) -> Fingerprint:
        """Store term_id under t's fingerprint and return it; only a
        fingerprint not stored before walks the trie."""
        f = self.fingerprint(t)
        leaf = self._leaves.get(f)
        if leaf is None:
            node = self._root
            for feat in f[:-1]:
                node = node.setdefault(feat, {})
            leaf = self._leaves[f] = node.setdefault(f[-1], set())
        leaf.add(term_id)
        return f

    def _retrieve(self, query: Term, lookups) -> set:
        by_marker, sym_accepts = lookups
        nodes = [self._root]
        for feat in self.fingerprint(query):
            accepted, rejected = by_marker.get(feat) or ((feat, *sym_accepts), None)
            if rejected is None:
                nodes = [c for node in nodes for k in accepted if (c := node.get(k)) is not None]
            elif not rejected:  # the feature accepts every key: take the level whole
                nodes = [c for node in nodes for c in node.values()]
            else:
                nodes = [c for node in nodes for k, c in node.items() if k not in rejected]
            if not nodes:
                return set()
        return set().union(*nodes)

    def retrieve_unifiable(self, query: Term) -> set:
        """Ids of stored terms that may unify with the query."""
        return self._retrieve(query, self._unif)

    def retrieve_matching(self, query: Term) -> set:
        """Ids of stored terms the query may instantiate to."""
        return self._retrieve(query, self._match)


# ---------------------------------------------------------------- positions


def parse_position(text: str) -> Position:
    """Dot-separated 1-based child steps; the root is spelled "e"."""
    if text == "e":
        return ()
    parts = text.split(".")
    try:
        pos = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad position {text!r}") from None
    if any(k < 1 for k in pos):
        raise ParseError(f"position steps are 1-based: {text!r}")
    return pos


def parse_positions(text: str) -> tuple[Position, ...]:
    return tuple(parse_position(part.strip()) for part in text.split(",") if part.strip())
