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
type, and beta-normalizes only a subterm headed by a redex.  `encode`
builds the whole image; the tests sample it as the reference.

Two fingerprints are compared componentwise with one of two tables: the
symmetric one answers "could these terms possibly unify?", the
asymmetric one answers "could the query possibly be instantiated to
equal the target?".  Both only ever report false when no substitution
can reconcile the samples, so retrieval never loses a true candidate;
it merely filters.

Fingerprints of a term population live in a fixed-depth trie, one level
per sampled position, so retrieval visits only compatible branches.
Retrievals are pure reads over a snapshot; concurrent readers are safe
as long as no insert runs at the same time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

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
    arity,
    spine,
    strip_lams,
    type_of,
)

# ----------------------------------------------------------------- features


@dataclass(frozen=True)
class Sym:
    """A rigid head: a constant's name, or an integer de Bruijn index
    (kept disjoint from constant names by its type)."""

    sym: Union[str, int]

    def __str__(self) -> str:
        return f"db{self.sym}" if isinstance(self.sym, int) else self.sym


class _Marker:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    __str__ = __repr__


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
    _, body = strip_lams(t)
    head, args = spine(body)
    if isinstance(head, Free):
        return _FOVAR
    sym = head.index if isinstance(head, Bound) else head.name
    return FOTerm(sym, tuple(_encode(a) for a in args))


# ------------------------------------------------------------- fingerprints

#: a compiled position tuple: the prefixes of its positions as (parent,
#: step) nodes, every parent before its children and the root first as
#: (-1, 0); and the node of each position
_Plan = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]


def _compile(positions: tuple[Position, ...]) -> _Plan:
    nodes = [(-1, 0)]
    node_of = {(): 0}
    for pos in positions:
        for d in range(1, len(pos) + 1):
            if pos[:d] not in node_of:
                node_of[pos[:d]] = len(nodes)
                nodes.append((node_of[pos[:d - 1]], pos[d - 1]))
    return tuple(nodes), tuple(node_of[pos] for pos in positions)


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
    nodes, where = plan
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
        k = arity(ty)
        if n or k:
            env = (n, k, env)
        feats.append(Sym(head.name if cls is Const else eta_index(head.index, env)))
        views.append((args, ty, k, env))
    return tuple(feats[i] for i in where)


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


def compatible_unif(a: Fingerprint, b: Fingerprint) -> bool:
    return len(a) == len(b) and all(feature_unif(x, y) for x, y in zip(a, b))


def compatible_match(query: Fingerprint, target: Fingerprint) -> bool:
    return len(query) == len(target) and all(
        feature_match(x, y) for x, y in zip(query, target)
    )


# --------------------------------------------------------------------- trie


@dataclass
class FingerprintTrie:
    """Fixed-depth trie over fingerprints; leaves collect term ids."""

    depth: int
    _root: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("a fingerprint trie needs depth at least 1")

    def insert(self, term_id, fingerprint: Fingerprint) -> None:
        if len(fingerprint) != self.depth:
            raise ValueError("fingerprint length does not match trie depth")
        node = self._root
        for feat in fingerprint[:-1]:
            node = node.setdefault(feat, {})
        node.setdefault(fingerprint[-1], set()).add(term_id)

    def _retrieve(self, fingerprint: Fingerprint, compat) -> set:
        if len(fingerprint) != self.depth:
            raise ValueError("fingerprint length does not match trie depth")
        nodes = [self._root]
        for feat in fingerprint:
            nodes = [
                child
                for node in nodes
                for stored_feat, child in node.items()
                if compat(feat, stored_feat)
            ]
        found: set = set()
        for leaf in nodes:
            found |= leaf
        return found

    def retrieve_unifiable(self, fingerprint: Fingerprint) -> set:
        return self._retrieve(fingerprint, feature_unif)

    def retrieve_matching(self, fingerprint: Fingerprint) -> set:
        """Ids of stored terms the query fingerprint may instantiate to."""
        return self._retrieve(fingerprint, feature_match)


class FingerprintIndex:
    """Convenience wrapper: fingerprints terms over a fixed position
    tuple and keeps them in a trie."""

    def __init__(self, positions: tuple[Position, ...] = DEFAULT_POSITIONS):
        if not positions:
            raise ValueError("need at least one sample position")
        self.positions = tuple(tuple(p) for p in positions)
        self._plan = _compile(self.positions)
        self.trie = FingerprintTrie(len(self.positions))

    def fingerprint(self, t: Term) -> Fingerprint:
        return _sample(t, self._plan)

    def insert(self, term_id, t: Term) -> Fingerprint:
        f = self.fingerprint(t)
        self.trie.insert(term_id, f)
        return f

    def retrieve_unifiable(self, query: Term) -> set:
        return self.trie.retrieve_unifiable(self.fingerprint(query))

    def retrieve_matching(self, query: Term) -> set:
        return self.trie.retrieve_matching(self.fingerprint(query))


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


def print_position(pos: Position) -> str:
    return "e" if not pos else ".".join(str(k) for k in pos)


def parse_positions(text: str) -> tuple[Position, ...]:
    return tuple(parse_position(part.strip()) for part in text.split(",") if part.strip())
