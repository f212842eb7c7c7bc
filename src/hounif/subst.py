"""Substitutions over free variables, and the fresh-variable supply.

A substitution maps finitely many free variables to closed terms of the
same type.  All substitutions handled here are idempotent: no mapped
variable occurs free in any image.  Since images are closed (no loose
bound indices), applying a substitution never needs index shifting and
is trivially capture-avoiding.

The engine's state substitution is a `TriangularSubst`: the branch
substitutions in the order they were applied, with each variable's image
under their composition resolved on demand by hereditary substitution
and memoized, instead of an eagerly composed `Substitution`.  Resolution
and `compose` normalize with the one beta pass, `normalize.hereditary`;
the caller's size, depth and fuel caps are the only bounds on an image.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .errors import IdempotenceViolation, IllTyped
from .normalize import Fuel, ReductionBudget, beta_normal, hereditary
from .terms import (
    Free,
    PLAIN,
    Term,
    Type,
    free_vars,
    is_closed,
    rebuild,
    type_of,
)


class Substitution:
    """Immutable finite map from free variables to closed terms."""

    __slots__ = ("_map",)

    def __init__(self, entries: Iterable[tuple[Free, Term]] = (), validate: bool = True):
        m: dict[int, tuple[Free, Term]] = {}
        for var, image in entries:
            m[var.id] = (var, image)
        if validate:
            for var, image in m.values():
                if not is_closed(image):
                    raise IllTyped(f"image of {var!r} has loose bound variables")
                it = type_of(image)
                if it != var.ty:
                    raise IllTyped(
                        f"image of {var!r} has type {it!r}, expected {var.ty!r}"
                    )
        object.__setattr__(self, "_map", m)

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __contains__(self, var_id: int) -> bool:
        return var_id in self._map

    def image_of(self, var_id: int) -> Optional[Term]:
        entry = self._map.get(var_id)
        return entry[1] if entry else None

    def items(self) -> Iterator[tuple[Free, Term]]:
        """Entries sorted by variable id (deterministic)."""
        for _id in sorted(self._map):
            yield self._map[_id]

    def domain(self) -> list[Free]:
        return [v for v, _ in self.items()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        return hash(tuple(sorted((i, v, t) for i, (v, t) in self._map.items())))

    def __repr__(self):
        inner = ", ".join(f"{v!r} -> {t!r}" for v, t in self.items())
        return "{" + inner + "}"

    # -- action on terms ----------------------------------------------

    def apply(self, t: Term) -> Term:
        """Replace every mapped free variable by its image.

        The result is not reduced; callers normalize when they need to.
        A subterm with no mapped variable comes back as the same object.
        """
        m = self._map
        if not m:
            return t

        def image(u: Free, depth: int) -> Term:
            entry = m.get(u.id)
            return entry[1] if entry else u

        return rebuild(t, Free, image)

    # -- algebra -------------------------------------------------------

    def restrict(self, var_ids) -> "Substitution":
        keep = set(var_ids)
        return Substitution(
            [(v, t) for v, t in self.items() if v.id in keep], validate=False
        )


IDENTITY = Substitution()


def compose(outer: Substitution, inner: Substitution, fuel: Optional[Fuel] = None) -> Substitution:
    """The substitution taking t to outer(inner(t)).

    Images of `inner` get `outer` applied and are beta-normalized, drawing
    on `fuel` when it is given; entries of `outer` for variables not
    mapped by `inner` are kept.
    """
    entries: list[tuple[Free, Term]] = []
    for var, image in inner.items():
        new = outer.apply(image)
        if new is not image:
            new = beta_normal(new, fuel)
        entries.append((var, new))
    for var, image in outer.items():
        if var.id not in inner:
            entries.append((var, image))
    return Substitution(entries, validate=False)


class Overgrown(Exception):
    """A resolved image went past the size, depth or reduction-fuel guard."""


#: a resolved image: (variable, image, free variable ids of the image)
_Entry = tuple[Free, Term, frozenset[int]]


class TriangularSubst:
    """Append-only triangular substitution (Baader & Snyder, *Unification
    Theory*, 2001): the branch substitutions rho_1; ...; rho_n applied on
    the way from the root state, one per node, children sharing their
    ancestors.

    It stands for the idempotent composition rho_n o ... o rho_1 without
    building it.  A variable's resolved image, its beta-normal image under
    that composition, is computed on demand, walking the chain iteratively
    up to the nearest node that knows the variable and back down through
    each rho that touches the image.  Every node passed on the way memoizes
    the result, so descendants and siblings reuse it; an unbound variable
    is memoized as None.

    Images stay beta-normal: a node takes each image of its rho through
    the hereditary pass with nothing substituted, which normalizes it
    unless it is beta-normal already, and each step down substitutes rho's
    images into the image by hereditary substitution, which contracts only
    the redexes it creates.  Both measure what they build and run on a
    fresh `Fuel` of the guard's units.  An image over the size or depth
    cap, or one that needs more than that fuel, raises Overgrown.
    """

    __slots__ = ("parent", "rho", "top", "guard", "_memo", "_images")

    def __init__(self, parent: Optional["TriangularSubst"], rho: Substitution,
                 top: int, guard: tuple[int, int, int]):
        self.parent = parent
        self.rho = rho
        #: no variable with a larger id is bound in this chain
        self.top = top
        #: (max image size, reduction fuel per resolution, max image depth)
        self.guard = guard
        max_size, fuel, max_depth = guard
        #: var id -> its resolved entry here, or None if it is unbound here
        self._memo: dict[int, Optional[_Entry]] = {}
        #: var id -> rho's image of it, as a value of the hereditary pass
        self._images: dict[int, tuple[Term, int, int, int]] = {}
        for var, image in rho.items():
            try:
                value, _ = hereditary(image, {}, Fuel(fuel))
            except ReductionBudget:
                raise Overgrown from None
            image, size, height, _ = value
            if size > max_size or height > max_depth:
                raise Overgrown
            self._memo[var.id] = (var, image, frozenset(free_vars(image)))
            self._images[var.id] = value

    @classmethod
    def root(cls, max_size: int, fuel: int, max_depth: int) -> "TriangularSubst":
        """The empty substitution; resolved images may have at most
        max_size nodes, a height of at most max_depth, and cost at most
        `fuel` reduction units each."""
        return cls(None, IDENTITY, -1, (max_size, fuel, max_depth))

    def extend(self, rho: Substitution) -> "TriangularSubst":
        """The child node applying rho after this substitution.  Nothing
        is composed: the cost is one lookup per variable of rho.

        rho's variables must be unbound here, and its images may mention
        no variable bound here or by rho itself."""
        dom = rho._map
        for var, image in rho.items():
            if self._lookup(var.id) is not None:
                raise IdempotenceViolation(f"{var!r} is already bound")
            for i in free_vars(image):
                if i in dom or self._lookup(i) is not None:
                    raise IdempotenceViolation(
                        f"image of {var!r} mentions the bound variable {i}"
                    )
        return TriangularSubst(self, rho, max(self.top, max(dom, default=-1)), self.guard)

    # -- resolution ----------------------------------------------------

    def _lookup(self, var_id: int) -> Optional[_Entry]:
        if var_id > self.top:
            return None
        path = []
        node = self
        while node is not None and var_id not in node._memo:
            path.append(node)
            node = node.parent
        entry = node._memo[var_id] if node is not None else None
        for node in reversed(path):
            if entry is not None:
                entry = node._through(entry)
            node._memo[var_id] = entry
        return entry

    def _through(self, entry: _Entry) -> _Entry:
        """A resolved entry of the parent, resolved at this node."""
        var, image, fv = entry
        images = self._images
        if fv.isdisjoint(images):
            return entry
        max_size, fuel, max_depth = self.guard
        try:
            (image, size, height, _), kept = hereditary(image, images, Fuel(fuel))
        except ReductionBudget:
            raise Overgrown from None
        if size > max_size or height > max_depth:
            raise Overgrown
        if kept:  # then the new free variables are exactly these
            memo = self._memo
            fv = fv.difference(images).union(*(memo[i][2] for i in fv.intersection(images)))
        else:
            fv = frozenset(free_vars(image))
        return var, image, fv

    def image_of(self, var_id: int) -> Optional[Term]:
        """The resolved image of a variable, or None if it is unbound."""
        entry = self._lookup(var_id)
        return entry[1] if entry else None

    def apply(self, t: Term) -> Term:
        """Replace every bound free variable by its resolved image (the
        result is not reduced)."""
        entries = [
            (var, entry[1])
            for i, var in free_vars(t).items()
            if (entry := self._lookup(i)) is not None
        ]
        return Substitution(entries, validate=False).apply(t)

    def restrict(self, var_ids) -> Substitution:
        """The resolved substitution on the given variables."""
        entries = [entry[:2] for i in var_ids if (entry := self._lookup(i)) is not None]
        return Substitution(entries, validate=False)


class FreshSupply:
    """Monotone source of fresh free variables.

    The supply never hands out an id it has been asked to reserve, and a
    consumed id is never reused.  One supply instance serves one solver
    call; it is the only mutable object in the engine.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0):
        self._next = start

    @property
    def next_id(self) -> int:
        return self._next

    def reserve_ids(self, ids) -> None:
        for i in ids:
            if i >= self._next:
                self._next = i + 1

    def fresh(self, ty: Type, sort: str = PLAIN) -> Free:
        v = Free(self._next, ty, sort)
        self._next += 1
        return v
