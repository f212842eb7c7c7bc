"""Output checks that do not trust the code under test.

A unifier is accepted when both sides of every goal, with the unifier
substituted by the function below (not by `Substitution.apply`), have
the same normal form under the independent evaluator `termgen.nbe` (not
`hounif.canonical`).  Distinct unifiers are told apart by a key built
from those normal forms with auxiliary variables numbered by first
occurrence, so renamed copies of one unifier count once.

The checks run outside every timed region.  Deep outputs (towers) recurse
once per layer, so `deep_stack` lifts the recursion limit around a check
and restores it afterwards; the program itself always runs at the
interpreter's default limit.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager


@contextmanager
def deep_stack(limit: int = 20_000):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class Checker:
    """Binds the term classes and `nbe` of one import of the program."""

    def __init__(self, terms, termgen):
        self.App, self.Lam, self.Free = terms.App, terms.Lam, terms.Free
        self.nbe = termgen.nbe

    def substitute(self, images: dict, t):
        """Replace free variables by their images.  Images of a unifier are
        closed, so no index shifting is needed."""
        if isinstance(t, self.Free):
            return images.get(t.id, t)
        if isinstance(t, self.App):
            return self.App(self.substitute(images, t.fn), self.substitute(images, t.arg))
        if isinstance(t, self.Lam):
            return self.Lam(t.binder, self.substitute(images, t.body))
        return t

    def holds(self, pairs, sigma) -> bool:
        """Does `sigma` make both sides of every pair beta-eta equal?"""
        images = {v.id: img for v, img in sigma.items()}
        with deep_stack():
            try:
                return all(
                    self.nbe(self.substitute(images, s)) == self.nbe(self.substitute(images, t))
                    for s, t in pairs
                )
            except Exception:  # an ill-typed or ill-scoped image is a wrong answer
                return False

    def key(self, sigma, problem_ids) -> str:
        """Rendering of `sigma` on the problem variables that is invariant
        under renaming of auxiliary variables."""
        ren: dict[int, str] = {}
        parts = []
        with deep_stack():
            for v, img in sigma.items():
                if v.id in problem_ids:
                    parts.append(f"V{v.id}={self._render(self.nbe(img), problem_ids, ren)}")
        return ";".join(parts)

    def _render(self, t, fixed, ren) -> str:
        if isinstance(t, self.Lam):
            return f"L{t.binder!r}.{self._render(t.body, fixed, ren)}"
        if isinstance(t, self.App):
            return f"({self._render(t.fn, fixed, ren)} {self._render(t.arg, fixed, ren)})"
        if isinstance(t, self.Free):
            return f"V{t.id}" if t.id in fixed else ren.setdefault(t.id, f"aux{len(ren)}")
        return repr(t)
