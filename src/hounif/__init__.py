"""Higher-order unification: lazy enumeration of complete sets of
unifiers, decidable-fragment oracles, and fingerprint-based indexing of
terms for unifiability and matching retrieval."""

from .engine import (
    EngineConfig,
    Limits,
    UnifierStream,
    solve,
    verify_unifier,
)
from .errors import (
    DeclError,
    HounifError,
    IdempotenceViolation,
    IllTyped,
    InternalError,
    ParseError,
    TypeMismatch,
)
from .fingerprint import DEFAULT_POSITIONS, FingerprintIndex, fp_ho
from .normalize import beta_normal, canonical, eta_long
from .oracles import NotApplicable, NotUnifiable, Success, resolve
from .problem_io import (
    Problem,
    parse_index,
    parse_problem,
    parse_unifier,
    print_problem,
    print_term,
    print_unifier,
)
from .subst import FreshSupply, Substitution, compose
from .terms import (
    App,
    Arrow,
    Base,
    Bound,
    Const,
    Free,
    Lam,
    Term,
    Type,
    arrow,
    free_vars,
    mk_app,
    mk_lams,
    type_of,
)

__version__ = "0.1.0"

__all__ = [
    "App", "Arrow", "Base", "Bound", "Const", "DEFAULT_POSITIONS",
    "DeclError", "EngineConfig", "FingerprintIndex", "Free", "FreshSupply",
    "HounifError", "IdempotenceViolation", "IllTyped", "InternalError",
    "Lam", "Limits", "NotApplicable", "NotUnifiable", "ParseError",
    "Problem", "Substitution", "Success", "Term", "Type", "TypeMismatch",
    "UnifierStream", "arrow", "beta_normal", "canonical", "compose",
    "eta_long", "fp_ho", "free_vars", "mk_app", "mk_lams", "parse_index",
    "parse_problem", "parse_unifier", "print_problem", "print_term",
    "print_unifier", "resolve", "solve", "type_of", "verify_unifier",
]
