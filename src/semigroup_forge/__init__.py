"""Minimal genus and minimal Frobenius number over numerical semigroups
with fixed multiplicity and embedding dimension.

Public surface: the value types and constructors in `core`, the
multiplicity tree and its two searches in `multiplicity_tree`, the
packed families, classes and four searches in `packed`, every route
re-exported in `search`, and the brute-force cross-check in `oracle`.
The `semigroup-forge` command wraps all of it.
"""
from ._backend import backend_name
from .core import (
    NumericalSemigroup,
    apery_set,
    genus_lower_bound,
    interval_apery,
    interval_frobenius,
    interval_genus,
    make_semigroup,
    monoid_contains,
    sylvester_frobenius,
)
from .errors import (
    BadDimension,
    Degenerate,
    EmptyInput,
    InvalidGenerator,
    NotMember,
    NotNumerical,
    NotPacked,
    SemigroupError,
    Uncertified,
)

__version__ = "0.1.0"

__all__ = [
    "NumericalSemigroup",
    "apery_set",
    "backend_name",
    "genus_lower_bound",
    "interval_apery",
    "interval_frobenius",
    "interval_genus",
    "make_semigroup",
    "monoid_contains",
    "sylvester_frobenius",
    "BadDimension",
    "Degenerate",
    "EmptyInput",
    "InvalidGenerator",
    "NotMember",
    "NotNumerical",
    "NotPacked",
    "SemigroupError",
    "Uncertified",
    "__version__",
]
