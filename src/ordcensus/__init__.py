"""Censuses and limiting probabilities of ordinary cyclic covers of the
projective line over small finite fields.

Exact arithmetic in F_q and F_q[x], Artin-Schreier and superelliptic cover
enumeration and ordinarity classification, Euler-product constants with
rigorous truncation bounds, and an independent point-counting p-rank oracle.
"""

from .errors import DomainError, InvariantViolation, ResourceGuardError
from .fields import ExtField, FieldSpec
from .polys import MonicPoly, Place

__version__ = "0.1.0"

__all__ = [
    "DomainError", "InvariantViolation", "ResourceGuardError",
    "ExtField", "FieldSpec", "MonicPoly", "Place", "__version__",
]
