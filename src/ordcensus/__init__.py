"""Censuses and limiting probabilities of ordinary cyclic covers of the
projective line over small finite fields.

Exact arithmetic in F_q and F_q[x], Artin-Schreier and superelliptic cover
enumeration and ordinarity classification, Euler-product constants with
rigorous truncation bounds, and an independent point-counting p-rank oracle.
"""

from .errors import DomainError, InvariantViolation, ResourceGuardError

__version__ = "0.1.0"

__all__ = [
    "DomainError", "InvariantViolation", "ResourceGuardError",
    "FieldSpec", "MonicPoly", "Place", "__version__",
]


def __getattr__(name):
    # The field and polynomial classes load their modules at first use, so
    # importing the package (as every command does) costs almost nothing.
    if name == "FieldSpec":
        from . import fields as module
    elif name in ("MonicPoly", "Place"):
        from . import polys as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
