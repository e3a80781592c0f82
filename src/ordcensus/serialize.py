"""JSON-friendly cover (de)serialization.

Artin-Schreier covers:
    {"q": 2, "p": 2, "branch": [{"place": "0,1", "local": [1]}, ...],
     "infinity": null}
Places use the polynomial text format; local coefficients are residue-field
indices (base-q digits of the power-basis coordinates, lowest power first),
the encoding ``ASCover`` holds, so both directions copy them and no residue
field is built; loading checks each against the place's norm.  For a
degree-1 place they are just base-field representatives.  "infinity" is a
list of base-field representatives or null.

Superelliptic covers:
    {"q": 2, "n": 3, "parts": ["0,1", "1,1"]}
with one polynomial text per f_i, i = 1..n-1 (constant parts written "1").

Both directions import only the cover module of the data's kind.
"""

from __future__ import annotations

from operator import index

from .errors import DomainError
from .fields import field_from_qp
from .polys import MonicPoly, Place


def cover_to_dict(c) -> dict:
    # a cover's class names its kind, so neither cover module is imported here
    kind = getattr(type(c), "kind", None)
    if kind == "artin-schreier":
        branch = [{"place": place.poly.to_text(), "local": list(coeffs)}
                  for place, coeffs in c.branch]
        return {"q": c.field.q, "p": c.field.p, "branch": branch,
                "infinity": list(c.infinity_part) if c.infinity_part is not None else None}
    if kind == "superelliptic":
        return {"q": c.field.q, "n": c.n, "parts": [f.to_text() for f in c.parts]}
    raise DomainError(f"not a cover: {c!r}")


def cover_from_dict(data: dict):
    """The cover the data describe.  Data of the wrong shape (a missing key,
    a non-integer q, p, n or index, a branch or parts that is not a list, an
    infinity coefficient outside [0, q)) raise DomainError."""
    try:
        return _cover_from_dict(data)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"bad cover data: {exc}") from exc


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise DomainError(f"bad cover data: {key!r} must be a list")
    return value


def _cover_from_dict(data: dict):
    q = index(data["q"])
    if "n" in data:
        from .superelliptic import SECover
        field = field_from_qp(q, 2)
        parts = tuple(MonicPoly.from_text(field, t) for t in _list(data["parts"], "parts"))
        return SECover(field, index(data["n"]), parts)
    if "p" in data:
        from .artin_schreier import ASCover
        field = field_from_qp(q, index(data["p"]))
        branch = []
        for entry in _list(data.get("branch", []), "branch"):
            place = Place(MonicPoly.from_text(field, entry["place"]))
            coeffs = tuple(index(i) for i in entry["local"])
            if any(i < 0 or i >= place.norm for i in coeffs):
                raise DomainError(f"local coefficient index out of range for {entry}")
            branch.append((place, coeffs))
        branch.sort(key=lambda pc: pc[0])
        inf = data.get("infinity")
        inf_part = tuple(index(c) for c in inf) if inf is not None else None
        if inf_part is not None and any(c < 0 or c >= q for c in inf_part):
            raise DomainError(f"bad cover data: infinity coefficient out of range "
                              f"for q = {q} in {inf}")
        return ASCover(field, tuple(branch), inf_part)
    raise DomainError("cover data must contain 'p' (Artin-Schreier) or 'n' (superelliptic)")
