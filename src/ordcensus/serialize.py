"""JSON-friendly cover (de)serialization.

Artin-Schreier covers:
    {"q": 2, "p": 2, "branch": [{"place": "0,1", "local": [1]}, ...],
     "infinity": null}
Places use the polynomial text format; local coefficients are residue-field
indices (base-q digits of the power-basis coordinates, lowest power first),
the encoding ``ASCover`` holds, so both directions copy them and no residue
field is built.  For a degree-1 place they are just base-field
representatives.  "infinity" is a list of base-field representatives or
null.

Superelliptic covers:
    {"q": 2, "n": 3, "parts": ["0,1", "1,1"]}
with one polynomial text per f_i, i = 1..n-1 (constant parts written "1").
In both, q, p, n and every index are JSON integers, never true or false,
and the data hold exactly one of "p" and "n".

Loading converts JSON shapes only: the records it builds check ranges,
normal form, squarefreeness and irreducibility, and ``cover_from_dict``
reports any of their faults, or of the shapes, as "bad cover data: ...".

Both directions import only the record module of the data's kind, ``ascover``
or ``secover``, and never a census module.
"""

from __future__ import annotations

from operator import index

from .errors import DomainError
from .fields import field_from_qp
from .polys import MonicPoly, Place


def cover_to_dict(c) -> dict:
    # a cover's class names its kind, so neither record module is imported here
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
    a q, p, n or index that is not a JSON integer, a branch or parts that is
    not a list, both or neither of "p" and "n") or that a record refuses
    raise DomainError "bad cover data: ..."."""
    try:
        return _cover_from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"bad cover data: {exc}") from exc


def _int(value) -> int:
    if isinstance(value, bool):
        raise DomainError("a boolean is not an integer")
    return index(value)


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise DomainError(f"{key!r} must be a list")
    return value


def _cover_from_dict(data: dict):
    q = _int(data["q"])
    if ("p" in data) == ("n" in data):
        raise DomainError("must contain 'p' (Artin-Schreier) or 'n' (superelliptic), not both")
    if "n" in data:
        from .secover import SECover
        field = field_from_qp(q, 2)
        parts = tuple(MonicPoly.from_text(field, t) for t in _list(data["parts"], "parts"))
        return SECover(field, _int(data["n"]), parts)
    from .ascover import ASCover
    field = field_from_qp(q, _int(data["p"]))
    branch = []
    for entry in _list(data.get("branch", []), "branch"):
        place = Place(MonicPoly.from_text(field, entry["place"]))
        branch.append((place, tuple(_int(i) for i in entry["local"])))
    branch.sort(key=lambda pc: pc[0])
    inf = data.get("infinity")
    inf_part = tuple(_int(c) for c in inf) if inf is not None else None
    return ASCover(field, tuple(branch), inf_part)
