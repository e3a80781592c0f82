"""The Artin-Schreier cover record, y^p - y = f(x) in partial-fraction
normal form, and its invariants: the genus, the invariant m, the
simple-poles ordinarity criterion and the Deuring-Shafarevich p-rank.
Cover files, ``classify --cover`` and the oracle load this module, not the
censuses of :mod:`artin_schreier`.

Branch data is stored per irreducible place, never per geometric root: the
local part at a place Q of degree d is the tuple (c_1, ..., c_{d_Q}) of
coefficients of f_alpha in x_alpha = 1/(x - alpha), alpha a fixed root of
Q, each an element of the residue field F_{q^d} given by its index: the
base-q digits of its coordinates in the power basis of alpha, lowest power
first, so 0 is zero and over F_q the index is the base-field code.  This is
the one encoding of a local part, in memory, in cover JSON and in the
oracle, whose ``polys.reconstruct`` computes with indices as elements of
F_q[t]/(Q), t standing for alpha.  Normal form: no constant term, c_j = 0
whenever p | j, and the top coefficient nonzero (so d_Q is never a multiple
of p).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import Checked, DomainError


class ASCover(Checked, namedtuple("ASCover", "field branch infinity_part", defaults=(None,))):
    """Branch data of an Artin-Schreier cover in partial-fraction normal form.

    ``branch`` is the sorted tuple of (Place, local part), one per place,
    each local part a tuple of residue-field indices; ``infinity_part`` is
    (c_1, ..., c_{d_inf}) over F_q, or None when infinity is unramified.
    """

    __slots__ = ()
    kind = "artin-schreier"

    def _check(self):
        p = self.field.p
        if not self.branch and self.infinity_part is None:
            raise DomainError("branch data must be nonempty when infinity is unramified")
        places = [place for place, _ in self.branch]
        if len(set(places)) != len(places):
            raise DomainError("a place occurs twice in the branch data")
        if places != sorted(places):
            raise DomainError("the branch data must list its places in sorted order")
        for place, coeffs in self.branch:
            _check_local_part(p, coeffs)
            _check_indices(coeffs, place.norm)
        if self.infinity_part is not None:
            _check_local_part(p, self.infinity_part)
            _check_indices(self.infinity_part, self.field.q)

    def classify(self) -> dict:
        """The fields ``classify`` prints after the cover's own."""
        return {"kind": self.kind, "genus": genus(self), "m": m_invariant(self),
                "ordinary": is_ordinary(self)}


def _check_local_part(p: int, coeffs):
    d = len(coeffs)
    if d == 0:
        raise DomainError("empty local part")
    if d % p == 0:
        raise DomainError("pole order must not be a multiple of p")
    if coeffs[-1] == 0:
        raise DomainError("top local coefficient must be nonzero")
    for j in range(p, d + 1, p):
        if coeffs[j - 1] != 0:
            raise DomainError(f"coefficient of index {j} must vanish (index divisible by p)")


def _check_indices(coeffs, size: int):
    """Each coefficient of a nonempty local part names an element of a
    residue field of ``size`` elements."""
    if min(coeffs) < 0 or max(coeffs) >= size:
        raise DomainError(f"local coefficient index out of range [0, {size}): {coeffs}")


def genus(c: ASCover) -> int:
    """Genus (p - 1)(m - 2)/2, m = ``m_invariant``.  Each pole adds
    deg Q (d_Q + 1) >= 2 to m, and ``ASCover`` refuses a cover with none, so
    m >= 2.  The product is even: at p = 2 every pole order is odd, not being
    a multiple of p, so each term of m is even, and for odd p, p - 1 is."""
    return (c.field.p - 1) * (m_invariant(c) - 2) // 2


def m_invariant(c: ASCover) -> int:
    total = sum(pl.degree * (len(coeffs) + 1) for pl, coeffs in c.branch)
    if c.infinity_part is not None:
        total += len(c.infinity_part) + 1
    return total


def is_ordinary(c: ASCover) -> bool:
    """Simple-poles criterion: every local part has degree 1."""
    if any(len(coeffs) != 1 for _, coeffs in c.branch):
        return False
    return c.infinity_part is None or len(c.infinity_part) == 1


def deuring_shafarevich_p_rank(c: ASCover) -> int:
    """(p - 1)(r - 1), r the number of geometric branch points: the p-rank
    by the Deuring-Shafarevich formula."""
    r = sum(pl.degree for pl, _ in c.branch) + (c.infinity_part is not None)
    return (c.field.p - 1) * (r - 1)
