"""The superelliptic cover record, y^n = f_1 f_2^2 ... f_{n-1}^{n-1} over
F_q of characteristic 2, and its invariants: genus, eigenspace dimensions,
a-number and the degree-symmetry ordinarity criterion, each read in O(n)
from the nonzero degrees of the parts.  The record refuses fewer than two
branch points, so each ``SECover`` is a curve.  ``genus_se`` and
``eigen_degrees`` are closed formulas that check nothing; their docstrings
prove that every record gives integers that agree.  Cover files,
``classify --cover`` and the oracle load this module, not the censuses of
:mod:`superelliptic`.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import Checked, DomainError, InvariantViolation
from .fields import require_odd_prime
from .polys import gcd_monic, is_squarefree


class SECover(Checked, namedtuple("SECover", "field n parts")):
    """A cover y^n = prod f_i^i with squarefree pairwise-coprime monic parts,
    not all 1: y^n = 1 has no branch point, and as n is prime any part of
    positive degree gives at least two.

    ``parts`` is (f_1, ..., f_{n-1}), a MonicPoly each (constant 1 allowed).
    """

    __slots__ = ()
    kind = "superelliptic"

    def _check(self):
        require_odd_prime(self.n)
        if self.field.p == self.n:
            raise DomainError("n must be coprime to the characteristic")
        if len(self.parts) != self.n - 1:
            raise DomainError(f"expected {self.n - 1} parts")
        if any(f.field is not self.field for f in self.parts):
            raise DomainError(f"every part must be over F_{self.field.q}")
        live = [f for f in self.parts if f.degree > 0]  # a constant part is 1
        for f in live:
            if not is_squarefree(f):
                raise DomainError(f"part {f} is not squarefree")
        for f, g in itertools.combinations(live, 2):
            if gcd_monic(f, g).degree > 0:
                raise DomainError("parts are not pairwise coprime")
        if self.branch_count < 2:
            raise DomainError("the equation does not define a curve (fewer than 2 branch points)")

    def classify(self) -> dict:
        """The fields ``classify`` prints after the cover's own; InvariantViolation
        if the a-number and the degree criterion disagree on ordinarity."""
        d = eigen_degrees(self).d  # sums to genus_se
        out = {"kind": self.kind, "genus": sum(d), "m": self.branch_count, "d_i": list(d),
               "a_number": a_number(self), "ordinary": is_ordinary_se(self)}
        if (out["a_number"] == 0) != out["ordinary"]:
            import json
            from .serialize import cover_to_dict
            raise InvariantViolation(f"classification routes disagree on {out}; "
                                     f"cover = {json.dumps(cover_to_dict(self))}")
        return out

    @property
    def degrees(self) -> tuple:
        return tuple(f.degree for f in self.parts)

    @property
    def n_infinity(self) -> int:
        return _n_infinity(self.n, self.degrees)

    @property
    def epsilon(self) -> int:
        return 0 if self.n_infinity == 0 else 1

    @property
    def branch_count(self) -> int:
        """Number of branch points of the cover: sum deg f_i, plus 1 when
        infinity ramifies.  ``census_se`` rows are indexed by sum deg f_i."""
        return sum(self.degrees) + self.epsilon


def _n_infinity(n: int, degs: tuple) -> int:
    """n_inf = (-sum i deg f_i) mod n, 0 when infinity is unramified."""
    return (-sum(i * d for i, d in enumerate(degs, start=1))) % n


def _branch_exponents(n: int, degs: tuple) -> dict:
    """{j: x_j} over the nonzero x_j, x the degrees plus 1 at j = n_inf: the
    x_j geometric branch points where F has order j mod n."""
    x = {j: d for j, d in enumerate(degs, start=1) if d}
    n_inf = _n_infinity(n, degs)
    if n_inf:
        x[n_inf] = x.get(n_inf, 0) + 1
    return x


def _eigen_sums(n: int, degs: tuple) -> list:
    """[n (d_i + 1) for i = 1..n-1], each sum_j x_j ((i j) mod n) over the nonzero x_j."""
    x = _branch_exponents(n, degs)
    return [sum(xj * (i * j % n) for j, xj in x.items()) for i in range(1, n)]


def genus_se(c: SECover) -> int:
    """Genus (n - 1)(m - 2)/2 by Riemann-Hurwitz, m = ``branch_count``: as n
    is prime each branch point is totally ramified, so the general formula
    -(n - 1) + (1/2) sum_j x_j (n - gcd(n, j)) reduces to this one term by
    term.  The product is even as n is odd, and m >= 2 as ``SECover``
    refuses fewer branch points."""
    return (c.n - 1) * (c.branch_count - 2) // 2


class EigenDegrees(namedtuple("EigenDegrees", "d")):
    """``d`` is (d_1, ..., d_{n-1})."""

    __slots__ = ()


def eigen_degrees(c: SECover) -> EigenDegrees:
    """Dimensions d_i = s_i/n - 1 of the mu_n-eigenspaces of the regular
    differentials, s_i the ``_eigen_sums`` over the ``_branch_exponents`` x_j,
    which sum to m = ``branch_count``.  The d_i are non-negative integers that
    sum to ``genus_se``:

    - n | s_i, as s_i = sum_j x_j (ij mod n) = i sum_j j x_j = 0 mod n;
    - s_i > 0, as each of the m >= 2 branch points adds (ij mod n) >= 1, n
      being prime;
    - sum_i (ij mod n) = n(n - 1)/2 for each j, i -> ij permuting the units
      mod n, so the d_i sum to (n - 1) m/2 - (n - 1) = (n - 1)(m - 2)/2.
    """
    n = c.n
    return EigenDegrees(tuple(s // n - 1 for s in _eigen_sums(n, c.degrees)))


def sigma_permutation(n: int, p: int) -> dict:
    """The permutation with p*sigma(i) = i mod n, on {1, ..., n-1}."""
    if math.gcd(n, p) != 1:
        raise DomainError("p must be invertible mod n")
    p_inv = pow(p, -1, n)
    return {i: (i * p_inv) % n for i in range(1, n)}


def a_number(c: SECover) -> int:
    """g - sum_i min(d_i, d_{sigma(i)}), via the Cartier-rank bound; >= 0, as
    each min is at most d_i and the d_i sum to g."""
    if c.field.p != 2:
        raise DomainError("the a-number formula here is specific to characteristic 2")
    d = eigen_degrees(c).d
    g = sum(d)  # genus_se, by eigen_degrees
    sigma = sigma_permutation(c.n, 2)
    return g - sum(min(d[i - 1], d[sigma[i] - 1]) for i in range(1, c.n))


def ordinary_degree_tuple(n: int, degs: tuple) -> bool:
    """Combinatorial ordinarity criterion on (deg f_1, ..., deg f_{n-1}), p = 2.

    Ordinary iff the eigenspace dimensions d_i are constant on the orbits of
    sigma (i -> i/2 mod n).  When 2 generates (Z/nZ)^* -- in particular for
    n = 3 and n = 5 -- sigma is a single cycle and this reduces to the
    degree-symmetry condition of :func:`degree_symmetry_criterion`; for
    n = 7 the symmetric condition is strictly weaker (see that function).
    """
    d = _eigen_sums(n, degs)
    sigma = sigma_permutation(n, 2)
    return all(d[i - 1] == d[sigma[i] - 1] for i in range(1, n))


def degree_symmetry_criterion(n: int, degs: tuple) -> bool:
    """The plain degree-symmetry condition: deg f_i = deg f_{n-i} (n_inf = 0)
    or deg f_i + 1 = deg f_{n-i} at i = n_inf with the rest symmetric.

    Sufficient for ordinarity for every odd prime n, and equivalent to it
    exactly when 2 is a primitive root mod n; y^7 = x^3 (x+1)^6 over F_2 is
    ordinary (p-rank 3 = g, by point counting) without being symmetric.
    """
    x = _branch_exponents(n, degs)  # the condition is x_j = x_{n-j} for every j
    return all(x.get(n - j) == xj for j, xj in x.items())


def is_ordinary_se(c: SECover) -> bool:
    return ordinary_degree_tuple(c.n, c.degrees)
