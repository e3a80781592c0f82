"""Reference implementations that the tests check the package against; no
command runs them.

- ``enumerate_monic`` lists the monic polynomials of one degree in
  ``polys._position`` order, by ``itertools.product``.
- ``factor`` and ``omega`` factor one polynomial by trial division, which
  shares no code with the place sieve.
- ``zeta_affine_truncated`` is the Euler product of the affine zeta function,
  whose closed form ``dirichlet.zeta_affine`` tests the tail bound of
  ``dirichlet.euler_product``.
"""

import itertools
from decimal import Decimal

from ordcensus import _polyarith as pa
from ordcensus.dirichlet import EulerProductValue, euler_product
from ordcensus.errors import DomainError
from ordcensus.fields import FieldSpec
from ordcensus.polys import MonicPoly, _place, places_of_degree


def enumerate_monic(field: FieldSpec, d: int):
    """All monic polynomials of degree d, lexicographic on (c_0, ..., c_{d-1})."""
    if d < 0:
        raise DomainError("degree must be >= 0")
    for coeffs in itertools.product(field.elements(), repeat=d):
        yield MonicPoly(field, coeffs)


def _factors(f: MonicPoly):
    """Trial division: yields (Place, multiplicity), lowest degree first.

    f is divided by the places of degree d while 2d <= the degree of what
    remains; the cofactor left then has no factor of degree <= half its own,
    so it is irreducible, and it comes last.
    """
    K = f.field
    rem = f.full
    d = 1
    while 2 * d <= pa.deg(rem):
        for place in places_of_degree(K, d):
            mult = 0
            while True:
                q, r = pa.divmod_(K, rem, place.poly.full)
                if r != ():
                    break
                rem = q
                mult += 1
            if mult:
                yield place, mult
        d += 1
    if pa.deg(rem) > 0:
        yield _place(MonicPoly(K, rem[:-1])), 1


def factor(f: MonicPoly) -> tuple:
    """Factorization into (Place, multiplicity), sorted by place."""
    return tuple(sorted(_factors(f)))


def omega(f: MonicPoly) -> int:
    """Number of distinct irreducible factors."""
    return len(factor(f))


def zeta_affine_truncated(q: int, s, D: int) -> EulerProductValue:
    """Truncated Euler product for zeta_affine, with its tail bound."""
    if s <= 1:
        raise DomainError("zeta_affine has a pole at s = 1 and diverges for s < 1")
    s = Decimal(s)
    # |log local| = |log(1 - |Q|^{-s})| <= 2 |Q|^{-s}: lead 1, decay s
    return euler_product(q, lambda x: 1 / (1 - x ** -s), lead=1, decay=s, D=D)
