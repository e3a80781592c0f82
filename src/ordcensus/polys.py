"""Monic polynomials over F_q: the place sieve, irreducibility and
squarefree tests, and local parts put over one denominator.

A :class:`MonicPoly` stores only its lower coefficients (lowest degree
first); the leading 1 is implicit, so ``len(coeffs) == degree``.  The degree
zero polynomial is the constant 1.  The zero polynomial is never a
MonicPoly; raw coefficient tuples (see :mod:`_polyarith`) are used wherever
general polynomials are needed.

The places (monic irreducibles) of one degree, and the places of every
squarefree monic of that degree, come from one sieve on positions
(``_position``, read as base-p digits), where multiplication by a
place P is an affine map over F_p whose table ``_times_place`` lists with
``fields.linear_table``; no product is multiplied out, and there is no
division, gcd or irreducibility test.  ``place_sieve`` multiplies each place
P only into the cofactors whose smallest place is at least P, so each
reducible polynomial is reached once, from its smallest place, and it
records that place and the places of every squarefree monic;
``places_of_degree`` lists the positions it never reaches.

The places the sieve finds are built without a second test; ``Place(poly)``
called from outside checks its polynomial by Ben-Or's test,
``is_irreducible``, and raises ``DomainError`` on a reducible one.

Local parts at a place Q are computed over its residue field F_q[t]/(Q)
with the arithmetic of :mod:`_polyarith` over F_q: an element is a
polynomial in t reduced mod Q, written as its index, whose base-q digits
(``fields.digits``, lowest power first) are its coefficients; that is the
encoding ``ASCover`` holds.  Over it Q = (x - t) S, the x^i coefficient of
S being the tuple Q[i+1:], so c_j/(x - t)^j = c_j S^j/Q^j:
``local_to_global`` reads the numerator over Q^e off that, summing over the
conjugates of t with the traces of ``ext_field_for``; no field of order
q^deg Q is built.  ``reconstruct`` sums those numerators over the places
into one fraction N/D.

Text format (used by the CLI): comma-separated coefficient representatives,
lowest degree first, with the leading 1 written explicitly.  Over F_2,
``"0,1,1"`` is x^2 + x.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import cache, reduce

from . import _polyarith as pa
from .errors import Checked, DomainError, InvariantViolation, ResourceGuardError
from .fields import (FieldSpec, count_irreducibles, digits, is_irreducible_over,
                     linear_table, power_exceeds, undigits)


class MonicPoly(Checked, namedtuple("MonicPoly", "field coeffs")):
    """An immutable monic polynomial over ``field``; ``coeffs`` holds the
    lower coefficients, low degree first, the leading 1 implicit.  Ordered
    by (degree, coeffs); each coefficient is a code in [0, q)."""

    __slots__ = ()

    def _check(self):
        if self.coeffs and (min(self.coeffs) < 0 or max(self.coeffs) >= self.field.q):
            raise DomainError(f"coefficient outside [0, {self.field.q}) in {self.coeffs}")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def full(self) -> tuple:
        """All coefficients including the leading 1."""
        return self.coeffs + (1,)

    # tuple order would compare the fields first
    def __lt__(self, other):
        return (len(self.coeffs), self.coeffs) < (len(other.coeffs), other.coeffs)

    def __le__(self, other):
        return (len(self.coeffs), self.coeffs) <= (len(other.coeffs), other.coeffs)

    def __gt__(self, other):
        return (len(self.coeffs), self.coeffs) > (len(other.coeffs), other.coeffs)

    def __ge__(self, other):
        return (len(self.coeffs), self.coeffs) >= (len(other.coeffs), other.coeffs)

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.full)

    @staticmethod
    def from_text(field: FieldSpec, text: str) -> "MonicPoly":
        try:
            cs = tuple(int(t) for t in text.strip().split(","))
        except ValueError as exc:
            raise DomainError(f"bad polynomial text {text!r}") from exc
        if not cs or cs[-1] != 1:
            raise DomainError(f"polynomial {text!r} is not monic (explicit leading 1 required)")
        return MonicPoly(field, cs[:-1])

    def __str__(self):
        return self.to_text()


def poly_one(field: FieldSpec) -> MonicPoly:
    return MonicPoly(field, ())


def mul_monic(a: MonicPoly, b: MonicPoly) -> MonicPoly:
    prod = pa.mul(a.field, a.full, b.full)
    return MonicPoly(a.field, prod[:-1])


def pow_monic(a: MonicPoly, e: int) -> MonicPoly:
    out = poly_one(a.field)
    for _ in range(e):
        out = mul_monic(out, a)
    return out


def gcd_monic(a: MonicPoly, b: MonicPoly) -> MonicPoly:
    g = pa.gcd(a.field, a.full, b.full)
    return MonicPoly(a.field, g[:-1])


class Place(Checked, namedtuple("Place", "poly")):
    """A monic irreducible polynomial, the index of an Euler factor.  Places
    compare as the one-tuples (poly,), so in the order of their polynomials."""

    __slots__ = ()

    def _check(self):
        if not is_irreducible(self.poly):
            raise DomainError(f"{self.poly} is not irreducible")

    @property
    def field(self) -> FieldSpec:
        return self.poly.field

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def norm(self) -> int:
        return self.poly.field.q ** self.poly.degree


def _place(poly: MonicPoly) -> Place:
    """A Place built without the irreducibility test of ``Place._check``.

    Precondition: ``poly`` is monic irreducible, proved so by the caller.
    """
    return tuple.__new__(Place, (poly,))


@cache
def places_of_degree(field: FieldSpec, d: int) -> tuple:
    """All places of degree d >= 1, sorted: the positions that
    ``place_sieve(field, d)`` never reaches, which it has counted against
    ``count_irreducibles``."""
    _check_sieve(field, d, f"enumerating irreducibles of degree {d} over F_{field.q}")
    q = field.q
    first = (q ** d - 1) // (q - 1)
    return tuple(_place(MonicPoly(field, _coeffs_at(i, q, d)))
                 for i, r in enumerate(place_sieve(field, d)[0]) if r == first + i)


def is_irreducible(f: MonicPoly) -> bool:
    """Ben-Or's test, ``fields.is_irreducible_over``; degree 0 is not a place."""
    return f.degree > 0 and is_irreducible_over(f.field, f.full)


def is_squarefree(f: MonicPoly) -> bool:
    # Over a perfect field f is squarefree iff gcd(f, f') = 1: if f' = 0 then
    # f = g(x^p) is a p-th power, and a repeated factor always divides f'.
    if f.degree == 0:
        return True
    df = pa.derivative(f.field, f.full)
    if not df:
        return False
    return pa.deg(pa.gcd(f.field, f.full, df)) == 0


def _position(coeffs, q: int) -> int:
    """Position among the monic polynomials of degree d: the base-q number
    c_0 ... c_{d-1}, c_0 most significant, so lexicographic on the coefficients."""
    return undigits(coeffs[::-1], q)


def _coeffs_at(pos: int, q: int, d: int) -> tuple:
    """The coefficients (c_0, ..., c_{d-1}) at a position; inverse of ``_position``."""
    return digits(pos, q, d)[::-1]


def monic_rank(f: MonicPoly) -> int:
    """Number of monic polynomials below f in the MonicPoly order: the
    (q^d - 1)/(q - 1) of lower degree d, then f's position among its degree."""
    q = f.field.q
    return (q ** f.degree - 1) // (q - 1) + _position(f.coeffs, q)


def _check_sieve(field: FieldSpec, d: int, what: str):
    """The checks of the sieve and of ``places_of_degree``, before any work:
    degree d >= 1 and q^d <= 2^22 positions (ResourceGuardError naming
    ``what``).  Coefficients need no check: every field's codes are 0..q-1,
    so a code's base-p digits are its coordinates."""
    if d < 1:
        raise DomainError("the place sieves need degree >= 1")
    if power_exceeds(field.q, d, 2 ** 22):
        raise ResourceGuardError(what)


def _times_place(place: MonicPoly, n: int) -> list:
    """The positions of place*C for the monic C of degree n, in
    ``_position`` order.

    A code's base-p digits are its coordinates, so C's position, read in
    base p, lists the coordinates of its coefficients c_j, and place*C =
    place x^n + sum_j c_j place x^j is affine in them over F_p.  The
    positions are the table of that map: base pos(place x^n), one row
    pos(t^b place x^j) per base-p digit of C's position (least significant
    first: j from n - 1 down, b from 0 up), t the generator of F_q.  The
    table is listed whole: its q^n entries are at most 1/q of the sieve that
    asks for it, which holds an entry per position.
    """
    K = place.field
    q, p = K.q, K.p
    # pos(t^b place x^j) is pos(t^b place) shifted by n - 1 - j places
    units = [_position([K.mul(p ** b, a) for a in place.full], q) for b in range(K.k)]
    rows = [u * q ** s for s in range(n) for u in units]
    return linear_table(p, (place.degree + n) * K.k, rows, _position(place.coeffs, q))


@cache
def place_sieve(field: FieldSpec, d: int) -> tuple:
    """(least, places) for the monic polynomials of degree d >= 1, each
    indexed by ``_position``.

    ``least[i]`` is the ``monic_rank`` of the i-th polynomial's smallest
    place; ``places[i]`` is the increasing tuple of the ranks of its places
    if it is squarefree, else ().  A reducible f is P*C for exactly one place
    P and cofactor C whose smallest place is at least P: P is f's smallest
    place, and f is squarefree iff C is and C's smallest place is not P,
    when places(f) = (rank P,) + places(C).  The positions of the products
    P*C come from ``_times_place``, with no polynomial multiplied.  Entries
    never reached are the places, ``count_irreducibles(q, d)`` of them, or
    InvariantViolation; so is an entry reached twice.
    """
    _check_sieve(field, d, f"sieving monic polynomials of degree {d} over F_{field.q}")
    q = field.q
    least = array("q", [-1]) * q ** d
    places = [()] * q ** d
    for e in range(1, d // 2 + 1):
        c_least, c_places = place_sieve(field, d - e)
        for place in places_of_degree(field, e):
            rank = monic_rank(place.poly)
            for i, c_rank, c_pl in zip(_times_place(place.poly, d - e), c_least, c_places):
                if c_rank < rank:
                    continue
                if least[i] >= 0:
                    raise InvariantViolation(
                        f"place sieve reached {MonicPoly(field, _coeffs_at(i, q, d))} twice")
                least[i] = rank
                if c_pl and c_rank != rank:
                    places[i] = (rank,) + c_pl
    first = (q ** d - 1) // (q - 1)
    unhit = 0
    for i, r in enumerate(least):
        if r < 0:
            least[i] = first + i
            places[i] = (first + i,)
            unhit += 1
    if unhit != count_irreducibles(q, d):
        raise InvariantViolation(
            f"place sieve left {unhit} monic polynomials of degree {d} over F_{q} "
            f"unreached, expected {count_irreducibles(q, d)} places")
    return least, places


# ---------------------------------------------------------------------------
# Local parts
# ---------------------------------------------------------------------------

def ext_field_for(place: Place) -> tuple:
    """The traces (s_0, ..., s_{d-1}) to the base field of 1, t, ...,
    t^(d-1) in F_q[t]/(Q), for the place Q of degree d: s_m is the m-th
    power sum of Q's roots, ``_polyarith.power_sums``."""
    return pa.power_sums(place.field, place.poly.full)


# An element of F_q[t]/(Q) is a raw coefficient tuple in t, reduced mod Q;
# a polynomial in x over F_q[t]/(Q) is a list of elements, low degree first.

def _rmul(K: FieldSpec, Q: tuple, a: tuple, b: tuple) -> tuple:
    return pa.mod(K, pa.mul(K, a, b), Q)


def _xmul(K: FieldSpec, Q: tuple, f: list, g: list) -> list:
    """f g over F_q[t]/(Q)."""
    out = [()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = pa.add(K, out[i + j], pa.mul(K, a, b))
    return [pa.mod(K, c, Q) for c in out]


def local_to_global(place: Place, coeffs: tuple) -> tuple:
    """The numerator A over the base field with A/place^e = local part.

    ``coeffs`` is (c_1, ..., c_e), indices in F_q[t]/(place).  Over it,
    place = Q = (x - t) S with S = (Q(x) - Q(t))/(x - t), whose x^i
    coefficient is Q_{i+1} + Q_{i+2} t + ... + Q_d t^(d-1-i): the tuple
    ``Q[i+1:]``, of degree below d in t and so already reduced.  The local
    part at t is sum_j c_j/(x - t)^j = sum_j c_j S^j/Q^j, and the local part
    of the place is its sum over the conjugates of t; Q has base-field
    coefficients, so A = sum_j Q^(e-j) T_j with T_j the trace of c_j S^j,
    taken coefficient by coefficient as sum_m r_m s_m for r = sum_m r_m t^m
    and the traces s of ``ext_field_for``.  A is built by Horner in Q,
    A <- A Q + T_j, and is a raw tuple over the base field.
    """
    K, Q, d = place.field, place.poly.full, place.degree
    s = ext_field_for(place)
    S = [Q[i + 1:] for i in range(d)]
    power, a = [(1,)], ()
    for n in coeffs:
        power = _xmul(K, Q, power, S)
        c = pa.trim(digits(n, K.q, d))
        trace = [reduce(K.add, map(K.mul, _rmul(K, Q, c, r), s), 0) for r in power]
        a = pa.add(K, pa.mul(K, a, Q), pa.trim(trace))
    return a


def reconstruct(K: FieldSpec, polynomial_part: tuple, parts) -> tuple:
    """f = N/D as raw tuples (N, D) over K, for f = polynomial_part plus
    the local parts ``parts``, the sorted (Place, (c_1, ..., c_e)) that
    ``ASCover.branch`` holds: D = prod Q^e, and each place adds its local
    part A_Q/Q^e to the running sum, N Q^e + A_Q D over D Q^e."""
    num, den = polynomial_part, (1,)
    for place, coeffs in parts:
        q_e = pow_monic(place.poly, len(coeffs)).full
        num = pa.add(K, pa.mul(K, num, q_e), pa.mul(K, local_to_global(place, coeffs), den))
        den = pa.mul(K, den, q_e)
    return num, den
