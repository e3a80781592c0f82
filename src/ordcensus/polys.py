"""Monic polynomials over F_q: enumeration, irreducibles, factorization,
squarefree tests and exact partial-fraction decomposition.

A :class:`MonicPoly` stores only its lower coefficients (lowest degree
first); the leading 1 is implicit, so ``len(coeffs) == degree``.  The degree
zero polynomial is the constant 1.  The zero polynomial is never a
MonicPoly; raw coefficient tuples (see :mod:`_polyarith`) are used wherever
general polynomials are needed.

Places (monic irreducibles) and the places of every squarefree monic of
one degree come from sieves on positions (``enumerate_monic`` order, read as
base-p digits), where multiplication by a place P is an affine map over F_p
whose table ``_times_place`` lists with ``fields.linear_table``; no product
is multiplied out, and there is no division, gcd or irreducibility test.
``places_of_degree`` marks every product P*C with deg P <= d/2 in one byte
per position, and the unmarked positions are the places.  ``place_sieve``
multiplies each place P only into the cofactors whose smallest place is at
least P, so each reducible polynomial is reached once, from its smallest
place, and it records that place and the places of every squarefree monic.

Trial division only factors single polynomials: ``_factors`` divides by the
places of each degree up to half of what remains, and ``factor`` and
``is_irreducible`` read its output.  Places these routines have found are
built without a second test; ``Place(poly)`` called from outside validates
its polynomial and raises ``DomainError`` on a reducible one.

Text format (used by the CLI): comma-separated coefficient representatives,
lowest degree first, with the leading 1 written explicitly.  Over F_2,
``"0,1,1"`` is x^2 + x.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple

from . import _polyarith as pa
from .errors import DomainError, InvariantViolation, ResourceGuardError
from .fields import FieldSpec, ResidueField, count_irreducibles, linear_table, residue_field


class MonicPoly(namedtuple("MonicPoly", "field coeffs")):
    """An immutable monic polynomial over ``field``; ``coeffs`` holds the
    lower coefficients, low degree first, the leading 1 implicit.  Ordered
    by (degree, coeffs)."""

    __slots__ = ()

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
        if any(c < 0 or c >= field.q for c in cs):
            raise DomainError(f"coefficient out of range for q={field.q} in {text!r}")
        return MonicPoly(field, cs[:-1])

    def __str__(self):
        return self.to_text()


def poly_one(field: FieldSpec) -> MonicPoly:
    return MonicPoly(field, ())


def poly_x(field: FieldSpec) -> MonicPoly:
    return MonicPoly(field, (0,))


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


class Place(namedtuple("Place", "poly")):
    """A monic irreducible polynomial, the index of an Euler factor.  Places
    compare as the one-tuples (poly,), so in the order of their polynomials."""

    __slots__ = ()

    def __new__(cls, poly: MonicPoly):
        if not is_irreducible(poly):
            raise DomainError(f"{poly} is not irreducible")
        return super().__new__(cls, poly)

    @property
    def field(self) -> FieldSpec:
        return self.poly.field

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def norm(self) -> int:
        return self.poly.field.q ** self.poly.degree


def enumerate_monic(field: FieldSpec, d: int):
    """All monic polynomials of degree d, lexicographic on (c_0, ..., c_{d-1})."""
    if d < 0:
        raise DomainError("degree must be >= 0")
    for coeffs in itertools.product(field.elements(), repeat=d):
        yield MonicPoly(field, coeffs)


_PLACES_CACHE: dict = {}


def _place(poly: MonicPoly) -> Place:
    """A Place built without the irreducibility test of ``Place.__new__``.

    Precondition: ``poly`` is monic irreducible, proved so by the caller (the
    place sieve or the trial division of ``_factors``).
    """
    return tuple.__new__(Place, (poly,))


def places_of_degree(field: FieldSpec, d: int) -> tuple:
    """All places of degree d >= 1, sorted: the monic f of degree d that no
    product P*C reaches, P a place of degree <= d/2.

    The sieve holds one byte per monic of degree d and the places; nothing
    is kept for the reducible ones.  The number of unmarked positions is
    checked against ``count_irreducibles(q, d)`` (InvariantViolation).
    """
    key = (field, d)
    if key not in _PLACES_CACHE:
        _check_sieve(field, d, f"enumerating irreducibles of degree {d} over F_{field.q}")
        q = field.q
        reached = bytearray(q ** d)
        for e in range(1, d // 2 + 1):
            for place in places_of_degree(field, e):
                for i in _times_place(place.poly, d - e):
                    reached[i] = 1
        places = []
        i = reached.find(0)
        while i >= 0:
            places.append(_place(MonicPoly(field, _coeffs_at(i, q, d))))
            i = reached.find(0, i + 1)
        if len(places) != count_irreducibles(q, d):
            raise InvariantViolation(
                f"place sieve left {len(places)} monic polynomials of degree {d} over F_{q} "
                f"unmarked, expected {count_irreducibles(q, d)} places")
        _PLACES_CACHE[key] = tuple(places)
    return _PLACES_CACHE[key]


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


def is_irreducible(f: MonicPoly) -> bool:
    return f.degree > 0 and next(_factors(f))[0].poly == f


def factor(f: MonicPoly) -> tuple:
    """Factorization into (Place, multiplicity), sorted by place."""
    return tuple(sorted(_factors(f)))


def omega(f: MonicPoly) -> int:
    """Number of distinct irreducible factors."""
    return len(factor(f))


def is_squarefree(f: MonicPoly) -> bool:
    # Over a perfect field f is squarefree iff gcd(f, f') = 1: if f' = 0 then
    # f = g(x^p) is a p-th power, and a repeated factor always divides f'.
    if f.degree == 0:
        return True
    df = pa.derivative(f.field, f.full)
    if not df:
        return False
    return pa.deg(pa.gcd(f.field, f.full, df)) == 0


_SIEVE_CACHE: dict = {}


def _position(coeffs, q: int) -> int:
    """Position in ``enumerate_monic`` order: the base-q number c_0 ... c_{d-1}."""
    pos = 0
    for c in coeffs:
        pos = pos * q + c
    return pos


def _coeffs_at(pos: int, q: int, d: int) -> tuple:
    """The coefficients (c_0, ..., c_{d-1}) at a position; inverse of ``_position``."""
    out = [0] * d
    for j in range(d - 1, -1, -1):
        pos, out[j] = divmod(pos, q)
    return tuple(out)


def monic_rank(f: MonicPoly) -> int:
    """Number of monic polynomials below f in the MonicPoly order: the
    (q^d - 1)/(q - 1) of lower degree d, then f's position among its degree."""
    q = f.field.q
    return (q ** f.degree - 1) // (q - 1) + _position(f.coeffs, q)


def _check_sieve(field: FieldSpec, d: int, what: str):
    """The checks of both sieves, before any work: degree d >= 1 and q^d <=
    2^22 positions (ResourceGuardError naming ``what``).  Coefficients need
    no check: every field's codes are 0..q-1, so a code's base-p digits are
    its coordinates."""
    if d < 1:
        raise DomainError("the place sieves need degree >= 1")
    if field.q ** d > 2 ** 22:
        raise ResourceGuardError(what)


_CHUNK = 2 ** 12


def _times_place(place: MonicPoly, n: int):
    """The positions of place*C for the monic C of degree n, in
    ``enumerate_monic`` order, as an iterator.

    A code's base-p digits are its coordinates, so C's position, read in
    base p, lists the coordinates of its coefficients c_j, and place*C =
    place x^n + sum_j c_j place x^j is affine in them over F_p.  The
    positions are the table of that map: base pos(place x^n), one row
    pos(t^b place x^j) per base-p digit of C's position (least significant
    first: j from n - 1 down, b from 0 up), t the generator of F_q.  The
    table is listed in chunks of at most ``_CHUNK`` entries, one per entry of
    the table of the high digits, so no more than a chunk is held at once.
    """
    K = place.field
    q, p = K.q, K.p
    # pos(t^b place x^j) is pos(t^b place) shifted by n - 1 - j places
    units = [_position([K.mul(p ** b, a) for a in place.full], q) for b in range(K.k)]
    rows = [u * q ** s for s in range(n) for u in units]
    width = (place.degree + n) * K.k
    low = 0
    while low < len(rows) and p ** (low + 1) <= _CHUNK:
        low += 1
    highs = linear_table(p, width, rows[low:], _position(place.coeffs, q))
    return itertools.chain.from_iterable(linear_table(p, width, rows[:low], h) for h in highs)


def place_sieve(field: FieldSpec, d: int) -> tuple:
    """(least, places) for the monic polynomials of degree d >= 1, each
    indexed by position in ``enumerate_monic`` order.

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
    key = (field, d)
    if key in _SIEVE_CACHE:
        return _SIEVE_CACHE[key]
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
    _SIEVE_CACHE[key] = least, places
    return least, places


def is_nth_power_free(f: MonicPoly, n: int) -> bool:
    if n < 2:
        raise DomainError("n must be >= 2")
    return all(m < n for _, m in factor(f))


# ---------------------------------------------------------------------------
# Partial fractions
# ---------------------------------------------------------------------------

_EXT_CACHE: dict = {}


def ext_field_for(place: Place) -> ResidueField:
    """The residue field of a place, built once per place."""
    if place not in _EXT_CACHE:
        _EXT_CACHE[place] = residue_field(place.field, place.poly.coeffs)
    return _EXT_CACHE[place]


class PartialFraction(namedtuple("PartialFraction", "field polynomial_part parts")):
    """num/den = polynomial_part + sum over places of the local parts.

    ``polynomial_part`` is a raw coefficient tuple over the base field.
    ``parts`` is the sorted tuple of (Place, (c_1, ..., c_e)): the
    coefficients of the local part in the variable x_alpha = 1/(x - alpha),
    alpha the root of the place's residue field ``ext_field_for(place)``, as
    codes of that record's shared absolute field.  c_e is nonzero.
    """

    __slots__ = ()


def _shift_by_root(E: FieldSpec, poly_E: tuple, alpha) -> tuple:
    """Coefficients of f(alpha + t) as a polynomial in t over E."""
    res: tuple = ()
    lin = (alpha, E.one)  # t + alpha
    for c in reversed(poly_E):
        res = pa.add(E, pa.mul(E, res, lin), (c,))
    return res


def _series_inv(E: FieldSpec, b: tuple, e: int) -> tuple:
    """Inverse of a power series with nonzero constant term, mod t^e."""
    b = tuple(b) + (E.zero,) * max(0, e - len(b))
    c0 = E.inv(b[0])
    out = [c0]
    for i in range(1, e):
        acc = E.zero
        for j in range(1, i + 1):
            acc = E.add(acc, E.mul(b[j], out[i - j]))
        out.append(E.neg(E.mul(c0, acc)))
    return tuple(out)


def local_expansion(place: Place, e: int, numerator: tuple) -> tuple:
    """Coefficients (c_1, ..., c_e) of numerator/place^e at a fixed root.

    numerator is a raw coefficient tuple over the base field with
    deg < e * deg(place) and coprime to the place.
    """
    rf = ext_field_for(place)
    E, alpha = rf.field, rf.root
    q_E = tuple(rf.images[c] for c in place.poly.full)
    a_E = tuple(rf.images[c] for c in numerator)
    # place = (x - alpha) * R(x) over E
    r_E, rem = pa.divmod_(E, q_E, (E.neg(alpha), E.one))
    if pa.trim(E, rem) != ():
        raise DomainError("internal: generator is not a root of its place")
    a_shift = _shift_by_root(E, a_E, alpha)[:e]
    r_shift = _shift_by_root(E, r_E, alpha)[:e]
    r_pow = (E.one,)
    for _ in range(e):
        r_pow = pa.mul(E, r_pow, r_shift)[:e]
    s = pa.mul(E, a_shift, _series_inv(E, r_pow, e))[:e]
    s = tuple(s) + (E.zero,) * max(0, e - len(s))
    coeffs = tuple(s[e - j] for j in range(1, e + 1))
    if coeffs[-1] == E.zero:
        raise DomainError("internal: top local coefficient vanished")
    return coeffs


def local_to_global(place: Place, coeffs: tuple) -> tuple:
    """Inverse of local_expansion: the numerator A with A/place^e = local part.

    ``coeffs`` is (c_1, ..., c_e), codes of the place's residue field E.
    With place = (x - alpha) R over E, the local part at alpha is
    sum_j c_j/(x - alpha)^j = P/place^e with P = B R^e and
    B = sum_j c_j (x - alpha)^(e-j); the local part of the place is its sum
    over the conjugates of alpha, so A is the relative trace from E to the
    base field of each coefficient of P, its terms the powers c^(q^i).  A
    trace outside the base field raises DomainError.  The returned raw tuple
    has coefficients in the base field.
    """
    rf = ext_field_for(place)
    E, q = rf.field, place.field.q
    lin = (E.neg(rf.root), E.one)  # x - alpha
    r, _ = pa.divmod_(E, tuple(rf.images[c] for c in place.poly.full), lin)
    b: tuple = ()
    for c in coeffs:  # Horner in x - alpha
        b = pa.add(E, pa.mul(E, b, lin), (c,))
    for _ in coeffs:
        b = pa.mul(E, b, r)
    out = []
    for c in b:
        tr = c
        for _ in range(place.degree - 1):
            c = E.pow(c, q)
            tr = E.add(tr, c)
        if tr not in rf.preimage:
            raise DomainError("element does not lie in the base field")
        out.append(rf.preimage[tr])
    return pa.trim(place.field, out)


def partial_fractions(num: tuple, den: MonicPoly) -> PartialFraction:
    """Decompose num/den; num is a raw coefficient tuple, den monic nonzero."""
    K = den.field
    num = pa.trim(K, tuple(num))
    if not num:
        raise DomainError("numerator must be nonzero")
    if pa.deg(pa.gcd(K, num, den.full)) > 0:
        raise DomainError("numerator and denominator are not coprime")
    poly_part, rem = pa.divmod_(K, num, den.full)
    parts = []
    for place, mult in factor(den):
        m_full = pow_monic(place.poly, mult).full
        other, r = pa.divmod_(K, den.full, m_full)
        assert r == ()
        a = pa.mod(K, pa.mul(K, rem, pa.inv_mod(K, other, m_full)), m_full)
        parts.append((place, local_expansion(place, mult, a)))
    parts.sort(key=lambda pc: pc[0])
    return PartialFraction(K, poly_part, tuple(parts))


def reconstruct(pf: PartialFraction) -> tuple:
    """Return (num, den) raw tuples equal to the decomposition as a fraction."""
    K = pf.field
    den: tuple = (1,)
    for place, coeffs in pf.parts:
        den = pa.mul(K, den, pow_monic(place.poly, len(coeffs)).full)
    num = pa.mul(K, pf.polynomial_part, den)
    for place, coeffs in pf.parts:
        a = local_to_global(place, coeffs)
        m_full = pow_monic(place.poly, len(coeffs)).full
        other, r = pa.divmod_(K, den, m_full)
        assert r == ()
        num = pa.add(K, num, pa.mul(K, a, other))
    return num, den
