"""Exact arithmetic in F_q (q = p^k) and its extensions F_{q^k}.

Every field element is an integer code.  Elements of ``FieldSpec`` are
integers in [0, q) whose base-p digits are the coordinates in the power
basis of the modulus (lowest power first).  For k = 1 the arithmetic is
plain integer arithmetic mod p.  For k > 1 it uses exp/log tables of a
primitive element, built at first use: multiplication, inversion and powers
are lookups, addition is XOR when p = 2 and a Zech logarithm lookup for
odd p, and the trace, being F_p-linear, is read from a table built from its
values on the basis, the power sums of the modulus's roots
(``_polyarith.power_sums``).  ``embedding`` maps a subfield's codes into a
larger field.

Base-b digits have one codec, ``digits(n, base, width)`` and its inverse
``undigits``, least significant digit first: a code's coordinates are
``digits(a, p, k)``, and :mod:`polys` reads its sieve positions and
residue-field indices with the same pair.

Every F_p-linear table here (the step x -> x g that lists the powers of g,
the trace, a subfield's embedding) comes from ``linear_table``, which
:mod:`polys` also uses for its place sieve: a code's base-p digits are its
coordinates, so an affine map on codes is listed from its images of the
basis by digit-wise addition mod p.

There is one field per order: ``FieldSpec(p, k)`` is the field of order
p^k, with the modulus ``default_modulus(p, k)``, built once and shared by
every caller (pickling or copying it gives back the same object).  A subfield
F_q is a table of images in it: the oracle's F_{q^k} is ``extension``, that
field and the images of F_q, and ``frobenius_orbits`` lists one element of
each orbit of x -> x^q on it, with the orbit's size.
The residue field F_q[t]/(h) of a place has no object here; :mod:`polys`
computes in it over F_q, its elements polynomials in t reduced mod h.

The number-theory helpers live here, once each (``count_irreducibles``,
Ben-Or's test ``is_irreducible_over``, Newton's identities ``log_derivative``
and ``from_log_derivative``), so :mod:`dirichlet` needs no polynomial code.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from operator import mul

from . import _polyarith as pa
from .errors import DomainError, InvariantViolation, ResourceGuardError

MAX_Q = 2 ** 20
MAX_PRIME_TEST = 2 ** 40  # trial division to sqrt(n): ~2^20 steps, ~0.2 s
MAX_BEN_OR_COST = 10 ** 5  # ~0.3 s at the edge (odd p, k > 1, q ~ 2^19; 2-vCPU VM)


def digits(n: int, base: int, width: int) -> tuple:
    """The ``width`` lowest base-``base`` digits of n, least significant first."""
    out = []
    for _ in range(width):
        n, d = divmod(n, base)
        out.append(d)
    return tuple(out)


def undigits(ds, base: int) -> int:
    """The number with the base-``base`` digits ``ds``, least significant first."""
    n = 0
    for d in reversed(ds):
        n = n * base + d
    return n


def is_prime(n: int) -> bool:
    """Primality by the trial division of ``prime_factors``;
    ResourceGuardError, before any division, for n > MAX_PRIME_TEST."""
    if n > MAX_PRIME_TEST:
        raise ResourceGuardError(f"primality test guarded at n <= 2^40, got {n}")
    return n > 1 and prime_factors(n) == [n]


def power_exceeds(q: int, m: int, limit: int) -> bool:
    """q^m > limit, for q >= 2 and limit >= 1, without computing a huge
    q^m: once m reaches the bit length of limit, q^m >= 2^m > limit."""
    return m >= limit.bit_length() or q ** m > limit


def require_odd_prime(n: int) -> None:
    if n % 2 == 0 or not is_prime(n):
        raise DomainError("n must be an odd prime")


def prime_factors(n: int):
    """The distinct primes dividing n, increasing."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise DomainError("mobius is defined for n >= 1")
    primes = prime_factors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def count_irreducibles(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q."""
    if d < 1:
        raise DomainError("degree must be >= 1")
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * q ** (d // e)
    return total // d


def log_derivative(f: list, N: int) -> list:
    """r_0..r_N of v f'/f for an integer series f with f[0] = 1, by Newton's
    identities: r[n] = n f[n] - sum_{0<i<n} f[i] r[n-i] (f[n] = 0 past its end)."""
    r = [0] * (N + 1)
    for n in range(1, N + 1):
        r[n] = (n * f[n] if n < len(f) else 0) - sum(map(mul, f[1:n], r[n - 1 : 0 : -1]))
    return r


def from_log_derivative(w: list, N: int, name: str) -> list:
    """Its inverse: c_0 = 1 and n c_n = sum_{0<k<=n} w_k c_{n-k} up to c_N;
    InvariantViolation naming the first ``name``_n that is not an integer."""
    c = [1] + [0] * N
    for n in range(1, N + 1):
        total = sum(map(mul, w[1 : n + 1], c[n - 1 :: -1]))
        c[n], rem = divmod(total, n)
        if rem:
            from fractions import Fraction
            raise InvariantViolation(f"{name}_{n} is not an integer: Newton's identities "
                                     f"give {name}_{n} = {Fraction(total, n)}")
    return c


def field_from_qp(q: int, p: int) -> FieldSpec:
    """F_q with its default modulus; DomainError unless p is prime and q a
    power p^k, k >= 1."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    k = 0
    n = q
    while n > 1 and n % p == 0:
        n //= p
        k += 1
    if n != 1 or k == 0:
        raise DomainError(f"q = {q} is not a power of p = {p}")
    return FieldSpec(p, k)


class FieldSpec:
    """The finite field F_q with q = p^k: one object per order, computing
    modulo ``default_modulus(p, k)`` over F_p."""

    def __new__(cls, p: int, k: int = 1):
        return _of_order(p, k)

    def __reduce__(self):
        # pickle and copy give back the one field of this order, without its tables
        return FieldSpec, (self.p, self.k)

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k})"

    def elements(self):
        return range(self.q)

    # -- arithmetic --------------------------------------------------------
    #
    # Every path starts with k == 1, where plain integer arithmetic mod p is
    # fastest.  For k > 1, mul, inv and pow are lookups in the exp/log tables;
    # add and neg are XOR in characteristic 2 and go through the Zech table
    # for odd p.

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
        la = log[a]
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        exp, log, _ = self._tables
        return exp[log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("inversion of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._tables
        return exp[self.q - 1 - log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if not a:
            return 0 if e else 1
        exp, log, _ = self._tables
        return exp[log[a] * e % (self.q - 1)]

    def log(self, a: int) -> int:
        """The discrete logarithm of a != 0 to the base of the field's fixed
        primitive element, in [0, q - 1)."""
        if a == 0:
            raise DomainError("logarithm of zero")
        return self._tables[1][a]

    def exp(self, i: int) -> int:
        """The i-th power of the field's fixed primitive element."""
        return self._tables[0][i % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer in [0, p)."""
        if self.k == 1:
            return a
        return self._trace_table[a]

    # -- tables, built at first use -----------------------------------------

    @cached_property
    def _tables(self) -> tuple:
        """(exp, log, zech) for a primitive element g.

        exp[i] = g^i for 0 <= i < 2(q - 1), doubled so that a sum of two logs
        needs no reduction; log[g^i] = i (log[0] is unused).  For odd p,
        zech[i] = log(1 + g^i), or -1 where 1 + g^i = 0; for p = 2 it is None.
        """
        p, q = self.p, self.q
        powers = self._powers(self._primitive_element())
        log = [0] * q
        for i, a in enumerate(powers):
            log[a] = i
        zech = None
        if p != 2:
            # 1 + a changes only the lowest digit of a
            zech = [log[b] if b else -1
                    for b in (a - a % p + (a + 1) % p for a in powers)]
        return powers + powers, log, zech

    def _primitive_element(self) -> int:
        """The smallest code that generates the multiplicative group."""
        n = self.q - 1
        fp = FieldSpec(self.p)
        f = self.modulus + (1,)
        cofactors = [n // r for r in prime_factors(n)]
        for g in range(1, self.q):
            x = pa.trim(digits(g, self.p, self.k))
            if all(pa.pow_mod(fp, x, e, f) != (1,) for e in cofactors):
                return g
        raise RuntimeError("unreachable: the multiplicative group is cyclic")

    def _powers(self, g: int) -> list:
        """[g^0, g^1, ..., g^(q-2)], by following the table of x -> x g,
        which ``linear_table`` builds from the images g t^i of the basis."""
        fp = FieldSpec(self.p)
        f = self.modulus + (1,)
        gx = pa.trim(digits(g, self.p, self.k))
        rows = [undigits(pa.mod(fp, pa.mul(fp, (0,) * i + (1,), gx), f), self.p)
                for i in range(self.k)]
        step = linear_table(self.p, self.k, rows)
        out = []
        x = 1
        for _ in range(self.q - 1):
            out.append(x)
            x = step[x]
        return out

    @cached_property
    def _trace_table(self) -> list:
        """Tr(a) for every code a.  The trace is F_p-linear, so
        ``linear_table`` builds it from the traces of the basis powers t^i,
        the power sums of the modulus's roots."""
        fp = FieldSpec(self.p)
        return linear_table(self.p, 1, pa.power_sums(fp, self.modulus + (1,)))


@cache
def _of_order(p: int, k: int) -> FieldSpec:
    """The one FieldSpec of order p^k; an invalid (p, k) raises, and is not
    cached."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if k < 1:
        raise DomainError("extension degree must be >= 1")
    if power_exceeds(p, k, MAX_Q):
        raise DomainError(f"q = {p}^{k} exceeds the enumeration limit {MAX_Q}")
    field = object.__new__(FieldSpec)
    field.p = p
    field.k = k
    field.q = p ** k
    field.modulus = default_modulus(p, k)
    return field


def embedding(sub: FieldSpec, field: FieldSpec) -> tuple:
    """The images in ``field`` of the elements of its subfield ``sub``.

    The generator t of ``sub`` goes to a root beta of sub's modulus, taken
    from the subgroup of order |sub| - 1; F_p is fixed.  ``images[a]`` is the
    image of the element coded a.
    """
    if sub.p != field.p or field.k % sub.k:
        raise DomainError(f"{sub!r} is not a subfield of {field!r}")
    if sub is field:
        return tuple(range(field.q))
    p = sub.p
    beta = 0  # only its zeroth power is used when sub is F_p
    if sub.k > 1:
        f = sub.modulus + (1,)
        step = (field.q - 1) // (sub.q - 1)
        beta = next(b for b in (field.exp(j * step) for j in range(sub.q - 1))
                    if pa.evaluate(field, f, b) == 0)
    return tuple(linear_table(p, field.k, [field.pow(beta, i) for i in range(sub.k)]))


def linear_table(p: int, width: int, rows: list, base: int = 0) -> list:
    """The table of an affine map over F_p: base + sum_i d_i rows[i] for
    every digit vector (d_0, d_1, ...) over F_p, listed in the order of the
    number with those base-p digits, d_0 lowest.

    ``base`` and ``rows`` are codes: vectors of ``width`` base-p digits,
    added digit by digit mod p.  For p = 2 that is XOR, and the table doubles
    once per row; for odd p the table is built one output digit at a time.
    The odd-p loop would list the p = 2 tables too, but slower, and the F_2
    fields and place sieves are most of the traffic.
    """
    if p == 2:
        table = [base]
        for r in rows:
            table += [x ^ r for x in table]
        return table
    table = [0] * p ** len(rows)
    w = 1
    for _ in range(width):
        col = [base // w % p]  # this digit of the value, per prefix of rows
        for r in rows:
            rd = r // w % p
            col = [(c + d * rd) % p for d in range(p) for c in col] if rd else col * p
        table = [s + w * c for s, c in zip(table, col)]
        w *= p
    return table


def extension(base: FieldSpec, k: int) -> tuple:
    """F_{q^k} for q = |base|: the field FieldSpec(p, k k_base), and the
    images in it of the codes of ``base``."""
    E = FieldSpec(base.p, k * base.k)
    return E, embedding(base, E)


def frobenius_orbits(E: FieldSpec, q: int):
    """(x, orbit size) for one x in each orbit of x -> x^q on E = F_{q^k}:
    0 once, then a representative g^j of each orbit on E*, whose logs walk
    j -> j q mod (|E| - 1), visited indices marked in a bytearray.  The sizes
    divide k and sum to |E|; for k = 1 every element is its own orbit, as
    j q = j mod (q - 1)."""
    yield 0, 1
    n = E.q - 1
    seen = bytearray(n)
    j = 0
    while j >= 0:
        size = 0
        i = j
        while not seen[i]:
            seen[i] = 1
            size += 1
            i = i * q % n
        yield E.exp(j), size
        j = seen.find(0, j + 1)


def is_irreducible_over(K: FieldSpec, f: tuple) -> bool:
    """Ben-Or's test (FOCS 1981) for the monic raw tuple f of degree D >= 1
    over K of order q: f is irreducible iff gcd(x^(q^i) - x, f) = 1 for
    i = 1..D/2, and it stops at the first i that finds a factor, the degree
    of f's smallest one.  Its D/2 powerings by q cost ~D^3 log2 q at most;
    ResourceGuardError before them above MAX_BEN_OR_COST."""
    D = pa.deg(f)
    if D ** 3 * math.log2(K.q) > MAX_BEN_OR_COST:
        raise ResourceGuardError(f"irreducibility test of degree {D} over F_{K.q} guarded "
                                 f"at D^3 log2 q <= {MAX_BEN_OR_COST:,}")
    x = h = (0, 1)  # reduced mod f whenever the loop runs, D >= 2
    for _ in range(D // 2):
        h = pa.pow_mod(K, h, K.q, f)
        if pa.gcd(K, pa.sub(K, h, x), f) != (1,):
            return False
    return True


def default_modulus(p: int, k: int) -> tuple:
    """Lexicographically smallest irreducible monic degree-k polynomial.

    Lexicographic order is on the coefficient tuple (c_0, ..., c_{k-1}),
    constant coefficient most significant.  The leading 1 is implicit.
    """
    if k == 1:
        return (0,)
    # c_0 = 0 means x divides the polynomial, so the search starts at c_0 = 1
    for coeffs in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        if is_irreducible_over(FieldSpec(p), coeffs + (1,)):
            return coeffs
    raise RuntimeError("unreachable: irreducible polynomials exist in every degree")
