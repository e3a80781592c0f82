"""Exact arithmetic in F_q (q = p^k) and in relative extensions F_q[t]/(h).

Elements of ``FieldSpec`` are integers in [0, q) whose base-p digits are the
coordinates in the power basis of the modulus (lowest power first).  For
k = 1 the arithmetic is plain integer arithmetic mod p.  For k > 1 it uses
exp/log tables of a primitive element, built at first use: multiplication,
inversion and powers are lookups, addition is XOR when p = 2 and a Zech
logarithm lookup for odd p, and the trace, being F_p-linear, is read from
a table built from its values on the basis.  ``embedding`` maps a subfield's
codes into a larger field.

Elements of ``ExtField`` are fixed-length tuples of base-field
representatives, multiplied as polynomials modulo h; the residue fields of
:mod:`polys` use it.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import _polyarith as pa
from .errors import DomainError

MAX_Q = 2 ** 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int):
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


class FieldSpec:
    """The finite field F_q with q = p^k, with a fixed modulus over F_p."""

    def __init__(self, p: int, k: int = 1, modulus: tuple | None = None):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if k < 1:
            raise DomainError("extension degree must be >= 1")
        if p ** k > MAX_Q:
            raise DomainError(f"q = {p}^{k} exceeds the enumeration limit {MAX_Q}")
        self.p = p
        self.k = k
        self.q = p ** k
        if modulus is None:
            modulus = default_modulus(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k:
                raise DomainError("modulus must have degree k (leading 1 implicit)")
            if k > 1 and not _is_irreducible_prime_field(p, modulus):
                raise DomainError("modulus is not irreducible over F_p")
        self.modulus = modulus
        self.zero = 0
        self.one = 1

    # -- hashing / equality ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k})"

    # -- element encoding --------------------------------------------------

    def digits(self, a: int) -> tuple:
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

    def undigits(self, ds) -> int:
        a = 0
        for d in reversed(tuple(ds)):
            a = a * self.p + d
        return a

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
        cofactors = [n // r for r in _prime_factors(n)]
        for g in range(1, self.q):
            x = pa.trim(fp, self.digits(g))
            if all(pa.pow_mod(fp, x, e, f) != (1,) for e in cofactors):
                return g
        raise RuntimeError("unreachable: the multiplicative group is cyclic")

    def _powers(self, g: int) -> list:
        """[g^0, g^1, ..., g^(q-2)], by following the table of x -> x g.

        x -> x g is F_p-linear, so its table is built digit by digit from the
        images g t^i of the basis: by XOR for p = 2, else one output digit
        at a time.
        """
        p, k, q = self.p, self.k, self.q
        fp = FieldSpec(p)
        f = self.modulus + (1,)
        gx = pa.trim(fp, self.digits(g))
        rows = [pa.mod(fp, pa.mul(fp, (0,) * i + (1,), gx), f) for i in range(k)]
        rows = [r + (0,) * (k - len(r)) for r in rows]
        if p == 2:
            step = [0]
            for r in rows:
                r = self.undigits(r)
                step += [x ^ r for x in step]
        else:
            step = [0] * q
            for j in range(k):
                col = [0]  # digit j of x g, for the codes x read so far
                for r in rows:
                    col = [(c + d * r[j]) % p for d in range(p) for c in col]
                w = p ** j
                step = [s + w * c for s, c in zip(step, col)]
        out = []
        x = 1
        for _ in range(q - 1):
            out.append(x)
            x = step[x]
        return out

    @cached_property
    def _trace_table(self) -> list:
        """Tr(a) for every code a.  The trace is F_p-linear, so the table
        grows digit by digit from the traces of the basis powers t^i, each
        summed over its Frobenius conjugates."""
        p = self.p
        table = [0]
        for i in range(self.k):
            x = p ** i  # the code of t^i
            tau = 0
            for _ in range(self.k):
                tau = self.add(tau, x)
                x = self.pow(x, p)
            table = [(s + d * tau) % p for d in range(p) for s in table]
        return table


def embedding(sub: FieldSpec, field: FieldSpec) -> tuple:
    """The images in ``field`` of the elements of its subfield ``sub``.

    The generator t of ``sub`` goes to a root beta of sub's modulus, taken
    from the subgroup of order |sub| - 1; F_p is fixed.  ``images[a]`` is the
    image of the element coded a.
    """
    if sub.p != field.p or field.k % sub.k:
        raise DomainError(f"{sub!r} is not a subfield of {field!r}")
    p = sub.p
    beta = 0  # only its zeroth power is used when sub is F_p
    if sub.k > 1:
        f = sub.modulus + (1,)
        step = (field.q - 1) // (sub.q - 1)
        beta = next(b for b in (field.exp(j * step) for j in range(sub.q - 1))
                    if pa.evaluate(field, f, b) == 0)
    images = [0]
    for i in range(sub.k):
        b_i = field.pow(beta, i)
        images = [field.add(x, field.mul(d, b_i)) for d in range(p) for x in images]
    return tuple(images)


class ExtField:
    """Relative extension F_q[t]/(h) of a FieldSpec, h monic irreducible.

    ``modulus`` is the tuple of the k lower coefficients of h over the base
    field (leading 1 implicit).  Elements are tuples of length deg(h) of
    base-field representatives, lowest power of t first.
    """

    def __init__(self, base: FieldSpec, modulus: tuple):
        self.base = base
        self.modulus = tuple(modulus)
        self.d = len(self.modulus)
        if self.d < 1:
            raise DomainError("extension degree must be >= 1")
        self.p = base.p
        self.size = base.q ** self.d
        self.zero = (0,) * self.d
        self.one = self._pad((1,))
        self._mod_poly = tuple(self.modulus) + (1,)

    def _pad(self, c) -> tuple:
        c = tuple(c)
        return c + (0,) * (self.d - len(c))

    def __eq__(self, other):
        return (isinstance(other, ExtField)
                and self.base == other.base and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.base, self.modulus))

    def __repr__(self):
        return f"ExtField(base={self.base!r}, d={self.d})"

    def embed(self, a: int) -> tuple:
        """Embed a base-field element as a constant."""
        return self._pad((a,))

    def gen(self) -> tuple:
        """The class of t, a root of the modulus."""
        if self.d == 1:
            return self.embed(self.base.neg(self.modulus[0]))
        return self._pad((0, 1))

    def elements(self):
        qb = self.base.q
        for idx in range(self.size):
            ds = []
            n = idx
            for _ in range(self.d):
                ds.append(n % qb)
                n //= qb
            yield tuple(ds)

    def index(self, z: tuple) -> int:
        n = 0
        for c in reversed(z):
            n = n * self.base.q + c
        return n

    def from_index(self, n: int) -> tuple:
        ds = []
        for _ in range(self.d):
            ds.append(n % self.base.q)
            n //= self.base.q
        return tuple(ds)

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        K = self.base
        return tuple(K.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        K = self.base
        return tuple(K.neg(x) for x in a)

    def sub(self, a, b):
        K = self.base
        return tuple(K.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        K = self.base
        prod = pa.mul(K, pa.trim(K, a), pa.trim(K, b))
        return self._pad(pa.mod(K, prod, self._mod_poly))

    def inv(self, a):
        K = self.base
        at = pa.trim(K, a)
        if not at:
            raise DomainError("inversion of zero")
        return self._pad(pa.inv_mod(K, at, self._mod_poly))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def frobenius(self, a):
        """The base-field Frobenius z -> z^(q_base)."""
        return self.pow(a, self.base.q)

    def trace(self, a) -> int:
        """Absolute trace to F_p as an integer in [0, p)."""
        total_deg = self.base.k * self.d
        acc = self.zero
        x = a
        for _ in range(total_deg):
            acc = self.add(acc, x)
            x = self.pow(x, self.p)
        for c in acc[1:]:
            if c != 0:
                raise DomainError("trace did not land in the prime field")
        c0 = acc[0]
        if c0 >= self.p:
            raise DomainError("trace did not land in the prime field")
        return c0

    def in_base(self, a) -> int:
        """Coerce an element known to lie in the base field; error otherwise."""
        for c in a[1:]:
            if c != 0:
                raise DomainError("element does not lie in the base field")
        return a[0]


def _is_irreducible_prime_field(p: int, modulus_low: tuple) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    K = FieldSpec(p, 1)
    k = len(modulus_low)
    f = tuple(modulus_low) + (1,)
    x = (0, 1)
    xq = pa.pow_mod(K, x, p ** k, f)
    if pa.trim(K, pa.sub(K, xq, x)) != ():
        return False
    for ell in _prime_factors(k):
        xe = pa.pow_mod(K, x, p ** (k // ell), f)
        g = pa.gcd(K, pa.sub(K, xe, x), f)
        if pa.deg(g) != 0:
            return False
    return True


_DEFAULT_MODULUS_CACHE: dict = {}


def default_modulus(p: int, k: int) -> tuple:
    """Lexicographically smallest irreducible monic degree-k polynomial.

    Lexicographic order is on the coefficient tuple (c_0, ..., c_{k-1}),
    constant coefficient most significant.  The leading 1 is implicit.
    """
    key = (p, k)
    if key in _DEFAULT_MODULUS_CACHE:
        return _DEFAULT_MODULUS_CACHE[key]
    if k == 1:
        _DEFAULT_MODULUS_CACHE[key] = (0,)
        return (0,)
    # c_0 = 0 means x divides the polynomial, so the search starts at c_0 = 1
    for coeffs in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        if _is_irreducible_prime_field(p, coeffs):
            _DEFAULT_MODULUS_CACHE[key] = coeffs
            return coeffs
    raise RuntimeError("unreachable: irreducible polynomials exist in every degree")
