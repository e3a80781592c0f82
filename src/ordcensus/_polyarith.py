"""Polynomial arithmetic over a :class:`fields.FieldSpec`.

Polynomials are tuples of field elements, lowest degree first, with no
trailing zeros; the empty tuple is the zero polynomial.  Elements are
``FieldSpec`` codes, integers with zero coded 0 and one coded 1, so they
compare with the literals; the field supplies ``add``, ``sub``, ``neg``,
``mul`` and ``inv``.  Over a prime field (``K.k == 1``) the codes are the
residues mod p, and ``mul`` and ``divmod_`` do that arithmetic inline instead
of calling the field's methods once per coefficient; the results are the same.
Field set-up runs them: Ben-Or's test of each default modulus, the search
for a primitive element and the table of its powers all compute over F_p.
:mod:`polys` computes in a residue field F_q[t]/(Q) with these functions
over F_q, reducing mod Q.  ``power_sums`` gives the traces of the powers of
t in F_p[t]/(f) or F_q[t]/(Q) from the modulus alone: the field trace of
:mod:`fields` and the residue-field trace of :mod:`polys` both read it.
"""

from .errors import DomainError


def trim(c):
    c = tuple(c)
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def deg(c):
    """Degree; -1 for the zero polynomial."""
    return len(c) - 1


def add(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = K.add(out[i], x)
    return trim(out)


def neg(K, a):
    return tuple(K.neg(x) for x in a)


def sub(K, a, b):
    return add(K, a, neg(K, b))


def scale(K, a, s):
    if s == 0:
        return ()
    return tuple(K.mul(x, s) for x in a)


def mul(K, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if K.k == 1:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = K.p
        return trim([c % p for c in out])
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return trim(out)


def divmod_(K, a, b):
    if not b:
        raise DomainError("division by the zero polynomial")
    binv = K.inv(b[-1])
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    db = deg(b)
    if K.k == 1:
        p = K.p
        for i in range(len(a) - len(b), -1, -1):
            c = r[i + db] * binv % p
            if c:
                q[i] = c
                for j, y in enumerate(b, i):
                    r[j] = (r[j] - c * y) % p
        return trim(q), trim(r)
    for i in range(len(a) - len(b), -1, -1):
        c = K.mul(r[i + db], binv)
        if c == 0:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] = K.sub(r[i + j], K.mul(c, y))
    return trim(q), trim(r)


def mod(K, a, b):
    return divmod_(K, a, b)[1]


def monic(K, a):
    """Divide out the leading coefficient."""
    if not a:
        return ()
    if a[-1] == 1:
        return a
    return scale(K, a, K.inv(a[-1]))


def gcd(K, a, b):
    while b:
        a, b = b, mod(K, a, b)
    return monic(K, a)


def derivative(K, a):
    # i a_i is a_i times i mod p, the code of an element of F_p
    return trim([K.mul(i % K.p, a[i]) for i in range(1, len(a))])


def power_sums(K, f):
    """The power sums (s_0, ..., s_{d-1}) of the roots of the monic f of
    degree d, by Newton's identities: s_0 = d and
    s_m = -(sum_{0<i<m} f_{d-i} s_{m-i} + m f_{d-m})."""
    d = deg(f)
    s = [d % K.p]
    for m in range(1, d):
        acc = K.mul(m % K.p, f[d - m])
        for i in range(1, m):
            acc = K.add(acc, K.mul(f[d - i], s[m - i]))
        s.append(K.neg(acc))
    return tuple(s)


def evaluate(K, a, x):
    acc = 0
    for c in reversed(a):
        acc = K.add(K.mul(acc, x), c)
    return acc


def pow_mod(K, a, e, m):
    """a^e mod m, left to right: for e >= 1, bit_length(e) - 1 squarings and
    popcount(e) - 1 products by a; (1,) for e = 0."""
    if e == 0:
        return (1,)
    a = result = mod(K, a, m)
    for bit in bin(e)[3:]:
        result = mod(K, mul(K, result, result), m)
        if bit == "1":
            result = mod(K, mul(K, result, a), m)
    return result

