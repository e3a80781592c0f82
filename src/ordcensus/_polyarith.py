"""Generic polynomial arithmetic over any field object.

Polynomials are tuples of field-element representatives, lowest degree
first, with no trailing zeros; the empty tuple is the zero polynomial.
The field object must provide ``zero``, ``one`` and the element operations
``add``, ``sub``, ``neg``, ``mul``, ``inv``.  Every field of the package
is a :class:`fields.FieldSpec`, whose elements are integer codes with zero
coded 0.  Over a prime field (``K.k == 1``) the codes are the residues
mod p, and ``mul`` and ``divmod_`` do that arithmetic inline instead of
calling the field's methods once per coefficient; the results are the same.
:mod:`polys` computes in a residue field F_q[t]/(Q) with these functions
over F_q, reducing mod Q.
"""

from .errors import DomainError


def trim(K, c):
    c = tuple(c)
    n = len(c)
    while n and c[n - 1] == K.zero:
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
    return trim(K, out)


def neg(K, a):
    return tuple(K.neg(x) for x in a)


def sub(K, a, b):
    return add(K, a, neg(K, b))


def scale(K, a, s):
    if s == K.zero:
        return ()
    return tuple(K.mul(x, s) for x in a)


def mul(K, a, b):
    if not a or not b:
        return ()
    out = [K.zero] * (len(a) + len(b) - 1)
    if K.k == 1:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = K.p
        return trim(K, [c % p for c in out])
    for i, x in enumerate(a):
        if x == K.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return trim(K, out)


def divmod_(K, a, b):
    if not b:
        raise DomainError("division by the zero polynomial")
    binv = K.inv(b[-1])
    r = list(a)
    q = [K.zero] * max(len(a) - len(b) + 1, 0)
    db = deg(b)
    if K.k == 1:
        p = K.p
        for i in range(len(a) - len(b), -1, -1):
            c = r[i + db] * binv % p
            if c:
                q[i] = c
                for j, y in enumerate(b, i):
                    r[j] = (r[j] - c * y) % p
        return trim(K, q), trim(K, r)
    for i in range(len(a) - len(b), -1, -1):
        c = K.mul(r[i + db], binv)
        if c == K.zero:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] = K.sub(r[i + j], K.mul(c, y))
    return trim(K, q), trim(K, r)


def mod(K, a, b):
    return divmod_(K, a, b)[1]


def monic(K, a):
    """Divide out the leading coefficient."""
    if not a:
        return ()
    if a[-1] == K.one:
        return a
    return scale(K, a, K.inv(a[-1]))


def gcd(K, a, b):
    while b:
        a, b = b, mod(K, a, b)
    return monic(K, a)


def derivative(K, a):
    # i a_i is a_i times i mod p, the code of an element of F_p
    return trim(K, [K.mul(i % K.p, a[i]) for i in range(1, len(a))])


def evaluate(K, a, x):
    acc = K.zero
    for c in reversed(a):
        acc = K.add(K.mul(acc, x), c)
    return acc


def pow_mod(K, a, e, m):
    result = (K.one,)
    a = mod(K, a, m)
    while e:
        if e & 1:
            result = mod(K, mul(K, result, a), m)
        a = mod(K, mul(K, a, a), m)
        e >>= 1
    return result


def xgcd(K, a, b):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = (K.one,), ()
    t0, t1 = (), (K.one,)
    while r1:
        q, r = divmod_(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(K, s0, mul(K, q, s1))
        t0, t1 = t1, sub(K, t0, mul(K, q, t1))
    if r0:
        lead = K.inv(r0[-1])
        r0 = scale(K, r0, lead)
        s0 = scale(K, s0, lead)
        t0 = scale(K, t0, lead)
    return r0, s0, t0


def inv_mod(K, a, m):
    g, u, _ = xgcd(K, a, m)
    if deg(g) != 0:
        raise DomainError("polynomial is not invertible modulo m")
    return mod(K, u, m)
