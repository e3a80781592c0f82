"""Dirichlet series in u = q^{-s} with integer coefficients, and
truncated Euler products over places with rigorous tail bounds.

All the limiting constants (phi(1), psi_p(1), the modified-family
probability, the CEZB product, Phi_k/phi_k, L_{n-2}, kappa_n) live here,
as does the one integer Euler-coefficient engine behind the exact censuses.

Every float Euler product over places runs through ``euler_product``,
grouped by degree: the degree-d local factor is raised to I_d, the number
of places of degree d, so D can be large even for q = 32.  That power
multiplies the factor's rounding error by I_d, so the product runs at
``WORKING_DPS`` plus the number of digits of I_D, and the bound
|v| (exp(tail) - 1) is taken with ``expm1``.  Unless a caller fixes D, it
is the first of 8, 12, 16, ... with a tail bound below 1e-8.
``cezb_constant`` stops after 120 factors, with a tail below q^-120.

mpmath is imported only by the functions that evaluate constants, which
return mpmath ``mpf`` values, each under a local ``mp.workdps``: importing
this module neither loads mpmath nor changes the global ``mp.dps``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

from .errors import DomainError
from .fields import count_irreducibles, field_from_qp, require_odd_prime

WORKING_DPS = 30  # products are quoted to 6 digits; keep ample headroom


# ---------------------------------------------------------------------------
# Integer coefficient series
# ---------------------------------------------------------------------------


def series_multiply(a: list, b: list, N: int) -> list:
    """Cauchy product of two int coefficient lists, truncated at degree N.

    Zero coefficients of ``a`` are skipped, so pass the sparser factor first.
    """
    out = [0] * (N + 1)
    for i, x in enumerate(a[: N + 1]):
        if x:
            for j, y in enumerate(b[: N + 1 - i], start=i):
                out[j] += x * y
    return out


def series_pow(a: list, e: int, N: int) -> list:
    """a^e truncated at degree N, by binary powering."""
    result = [1] + [0] * N
    while e:
        if e & 1:
            result = series_multiply(result, a, N)
        e >>= 1
        if e:
            a = series_multiply(a, a, N)
    return result


def euler_coefficients(q: int, local, M: int) -> list:
    """c_0..c_M of prod over places Q of F_q[x] of the local factors.

    ``local(d)`` is the degree-d local factor as an int list in v = u^d.
    It is raised to I_d, the number of places of degree d, in v, truncated
    at M // d, then spread onto u^d.
    """
    coeffs = [1] + [0] * M
    for d in range(1, M + 1):
        spread = [0] * (M + 1)
        spread[::d] = series_pow(local(d), count_irreducibles(q, d), M // d)
        coeffs = series_multiply(spread, coeffs, M)
    return coeffs


def cumulative_ratios(rows: dict, m_values):
    """(m, a_m, b_m, sum b / sum a over the m' up to m) for each m in
    ``m_values``, where rows maps m -> (a_m, b_m)."""
    a_total = b_total = 0
    for m in m_values:
        a, b = rows[m]
        a_total += a
        b_total += b
        if a_total == 0:
            raise DomainError(f"zero denominator in cumulative ratio at m={m}")
        yield m, a, b, b_total / a_total


# ---------------------------------------------------------------------------
# Euler products with tail bounds
# ---------------------------------------------------------------------------


class EulerProductValue(namedtuple("EulerProductValue", "value truncation_degree error_bound")):
    """A truncated Euler product: ``value`` and ``error_bound`` are mpmath
    mpf, and the product runs over places of degree <= ``truncation_degree``."""

    __slots__ = ()


def _tail_bound(q: int, D: int, lead, decay: int):
    """Bound on sum_{d>D} I_d |log(local factor at degree d)|.

    Valid when |local - 1| <= lead * |Q|^{-decay} and that quantity is
    <= 1/2 at degree D+1, so |log local| <= 2 lead |Q|^{-decay}.  Uses
    I_d <= q^d / d and sums the geometric tail.
    """
    from mpmath import mp, mpf
    with mp.workdps(WORKING_DPS):
        qm = mpf(q)
        if lead * qm ** (-decay * (D + 1)) > mpf("0.5"):
            raise DomainError("truncation degree too small for the tail bound")
        x = qm ** (-(decay - 1) * (D + 1))
        return (2 * mpf(lead) / (D + 1)) * x / (1 - qm ** (-(decay - 1)))


def euler_product(q: int, local, lead, decay: int = 2,
                  D: int | None = None) -> EulerProductValue:
    """Evaluate prod over places of local(|Q|), grouped by degree.

    ``local`` maps the norm |Q| to the local factor.  ``lead`` and ``decay``
    give the bound |local(x) - 1| <= lead * x^{-decay} used for the tail.
    """
    from mpmath import expm1, mp, mpf
    with mp.workdps(WORKING_DPS):
        if D is None:
            D = 8
            while _tail_bound(q, D, lead, decay) > mpf("1e-8"):
                D += 4
        tail = _tail_bound(q, D, lead, decay)
    with mp.workdps(WORKING_DPS + len(str(count_irreducibles(q, D)))):
        value = mpf(1)
        for d in range(1, D + 1):
            value *= local(mpf(q) ** d) ** count_irreducibles(q, d)
        return EulerProductValue(value, D, abs(value) * expm1(tail))


def zeta_affine(q: int, s):
    """zeta of the affine line: 1/(1 - q^{1-s}), for real s > 1."""
    from mpmath import mp, mpf
    with mp.workdps(WORKING_DPS):
        s = mpf(s)
        if s <= 1:
            raise DomainError("zeta_affine has a pole at s = 1 and diverges for s < 1")
        return 1 / (1 - mpf(q) ** (1 - s))


def zeta_affine_truncated(q: int, s, D: int) -> EulerProductValue:
    """Truncated Euler product for zeta_affine, with its tail bound."""
    if s <= 1:
        raise DomainError("zeta_affine has a pole at s = 1 and diverges for s < 1")
    # |log local| = |log(1 - |Q|^{-s})| <= 2 |Q|^{-s}: lead 1, decay s
    return euler_product(q, lambda x: 1 / (1 - x ** -s), lead=1, decay=s, D=D)


@cache
def phi_at_1(q: int, D: int | None = None) -> EulerProductValue:
    """The p=2 constant: prod over places of 1 - 2|Q|^{-2} + |Q|^{-3}; cached."""
    return _local_polynomial_product(q, [1, 0, -2, 1], D)


def _local_polynomial_product(q: int, poly: list, D: int | None = None) -> EulerProductValue:
    """prod over places of sum_j poly[j] |Q|^{-j}, whose 1/|Q| term cancels."""
    from mpmath import mpf
    assert poly[0] == 1 and poly[1] == 0  # the 1/|Q| term cancels exactly
    lead = sum(abs(c) for c in poly[2:])

    def local(x):
        acc = mpf(0)
        for c in reversed(poly):
            acc = acc / x + c
        return acc

    return euler_product(q, local, lead=lead, D=D)


def psi_p_at_1(p: int, q: int) -> EulerProductValue:
    """psi_p(1), for q a power of the prime p (else DomainError).  For p=2
    this is 1/zeta(2) = 1 - 1/q exactly."""
    from mpmath import mp, mpf
    field_from_qp(q, p)
    if p == 2:
        with mp.workdps(WORKING_DPS):
            return EulerProductValue(1 - 1 / mpf(q), 0, mpf(0))
    # local factor (1 + (p-2)x - (p-1)x^2) (1-x)^{p-2} with x = 1/|Q|
    poly = series_multiply([1, p - 2, -(p - 1)], series_pow([1, -1], p - 2, p), p)
    return _local_polynomial_product(q, poly)


def ordinary_probability_as(q: int, p: int, include_infinity: bool):
    """Limiting probability that an Artin-Schreier cover is ordinary, for q
    a power of the prime p (else DomainError)."""
    from mpmath import mp, mpf
    field_from_qp(q, p)
    if p >= 3:
        return mpf(0)
    with mp.workdps(WORKING_DPS):
        zeta2 = zeta_affine(q, 2)
        base = phi_at_1(q).value * zeta2
        if not include_infinity:
            return base
        qi = 1 / mpf(q)
        return (1 - qi + qi ** 2) / (1 + qi) * base


def cezb_constant(q: int):
    """prod_{i=1}^{120} (1 + q^{-i})^{-1}, the random-Dieudonne-module prediction."""
    from mpmath import mp, mpf
    with mp.workdps(WORKING_DPS):
        value = mpf(1)
        for i in range(1, 121):
            value /= 1 + mpf(q) ** (-i)
        return value


def phi_k_at_1(q: int, k: int) -> EulerProductValue:
    """phi_k(1) = prod over places of (1 + k|Q|^{-1}) (1 - |Q|^{-1})^k."""
    from mpmath import mpf
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return EulerProductValue(mpf(1), 0, mpf(0))
    poly = series_multiply([1, k], series_pow([1, -1], k, k + 1), k + 1)
    return _local_polynomial_product(q, poly)


def l_constant(n: int, q: int) -> EulerProductValue:
    """L_{n-2} = prod_{j=1}^{n-2} prod_Q (1 - j/((|Q|+1)(|Q|+j)))."""
    from mpmath import mpf
    require_odd_prime(n)

    def local(x):
        acc = mpf(1)
        for j in range(1, n - 1):
            acc *= 1 - j / ((x + 1) * (x + j))
        return acc

    lead = (n - 1) ** 2  # sum_j j/|Q|^2 <= (n-2)(n-1)/2 |Q|^{-2}, with margin
    return euler_product(q, local, lead=lead)


def kappa_constant(n: int, q: int):
    """kappa_n(q) = q phi_{n-1}(1) / (log(q) (n-2)!)."""
    from mpmath import log, mp, mpf
    require_odd_prime(n)
    with mp.workdps(WORKING_DPS):
        return mpf(q) * phi_k_at_1(q, n - 1).value / (log(mpf(q)) * math.factorial(n - 2))
