"""Dirichlet series in q^{-s} with exact rational coefficients, and
truncated Euler products over places with rigorous tail bounds.

All the limiting constants (phi(1), psi_p(1), the modified-family
probability, the CEZB product, Phi_k/phi_k, L_{n-2}, kappa_n) live here.

Products over places are always grouped by degree: the degree-d local
factor is raised to the number of monic irreducibles of degree d, so the
truncation degree D can be large even for q = 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, exp, log

from .errors import DomainError
from .fields import is_prime
from .polys import count_irreducibles

if mp.dps < 30:
    mp.dps = 30  # products are quoted to 6 digits; keep ample headroom


# ---------------------------------------------------------------------------
# Exact coefficient series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffSeries:
    """sum_{m=0}^{M} c_m q^{-ms}, coefficients exact rationals."""

    q: int
    coeffs: tuple  # Fractions, c_0 .. c_M
    M: int

    def __post_init__(self):
        if len(self.coeffs) != self.M + 1:
            raise DomainError("coefficient list must have length M+1")

    def coeff(self, m: int) -> Fraction:
        return self.coeffs[m]


def series_from_list(q: int, coeffs, M: int) -> CoeffSeries:
    cs = [Fraction(c) for c in coeffs[: M + 1]]
    cs += [Fraction(0)] * (M + 1 - len(cs))
    return CoeffSeries(q, tuple(cs), M)


def series_one(q: int, M: int) -> CoeffSeries:
    return series_from_list(q, [1], M)


def series_multiply(a: CoeffSeries, b: CoeffSeries, M: int | None = None) -> CoeffSeries:
    """Cauchy product truncated at order M (default: min of the inputs)."""
    if a.q != b.q:
        raise DomainError("cannot multiply series over different q")
    if M is None:
        M = min(a.M, b.M)
    out = [Fraction(0)] * (M + 1)
    for i, ca in enumerate(a.coeffs):
        if i > M or ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if i + j > M:
                break
            out[i + j] += ca * cb
    return CoeffSeries(a.q, tuple(out), M)


def series_pow(a: CoeffSeries, e: int, M: int | None = None) -> CoeffSeries:
    if M is None:
        M = a.M
    result = series_one(a.q, M)
    base = a
    while e:
        if e & 1:
            result = series_multiply(result, base, M)
        base = series_multiply(base, base, M)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Euler products with tail bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerProductValue:
    value: mpf
    truncation_degree: int
    error_bound: mpf


def _tail_bound(q: int, D: int, lead, decay: int) -> mpf:
    """Bound on sum_{d>D} I_d |log(local factor at degree d)|.

    Valid when |local - 1| <= lead * |Q|^{-decay} and that quantity is
    <= 1/2 at degree D+1, so |log local| <= 2 lead |Q|^{-decay}.  Uses
    I_d <= q^d / d and sums the geometric tail.
    """
    qm = mpf(q)
    if lead * qm ** (-decay * (D + 1)) > mpf("0.5"):
        raise DomainError("truncation degree too small for the tail bound")
    x = qm ** (-(decay - 1) * (D + 1))
    return (2 * mpf(lead) / (D + 1)) * x / (1 - qm ** (-(decay - 1)))


def euler_product(q: int, local, lead, decay: int = 2,
                  D: int | None = None, target=mpf("1e-8")) -> EulerProductValue:
    """Evaluate prod over places of local(|Q|), grouped by degree.

    ``local`` maps the norm |Q| to the local factor.  ``lead`` and ``decay``
    give the bound |local(x) - 1| <= lead * x^{-decay} used for the tail.
    """
    if D is None:
        D = 8
        while _tail_bound(q, D, lead, decay) > target:
            D += 4
    value = mpf(1)
    for d in range(1, D + 1):
        value *= local(mpf(q) ** d) ** count_irreducibles(q, d)
    tail = _tail_bound(q, D, lead, decay)
    return EulerProductValue(value, D, abs(value) * (exp(tail) - 1))


def zeta_affine(q: int, s) -> mpf:
    """zeta of the affine line: 1/(1 - q^{1-s}), for real s > 1."""
    s = mpf(s)
    if s <= 1:
        raise DomainError("zeta_affine has a pole at s = 1 and diverges for s < 1")
    return 1 / (1 - mpf(q) ** (1 - s))


def zeta_affine_truncated(q: int, s, D: int) -> EulerProductValue:
    """Truncated Euler product for zeta_affine, with its tail bound."""
    s = mpf(s)
    if s <= 1:
        raise DomainError("zeta_affine has a pole at s = 1 and diverges for s < 1")
    value = mpf(1)
    for d in range(1, D + 1):
        value *= (1 - mpf(q) ** (-d * s)) ** (-count_irreducibles(q, d))
    # |log local| <= 2 q^{-ds} for q^{-ds} <= 1/2; sum I_d <= q^d/d over d > D
    tail = (2 / mpf(D + 1)) * mpf(q) ** (-(s - 1) * (D + 1)) / (1 - mpf(q) ** (-(s - 1)))
    return EulerProductValue(value, D, abs(value) * (exp(tail) - 1))


def phi_at_1(q: int, D: int | None = None) -> EulerProductValue:
    """The p=2 constant: prod over places of 1 - 2|Q|^{-2} + |Q|^{-3}."""
    return euler_product(q, lambda x: 1 - 2 / x ** 2 + 1 / x ** 3, lead=3, D=D)


def _poly_mul_int(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def psi_p_at_1(p: int, q: int, D: int | None = None) -> EulerProductValue:
    """psi_p(1).  For p=2 this is 1/zeta(2) = 1 - 1/q exactly."""
    if q % p != 0:
        raise DomainError("q must be a power of p")
    if p == 2:
        return EulerProductValue(1 - 1 / mpf(q), 0, mpf(0))
    # local factor (1 + (p-2)x - (p-1)x^2) (1-x)^{p-2} with x = 1/|Q|
    poly = [1, p - 2, -(p - 1)]
    for _ in range(p - 2):
        poly = _poly_mul_int(poly, [1, -1])
    assert poly[0] == 1 and poly[1] == 0  # the 1/|Q| term cancels exactly
    lead = sum(abs(c) for c in poly[2:])

    def local(x):
        acc = mpf(0)
        for j in range(len(poly) - 1, -1, -1):
            acc = acc / x + poly[j]
        return acc

    return euler_product(q, local, lead=lead, D=D)


def ordinary_probability_as(q: int, p: int, include_infinity: bool) -> mpf:
    """Limiting probability that an Artin-Schreier cover is ordinary."""
    if p >= 3:
        return mpf(0)
    zeta2 = zeta_affine(q, 2)
    base = phi_at_1(q).value * zeta2
    if not include_infinity:
        return base
    qi = 1 / mpf(q)
    return (1 - qi + qi ** 2) / (1 + qi) * base


def cezb_constant(q: int, D: int = 120) -> mpf:
    """prod_{i>=1} (1 + q^{-i})^{-1}, the random-Dieudonne-module prediction."""
    value = mpf(1)
    for i in range(1, D + 1):
        value /= 1 + mpf(q) ** (-i)
    return value  # tail < q^{-120}, far below any quoted precision


def phi_k_at_1(q: int, k: int, D: int | None = None) -> EulerProductValue:
    """phi_k(1) = prod over places of (1 + k|Q|^{-1}) (1 - |Q|^{-1})^k."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return EulerProductValue(mpf(1), 0, mpf(0))
    poly = [1, k]
    for _ in range(k):
        poly = _poly_mul_int(poly, [1, -1])
    assert poly[0] == 1 and poly[1] == 0
    lead = sum(abs(c) for c in poly[2:])

    def local(x):
        acc = mpf(0)
        for j in range(len(poly) - 1, -1, -1):
            acc = acc / x + poly[j]
        return acc

    return euler_product(q, local, lead=lead, D=D)


def l_constant(n: int, q: int, D: int | None = None) -> EulerProductValue:
    """L_{n-2} = prod_{j=1}^{n-2} prod_Q (1 - j/((|Q|+1)(|Q|+j)))."""
    if n % 2 == 0 or not is_prime(n):
        raise DomainError("n must be an odd prime")

    def local(x):
        acc = mpf(1)
        for j in range(1, n - 1):
            acc *= 1 - j / ((x + 1) * (x + j))
        return acc

    lead = (n - 1) ** 2  # sum_j j/|Q|^2 <= (n-2)(n-1)/2 |Q|^{-2}, with margin
    return euler_product(q, local, lead=lead, D=D)


def kappa_constant(n: int, q: int) -> mpf:
    """kappa_n(q) = q phi_{n-1}(1) / (log(q) (n-2)!)."""
    if n % 2 == 0 or not is_prime(n):
        raise DomainError("n must be an odd prime")
    return mpf(q) * phi_k_at_1(q, n - 1).value / (log(mpf(q)) * math.factorial(n - 2))
