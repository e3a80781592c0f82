"""Dirichlet series in u = q^{-s} with integer coefficients, and
truncated Euler products over places with rigorous tail bounds.

All the limiting constants (phi(1), psi_p(1), the modified-family
probability, the CEZB product, phi_k and kappa_n) live here,
as does the one integer Euler-coefficient engine behind the exact censuses,
``euler_coefficients``, Newton's identities of :mod:`fields` run both ways,
and the rows that ``constants`` and ``report-table1`` print.

Every float Euler product over places runs through ``euler_product``,
grouped by degree: the degree-d local factor is raised to I_d, the number
of places of degree d, so D can be large even for q = 32.  That power
multiplies the factor's rounding error by I_d, so the product runs at
``WORKING_DPS`` plus the number of digits of I_D, and the bound
|v| (exp(tail) - 1) is taken with ``_expm1``, which keeps its relative
precision.  Unless a caller fixes D, it is the first of 8, 12, 16, ... with
a tail bound below 1e-8.  ``cezb_constant`` stops after 120 factors, with a
tail below q^-120.

The constants are ``decimal.Decimal`` values, each evaluated under its own
``working_context``, a local decimal context: ``decimal`` is imported only
by the functions that evaluate constants, and the caller's decimal context
is neither read nor changed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

from .errors import DomainError, InvariantViolation, ResourceGuardError
from .fields import (count_irreducibles, field_from_qp, from_log_derivative, log_derivative,
                     require_odd_prime)

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


def euler_coefficients(q: int, local, M: int) -> list:
    """c_0..c_M of prod over places Q of F_q[x] of F_d = ``local(d)``, an int
    list in v = u^d with F_d(0) = 1, d = deg Q.  With I_d places of degree d
    and r_d = v F_d'/F_d to order M // d (``fields.log_derivative``),
    w_k = sum_{d | k} d I_d r_d[k/d] is k times the u^k coefficient of the log
    of the product, inverted by ``fields.from_log_derivative``.
    InvariantViolation if some F_d(0) is not 1 or some c_n is not an integer.
    """
    w = [0] * (M + 1)
    for d in range(1, M + 1):
        f = local(d)[: M // d + 1]
        if f[0] != 1:
            raise InvariantViolation(f"the degree-{d} local factor has constant term {f[0]}")
        scale = d * count_irreducibles(q, d)
        w[d::d] = [x + scale * y for x, y in zip(w[d::d], log_derivative(f, M // d)[1:])]
    return from_log_derivative(w, M, "c")


def cumulative_ratios(rows: dict):
    """(m, a_m, b_m, sum b / sum a over the m' up to m) for each m of
    ``rows``, which maps m -> (a_m, b_m) in increasing m."""
    a_total = b_total = 0
    for m, (a, b) in rows.items():
        a_total += a
        b_total += b
        if a_total == 0:
            raise DomainError(f"zero denominator in cumulative ratio at m={m}")
        yield m, a, b, b_total / a_total


# ---------------------------------------------------------------------------
# Euler products with tail bounds
# ---------------------------------------------------------------------------


class EulerProductValue(namedtuple("EulerProductValue", "value truncation_degree error_bound")):
    """A truncated Euler product: ``value`` and ``error_bound`` are
    ``decimal.Decimal``, and the product runs over places of degree <=
    ``truncation_degree``."""

    __slots__ = ()


def working_context(extra_digits: int = 0):
    """A local decimal context of WORKING_DPS + ``extra_digits`` significant
    digits, rounding half-even, whatever the caller's context is."""
    from decimal import ROUND_HALF_EVEN, Context, localcontext
    return localcontext(Context(prec=WORKING_DPS + extra_digits, rounding=ROUND_HALF_EVEN))


def _expm1(t):
    """exp(t) - 1 to the current precision.  For small t the subtraction
    cancels about -log10|t| leading digits, so exp(t) is taken with that many
    more."""
    from decimal import localcontext
    with localcontext() as ctx:
        ctx.prec += max(0, -t.adjusted()) + 2
        r = t.exp() - 1
    return +r


def _tail_bound(q: int, D: int, lead, decay):
    """Bound on sum_{d>D} I_d |log(local factor at degree d)|.

    Valid when |local - 1| <= lead * |Q|^{-decay} and that quantity is
    <= 1/2 at degree D+1, so |log local| <= 2 lead |Q|^{-decay}; None at a
    D where it is not.  Uses I_d <= q^d / d and sums the geometric tail.
    """
    from decimal import Decimal
    with working_context():
        qm, decay = Decimal(q), Decimal(decay)
        if lead * qm ** (-decay * (D + 1)) > Decimal("0.5"):
            return None
        x = qm ** (-(decay - 1) * (D + 1))
        return (2 * Decimal(lead) / (D + 1)) * x / (1 - qm ** (-(decay - 1)))


def euler_product(q: int, local, lead, decay=2,
                  D: int | None = None) -> EulerProductValue:
    """Evaluate prod over places of local(|Q|), grouped by degree.

    ``local`` maps the norm |Q| to the local factor.  ``lead`` and ``decay``
    give the bound |local(x) - 1| <= lead * x^{-decay} used for the tail.
    With no D given, D is the first of 8, 12, 16, ... where the tail bound
    holds and is at most 1e-8.
    """
    from decimal import Decimal
    if D is None:
        D = 8
        while (tail := _tail_bound(q, D, lead, decay)) is None or tail > Decimal("1e-8"):
            D += 4
    elif (tail := _tail_bound(q, D, lead, decay)) is None:
        raise DomainError("truncation degree too small for the tail bound")
    with working_context(len(str(count_irreducibles(q, D)))):
        value = Decimal(1)
        for d in range(1, D + 1):
            value *= local(Decimal(q) ** d) ** count_irreducibles(q, d)
        return EulerProductValue(value, D, abs(value) * _expm1(tail))


def zeta_affine(q: int, s):
    """zeta of the affine line: 1/(1 - q^{1-s}), for real s > 1."""
    from decimal import Decimal
    with working_context():
        s = Decimal(s)
        if s <= 1:
            raise DomainError("zeta_affine has a pole at s = 1 and diverges for s < 1")
        return 1 / (1 - Decimal(q) ** (1 - s))


@cache
def phi_at_1(q: int, D: int | None = None) -> EulerProductValue:
    """The p=2 constant: prod over places of 1 - 2|Q|^{-2} + |Q|^{-3}; cached."""
    return _local_polynomial_product(q, [1, 0, -2, 1], D)


def _local_polynomial_product(q: int, poly: list, D: int | None = None) -> EulerProductValue:
    """prod over places of sum_j poly[j] |Q|^{-j}, whose 1/|Q| term cancels."""
    if poly[0] != 1 or poly[1] != 0:  # the tail bound needs the 1/|Q| term to cancel
        raise InvariantViolation(f"local polynomial {poly} must start 1, 0")
    lead = sum(abs(c) for c in poly[2:])

    def local(x):
        acc = 0
        for c in reversed(poly):
            acc = acc / x + c
        return acc

    return euler_product(q, local, lead=lead, D=D)


# psi_p(1) for odd p evaluates a local factor of degree p, with coefficients
# of about p bits, at each of the ~p / log2 q degrees its tail bound needs, to
# ~p / 3 digits: at q = p, 0.34 s at p = 1009 and 3.8 s at p = 2039 on a
# 2-vCPU VM under Python 3.11, growing as ~p^3.4.
MAX_PSI_P = 2048


def psi_p_at_1(p: int, q: int) -> EulerProductValue:
    """psi_p(1), for q a power of the prime p (else DomainError).  For p=2
    this is 1/zeta(2) = 1 - 1/q exactly; above MAX_PSI_P it is refused
    (ResourceGuardError) before any product is formed."""
    from decimal import Decimal
    field_from_qp(q, p)
    if p == 2:
        with working_context():
            return EulerProductValue(1 - 1 / Decimal(q), 0, Decimal(0))
    if p > MAX_PSI_P:
        raise ResourceGuardError(f"psi_p(1) guarded at p <= {MAX_PSI_P}, got p = {p}")
    # local factor (1 + (p-2)x - (p-1)x^2) (1-x)^{p-2} = (1 + (p-1)x) (1-x)^{p-1}
    return phi_k_at_1(q, p - 1)


def ordinary_probability_as(q: int, p: int, include_infinity: bool):
    """Limiting probability that an Artin-Schreier cover is ordinary, for q
    a power of the prime p (else DomainError)."""
    from decimal import Decimal
    field_from_qp(q, p)
    if p >= 3:
        return Decimal(0)
    base = phi_at_1(q).value
    with working_context():
        base *= zeta_affine(q, 2)
        if not include_infinity:
            return base
        qi = 1 / Decimal(q)
        return (1 - qi + qi ** 2) / (1 + qi) * base


def cezb_constant(q: int):
    """prod_{i=1}^{120} (1 + q^{-i})^{-1}, the random-Dieudonne-module prediction."""
    from decimal import Decimal
    with working_context():
        value = Decimal(1)
        for i in range(1, 121):
            value /= 1 + Decimal(q) ** (-i)
        return value


def phi_k_at_1(q: int, k: int) -> EulerProductValue:
    """phi_k(1) = prod over places of (1 + k|Q|^{-1}) (1 - |Q|^{-1})^k."""
    from decimal import Decimal
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return EulerProductValue(Decimal(1), 0, Decimal(0))
    poly = series_multiply([1, k], [(-1) ** j * math.comb(k, j) for j in range(k + 1)], k + 1)
    return _local_polynomial_product(q, poly)


def kappa_constant(n: int, q: int):
    """kappa_n(q) = q phi_{n-1}(1) / (log(q) (n-2)!)."""
    from decimal import Decimal
    require_odd_prime(n)
    phi = phi_k_at_1(q, n - 1).value
    with working_context():
        return Decimal(q) * phi / (Decimal(q).ln() * math.factorial(n - 2))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

TABLE1 = {
    # q: (phi(1), P(AS) modified family, CEZB), as published
    2: (0.314148, 0.314148, 0.419422),
    4: (0.593976, 0.514777, 0.737512),
    8: (0.776577, 0.702617, 0.873264),
    16: (0.882162, 0.833730, 0.937270),
    32: (0.939367, 0.911820, 0.968720),
}


def constants_report(q: int, p: int) -> dict:
    """The limiting constants at q, a power of the prime p (else DomainError),
    as floats, with the truncation degree and error bound of phi(1)."""
    field_from_qp(q, p)
    phi1 = phi_at_1(q)
    return {"q": q, "p": p, "phi1": float(phi1.value),
            "psi_p1": float(psi_p_at_1(p, q).value), "zeta2": float(zeta_affine(q, 2)),
            "P_AS_unramified": float(ordinary_probability_as(q, p, False)),
            "P_AS_modified": float(ordinary_probability_as(q, p, True)),
            "cezb": float(cezb_constant(q)), "truncation_degree": phi1.truncation_degree,
            "error_bound": float(phi1.error_bound)}


def table1_rows() -> list:
    """Table 1 recomputed: per q, phi(1), the modified-family P(AS) and the
    CEZB constant to 6 places, each with its deviation from TABLE1."""
    rows = []
    for q, (phi_pub, pas_pub, cezb_pub) in TABLE1.items():
        phi1 = float(phi_at_1(q).value)
        pas = float(ordinary_probability_as(q, 2, True))
        cezb = float(cezb_constant(q))
        rows.append({"q": q,
                     "phi1": round(phi1, 6), "phi1_dev": round(abs(phi1 - phi_pub), 6),
                     "P_AS_modified": round(pas, 6),
                     "P_AS_modified_dev": round(abs(pas - pas_pub), 6),
                     "cezb": round(cezb, 6), "cezb_dev": round(abs(cezb - cezb_pub), 6)})
    return rows
