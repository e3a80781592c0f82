"""Artin-Schreier covers y^p - y = f(x): the exact census by enumeration and
by coefficient extraction from the Euler product of local zeta factors.  The
cover record ``ASCover``, the encoding of its local parts and its
invariants are in :mod:`ascover`; this module imports only the record and
the local-part check.

The enumeration route counts whole families: the covers sharing a branch
assignment (places and pole orders) are the products of per-place pools of
local parts, so each family adds the product of its pool sizes to a(m), and
to b(m) if m = 2r for its r branch points (every pole simple).  A pool needs
only |Q| and the pole order, so no residue field is built, and
``enumerate_covers``, the one builder of covers here, expands the same pools.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from collections import namedtuple
from functools import cache

from .ascover import ASCover, _check_local_part
from .errors import Checked, DomainError, ResourceGuardError, InvariantViolation
from .fields import FieldSpec, power_exceeds


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def admissible_pole_orders(p: int, max_k: int):
    """Multiplicities k = d_Q + 1 that occur: k >= 2, k != 1 mod p."""
    return [k for k in range(2, max_k + 1) if k % p != 1]


def count_local_parts(norm: int, d_q: int, p: int) -> int:
    """Number of admissible local parts with pole order d_q over F_norm."""
    free = sum(1 for j in range(1, d_q + 1) if j % p != 0)
    return (norm - 1) * norm ** (free - 1)


def _local_part_choices(p: int, elems, d_q: int):
    """Normal-form local parts of pole order d_q with coefficients in
    ``elems``, a residue field's indices (zero first)."""
    per_index = []
    for j in range(1, d_q + 1):
        if j % p == 0:
            per_index.append([0])
        elif j == d_q:
            per_index.append(elems[1:])
        else:
            per_index.append(elems)
    return itertools.product(*per_index)


def _branch_assignments(field: FieldSpec, m: int):
    """All ways to pick places with multiplicities k_Q, sum deg*k = m.

    Each assignment lists its (Place, k_Q) pairs in Place order: the places
    are taken in (degree, coefficients) order, and each node picks its first
    place from those at or after ``start``, the last candidate first, then
    its pole order, and prepends the pair to pairs chosen from the places
    after it.  So the recursion is as deep as an assignment is long, however
    many places there are.
    """
    from .polys import places_of_degree
    places = []
    for d in range(1, m // 2 + 1):
        places.extend(places_of_degree(field, d))
    degrees = [pl.degree for pl in places]
    orders = admissible_pole_orders(field.p, m)  # increasing; each node takes a prefix

    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        # k >= 2, so a candidate has degree at most remaining / 2
        for idx in range(bisect_right(degrees, remaining // 2) - 1, start - 1, -1):
            pl, d = places[idx], degrees[idx]
            for k in orders[:bisect_right(orders, remaining // d)]:
                for rest in rec(idx + 1, remaining - d * k):
                    yield ((pl, k),) + rest
    yield from rec(0, m)


def _cover_families(field: FieldSpec, m: int, include_infinity: bool):
    """The covers with invariant m, grouped by branch assignment.

    Yields (assignment, inf_pool, local_pools): the (Place, k_Q) pairs in
    Place order, as ``_branch_assignments`` lists them, the choices of the
    infinity part (``(None,)`` when infinity is unramified) and, per
    assigned place, its ``_pool`` of pole order k_Q - 1.  The covers of a
    family are the products of the pools.
    """
    if m < 2:
        return
    p, q = field.p, field.q
    inf_orders = [None]
    if include_infinity:
        inf_orders += admissible_pole_orders(p, m)
    for k_inf in inf_orders:
        rem = m - (k_inf or 0)
        inf_pool = (None,) if k_inf is None else _pool(p, q, k_inf - 1)
        for assignment in _branch_assignments(field, rem):
            local_pools = [_pool(p, pl.norm, k - 1) for pl, k in assignment]
            yield assignment, inf_pool, local_pools


@cache
def _pool(p: int, norm: int, d_q: int) -> tuple:
    """The local parts of pole order d_q over a residue field of ``norm``
    elements in characteristic p, each checked.  Local parts are tuples of
    residue-field indices, so one pool serves every place, infinity and
    census row that share it."""
    pool = tuple(_local_part_choices(p, range(norm), d_q))
    for coeffs in pool:
        _check_local_part(p, coeffs)
    return pool


def enumerate_covers(field: FieldSpec, m: int, include_infinity: bool = False):
    """All Artin-Schreier covers with invariant m, each exactly once: the
    products of the pools of each ``_cover_families`` family."""
    for assignment, inf_pool, local_pools in _cover_families(field, m, include_infinity):
        for inf_part in inf_pool:
            for locals_ in itertools.product(*local_pools):
                branch = tuple((pl, lc) for (pl, _), lc in zip(assignment, locals_))
                yield ASCover(field, branch, inf_part)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


class CensusTable(Checked, namedtuple("CensusTable", "rows")):
    """``rows`` maps m -> (a_m, b_m), the number of covers with invariant m
    and of those that are ordinary, each row checked for 0 <= b_m <= a_m."""

    __slots__ = ()

    def _check(self):
        for m, (a, b) in self.rows.items():
            if not (0 <= b <= a):
                raise DomainError(f"census row m={m} violates 0 <= b <= a")


MAX_ENUM = 2 ** 22


def census_enumerated(field: FieldSpec, m_max: int,
                      include_infinity: bool = False) -> CensusTable:
    if power_exceeds(field.q, m_max, MAX_ENUM):
        raise ResourceGuardError(
            f"census enumeration guard exceeded: q^m_max = {field.q}^{m_max} > {MAX_ENUM}")
    rows = {}
    for m in range(2, m_max + 1):
        a = b = 0
        for assignment, inf_pool, local_pools in _cover_families(field, m, include_infinity):
            size = len(inf_pool) * math.prod(len(pool) for pool in local_pools)
            a += size
            # r branch points: m - 2r = sum deg Q (d_Q - 1) + (d_inf - 1) >= 0, zero iff
            # every pole is simple (``ascover.is_ordinary``), i.e. p-rank = genus
            r = sum(pl.degree for pl, _ in assignment) + (inf_pool[0] is not None)
            if m == 2 * r:
                b += size
        rows[m] = (a, b)
    return CensusTable(rows)


# The Euler coefficients have about m log2 q bits, and computing them takes
# ~m^2 products of such integers: about m^3 log2 q bit operations.  At the
# cost limit a census takes ~3 s at q = 2 and ~10 s at q = 3 on a 2-vCPU VM;
# odd p is slower per operation, its series having no zero terms (35 s at
# q = 101).  The bit limit keeps every coefficient below Python's limit on
# printing an int: under the default limit of 4,300 digits, 14,000 bits are
# 4,215 digits, and the 85 digits left cover a_m / q^m (15 digits at q = 101,
# m = 312).  Under another limit the bound keeps that margin.
MAX_ANALYTIC_COST = 2 * 10 ** 10
MAX_ANALYTIC_BITS = 14000


def _max_analytic_bits() -> float:
    """The bit bound under the interpreter's limit on printing an int:
    MAX_ANALYTIC_BITS at the default 4,300 digits, moved by as many bits as
    the limit moves digits.  No bound when there is no limit (0, or Python
    3.10 before 3.10.7, which has neither it nor ``sys.get_int_max_str_digits``)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        return math.inf
    return MAX_ANALYTIC_BITS - math.ceil((4300 - digits) * math.log2(10))


def census_analytic(field: FieldSpec, m_max: int,
                    include_infinity: bool = False) -> CensusTable:
    """Coefficients of prod_Q Z_Q (all covers) and prod_Q Z_{0,Q} (ordinary
    covers) in u = q^{-s}, where Z_Q sums the admissible local parts of a
    place by pole order and Z_{0,Q} = 1 + (|Q|-1)|Q|^{-2s}."""
    from .dirichlet import euler_coefficients, series_multiply
    q, p = field.q, field.p
    log_q = math.log2(q)  # m_max may be too large for a float, so it is not converted
    max_bits = _max_analytic_bits()
    if m_max > max_bits / log_q or m_max ** 3 > MAX_ANALYTIC_COST / log_q:
        raise ResourceGuardError(
            f"analytic census guard exceeded at q = {q}, m_max = {m_max}: over "
            f"{max_bits} bits per coefficient or {MAX_ANALYTIC_COST:.0e} bit operations")

    def local(d):
        coeffs = [1] + [0] * (m_max // d)
        for k in admissible_pole_orders(p, m_max // d):
            coeffs[k] = count_local_parts(q ** d, k - 1, p)
        return coeffs

    def ordinary_local(d):
        return [1, 0, q ** d - 1]

    a_series = euler_coefficients(q, local, m_max)
    b_series = euler_coefficients(q, ordinary_local, m_max)
    if include_infinity:
        # the infinity factor coincides with a degree-1 local factor
        a_series = series_multiply(local(1), a_series, m_max)
        b_series = series_multiply(ordinary_local(1), b_series, m_max)
    rows = {m: (a_series[m], b_series[m]) for m in range(2, m_max + 1)}
    return CensusTable(rows)


def census(field: FieldSpec, m_max: int, include_infinity: bool = False,
           mode: str = "analytic") -> CensusTable:
    """The census by ``mode``: "analytic", "enumerate", or "both", which runs
    the two routes and returns the analytic table, or raises
    InvariantViolation naming the first m where they differ."""
    if mode not in ("analytic", "enumerate", "both"):
        raise DomainError(f"census mode must be analytic, enumerate or both, got {mode!r}")
    route = census_enumerated if mode == "enumerate" else census_analytic
    table = route(field, m_max, include_infinity)
    if mode == "both":
        rows, other = table.rows, census_enumerated(field, m_max, include_infinity).rows
        m = next((m for m in rows if rows[m] != other[m]), None)
        if m is not None:
            raise InvariantViolation(
                f"analytic and enumerated censuses first disagree at m={m}: "
                f"(a_m, b_m) = {rows[m]} analytic vs {other[m]} enumerated")
    return table


def empirical_probability(field: FieldSpec, m_max: int,
                          include_infinity: bool = False) -> float:
    """Cumulative ordinary proportion sum b / sum a over m = 2..m_max, from
    the analytic census."""
    from .dirichlet import cumulative_ratios
    if m_max < 2:
        raise DomainError("m_max must be >= 2")
    rows = census_analytic(field, m_max, include_infinity).rows
    return list(cumulative_ratios(rows))[-1][3]


def component_count(m: int, p: int) -> int:
    """p_A(m): partitions of m into parts from {2, 3, ..., p}."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if p < 3:
        raise DomainError("component count is defined for p >= 3")
    counts = [0] * (m + 1)
    counts[0] = 1
    for part in range(2, p + 1):
        for value in range(part, m + 1):
            counts[value] += counts[value - part]
    return counts[m]
