"""Artin-Schreier covers y^p - y = f(x): representation, genus, ordinarity,
and the exact census by enumeration and by coefficient extraction from the
Euler product of local zeta factors.

The enumeration route counts whole families: the covers sharing a branch
assignment (places and pole orders) are the products of per-place pools of
local parts, and ordinarity reads only the pole orders, so each family adds
the product of its pool sizes.  A pool depends only on |Q| and the pole
order, and ``enumerate_covers`` expands the families cover by cover from the
same pools, so no residue field is built.

Branch data is stored per irreducible place, never per geometric root: the
local part at a place Q of degree d is the tuple (c_1, ..., c_{d_Q}) of
coefficients of f_alpha in x_alpha = 1/(x - alpha), alpha a fixed root of
Q, each an element of the residue field F_{q^d} given by its index: the
base-q digits of its coordinates in the power basis of alpha, lowest power
first, so 0 is zero and over F_q the index is the base-field code.  This is
the one encoding of a local part, in memory, in cover JSON and in the
oracle, whose ``polys.reconstruct`` computes with indices as elements of
F_q[t]/(Q), t standing for alpha.  Normal form: no constant term, c_j = 0
whenever p | j, and the top coefficient nonzero (so d_Q is never a multiple
of p).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import namedtuple

from .errors import DomainError, ResourceGuardError
from .fields import FieldSpec


class ASCover(namedtuple("ASCover", "field branch infinity_part", defaults=(None,))):
    """Branch data of an Artin-Schreier cover in partial-fraction normal form.

    ``branch`` is the sorted tuple of (Place, local part), one per place,
    each local part a tuple of residue-field indices; ``infinity_part`` is
    (c_1, ..., c_{d_inf}) over F_q, or None when infinity is unramified.
    """

    __slots__ = ()
    kind = "artin-schreier"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        p = self.field.p
        if not self.branch and self.infinity_part is None:
            raise DomainError("branch data must be nonempty when infinity is unramified")
        if len({place for place, _ in self.branch}) != len(self.branch):
            raise DomainError("a place occurs twice in the branch data")
        for place, coeffs in self.branch:
            _check_local_part(p, coeffs)
        if self.infinity_part is not None:
            _check_local_part(p, self.infinity_part)


def _check_local_part(p: int, coeffs):
    d = len(coeffs)
    if d == 0:
        raise DomainError("empty local part")
    if d % p == 0:
        raise DomainError("pole order must not be a multiple of p")
    if coeffs[-1] == 0:
        raise DomainError("top local coefficient must be nonzero")
    for j in range(p, d + 1, p):
        if coeffs[j - 1] != 0:
            raise DomainError(f"coefficient of index {j} must vanish (index divisible by p)")


def genus(c: ASCover) -> int:
    p = c.field.p
    total = -2 + m_invariant(c)
    g2 = (p - 1) * total
    assert g2 % 2 == 0 and g2 >= 0
    return g2 // 2


def m_invariant(c: ASCover) -> int:
    total = sum(pl.degree * (len(coeffs) + 1) for pl, coeffs in c.branch)
    if c.infinity_part is not None:
        total += len(c.infinity_part) + 1
    return total


def is_ordinary(c: ASCover) -> bool:
    """Simple-poles criterion: every local part has degree 1."""
    if any(len(coeffs) != 1 for _, coeffs in c.branch):
        return False
    return c.infinity_part is None or len(c.infinity_part) == 1


def deuring_shafarevich_p_rank(c: ASCover) -> int:
    """(p - 1)(r - 1), r the number of geometric branch points: the p-rank
    by the Deuring-Shafarevich formula."""
    r = sum(pl.degree for pl, _ in c.branch) + (c.infinity_part is not None)
    return (c.field.p - 1) * (r - 1)


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
    are taken in (degree, coefficients) order, and each node prepends its
    place to pairs chosen from the places after it.
    """
    from .polys import places_of_degree
    places = []
    for d in range(1, m // 2 + 1):
        places.extend(places_of_degree(field, d))
    degrees = [pl.degree for pl in places]
    orders = admissible_pole_orders(field.p, m)  # increasing; each node takes a prefix

    def rec(idx, remaining):
        if remaining == 0:
            yield ()
            return
        if idx == len(places):
            return
        pl, d = places[idx], degrees[idx]
        if remaining < 2 * d:  # k >= 2, and no later place has a smaller degree
            return
        yield from rec(idx + 1, remaining)
        for k in orders[:bisect_right(orders, remaining // d)]:
            for rest in rec(idx + 1, remaining - d * k):
                yield ((pl, k),) + rest
    yield from rec(0, m)


def _cover_families(field: FieldSpec, m: int, include_infinity: bool):
    """The covers with invariant m, grouped by branch assignment.

    Yields (assignment, inf_pool, local_pools): the (Place, k_Q) pairs in
    Place order, as ``_branch_assignments`` lists them, the choices of the
    infinity part (``[None]`` when infinity is unramified) and, per assigned
    place, its local parts of pole order k_Q - 1.  The covers of a family
    are the products of the pools.  Local parts are tuples of residue-field
    indices, so one pool, built and checked once per (residue-field size,
    pole order), serves every place and infinity that share it.
    """
    if m < 2:
        return
    p, q = field.p, field.q
    pools = {}

    def pool(norm, d_q):
        if (norm, d_q) not in pools:
            pools[norm, d_q] = list(_local_part_choices(p, range(norm), d_q))
            for coeffs in pools[norm, d_q]:
                _check_local_part(p, coeffs)
        return pools[norm, d_q]

    inf_orders = [None]
    if include_infinity:
        inf_orders += admissible_pole_orders(p, m)
    for k_inf in inf_orders:
        rem = m - (k_inf or 0)
        if k_inf is None and rem == 0:
            continue
        inf_pool = [None] if k_inf is None else pool(q, k_inf - 1)
        for assignment in _branch_assignments(field, rem):
            if not assignment and k_inf is None:
                continue
            local_pools = [pool(pl.norm, k - 1) for pl, k in assignment]
            yield assignment, inf_pool, local_pools


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


class CensusTable(namedtuple("CensusTable", "q p rows source")):
    """``rows`` maps m -> (a_m, b_m); ``source`` is "enumerated" or "analytic"."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        for m, (a, b) in self.rows.items():
            if not (0 <= b <= a):
                raise DomainError(f"census row m={m} violates 0 <= b <= a")

    def cumulative_ratio(self, m_max: int) -> float:
        from .dirichlet import cumulative_ratios
        steps = list(cumulative_ratios(self.rows, sorted(m for m in self.rows if m <= m_max)))
        if not steps:
            raise DomainError("empty census: zero denominator")
        return steps[-1][3]


MAX_ENUM = 2 ** 22


def census_enumerated(field: FieldSpec, m_max: int,
                      include_infinity: bool = False) -> CensusTable:
    if field.q ** m_max > MAX_ENUM:
        raise ResourceGuardError(
            f"census enumeration guard exceeded: q^m_max = {field.q}^{m_max} > {MAX_ENUM}")
    rows = {}
    for m in range(2, m_max + 1):
        a = b = 0
        for assignment, inf_pool, local_pools in _cover_families(field, m, include_infinity):
            size = len(inf_pool) * math.prod(len(pool) for pool in local_pools)
            a += size
            # ordinarity reads only the pole orders, which the family shares
            branch = tuple((pl, pool[0]) for (pl, _), pool in zip(assignment, local_pools))
            if is_ordinary(ASCover(field, branch, inf_pool[0])):
                b += size
        rows[m] = (a, b)
    return CensusTable(field.q, field.p, rows, "enumerated")


def census_analytic(field: FieldSpec, m_max: int,
                    include_infinity: bool = False) -> CensusTable:
    """Coefficients of prod_Q Z_Q (all covers) and prod_Q Z_{0,Q} (ordinary
    covers) in u = q^{-s}, where Z_Q sums the admissible local parts of a
    place by pole order and Z_{0,Q} = 1 + (|Q|-1)|Q|^{-2s}."""
    from .dirichlet import euler_coefficients, series_multiply
    q, p = field.q, field.p

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
    return CensusTable(q, p, rows, "analytic")


def empirical_probability(field: FieldSpec, m_max: int,
                          include_infinity: bool = False) -> float:
    """Cumulative ordinary proportion sum b / sum a from the analytic census."""
    if m_max < 2:
        raise DomainError("m_max must be >= 2")
    table = census_analytic(field, m_max, include_infinity)
    return table.cumulative_ratio(m_max)


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
