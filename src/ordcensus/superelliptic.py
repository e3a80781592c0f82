"""Superelliptic covers y^n = f_1 f_2^2 ... f_{n-1}^{n-1} over F_q of
characteristic 2: the kernel verifier for the fractional-part matrix, which
checks two facts of the lemma and derives the third from them, the
census counting identities and the seeded sampler of ``classify --sample``,
which draws only degree tuples that ``SECover`` accepts as curves.
The cover record ``SECover`` and its invariants are in :mod:`secover`, and
are imported here.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

from .errors import DomainError, ResourceGuardError, InvariantViolation
from .fields import FieldSpec, field_from_qp, power_exceeds, require_odd_prime
from .polys import MonicPoly, _coeffs_at, place_sieve
from .secover import (SECover, a_number, degree_symmetry_criterion, eigen_degrees,  # noqa: F401
                      genus_se, is_ordinary_se, ordinary_degree_tuple, sigma_permutation)


# ---------------------------------------------------------------------------
# Exact rational linear algebra and the kernel verifier
# ---------------------------------------------------------------------------


def matrix_rank(matrix) -> int:
    """Rank over Fraction by forward elimination: a pivot per column, and
    only the rows below it cleared."""
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / top[c]
                m[i] = [x - f * y for x, y in zip(m[i], top)]
        rank += 1
    return rank


def fractional_part_matrix(n: int):
    """A with A_ij = <ij/n>, 1 <= i, j <= n-1, exact rationals."""
    from fractions import Fraction
    return [[Fraction((i * j) % n, n) for j in range(1, n)] for i in range(1, n)]


def verify_kernel_lemma(n: int) -> bool:
    """Check the explicit kernel of the fractional-part matrix A.

    (i) A kills x^(k) = e_k + e_{n-k} - e_{(n-1)/2} - e_{(n+1)/2} for
    k = 1..(n-3)/2, and (ii) rank(A) = (n+1)/2.  Then (iii), every kernel
    vector v has v_k = v_{n-k}, follows: the x^(k) are independent, as only
    x^(k) is nonzero at k, and there are (n-3)/2 = (n-1) - rank(A) of them,
    the kernel's dimension, so they span it, and each is symmetric.
    """
    require_odd_prime(n)
    if n > 101:
        raise ResourceGuardError("kernel verification guarded at n <= 101")
    a = fractional_part_matrix(n)
    h = (n - 1) // 2  # e_h and e_{h+1} sit at indices h - 1 and h
    for k in range(1, h):
        if any(row[k - 1] + row[n - k - 1] != row[h - 1] + row[h] for row in a):
            return False
    return matrix_rank(a) == (n + 1) // 2


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

MAX_TUPLE_DEGREE = 16
# census se --q 2 --n 11 --max-m 13, just under it, takes ~5.8 s on a 2-vCPU
# Xeon VM under Python 3.11.7
MAX_TUPLE_COST = 5 * 10 ** 7


def _guard_monic_count(field: FieldSpec, m: int, what: str):
    """Raise ResourceGuardError, before any enumeration, unless the q^m monic
    polynomials of degree m number at most 2^MAX_TUPLE_DEGREE."""
    if power_exceeds(field.q, m, 2 ** MAX_TUPLE_DEGREE):
        raise ResourceGuardError(
            f"{what} guarded at q^m <= 2^{MAX_TUPLE_DEGREE}, got {field.q}^{m}")


def _guard_tuple_count(n: int, m: int, what: str):
    """Raise ResourceGuardError, before any tuple is listed, unless the
    C(m+n-2, n-2) degree tuples with sum m cost at most MAX_TUPLE_COST at
    (n-1)^2 steps each, an upper bound on an ordinarity test's (n-1)(m+1)."""
    cost = math.comb(m + n - 2, n - 2) * (n - 1) ** 2
    if cost > MAX_TUPLE_COST:
        raise ResourceGuardError(f"{what} guarded at C(m+n-2, n-2) (n-1)^2 <= "
                                 f"{MAX_TUPLE_COST:,}, got {cost:,} at n = {n}, m = {m}")


def _tuple_family_positions(field: FieldSpec, e: tuple):
    """The tuples of F_e (e nonempty) as sieve positions, parts in the order
    of e: squarefree parts whose place sets are pairwise disjoint, i.e. which
    are pairwise coprime.  A part of degree 0 is 1, at position 0."""
    _guard_monic_count(field, sum(e), "tuple family enumeration")
    live = [j for j, d in enumerate(e) if d]
    pools = [[(i, s) for i, s in enumerate(place_sieve(field, e[j])[1]) if s] for j in live]
    out = [0] * len(e)
    last = len(live) - 1

    def rec(idx, used):
        for i, s in pools[idx]:
            if used.isdisjoint(s):
                out[live[idx]] = i
                if idx == last:
                    yield tuple(out)
                else:
                    yield from rec(idx + 1, used.union(s))
    yield from rec(0, frozenset()) if live else [tuple(out)]


def enumerate_tuple_family(field: FieldSpec, e: tuple):
    """All tuples of monic squarefree pairwise-coprime polys of degrees e,
    parts in the order of e, each part read off its sieve position."""
    for positions in _tuple_family_positions(field, e):
        yield tuple(MonicPoly(field, _coeffs_at(i, field.q, d)) for d, i in zip(e, positions))


def count_tuple_family(field: FieldSpec, e: tuple) -> int:
    """|F_{e_1, ..., e_r}|: squarefree pairwise-coprime tuples of given degrees.

    Permuting the parts maps F_e onto F_{sigma e}, so one enumeration of the
    sorted degree tuple, ``_family_size``, serves every order of e.
    """
    return _family_size(field, tuple(sorted(e)))


@cache
def _family_size(field: FieldSpec, sorted_e: tuple) -> int:
    return sum(1 for _ in _tuple_family_positions(field, sorted_e))


def degree_tuples(n: int, m: int):
    """All (e_1, ..., e_{n-1}) of non-negative integers with sum m, in
    lexicographic order: stars and bars, with n - 2 bars among m + n - 2 slots."""
    for bars in itertools.combinations(range(m + n - 2), n - 2):
        ends = (-1,) + bars + (m + n - 2,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def enumerate_se_covers(field: FieldSpec, n: int, m: int):
    """All SECover with sum deg(f_i) = m, in degree-tuple order; none at
    m = 0, where y^n = 1 is not a curve."""
    if m == 0:
        return
    for e in degree_tuples(n, m):
        for parts in enumerate_tuple_family(field, e):
            yield SECover(field, n, parts)


def census_a_omega(field: FieldSpec, n: int, m: int) -> int:
    """Route (ii): a(m) = sum over squarefree monic H of degree m of
    (n-1)^omega(H), with omega read from the place sieve."""
    if m == 0:
        return 1
    return sum((n - 1) ** len(s) for s in place_sieve(field, m)[1] if s)


def census_a_euler(field: FieldSpec, n: int, m_max: int) -> list:
    """Route (iii): coefficients of prod_Q (1 + (n-1)|Q|^{-s}) up to order
    m_max, from the place counts ``count_irreducibles`` alone."""
    from .dirichlet import euler_coefficients
    return euler_coefficients(field.q, lambda d: [1, n - 1], m_max)


def census_se(field: FieldSpec, n: int, m_max: int):
    """Exact (a(m), b(m)) for m <= m_max, with the three a-routes compared.

    Returns a dict m -> (a_m, b_m).  a(m) comes from the tuple families
    (route i), the omega sum over squarefree H (route ii) and the Euler
    product (route iii); InvariantViolation if they disagree.  One walk over
    the degree tuples e sums |F_e| into route (i) and, for the ordinary e,
    into b(m).  Routes (i) and (ii) enumerate all q^m monic polynomials, and
    (i) every degree tuple, so q^m_max and the tuples at m_max are guarded.
    """
    require_odd_prime(n)
    _guard_monic_count(field, m_max, "census_se")
    _guard_tuple_count(n, m_max, "census_se")
    euler = census_a_euler(field, n, m_max)
    rows = {}
    for m in range(0, m_max + 1):
        a_i = b = 0
        for e in degree_tuples(n, m):
            count = count_tuple_family(field, e)
            a_i += count
            if count and ordinary_degree_tuple(n, e):
                b += count
        a_ii = census_a_omega(field, n, m)
        a_iii = euler[m]
        if not a_i == a_ii == a_iii:
            raise InvariantViolation(
                f"census routes disagree at m={m}: {a_i}, {a_ii}, {a_iii}")
        rows[m] = (a_i, b)
    return rows


def ordinary_ratio_se(field: FieldSpec, n: int, m_max: int) -> list:
    """Cumulative ordinary proportion [(m, sum b / sum a)] for m = 2..m_max."""
    from .dirichlet import cumulative_ratios
    rows = census_se(field, n, m_max)
    return [(m, ratio) for m, _, _, ratio in cumulative_ratios(rows, range(m_max + 1))
            if m >= 2]


@cache
def _sample_tuples(field: FieldSpec, n: int, m: int) -> tuple:
    """The degree tuples with sum m of the covers ``random_se_cover`` draws,
    in order: not all 0 (y^n = 1 is not a curve) and with a nonempty family.
    The arguments and the guards are checked first, once per (field, n, m)
    like the list.  A family is empty or not with its sorted tuple, so each
    sorted tuple is asked once, and any() stops at its first member."""
    require_odd_prime(n)
    if m < 0:
        raise DomainError("the degree sum m must be >= 0")
    _guard_monic_count(field, m, "random cover")
    _guard_tuple_count(n, m, "random cover")

    @cache
    def nonempty(sorted_e):
        return any(_tuple_family_positions(field, sorted_e))
    tuples = tuple(e for e in degree_tuples(n, m) if any(e) and nonempty(tuple(sorted(e))))
    if not tuples:
        raise DomainError(f"no admissible degree tuples with sum {m}")
    return tuples


def random_se_cover(field: FieldSpec, n: int, m: int, rng) -> SECover:
    """A uniformly-chosen degree tuple of ``_sample_tuples``, then
    rejection-sampled squarefree pairwise-coprime monic parts of those degrees."""
    e = rng.choice(_sample_tuples(field, n, m))
    while True:
        parts = []
        for d in e:
            cs = tuple(rng.randrange(field.q) for _ in range(d))
            parts.append(MonicPoly(field, cs))
        try:
            return SECover(field, n, tuple(parts))
        except DomainError:
            continue


# a sampled cover is charged (n-1)^2 + 400 steps of ~0.4 us to draw and classify:
# an upper bound, as its eigenspace sums take (n-1)(k+1) steps for k non-constant parts
MAX_SAMPLE_COST = 25 * 10 ** 6


def sample_covers(count: int, q: int = 2, n: int = 3, max_m: int = 4, seed: int = 0) -> list:
    """``count`` covers over F_q of degree sum ``max_m``, each drawn by
    ``random_se_cover`` from one ``random.Random(seed)``.  The arguments are
    checked, and the sample's cost guarded, before the first draw."""
    if count < 0:
        raise DomainError("--sample must be >= 0")
    import random
    field = field_from_qp(q, 2)
    require_odd_prime(n)  # checked here too, as a sample of 0 draws nothing
    if max_m < 0:
        raise DomainError("--max-m must be >= 0")
    if count * ((n - 1) ** 2 + 400) > MAX_SAMPLE_COST:
        raise ResourceGuardError(f"classify --sample guarded at N ((n-1)^2 + 400) <= "
                                 f"{MAX_SAMPLE_COST:,}, got N = {count}, n = {n}")
    rng = random.Random(seed)
    return [random_se_cover(field, n, max_m, rng) for _ in range(count)]


def bdfl_ratio_report(field: FieldSpec, e1: int, e2: int) -> float:
    """|F_{e1,e2}| zeta(2)^2 / (L_1 q^{e1+e2}): near 1 for large q (report only)."""
    from .dirichlet import l_constant, working_context, zeta_affine
    q = field.q
    count = count_tuple_family(field, (e1, e2))
    with working_context():
        z2 = zeta_affine(q, 2)
        l1 = l_constant(3, q).value
        return float(count * z2 ** 2 / (l1 * q ** (e1 + e2)))


def tuple_weight_sum(q: int, r: int, m_max: int) -> int:
    """sum over tuples (e_1..e_r) with sum <= m_max of q^{sum e_i}."""
    return sum(math.comb(m + r - 1, r - 1) * q ** m for m in range(m_max + 1))


def growth_bound_holds(q: int, r: int, x_log_max: int, margin: float = 1.1) -> bool:
    """Check sum_{q^{e_1+..+e_r}<X} q^{sum e} <= margin * D_r * X * log_q(X)^{r-1}.

    D_r = (2r)^{r-1}/(r-1)!; X runs over powers q^j, j = r..x_log_max.
    """
    d_r = (2 * r) ** (r - 1) / math.factorial(r - 1)
    for j in range(r, x_log_max + 1):
        x = q ** j  # strict inequality q^m < X means m <= j-1
        lhs = tuple_weight_sum(q, r, j - 1)
        rhs = margin * d_r * x * j ** (r - 1)
        if lhs > rhs:
            return False
    return True
