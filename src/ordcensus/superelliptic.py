"""Superelliptic covers y^n = f_1 f_2^2 ... f_{n-1}^{n-1} over F_q of
characteristic 2: genus, eigenspace dimensions, a-number and the
degree-symmetry ordinarity criterion, each read in O(n) from the nonzero
degrees of the parts, the kernel verifier for the fractional-part matrix,
and the census counting identities.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import cache

from .errors import DomainError, ResourceGuardError, InvariantViolation
from .fields import FieldSpec, require_odd_prime
from .polys import MonicPoly, enumerate_monic, gcd_monic, is_squarefree, place_sieve


class SECover(namedtuple("SECover", "field n parts")):
    """A cover y^n = prod f_i^i with squarefree pairwise-coprime monic parts.

    ``parts`` is (f_1, ..., f_{n-1}), a MonicPoly each (constant 1 allowed).
    """

    __slots__ = ()
    kind = "superelliptic"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        require_odd_prime(self.n)
        if self.field.p == self.n:
            raise DomainError("n must be coprime to the characteristic")
        if len(self.parts) != self.n - 1:
            raise DomainError(f"expected {self.n - 1} parts")
        live = [f for f in self.parts if f.degree > 0]  # a constant part is 1
        for f in live:
            if not is_squarefree(f):
                raise DomainError(f"part {f} is not squarefree")
        for f, g in itertools.combinations(live, 2):
            if gcd_monic(f, g).degree > 0:
                raise DomainError("parts are not pairwise coprime")

    @property
    def degrees(self) -> tuple:
        return tuple(f.degree for f in self.parts)

    @property
    def weighted_degree(self) -> int:
        """N = sum i deg(f_i)."""
        return sum(i * f.degree for i, f in enumerate(self.parts, start=1))

    @property
    def n_infinity(self) -> int:
        return _n_infinity(self.n, self.degrees)

    @property
    def epsilon(self) -> int:
        return 0 if self.n_infinity == 0 else 1

    @property
    def branch_count(self) -> int:
        """Number of branch points of the cover (the census invariant m)."""
        return sum(self.degrees) + self.epsilon


def _n_infinity(n: int, degs: tuple) -> int:
    """n_inf = (-sum i deg f_i) mod n, 0 when infinity is unramified."""
    return (-sum(i * d for i, d in enumerate(degs, start=1))) % n


def _branch_exponents(n: int, degs: tuple) -> dict:
    """{j: x_j} over the nonzero x_j, x the degrees plus 1 at j = n_inf: the
    x_j geometric branch points where F has order j mod n."""
    x = {j: d for j, d in enumerate(degs, start=1) if d}
    n_inf = _n_infinity(n, degs)
    if n_inf:
        x[n_inf] = x.get(n_inf, 0) + 1
    return x


def _eigen_sums(n: int, degs: tuple) -> list:
    """[n (d_i + 1) for i = 1..n-1], each sum_j x_j ((i j) mod n) over the nonzero x_j."""
    x = _branch_exponents(n, degs)
    return [sum(xj * (i * j % n) for j, xj in x.items()) for i in range(1, n)]


def genus_se(c: SECover) -> int:
    """Genus, computed from both ramification formulas and cross-checked."""
    n = c.n
    x = _branch_exponents(n, c.degrees)
    m = sum(x.values())  # the branch count
    if m < 2:
        raise DomainError("the equation does not define a curve (fewer than 2 branch points)")
    # general form: -n+1 + (1/2) sum_j x_j (n - gcd(n, j))
    twice = -2 * (n - 1) + sum(xj * (n - math.gcd(n, j)) for j, xj in x.items())
    if twice % 2 != 0:
        raise InvariantViolation("ramification genus formula gave a half-integer")
    g_general = twice // 2
    g_prime = (n - 1) * (m - 2) // 2
    if g_general != g_prime:
        raise InvariantViolation(
            f"genus formulas disagree: {g_general} vs {g_prime} for degrees {c.degrees}")
    if g_prime < 0:
        raise InvariantViolation("negative genus")
    return g_prime


class EigenDegrees(namedtuple("EigenDegrees", "d")):
    """``d`` is (d_1, ..., d_{n-1})."""

    __slots__ = ()


def eigen_degrees(c: SECover) -> EigenDegrees:
    """Dimensions of the mu_n-eigenspaces of the regular differentials."""
    n = c.n
    if c.branch_count < 2:
        raise DomainError("eigenspace dimensions require at least 2 branch points")
    out = []
    for s in _eigen_sums(n, c.degrees):
        total = s - n
        if total % n:
            raise InvariantViolation(f"eigenspace dimension is not an integer: {total}/{n}")
        if total < 0:
            raise InvariantViolation(f"negative eigenspace dimension: {total // n}")
        out.append(total // n)
    if sum(out) != genus_se(c):
        raise InvariantViolation("eigenspace dimensions do not sum to the genus")
    return EigenDegrees(tuple(out))


def sigma_permutation(n: int, p: int) -> dict:
    """The permutation with p*sigma(i) = i mod n, on {1, ..., n-1}."""
    if math.gcd(n, p) != 1:
        raise DomainError("p must be invertible mod n")
    p_inv = pow(p, -1, n)
    return {i: (i * p_inv) % n for i in range(1, n)}


def a_number(c: SECover) -> int:
    """g - sum_i min(d_i, d_{sigma(i)}), via the Cartier-rank bound."""
    if c.field.p != 2:
        raise DomainError("the a-number formula here is specific to characteristic 2")
    d = eigen_degrees(c).d
    g = sum(d)  # eigen_degrees checks it against genus_se
    sigma = sigma_permutation(c.n, 2)
    rank = sum(min(d[i - 1], d[sigma[i] - 1]) for i in range(1, c.n))
    a = g - rank
    if a < 0:
        raise InvariantViolation("negative a-number")
    return a


def ordinary_degree_tuple(n: int, degs: tuple) -> bool:
    """Combinatorial ordinarity criterion on (deg f_1, ..., deg f_{n-1}), p = 2.

    Ordinary iff the eigenspace dimensions d_i are constant on the orbits of
    sigma (i -> i/2 mod n).  When 2 generates (Z/nZ)^* -- in particular for
    n = 3 and n = 5 -- sigma is a single cycle and this reduces to the
    degree-symmetry condition of :func:`degree_symmetry_criterion`; for
    n = 7 the symmetric condition is strictly weaker (see that function).
    """
    d = _eigen_sums(n, degs)
    sigma = sigma_permutation(n, 2)
    return all(d[i - 1] == d[sigma[i] - 1] for i in range(1, n))


def degree_symmetry_criterion(n: int, degs: tuple) -> bool:
    """The plain degree-symmetry condition: deg f_i = deg f_{n-i} (n_inf = 0)
    or deg f_i + 1 = deg f_{n-i} at i = n_inf with the rest symmetric.

    Sufficient for ordinarity for every odd prime n, and equivalent to it
    exactly when 2 is a primitive root mod n; y^7 = x^3 (x+1)^6 over F_2 is
    ordinary (p-rank 3 = g, by point counting) without being symmetric.
    """
    x = _branch_exponents(n, degs)  # the condition is x_j = x_{n-j} for every j
    return all(x.get(n - j) == xj for j, xj in x.items())


def is_ordinary_se(c: SECover) -> bool:
    return ordinary_degree_tuple(c.n, c.degrees)


# ---------------------------------------------------------------------------
# Exact rational linear algebra and the kernel verifier
# ---------------------------------------------------------------------------


def rref(matrix):
    """Reduced row echelon form over Fraction; returns (rref, pivot columns)."""
    from fractions import Fraction
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def matrix_rank(matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix):
    """Basis of the right kernel over Fraction, scaled to integer vectors."""
    from fractions import Fraction
    red, pivots = rref(matrix)
    cols = len(matrix[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        denom = math.lcm(*[x.denominator for x in v])
        basis.append([int(x * denom) for x in v])
    return basis


def fractional_part_matrix(n: int):
    """A with A_ij = <ij/n>, 1 <= i, j <= n-1, exact rationals."""
    from fractions import Fraction
    return [[Fraction((i * j) % n, n) for j in range(1, n)] for i in range(1, n)]


def verify_kernel_lemma(n: int) -> bool:
    """Check the explicit kernel of the fractional-part matrix.

    (i) the stated vectors x^(k) are killed by A, (ii) rank(A) = (n+1)/2,
    (iii) every kernel basis vector v satisfies v_k = v_{n-k}.
    """
    require_odd_prime(n)
    if n > 101:
        raise ResourceGuardError("kernel verification guarded at n <= 101")
    a = fractional_part_matrix(n)
    dim = n - 1
    for k in range(1, (n - 3) // 2 + 1):
        x = [0] * dim
        x[k - 1] += 1
        x[n - k - 1] += 1
        x[(n - 1) // 2 - 1] -= 1
        x[(n + 1) // 2 - 1] -= 1
        for row in a:
            if sum(ri * xi for ri, xi in zip(row, x)) != 0:
                return False
    if matrix_rank(a) != (n + 1) // 2:
        return False
    for v in kernel_basis(a):
        for k in range(1, n):
            if v[k - 1] != v[n - k - 1]:
                return False
    return True


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

MAX_TUPLE_DEGREE = 16
MAX_TUPLE_COST = 5 * 10 ** 7  # census se --q 2 --n 11 --max-m 13, just under it, takes ~30 s


def _guard_monic_count(field: FieldSpec, m: int, what: str):
    """Raise ResourceGuardError, before any enumeration, unless the q^m monic
    polynomials of degree m number at most 2^MAX_TUPLE_DEGREE."""
    if field.q ** m > 2 ** MAX_TUPLE_DEGREE:
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
    parts in the order of e."""
    _guard_monic_count(field, sum(e), "tuple family enumeration")
    monics = {d: tuple(enumerate_monic(field, d)) for d in set(e)}
    for positions in _tuple_family_positions(field, e):
        yield tuple(monics[d][i] for d, i in zip(e, positions))


_TUPLE_FAMILY_CACHE: dict = {}


def count_tuple_family(field: FieldSpec, e: tuple) -> int:
    """|F_{e_1, ..., e_r}|: squarefree pairwise-coprime tuples of given degrees.

    Permuting the parts maps F_e onto F_{sigma e}, so one enumeration of the
    sorted degree tuple serves every order of e.
    """
    key = (field, tuple(sorted(e)))
    if key not in _TUPLE_FAMILY_CACHE:
        _TUPLE_FAMILY_CACHE[key] = sum(1 for _ in _tuple_family_positions(field, key[1]))
    return _TUPLE_FAMILY_CACHE[key]


def degree_tuples(n: int, m: int):
    """All (e_1, ..., e_{n-1}) of non-negative integers with sum m, in
    lexicographic order: stars and bars, with n - 2 bars among m + n - 2 slots."""
    for bars in itertools.combinations(range(m + n - 2), n - 2):
        ends = (-1,) + bars + (m + n - 2,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def enumerate_se_covers(field: FieldSpec, n: int, m: int):
    """All SECover with sum deg(f_i) = m, in degree-tuple order."""
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
    """The degree tuples with sum m and a nonempty family, in order; any()
    stops at a family's first member (a nonempty tuple of positions)."""
    return tuple(e for e in degree_tuples(n, m) if any(_tuple_family_positions(field, e)))


def random_se_cover(field: FieldSpec, n: int, m: int, rng) -> SECover:
    """A uniformly-chosen degree tuple with sum m, then rejection-sampled
    squarefree pairwise-coprime monic parts of those degrees.  The tuples
    with a nonempty family, each kept at the first member of its family, are
    listed once per (field, n, m)."""
    require_odd_prime(n)
    _guard_monic_count(field, m, "random cover")
    _guard_tuple_count(n, m, "random cover")
    tuples = _sample_tuples(field, n, m)
    if not tuples:
        raise DomainError(f"no admissible degree tuples with sum {m}")
    e = rng.choice(tuples)
    while True:
        parts = []
        for d in e:
            cs = tuple(rng.randrange(field.q) for _ in range(d))
            parts.append(MonicPoly(field, cs))
        try:
            return SECover(field, n, tuple(parts))
        except DomainError:
            continue


def bdfl_ratio_report(field: FieldSpec, e1: int, e2: int) -> float:
    """|F_{e1,e2}| zeta(2)^2 / (L_1 q^{e1+e2}): near 1 for large q (report only)."""
    from mpmath import mp
    from .dirichlet import WORKING_DPS, l_constant, zeta_affine
    q = field.q
    count = count_tuple_family(field, (e1, e2))
    with mp.workdps(WORKING_DPS):
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
