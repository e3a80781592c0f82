"""Independent p-rank oracle: exact point counts over F_{q^k}, the
L-polynomial via Newton's identities and the functional equation, and the
p-rank as the degree of L mod p.  Newton's identities are those of
:mod:`fields`, which the Euler products of :mod:`dirichlet` also run.

Each F_{q^k} swept is ``fields.extension``, the field ``FieldSpec(p, n)``
of order q^k = p^n, and the cover's coefficients are lifted through its
images of F_q.  An Artin-Schreier cover's f is put over one denominator,
f = N/D, by ``polys.reconstruct``, which sums the cover's local parts as
they are, residue-field indices, over F_q, once per cover; each sweep lifts
N and D to its F_{q^k}.  As f has coefficients in F_q, f(x^q) = f(x)^q, so
x and x^q give the same trace of f(x), and the same n-th-power status of
prod f_i(x)^i: a sweep evaluates at one x per orbit of x -> x^q, from
``fields.frobenius_orbits``, and counts it once per element of the orbit.
Besides the field arithmetic, putting the local parts over one denominator
is all the counting code shares with the combinatorial classification it
checks; disagreement means a real bug.
Each cover loads only the module of its own kind.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from types import SimpleNamespace

from .errors import DomainError, ResourceGuardError, InvariantViolation
from ._polyarith import evaluate
from .fields import (MAX_Q, FieldSpec, extension, frobenius_orbits, from_log_derivative,
                     log_derivative)
from .polys import reconstruct

MAX_GENUS = 6


class PointCounts(namedtuple("PointCounts", "q genus counts")):
    """``counts`` is (N_1, ..., N_k_max)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        for k, n_k in enumerate(self.counts, start=1):
            if abs(n_k - (self.q ** k + 1)) ** 2 > 4 * self.genus ** 2 * self.q ** k:
                raise InvariantViolation(
                    f"Weil bound violated: N_{k} = {n_k}, q = {self.q}, g = {self.genus}")


class LPolynomial(namedtuple("LPolynomial", "q genus coeffs")):
    """``coeffs`` is (a_0, ..., a_{2g}), exact integers with a_0 = 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        g, q = self.genus, self.q
        if len(self.coeffs) != 2 * g + 1 or self.coeffs[0] != 1:
            raise DomainError("L-polynomial must have a_0 = 1 and degree 2g")
        for i in range(g + 1):
            if self.coeffs[2 * g - i] != q ** (g - i) * self.coeffs[i]:
                raise InvariantViolation("functional equation fails")
        if sum(self.coeffs) <= 0:
            raise InvariantViolation("L(1) = #Jac must be positive")


def extension_field(field: FieldSpec, k: int) -> SimpleNamespace:
    """F_{q^k} as ``perfbench/layers.py`` reads it: its ``size``, and the
    ``mul`` and ``add`` of ``fields.extension(field, k)``, the field the
    sweeps run in.  Its ``from_index`` is the identity on codes, so an index
    below ``size`` is an element.  No sweep uses it; it goes when those layer
    rows time ``fields.extension`` directly."""
    E = extension(field, k)[0]
    return SimpleNamespace(size=E.q, mul=E.mul, add=E.add, from_index=lambda n: n)


def _guard(field: FieldSpec, g: int, k: int):
    if g > MAX_GENUS:
        raise ResourceGuardError(f"oracle guarded at genus <= {MAX_GENUS}, got {g}")
    if field.q ** k > MAX_Q:
        raise ResourceGuardError(f"point-count sweep q^k = {field.q}^{k} exceeds {MAX_Q}")


@cache
def _fraction(c) -> tuple:
    """f = N/D over F_q for the ASCover c, as raw tuples (N, D), built once
    per cover and lifted to each F_{q^k} swept."""
    # the polynomial part sum c_j x^j (no constant term) is the pole at infinity
    inf = () if c.infinity_part is None else (0,) + c.infinity_part
    return reconstruct(c.field, inf, c.branch)


def count_points_as(c, k: int) -> int:
    """Points over F_{q^k} of the smooth projective model of the ASCover
    y^p - y = f: p for each x where Tr f(x) = 0, one evaluation per
    Frobenius orbit weighted by its size."""
    from .artin_schreier import genus
    field = c.field
    p = field.p
    _guard(field, genus(c), k)
    E, embed = extension(field, k)
    num, den = ([embed[a] for a in f] for f in _fraction(c))
    total = 0
    for x, size in frobenius_orbits(E, field.q):
        dv = evaluate(E, den, x)
        # D(x) = 0 at the poles, counted place by place below
        if dv and E.trace(E.mul(evaluate(E, num, x), E.inv(dv))) == 0:
            total += p * size
    # each pole place is totally ramified: one point per root in F_{q^k}
    for pl, _ in c.branch:
        if k % pl.degree == 0:
            total += pl.degree
    total += 1 if c.infinity_part is not None else p
    return total


def count_points_se(c, k: int) -> int:
    """Points over F_{q^k} of the smooth projective model of the SECover
    y^n = prod f_i^i: 1, 0 or n above each x, one evaluation per Frobenius
    orbit weighted by its size."""
    from .superelliptic import genus_se
    field = c.field
    n = c.n
    _guard(field, genus_se(c), k)
    E, embed = extension(field, k)
    # v = prod f_i(x)^i is an n-th power iff n | log v, when n | q^k - 1
    split = (E.q - 1) % n == 0
    parts = [([embed[a] for a in f.full], i) for i, f in enumerate(c.parts, 1) if f.degree]
    total = 0
    for x, size in frobenius_orbits(E, field.q):
        log_v = 0
        for raw, i in parts:
            fv = evaluate(E, raw, x)
            if fv == 0:
                total += size  # totally ramified (gcd(n, i) = 1 for prime n)
                break
            log_v += i * E.log(fv)
        else:
            if not split:
                total += size  # n-th power map is a bijection
            elif log_v % n == 0:
                total += n * size
    if c.epsilon:
        total += 1
    else:
        total += n if split else 1  # leading value 1 is always an n-th power
    return total


def l_polynomial(counts: PointCounts) -> LPolynomial:
    """Recover L from N_1..N_g and the functional equation: T L'/L =
    sum_k (N_k - q^k - 1) T^k, inverted by ``fields.from_log_derivative``."""
    g, q = counts.genus, counts.q
    if len(counts.counts) < g:
        raise DomainError(f"need at least N_1..N_{g}")
    w = [0] + [n_k - q ** k - 1 for k, n_k in enumerate(counts.counts[:g], 1)]
    coeffs = from_log_derivative(w, g, "a")
    coeffs += [q ** (g - i) * coeffs[i] for i in range(g - 1, -1, -1)]
    return LPolynomial(q, g, tuple(coeffs))


def counts_from_l(l_poly: LPolynomial, k_max: int) -> tuple:
    """N_1..N_{k_max} implied by L: N_k = q^k + 1 + r_k for r = T L'/L,
    ``fields.log_derivative``."""
    r = log_derivative(l_poly.coeffs, k_max)
    return tuple(l_poly.q ** k + 1 + r[k] for k in range(1, k_max + 1))


def p_rank(l_poly: LPolynomial, p: int) -> int:
    reduced = [c % p for c in l_poly.coeffs]
    deg = max(i for i, c in enumerate(reduced) if c != 0)
    if deg > l_poly.genus:
        raise InvariantViolation(f"deg(L mod {p}) = {deg} exceeds the genus {l_poly.genus}")
    return deg


class OracleReport(namedtuple("OracleReport", "kind genus counts l_coeffs p_rank "
                                               "ordinary_by_criterion agree detail")):
    """``kind`` is "artin-schreier" or "superelliptic"."""

    __slots__ = ()


def _count_fn(c):
    """The sweep, genus, criterion and kind of a cover, importing only the
    module of its kind."""
    kind = getattr(type(c), "kind", None)
    if kind == "artin-schreier":
        from .artin_schreier import genus, is_ordinary
        return count_points_as, genus(c), is_ordinary(c), kind
    if kind == "superelliptic":
        from .superelliptic import genus_se, is_ordinary_se
        return count_points_se, genus_se(c), is_ordinary_se(c), kind
    raise DomainError(f"not a cover: {c!r}")


def cross_validate(c) -> OracleReport:
    """Compare the combinatorial ordinarity criterion against the p-rank.

    Counts N_1..N_{2g}, reconstructs L from the first g, checks that L
    reproduces all 2g counts (functional-equation closure; a problem names
    the first k that differs), and asserts is_ordinary(c) == (p_rank == g).
    Artin-Schreier covers additionally assert the Deuring-Shafarevich
    p-rank, superelliptic covers a_number(c) == 0 iff p_rank == g.
    """
    count, g, ordinary, kind = _count_fn(c)
    _guard(c.field, g, 2 * g)  # the largest sweep, checked before the first
    p = c.field.p
    counts = PointCounts(c.field.q, g, tuple(count(c, k) for k in range(1, 2 * g + 1)))
    l_poly = l_polynomial(counts)
    problems = []
    implied = counts_from_l(l_poly, 2 * g)
    if implied != counts.counts:
        k = next(k for k in range(1, 2 * g + 1) if implied[k - 1] != counts.counts[k - 1])
        problems.append(f"L-polynomial does not reproduce the point counts: "
                        f"N_{k} = {counts.counts[k - 1]} but L gives {implied[k - 1]}")
    rank = p_rank(l_poly, p)
    if ordinary != (rank == g):
        problems.append(
            f"criterion says ordinary={ordinary} but p-rank is {rank} of genus {g}")
    if kind == "artin-schreier":
        from .artin_schreier import deuring_shafarevich_p_rank
        expected = deuring_shafarevich_p_rank(c)
        if rank != expected:
            problems.append(f"p-rank {rank} differs from Deuring-Shafarevich's {expected}")
    if kind == "superelliptic":
        from .superelliptic import a_number
        a = a_number(c)
        if (a == 0) != (rank == g):
            problems.append(f"a-number {a} inconsistent with p-rank {rank} of genus {g}")
    return OracleReport(kind, g, counts.counts, l_poly.coeffs, rank, ordinary,
                        not problems, "; ".join(problems))


def assert_agreement(c) -> OracleReport:
    """cross_validate, raising InvariantViolation with the cover JSON on failure."""
    report = cross_validate(c)
    if not report.agree:
        import json
        from .serialize import cover_to_dict
        raise InvariantViolation(f"oracle disagreement: {report.detail}; "
                                 f"cover = {json.dumps(cover_to_dict(c))}")
    return report
