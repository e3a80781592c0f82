"""Independent p-rank oracle: exact point counts over F_{q^k}, the
L-polynomial via Newton's identities and the functional equation, and the
p-rank as the degree of L mod p.  Newton's identities are those of
:mod:`fields`, which the Euler products of :mod:`dirichlet` also run.

Both counts run one walk, ``_orbit_values``, over F_{q^k} = ``fields.extension``,
the field ``FieldSpec(p, n)`` of order p^n, with the cover's polynomials lifted
through its images of F_q: the parts f_i of a superelliptic cover, or N and D of
an Artin-Schreier cover's f = N/D, put over one denominator by ``polys.reconstruct``
once per cover.  With coefficients in F_q, x and x^q give the same trace of f(x),
n-th-power status of prod f_i(x)^i and zeros, so the walk evaluates at one x per
orbit, as ``fields.frobenius_orbits`` lists them with their sizes, and each count
applies its rule once per element.  The poles are orbits too: a place of degree
d has its d roots, one orbit, in F_{q^k} exactly when d | k.  A superelliptic
count walks only where n | q^k - 1; at any other k it is q^k + 1, read off with
no field built.
Besides the field arithmetic, putting the local parts over one denominator
is all the counting code shares with the combinatorial classification it
checks; disagreement means a real bug.
Each cover loads only the record module of its own kind, ``ascover`` or
``secover``, and never a census module.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import mul
from types import SimpleNamespace

from .errors import Checked, DomainError, ResourceGuardError, InvariantViolation
from ._polyarith import evaluate
from .fields import (MAX_Q, FieldSpec, extension, frobenius_orbits, from_log_derivative,
                     log_derivative, power_exceeds)
from .polys import reconstruct


class PointCounts(Checked, namedtuple("PointCounts", "q genus counts")):
    """``counts`` is (N_1, ..., N_k_max)."""

    __slots__ = ()

    def _check(self):
        for k, n_k in enumerate(self.counts, start=1):
            if abs(n_k - (self.q ** k + 1)) ** 2 > 4 * self.genus ** 2 * self.q ** k:
                raise InvariantViolation(
                    f"Weil bound violated: N_{k} = {n_k}, q = {self.q}, g = {self.genus}")


class LPolynomial(Checked, namedtuple("LPolynomial", "q genus coeffs")):
    """``coeffs`` is (a_0, ..., a_{2g}), exact integers with a_0 = 1."""

    __slots__ = ()

    def _check(self):
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


def _guard(field: FieldSpec, k: int):
    """The oracle's one limit: a sweep over F_{q^k} visits q^k elements."""
    if power_exceeds(field.q, k, MAX_Q):
        raise ResourceGuardError(f"point-count sweep q^k = {field.q}^{k} exceeds {MAX_Q}")


@cache
def _fraction(c) -> tuple:
    """f = N/D over F_q for the ASCover c, as raw tuples (N, D), built once
    per cover and lifted to each F_{q^k} swept."""
    # the polynomial part sum c_j x^j (no constant term) is the pole at infinity
    inf = () if c.infinity_part is None else (0,) + c.infinity_part
    return reconstruct(c.field, inf, c.branch)


def _orbit_values(field: FieldSpec, k: int, polys) -> tuple:
    """The sweep over F_{q^k}, after ``_guard``: E = ``fields.extension(field, k)``
    and an iterator of (orbit size, value of each of ``polys`` at x) for one x per
    Frobenius orbit of E; ``polys`` are raw tuples over F_q, lifted to E once."""
    _guard(field, k)
    E, embed = extension(field, k)
    xs, sizes = frobenius_orbits(E, field.q)
    lifted = ([embed[a] for a in f] for f in polys)
    return E, zip(sizes, *([evaluate(E, f, x) for x in xs] for f in lifted))


def count_points_as(c, k: int) -> int:
    """Points over F_{q^k} of the smooth projective model of the ASCover
    y^p - y = f, f = N/D: one above each pole, a root of D, where the cover
    is totally ramified, and p above each other x with Tr f(x) = 0."""
    p = c.field.p
    E, walk = _orbit_values(c.field, k, _fraction(c))
    total = 1 if c.infinity_part is not None else p
    for size, nv, dv in walk:
        if not dv:
            total += size
        elif E.trace(E.mul(nv, E.inv(dv))) == 0:
            total += p * size
    return total


def count_points_se(c, k: int) -> int:
    """Points over F_{q^k} of the smooth projective model of the SECover
    y^n = v = prod f_i^i.  If n does not divide q^k - 1, y -> y^n permutes
    F_{q^k}, so one point lies above each x and above infinity: N_k = q^k + 1,
    with no field built.  Else one above each root of v (totally ramified, as
    gcd(n, i) = 1 for prime n), n above each other x where n | log v(x), and
    none elsewhere."""
    n, q = c.n, c.field.q
    if pow(q, k, n) != 1:
        return q ** k + 1
    exps = [i for i, f in enumerate(c.parts, 1) if f.degree]
    E, walk = _orbit_values(c.field, k, [c.parts[i - 1].full for i in exps])
    # above infinity: the leading value 1 is always an n-th power
    total = 1 if c.epsilon else n
    for size, *values in walk:
        if 0 in values:
            total += size
        elif sum(map(mul, exps, map(E.log, values))) % n == 0:
            total += n * size
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

    def to_dict(self) -> dict:
        """The report as ``oracle`` prints it; ``detail`` only on disagreement."""
        data = {"kind": self.kind, "genus": self.genus, "N_k": list(self.counts),
                "L": list(self.l_coeffs), "p_rank": self.p_rank,
                "ordinary_by_criterion": self.ordinary_by_criterion, "agree": self.agree}
        if not self.agree:
            data["detail"] = self.detail
        return data


def _count_fn(c):
    """The sweep, genus, criterion and kind of a cover, importing only the
    record module of its kind."""
    kind = getattr(type(c), "kind", None)
    if kind == "artin-schreier":
        from .ascover import genus, is_ordinary
        return count_points_as, genus(c), is_ordinary(c), kind
    if kind == "superelliptic":
        from .secover import genus_se, is_ordinary_se
        return count_points_se, genus_se(c), is_ordinary_se(c), kind
    raise DomainError(f"not a cover: {c!r}")


def cross_validate(c) -> OracleReport:
    """Compare the combinatorial ordinarity criterion against the p-rank.

    Counts N_1..N_{2g}, reconstructs L from the first g, checks that L
    reproduces all 2g counts (functional-equation closure; a problem names
    the first k that differs), and asserts is_ordinary(c) == (p_rank == g).
    Artin-Schreier covers additionally assert the Deuring-Shafarevich
    p-rank, superelliptic covers a_number(c) == 0 iff p_rank == g.  A cover
    with q^{2g} > MAX_Q is refused (ResourceGuardError) before the first sweep.
    """
    count, g, ordinary, kind = _count_fn(c)
    _guard(c.field, 2 * g)  # the largest sweep, checked before the first
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
        from .ascover import deuring_shafarevich_p_rank
        expected = deuring_shafarevich_p_rank(c)
        if rank != expected:
            problems.append(f"p-rank {rank} differs from Deuring-Shafarevich's {expected}")
    if kind == "superelliptic":
        from .secover import a_number
        a = a_number(c)
        if (a == 0) != (rank == g):
            problems.append(f"a-number {a} inconsistent with p-rank {rank} of genus {g}")
    return OracleReport(kind, g, counts.counts, l_poly.coeffs, rank, ordinary,
                        not problems, "; ".join(problems))


def assert_agreement(c) -> OracleReport:
    """cross_validate, raising InvariantViolation that ends in the cover JSON
    when the routes disagree or one of cross_validate's own checks fails."""
    try:
        report = cross_validate(c)
        if not report.agree:
            raise InvariantViolation(f"oracle disagreement: {report.detail}")
    except InvariantViolation as exc:
        import json
        from .serialize import cover_to_dict
        raise InvariantViolation(f"{exc}; cover = {json.dumps(cover_to_dict(c))}") from exc
    return report
