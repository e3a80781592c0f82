import json
import math
import random
from functools import reduce

import pytest

from ordcensus import artin_schreier as asc
from ordcensus import ascover
from ordcensus import oracle as orc
from ordcensus import secover
from ordcensus import superelliptic as se
from ordcensus._polyarith import evaluate
from ordcensus.errors import DomainError, InvariantViolation, ResourceGuardError
from ordcensus.fields import FieldSpec, extension, frobenius_orbits
from ordcensus.polys import MonicPoly, Place, places_of_degree
from ordcensus.serialize import cover_from_dict

F2 = FieldSpec(2)
F4 = FieldSpec(2, 2)

X = Place(MonicPoly.from_text(F2, "0,1"))
X1 = Place(MonicPoly.from_text(F2, "1,1"))


def as_cover(*parts, infinity=None):
    return asc.ASCover(F2, tuple(parts), infinity)


def se_cover(field, n, *texts):
    return se.SECover(field, n, tuple(MonicPoly.from_text(field, t) for t in texts))


def test_count_points_as_spec_examples():
    # f = 1/x + 1/(x+1): N_1 = 4
    c = as_cover((X, (1,)), (X1, (1,)))
    assert orc.count_points_as(c, 1) == 4
    # f = 1/x^3: N_1 = 3
    c2 = as_cover((X, (0, 0, 1)))
    assert orc.count_points_as(c2, 1) == 3
    # f = 1/x: genus 0 forces N_k = q^k + 1
    c3 = as_cover((X, (1,)))
    for k in (1, 2, 3, 4):
        assert orc.count_points_as(c3, k) == 2 ** k + 1


def test_count_points_as_infinity_ramified():
    # f = x: one pole at infinity, genus 0
    c = asc.ASCover(F2, (), (1,))
    for k in (1, 2, 3):
        assert orc.count_points_as(c, k) == 2 ** k + 1


def test_count_points_se_genus0():
    # y^3 = x (x+1)^2: genus 0 forces N_k = q^k + 1
    c = se_cover(F2, 3, "0,1", "1,1")
    assert se.genus_se(c) == 0
    for k in (1, 2, 3, 4):
        assert orc.count_points_se(c, k) == 2 ** k + 1


def test_count_points_se_split_structure():
    # q=4: 3 | q - 1, unramified fibers split 3 or 0
    c = se_cover(F4, 3, "0,1", "1,1")
    n1 = orc.count_points_se(c, 1)
    assert n1 == 4 + 1  # genus 0
    # genus-2 cover over F_2 with deg = (2,2): Weil bound via PointCounts
    c2 = se_cover(F2, 3, "1,1,1", "0,1,1")
    g = se.genus_se(c2)
    assert g == 2
    counts = tuple(orc.count_points_se(c2, k) for k in (1, 2))
    orc.PointCounts(2, g, counts)  # raises if Weil fails


def test_weil_bound_assertion():
    with pytest.raises(InvariantViolation):
        orc.PointCounts(2, 1, (9,))


def test_l_polynomial_spec_examples():
    # g=1, q=2, N_1=4 -> L = 1 + T + 2T^2
    assert orc.l_polynomial(orc.PointCounts(2, 1, (4,))).coeffs == (1, 1, 2)
    # g=1, q=2, N_1=3 -> L = 1 + 2T^2
    assert orc.l_polynomial(orc.PointCounts(2, 1, (3,))).coeffs == (1, 0, 2)
    # g=0 -> L = 1
    assert orc.l_polynomial(orc.PointCounts(2, 0, ())).coeffs == (1,)


def test_l_polynomial_needs_enough_counts():
    with pytest.raises(DomainError):
        orc.l_polynomial(orc.PointCounts(2, 2, (4,)))


def test_lpolynomial_validation():
    with pytest.raises(InvariantViolation):
        orc.LPolynomial(2, 1, (1, 1, 3))  # functional equation fails
    with pytest.raises(DomainError):
        orc.LPolynomial(2, 1, (2, 1, 2))  # a_0 != 1
    # a_2 = q a_0, so the functional equation holds, but L(1) = 1 - 4 + 2 = -1
    with pytest.raises(InvariantViolation, match=r"L\(1\) = #Jac must be positive"):
        orc.LPolynomial(2, 1, (1, -4, 2))


def test_p_rank_spec_examples():
    assert orc.p_rank(orc.LPolynomial(2, 1, (1, 1, 2)), 2) == 1
    assert orc.p_rank(orc.LPolynomial(2, 1, (1, 0, 2)), 2) == 0
    assert orc.p_rank(orc.LPolynomial(2, 0, (1,)), 2) == 0


def test_counts_from_l_closure():
    counts = orc.PointCounts(2, 1, (4, 8))
    l_poly = orc.l_polynomial(counts)
    assert orc.counts_from_l(l_poly, 2) == (4, 8)


def test_cross_validate_spec_examples():
    r = orc.cross_validate(as_cover((X, (1,)), (X1, (1,))))
    assert r.agree and r.p_rank == 1 and r.genus == 1 and r.ordinary_by_criterion
    r2 = orc.cross_validate(as_cover((X, (0, 0, 1))))
    assert r2.agree and r2.p_rank == 0 and r2.genus == 1
    assert not r2.ordinary_by_criterion
    # genus 0: vacuously consistent
    r3 = orc.cross_validate(as_cover((X, (1,))))
    assert r3.agree and r3.genus == 0


def test_cross_validate_n7_counterexample():
    # y^7 = x^3 (x+1)^6 is ordinary despite failing plain degree symmetry
    c = se_cover(F2, 7, "1", "1", "0,1", "1", "1", "1,1")
    assert not secover.degree_symmetry_criterion(7, c.degrees)
    r = orc.cross_validate(c)
    assert r.agree
    assert r.p_rank == r.genus == 3


def test_assert_agreement_passes():
    r = orc.assert_agreement(as_cover((X, (1,)), (X1, (1,))))
    assert r.agree


def test_assert_agreement_names_the_cover_as_json(monkeypatch):
    c = se_cover(F2, 3, "1,1,1", "0,1,1")  # ordinary, genus 2, a-number 0
    monkeypatch.setattr(secover, "a_number", lambda c: 1)
    r = orc.cross_validate(c)
    assert not r.agree
    assert r.detail == "a-number 1 inconsistent with p-rank 2 of genus 2"
    with pytest.raises(InvariantViolation, match="a-number 1 inconsistent") as exc:
        orc.assert_agreement(c)
    cover = str(exc.value).split("; cover = ")[1]
    assert cover_from_dict(json.loads(cover)) == c


@pytest.mark.parametrize("extra, message", [(100, "Weil bound violated: N_1 = 103"),
                                             (1, "a_2 is not an integer")])
def test_assert_agreement_names_the_cover_when_a_check_inside_raises(monkeypatch, extra,
                                                                     message):
    # a wrong N_1 is refused by PointCounts or by the L-polynomial's Newton
    # step, inside cross_validate, before the routes are compared
    c = as_cover((X, (1,)), (X1, (1,)), infinity=(1,))  # genus 2
    count = orc.count_points_as
    monkeypatch.setattr(orc, "count_points_as", lambda c, k: count(c, k) + extra * (k == 1))
    with pytest.raises(InvariantViolation, match=message) as exc:
        orc.assert_agreement(c)
    # the message ends in the cover's JSON, which replays to the same cover
    cover = str(exc.value).split("; cover = ")[1]
    assert cover_from_dict(json.loads(cover)) == c


def test_resource_guards():
    big = asc.ASCover(F2, (), (1,))
    with pytest.raises(ResourceGuardError):
        orc.count_points_as(big, 30)  # 2^30 > 2^24 sweep guard


def test_extension_field_sizes():
    for k in (1, 2, 3, 4):
        E = orc.extension_field(F2, k)
        assert E.size == 2 ** k


def test_extension_is_the_shared_absolute_field():
    from ordcensus import fields
    for base in (F2, F4, FieldSpec(3, 2)):
        for k in (1, 2, 3):
            E, embed = fields.extension(base, k)
            assert E is FieldSpec(base.p, base.k * k)
            assert E.q == base.q ** k
            # the images of F_q form a subfield: a ring isomorphism onto them
            assert len(set(embed)) == base.q
            for a in range(base.q):
                for b in range(base.q):
                    assert embed[base.add(a, b)] == E.add(embed[a], embed[b])
                    assert embed[base.mul(a, b)] == E.mul(embed[a], embed[b])


def test_cross_validate_reconstructs_f_once(monkeypatch, cold_caches):
    # N/D does not depend on k: one reconstruction serves all 2g sweeps
    calls = []
    reconstruct = orc.reconstruct
    monkeypatch.setattr(orc, "reconstruct",
                        lambda *args: calls.append(args) or reconstruct(*args))
    c = as_cover((X, (1,)), (X1, (1,)), (places_of_degree(F2, 2)[0], (1,)))
    report = orc.cross_validate(c)
    assert report.genus == 3 and report.agree
    assert len(calls) == 1


def test_guard_fires_before_any_sweep(monkeypatch):
    def no_sweep(c, k):
        raise AssertionError("swept before the guard")
    monkeypatch.setattr(orc, "count_points_as", no_sweep)
    monkeypatch.setattr(orc, "count_points_se", no_sweep)
    F5 = FieldSpec(5)
    # y^5 - y = x^4: genus 6, and q^(2g) = 5^12 > MAX_Q
    wide = asc.ASCover(F5, (), (0, 0, 0, 1))
    assert ascover.genus(wide) == 6
    with pytest.raises(ResourceGuardError):
        orc.cross_validate(wide)
    # y^2 - y = x^23 + x over F_2: genus 11, and 2^22 > MAX_Q
    deep = asc.ASCover(F2, (), (1,) + (0,) * 21 + (1,))
    assert ascover.genus(deep) == 11
    with pytest.raises(ResourceGuardError, match=r"2\^22"):
        orc.cross_validate(deep)
    # y^3 - y = x^8 over F_3: genus 7, and 3^14 > MAX_Q
    odd = asc.ASCover(FieldSpec(3), (), (0,) * 7 + (1,))
    assert ascover.genus(odd) == 7
    with pytest.raises(ResourceGuardError, match=r"3\^14"):
        orc.cross_validate(odd)


def test_se_counts_build_no_field_where_y_to_the_n_permutes_it(monkeypatch):
    # 3 | 2^k - 1 exactly for even k; at odd k, N_k = 2^k + 1 with no sweep
    built = []
    monkeypatch.setattr(orc, "extension",
                        lambda field, k: built.append(k) or extension(field, k))
    report = orc.cross_validate(se_cover(F2, 3, "1,1,1", "0,1,1"))
    assert report.agree
    ks = range(1, 2 * report.genus + 1)
    assert built == [k for k in ks if k % 2 == 0]
    assert [report.counts[k - 1] for k in ks if k % 2] == [2 ** k + 1 for k in ks if k % 2]


def _random_local(rng, size, order):
    """A normal-form local part over F_2: zero at even indices, top nonzero."""
    return tuple(0 if j % 2 == 0 else rng.randrange(size) for j in range(1, order)) + (
        rng.randrange(1, size),)


def test_f2_covers_of_genus_7_to_9_cross_validate():
    """Every cover over F_2 with 2^(2g) <= MAX_Q is swept: seeded AS covers of
    genus 7-9, branched only at infinity or also at finite places of degree
    1-3, whose p-rank is Deuring-Shafarevich's, and an n = 3 SE cover."""
    rng = random.Random(7109)
    covers = [asc.ASCover(F2, (), _random_local(rng, 2, 2 * g + 1)) for g in (7, 8)]
    x2, x3 = places_of_degree(F2, 2)[0], places_of_degree(F2, 3)[0]
    # m = 16 with every pole simple (ordinary); m = 20 with poles of order 3 at x, 9 at infinity
    shapes = [((X, 1), (X1, 1), (x2, 1), (x3, 1), (None, 1)),
              ((X, 3), (X1, 1), (x2, 1), (None, 9))]
    for shape in shapes:
        branch = tuple((pl, _random_local(rng, pl.norm, d)) for pl, d in shape if pl)
        covers.append(asc.ASCover(F2, branch, _random_local(rng, 2, shape[-1][1])))
    assert [ascover.genus(c) for c in covers] == [7, 8, 7, 9]
    reports = [orc.cross_validate(c) for c in covers]
    for c, report in zip(covers, reports):
        assert report.agree, (c, report.detail)
        assert report.p_rank == ascover.deuring_shafarevich_p_rank(c)
    assert [report.p_rank for report in reports] == [0, 0, 7, 4]
    c = se.random_se_cover(F2, 3, 9, random.Random(1))
    report = orc.cross_validate(c)
    assert c.degrees == (2, 7) and report.genus == 8
    assert report.agree, (c, report.detail)


def test_oracle_agreement_beyond_f2():
    """assert_agreement on a seeded sample of AS covers over F_3, F_4 and F_9
    and of n = 3 superelliptic covers over F_4."""
    rng = random.Random(20241)
    F3, F9 = FieldSpec(3), FieldSpec(3, 2)
    covers = []
    for field, ms, per_m in [(F3, (3, 4, 5, 6), 4), (F4, (4, 6), 5), (F9, (3, 4), 4)]:
        for m in ms:
            pool = list(asc.enumerate_covers(field, m, include_infinity=True))
            covers += rng.sample(pool, per_m)
    pool = [c for d in range(6) for c in se.enumerate_se_covers(F4, 3, d)
            if 2 <= c.branch_count <= 5]
    covers += rng.sample(pool, 10)
    for c in covers:
        assert orc.assert_agreement(c).agree


@pytest.mark.parametrize("field, d, index, genus, counts", [
    # m = 10, g = 4; in characteristic 2 the m Q_{d-m} terms of Newton's
    # identities vanish at m = 2 and 4
    (F4, 5, 4 ** 4 + 6, 4, (6, 18, 72, 298, 1021, 4110, 16582, 66690)),
    (FieldSpec(3, 2), 2, 9 + 5, 2, (12, 68, 822, 6596)),
], ids=["F4-degree-5", "F9-degree-2"])
def test_oracle_agrees_at_a_place_of_higher_degree(field, d, index, genus, counts):
    """One local part with an index outside F_q at the first place of degree
    d.  The counts were computed by putting f over one denominator in
    FieldSpec(p, k d), at a root of the place found there."""
    c = asc.ASCover(field, ((places_of_degree(field, d)[0], (index,)),))
    report = orc.cross_validate(c)
    assert report.agree, report.detail
    assert (report.genus, report.counts) == (genus, counts)


def test_p_rank_is_deuring_shafarevich():
    """The oracle's p-rank is (p - 1)(r - 1), r the number of geometric
    branch points, on two seeded covers of each kind: infinity ramified or
    not, a place of degree >= 2 or not."""
    rng = random.Random(1831)
    F3, F9 = FieldSpec(3), FieldSpec(3, 2)
    for field, ms in [(F2, (4, 6, 8, 10)), (F3, (3, 4, 5)), (F4, (4, 6)), (F9, (3, 4))]:
        for m in ms:
            kinds = {}
            for c in asc.enumerate_covers(field, m, include_infinity=True):
                wide = any(pl.degree > 1 for pl, _ in c.branch)
                kinds.setdefault((c.infinity_part is None, wide), []).append(c)
            for pool in kinds.values():
                for c in rng.sample(pool, min(2, len(pool))):
                    r = sum(pl.degree for pl, _ in c.branch) + (c.infinity_part is not None)
                    assert orc.cross_validate(c).p_rank == (field.p - 1) * (r - 1), c


def test_infinity_only_counts_match_mirror():
    """y^p - y = f(x) with f a polynomial (branched only at infinity) has the
    point counts of y^p - y = f(1/x), branched only at x = 0 with the same
    local part, whose sweep divides by D = x^e."""
    rng = random.Random(4099)
    for field, ms in [(F2, (4, 6, 8)), (FieldSpec(3), (3, 5)), (F4, (4, 6))]:
        zero = Place(MonicPoly(field, (0,)))
        for m in ms:
            pool = [c.infinity_part for c in asc.enumerate_covers(field, m, True)
                    if not c.branch]
            for inf in rng.sample(pool, min(3, len(pool))):
                mirror = asc.ASCover(field, ((zero, inf),))
                c = asc.ASCover(field, (), inf)
                for k in range(1, 2 * ascover.genus(mirror) + 1):
                    assert orc.count_points_as(c, k) == orc.count_points_as(mirror, k), c


def test_non_cover_is_a_domain_error():
    from ordcensus.serialize import cover_to_dict
    # a plain tuple with an ASCover's fields is not a cover
    # an OracleReport has a field named kind, but no kind of its own
    report = orc.OracleReport(*[None] * len(orc.OracleReport._fields))
    for thing in (None, "cover", (F2, (), (1,)), report):
        with pytest.raises(DomainError, match="not a cover"):
            orc.cross_validate(thing)
        with pytest.raises(DomainError, match="not a cover"):
            cover_to_dict(thing)


def test_report_names_a_p_rank_off_deuring_shafarevich(monkeypatch):
    # y^2 + y = 1/x^3 + 1/(x+1): genus 2, p-rank 1, not ordinary
    c = as_cover((X, (1, 0, 1)), (X1, (1,)))
    assert not ascover.is_ordinary(c)
    assert orc.cross_validate(c).agree
    p_rank = orc.p_rank
    monkeypatch.setattr(orc, "p_rank", lambda l_poly, p: p_rank(l_poly, p) - 1)
    report = orc.cross_validate(c)
    assert not report.agree
    assert report.detail == "p-rank 0 differs from Deuring-Shafarevich's 1"


def test_report_names_the_first_count_off_the_l_polynomial(monkeypatch):
    c = as_cover((X, (1, 0, 1)), (X1, (1,)))
    g = ascover.genus(c)
    counts = [orc.count_points_as(c, k) for k in range(1, 2 * g + 1)]
    count = orc.count_points_as
    monkeypatch.setattr(orc, "count_points_as",
                        lambda c, k: count(c, k) + 2 * (k == g + 1))
    report = orc.cross_validate(c)
    assert not report.agree
    assert report.detail == (f"L-polynomial does not reproduce the point counts: "
                             f"N_{g + 1} = {counts[g] + 2} but L gives {counts[g]}")


def plain_count(c, k):
    """N_k by its definition: the points above every x in F_{q^k}, one above
    each root of a branch place, and those above infinity."""
    E, embed = extension(c.field, k)
    total = 0
    if type(c).kind == "artin-schreier":
        p = c.field.p
        num, den = ([embed[a] for a in f] for f in orc._fraction(c))
        for x in range(E.q):
            dv = evaluate(E, den, x)
            if not dv:
                total += 1
            elif E.trace(E.mul(evaluate(E, num, x), E.inv(dv))) == 0:
                total += p
        return total + (1 if c.infinity_part is not None else p)
    # y^n = v has gcd(n, |E| - 1) roots if v is a nonzero n-th power, else none
    roots = math.gcd(c.n, E.q - 1)
    parts = [([embed[a] for a in f.full], i) for i, f in enumerate(c.parts, 1)]
    for x in range(E.q):
        v = reduce(E.mul, (E.pow(evaluate(E, f, x), i) for f, i in parts), 1)
        if not v:
            total += 1
        elif E.pow(v, (E.q - 1) // roots) == 1:
            total += roots
    return total + (1 if c.epsilon else roots)


def test_orbit_sums_equal_the_plain_sweep():
    """count_points_as/se, one evaluation per Frobenius orbit, against the
    sweep over every element, for every k <= 2g, on seeded covers whose
    coefficients leave F_2 (over F_4 and F_8) or F_3 (over F_9, with Zech
    addition and a non-identity embedding), and whose n-th powers split for
    some k and not for others.  The orbit sizes divide k and sum to q^k."""
    rng = random.Random(2024)
    F3 = FieldSpec(3)
    covers = []
    for field, ms in [(F2, (4, 6, 8, 10)), (F3, (3, 4, 5)), (F4, (4, 6, 8)),
                      (FieldSpec(3, 2), (3, 4))]:
        for m in ms:
            covers += rng.sample(list(asc.enumerate_covers(field, m, True)), 2)
    for field, n, d_max, branches in [(F2, 3, 5, (3, 5)), (F2, 5, 4, (3, 4)),
                                      (F4, 3, 4, (3, 4)), (F4, 5, 3, (3, 3)),
                                      (FieldSpec(2, 3), 3, 3, (3, 4))]:
        pool = [c for d in range(d_max + 1) for c in se.enumerate_se_covers(field, n, d)
                if branches[0] <= c.branch_count <= branches[1]]
        covers += rng.sample(pool, 2 if field is F2 else 1)
    swept = set()
    for c in covers:
        count, g, _, _ = orc._count_fn(c)
        for k in range(1, 2 * g + 1):
            assert count(c, k) == plain_count(c, k), (c, k)
            swept.add((c.field, k))
    for field, k in swept:
        E = extension(field, k)[0]
        xs, sizes = frobenius_orbits(E, field.q)
        assert len(xs) == len(sizes)
        assert all(k % size == 0 for size in sizes)
        assert sum(sizes) == E.q
        assert len(set(xs)) == len(xs)


def test_report_to_dict_is_what_oracle_prints():
    report = orc.cross_validate(as_cover((X, (0, 0, 1))))
    assert list(report.to_dict().items()) == [
        ("kind", "artin-schreier"), ("genus", 1), ("N_k", [3, 9]), ("L", [1, 0, 2]),
        ("p_rank", 0), ("ordinary_by_criterion", False), ("agree", True)]
    disagreeing = report._replace(agree=False, detail="why")
    assert list(disagreeing.to_dict())[-2:] == ["agree", "detail"]
    assert disagreeing.to_dict()["detail"] == "why"
