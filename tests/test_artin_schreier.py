import itertools
import math

import pytest

from ordcensus import artin_schreier as asc
from ordcensus import ascover
from ordcensus.errors import DomainError, InvariantViolation, ResourceGuardError
from ordcensus.fields import FieldSpec
from ordcensus.polys import MonicPoly, Place, places_of_degree

F2 = FieldSpec(2)
F3 = FieldSpec(3)

X = Place(MonicPoly.from_text(F2, "0,1"))
X1 = Place(MonicPoly.from_text(F2, "1,1"))


def simple_pole(place):
    return (place, (1,))


def test_cover_validation():
    with pytest.raises(DomainError):
        asc.ASCover(F2, (), None)  # nothing ramified
    with pytest.raises(DomainError):
        asc.ASCover(F2, ((X, (1, 1)),), None)  # pole order 2 = p
    with pytest.raises(DomainError):
        asc.ASCover(F2, ((X, (1, 0, 0)),), None)  # top coeff zero
    with pytest.raises(DomainError):
        asc.ASCover(F2, ((X, (1, 1, 1)),), None)  # c_2 must vanish


def test_cover_refuses_places_out_of_order():
    # the same places in two orders would be two unequal covers
    assert X < X1
    asc.ASCover(F2, (simple_pole(X), simple_pole(X1)))
    with pytest.raises(DomainError, match="sorted order"):
        asc.ASCover(F2, (simple_pole(X1), simple_pole(X)))
    # cover JSON may list them in either order: loading sorts them
    from ordcensus.serialize import cover_from_dict
    data = {"q": 2, "p": 2, "branch": [{"place": "1,1", "local": [1]},
                                       {"place": "0,1", "local": [1]}]}
    assert cover_from_dict(data) == asc.ASCover(F2, (simple_pole(X), simple_pole(X1)))


def test_genus_and_m():
    # f = 1/x + 1/(x+1): two simple poles, m = 4, g = 1
    c = asc.ASCover(F2, (simple_pole(X), simple_pole(X1)), None)
    assert ascover.m_invariant(c) == 4
    assert ascover.genus(c) == 1
    assert ascover.is_ordinary(c)
    # f = 1/x^3: m = 4, g = 1, not ordinary
    c2 = asc.ASCover(F2, ((X, (0, 0, 1)),), None)
    assert ascover.m_invariant(c2) == 4
    assert ascover.genus(c2) == 1
    assert not ascover.is_ordinary(c2)
    # f = 1/x: genus 0
    c3 = asc.ASCover(F2, (simple_pole(X),), None)
    assert ascover.genus(c3) == 0
    # ramified at infinity only
    c4 = asc.ASCover(F2, (), (1,))
    assert ascover.m_invariant(c4) == 2
    assert ascover.genus(c4) == 0
    assert ascover.is_ordinary(c4)


def test_admissible_pole_orders():
    assert asc.admissible_pole_orders(2, 8) == [2, 4, 6, 8]
    assert asc.admissible_pole_orders(3, 8) == [2, 3, 5, 6, 8]


def test_count_local_parts():
    # degree-1 place over F_2, simple pole: one nonzero coefficient
    assert asc.count_local_parts(2, 1, 2) == 1
    # pole order 3 over F_2: c_1 free, c_2 = 0, c_3 nonzero
    assert asc.count_local_parts(2, 3, 2) == 2
    # matches the census closed form (|Q|-1)|Q|^{n(p-1)} for k = np+i+1
    assert asc.count_local_parts(4, 1, 2) == 3


def test_enumerate_m2():
    # spec example: p=2, q=2, m=2 -> exactly 2 covers, both simple poles
    covers = list(asc.enumerate_covers(F2, 2))
    assert len(covers) == 2
    assert all(ascover.is_ordinary(c) for c in covers)


def test_enumeration_unique_and_sized():
    for m in (2, 4, 6):
        covers = list(asc.enumerate_covers(F2, m, include_infinity=True))
        assert len(set(covers)) == len(covers)
        assert all(ascover.m_invariant(c) == m for c in covers)


def test_census_enum_matches_analytic_small():
    for field, m_max in ((F2, 8), (F3, 6)):
        for include_inf in (False, True):
            en = asc.census_enumerated(field, m_max, include_inf)
            an = asc.census_analytic(field, m_max, include_inf)
            assert en.rows == an.rows


def test_census_enumerated_counts_every_cover():
    # the family count equals a cover-by-cover count over enumerate_covers
    for field, m_max in ((F2, 8), (F3, 6), (FieldSpec(2, 2), 6), (FieldSpec(3, 2), 3)):
        for include_inf in (False, True):
            rows = {}
            for m in range(2, m_max + 1):
                covers = list(asc.enumerate_covers(field, m, include_inf))
                rows[m] = (len(covers), sum(map(ascover.is_ordinary, covers)))
            assert asc.census_enumerated(field, m_max, include_inf).rows == rows


def test_census_enumerated_builds_no_cover(monkeypatch):
    # every construction of the record runs its check, whatever name it is built by
    built = []
    check = ascover.ASCover._check
    monkeypatch.setattr(ascover.ASCover, "_check", lambda c: built.append(c) or check(c))
    table = asc.census_enumerated(FieldSpec(2, 2), 6, include_infinity=True)
    assert built == []
    assert sum(b for _, b in table.rows.values()) > 0
    next(asc.enumerate_covers(F2, 2))
    assert len(built) == 1  # the patch sees a cover that is built


def test_census_rule_is_the_records_rule():
    # a family counts as ordinary iff m = 2r, r its geometric branch points;
    # each cover enumerate_covers yields for it is ordinary iff so by the record
    def order(part):
        return None if part is None else len(part) + 1

    for field, m_max in ((F2, 8), (F3, 6), (FieldSpec(2, 2), 5)):
        for include_inf in (False, True):
            for m in range(2, m_max + 1):
                by_rule = {}
                for assignment, inf_pool, local_pools in asc._cover_families(
                        field, m, include_inf):
                    r = sum(pl.degree for pl, _ in assignment) + (inf_pool[0] is not None)
                    size = len(inf_pool) * math.prod(map(len, local_pools))
                    by_rule[tuple(assignment), order(inf_pool[0])] = (size, {m == 2 * r})
                by_record = {}
                for c in asc.enumerate_covers(field, m, include_inf):
                    key = tuple((pl, order(lc)) for pl, lc in c.branch), order(c.infinity_part)
                    size, ordinary = by_record.get(key, (0, set()))
                    by_record[key] = (size + 1, ordinary | {ascover.is_ordinary(c)})
                assert by_record == by_rule, (field, m, include_inf)


def test_no_cover_below_m_2():
    # m = 2 is the least invariant: m = 0 and m = 1 have no family
    assert list(asc.enumerate_covers(F2, 0)) == []
    assert list(asc.enumerate_covers(F2, 1, include_infinity=True)) == []


def test_census_enumerated_checks_every_local_part(monkeypatch, cold_caches):
    choices = asc._local_part_choices

    def with_zero_top(p, elems, d_q):
        yield from choices(p, elems, d_q)
        yield (0,) * d_q  # malformed: top coefficient zero

    monkeypatch.setattr(asc, "_local_part_choices", with_zero_top)
    with pytest.raises(DomainError):
        asc.census_enumerated(F2, 4)


def test_census_closed_forms():
    # q=2: a(2t) = q^{2t} - q^{2t-1} = 2^{2t-1} for the unramified family
    table = asc.census_analytic(F2, 12)
    for t in range(1, 7):
        assert table.rows[2 * t][0] == 2 ** (2 * t - 1)
    # odd m impossible for p=2
    for m in (3, 5, 7, 9, 11):
        assert table.rows[m] == (0, 0)
    # ordinary covers at m: simple poles at distinct places, sum deg = m/2
    assert table.rows[2][1] == 2
    assert table.rows[4][1] == 4


@pytest.mark.parametrize("field", [F2, FieldSpec(2, 2), FieldSpec(2, 3)], ids=["F2", "F4", "F8"])
def test_p2_census_closed_form(field):
    # p = 2: a_m = 0 for odd m, a_m = (q - 1) q^(m-1) for even m, and
    # (q^2 - 1) q^(m-2) with infinity included
    q = field.q
    for include_infinity, closed in ((False, lambda m: (q - 1) * q ** (m - 1)),
                                     (True, lambda m: (q * q - 1) * q ** (m - 2))):
        rows = asc.census_analytic(field, 100, include_infinity).rows
        assert sorted(rows) == list(range(2, 101))
        for m, (a, _) in rows.items():
            assert a == (closed(m) if m % 2 == 0 else 0), (q, include_infinity, m)


def test_census_guard():
    with pytest.raises(ResourceGuardError):
        asc.census_enumerated(FieldSpec(2, 4), 8)  # 16^8 > 2^22


def test_census_table_validation():
    with pytest.raises(DomainError):
        asc.CensusTable({2: (1, 2)})  # b > a


def test_cumulative_ratio():
    from ordcensus.dirichlet import cumulative_ratios
    assert asc.empirical_probability(F2, 2) == 1.0
    r = asc.empirical_probability(F2, 6)
    assert 0 < r < 1
    with pytest.raises(DomainError, match="m_max must be >= 2"):
        asc.empirical_probability(F2, 1)
    # the proportion over m = 2..6 is the census's last cumulative ratio
    rows = asc.census_analytic(F2, 6).rows
    assert [ratio for *_, ratio in cumulative_ratios(rows)][-1] == r


def test_empirical_probability_converges():
    # cumulative ratio approaches phi(1) * zeta(2) = 0.6283 for p = q = 2
    r12 = asc.empirical_probability(F2, 12)
    r20 = asc.empirical_probability(F2, 20)
    target = 0.628296
    assert abs(r20 - target) < abs(r12 - target) + 1e-9
    assert abs(r20 - target) < 0.05


def test_p2_zeta_quotient_identity():
    # p = 2: the full generating product equals zeta(2s-1)/zeta(2s), i.e.
    # (1 - q u^2)/(1 - q^2 u^2) in u = q^{-s}.  The local factor of a place
    # of norm N has (N - 1) N^{k/2 - 1} parts of even pole order k.
    from ordcensus.dirichlet import euler_coefficients
    q = 2
    for M in (20, 40):
        def local(d):
            norm = q ** d
            return [1, 0] + [(norm - 1) * norm ** (k // 2 - 1) if k % 2 == 0 else 0
                             for k in range(2, M // d + 1)]
        expected = [0] * (M + 1)
        expected[0] = 1
        for k in range(1, M // 2 + 1):
            expected[2 * k] = q ** (2 * k) - q ** (2 * k - 1)
        assert euler_coefficients(q, local, M) == expected


def test_m_invariant_genus_relation():
    # 2g = (p-1)(m-2) across both families
    for field, m_max in ((F2, 6), (F3, 5)):
        for m in range(2, m_max + 1):
            for c in asc.enumerate_covers(field, m, include_infinity=True):
                assert ascover.m_invariant(c) == m
                assert 2 * ascover.genus(c) == (field.p - 1) * (m - 2)


def test_component_count_growth():
    # p_A(m) / m^{p-2} stabilizes: within 10% between m = 200 and m = 400
    for p in (3, 5):
        r200 = asc.component_count(200, p) / 200 ** (p - 2)
        r400 = asc.component_count(400, p) / 400 ** (p - 2)
        assert abs(r400 - r200) <= 0.1 * r200, (p, r200, r400)


def test_component_count():
    # partitions into parts from {2,...,p}
    assert asc.component_count(0, 3) == 1
    assert asc.component_count(1, 3) == 0
    assert asc.component_count(5, 3) == 1   # 2+3
    assert asc.component_count(6, 3) == 2   # 2+2+2, 3+3
    assert asc.component_count(7, 5) == 3   # 2+5, 3+4, 2+2+3
    with pytest.raises(DomainError):
        asc.component_count(4, 2)
    with pytest.raises(DomainError, match="m must be >= 0"):
        asc.component_count(-1, 3)


def test_branch_assignments_same_as_per_node_orders():
    def reference(field, m):
        places = [pl for d in range(1, m // 2 + 1) for pl in places_of_degree(field, d)]

        def rec(idx, remaining):
            if remaining == 0:
                yield ()
                return
            if idx == len(places):
                return
            yield from rec(idx + 1, remaining)
            pl = places[idx]
            for k in asc.admissible_pole_orders(field.p, remaining // pl.degree):
                for rest in rec(idx + 1, remaining - pl.degree * k):
                    yield ((pl, k),) + rest
        return list(rec(0, m))
    for field, m_max in ((F2, 10), (F3, 7), (FieldSpec(2, 2), 6)):
        for m in range(m_max + 1):
            assert list(asc._branch_assignments(field, m)) == reference(field, m)


def test_branch_assignments_list_places_in_place_order():
    # _cover_families passes the assignments on unsorted
    for field, m_max in ((F2, 10), (F3, 7), (FieldSpec(2, 2), 6)):
        for m in range(m_max + 1):
            for assignment in asc._branch_assignments(field, m):
                places = [pl for pl, _ in assignment]
                assert all(a < b for a, b in zip(places, places[1:])), assignment


def test_census_enumerated_builds_no_residue_field(monkeypatch):
    from ordcensus import polys
    from ordcensus.serialize import cover_from_dict, cover_to_dict

    def no_field(*args):
        raise AssertionError("residue field built")
    monkeypatch.setattr(polys, "ext_field_for", no_field)
    for field, m_max, include_inf in ((FieldSpec(2, 3), 5, False), (FieldSpec(3, 2), 4, True)):
        en = asc.census_enumerated(field, m_max, include_inf)
        assert en.rows == asc.census_analytic(field, m_max, include_inf).rows
        for m in range(2, m_max + 1):
            covers = list(asc.enumerate_covers(field, m, include_inf))
            assert len(covers) == en.rows[m][0]
            for c in covers:
                assert cover_from_dict(cover_to_dict(c)) == c


def test_enumerate_covers_are_the_products_of_the_pools():
    # local parts stay residue-field indices; F_4 m = 4..6 and F_9 m = 4
    # have places of degree 2, where indices and codes differ
    for field, m_max in ((FieldSpec(2, 2), 6), (FieldSpec(3, 2), 4)):
        for include_inf in (False, True):
            for m in range(2, m_max + 1):
                expected = [asc.ASCover(field, tuple(zip([pl for pl, _ in assignment], locals_)),
                                        inf_part)
                            for assignment, inf_pool, local_pools
                            in asc._cover_families(field, m, include_inf)
                            for inf_part in inf_pool
                            for locals_ in itertools.product(*local_pools)]
                assert list(asc.enumerate_covers(field, m, include_inf)) == expected


def test_enumerated_covers_round_trip_through_json():
    from ordcensus.serialize import cover_from_dict, cover_to_dict
    for field, m_max in ((FieldSpec(2, 2), 5), (FieldSpec(3, 2), 4)):
        for m in range(2, m_max + 1):
            for c in asc.enumerate_covers(field, m, include_infinity=True):
                assert cover_from_dict(cover_to_dict(c)) == c


def test_census_modes_pick_their_routes_and_both_cross_checks(monkeypatch):
    assert asc.census(F2, 8) == asc.census_analytic(F2, 8)
    assert asc.census(F3, 6, True, "enumerate") == asc.census_enumerated(F3, 6, True)
    assert asc.census(F3, 6, True, "both") == asc.census_analytic(F3, 6, True)
    with pytest.raises(DomainError, match="census mode"):
        asc.census(F2, 8, False, "enumerated")
    enumerated = asc.census_enumerated

    def off_by_one_at_6(field, m_max, include_infinity=False):
        table = enumerated(field, m_max, include_infinity)
        a, b = table.rows[6]
        return table._replace(rows={**table.rows, 6: (a + 1, b)})

    monkeypatch.setattr(asc, "census_enumerated", off_by_one_at_6)
    with pytest.raises(InvariantViolation) as info:
        asc.census(F2, 8, False, "both")
    assert str(info.value) == ("analytic and enumerated censuses first disagree at m=6: "
                               "(a_m, b_m) = (32, 20) analytic vs (33, 20) enumerated")
    assert asc.census(F2, 8, False, "analytic") == asc.census_analytic(F2, 8)


def test_classify_fields_in_order():
    c = asc.ASCover(F2, ((X, (0, 0, 1)),), (1,))
    assert list(c.classify().items()) == [("kind", "artin-schreier"), ("genus", 2),
                                          ("m", 6), ("ordinary", False)]
    assert asc.ASCover(F2, (simple_pole(X),), (1,)).classify() == \
        {"kind": "artin-schreier", "genus": 1, "m": 4, "ordinary": True}
