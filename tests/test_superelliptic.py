import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordcensus import secover
from ordcensus import superelliptic as se
from ordcensus.errors import DomainError, InvariantViolation, ResourceGuardError
from ordcensus.fields import FieldSpec
from ordcensus.polys import MonicPoly, mul_monic, poly_one
from ordcensus.serialize import cover_from_dict

F2 = FieldSpec(2)
F4 = FieldSpec(2, 2)
F32 = FieldSpec(2, 5)


def mk(field, *texts):
    return tuple(MonicPoly.from_text(field, t) for t in texts)


def cover(field, n, *texts):
    return se.SECover(field, n, mk(field, *texts))


def test_cover_validation():
    with pytest.raises(DomainError):
        se.SECover(F2, 4, mk(F2, "1", "1", "1"))  # n not an odd prime
    with pytest.raises(DomainError):
        cover(F2, 3, "0,1")  # wrong number of parts
    with pytest.raises(DomainError):
        cover(F2, 3, "1,0,1", "1")  # (x+1)^2 not squarefree
    with pytest.raises(DomainError):
        cover(F2, 3, "0,1", "0,1")  # parts not coprime


def test_invariants():
    c = cover(F2, 3, "0,1", "1,1")  # f_1 = x, f_2 = x+1
    assert c.degrees == (1, 1)
    assert c.n_infinity == 0
    assert c.epsilon == 0
    assert c.branch_count == 2
    c2 = cover(F2, 3, "0,1", "1")  # N = 1, n_inf = 2
    assert c2.n_infinity == 2
    assert c2.epsilon == 1
    assert c2.branch_count == 2


def test_genus_examples():
    # spec: n=3, deg=(2,2), N=6, eps=0 -> m=4, g=2
    assert se.genus_se(cover(F2, 3, "1,1,1", "0,1,1")) == 2
    # spec: n=3, deg=(1,0), n_inf=2, eps=1 -> m=2, g=0
    assert se.genus_se(cover(F2, 3, "0,1", "1")) == 0
    # spec: n=5, deg=(1,1,1,1), N=10, eps=0 -> m=4, g=4 (four coprime linears
    # need q >= 4)
    assert se.genus_se(cover(F4, 5, "0,1", "1,1", "2,1", "3,1")) == 4
    with pytest.raises(DomainError, match="does not define a curve"):
        cover(F2, 3, "1", "1")  # m = 0: no curve, refused before genus_se could see it


def test_eigen_degrees_examples():
    # spec: n=3, deg=(2,2), n_inf=0 -> d = (1,1)
    assert se.eigen_degrees(cover(F2, 3, "1,1,1", "0,1,1")).d == (1, 1)
    # n=3, deg=(1,2): N=5 forces n_inf=1, m=4, g=2; min-sum cross-check
    c = cover(F2, 3, "0,1", "1,1,1")
    d = se.eigen_degrees(c).d
    assert sum(d) == se.genus_se(c) == 2
    assert se.a_number(c) == 2 - 2 * min(d)
    # spec: n=3, deg=(0,1), n_inf=1 -> genus 0, sum d_i = 0
    assert se.eigen_degrees(cover(F2, 3, "1", "0,1")).d == (0, 0)


def test_sigma_permutation():
    assert se.sigma_permutation(3, 2) == {1: 2, 2: 1}
    assert se.sigma_permutation(5, 2) == {1: 3, 2: 1, 3: 4, 4: 2}
    # involution iff p^2 = 1 mod n
    sigma7 = se.sigma_permutation(7, 2)
    assert sigma7[sigma7[1]] != 1  # ord_7(2) = 3, not an involution
    with pytest.raises(DomainError):
        se.sigma_permutation(9, 3)


def test_a_number_examples():
    # spec: n=3, deg=(2,2), n_inf=0 -> a = 0
    assert se.a_number(cover(F2, 3, "1,1,1", "0,1,1")) == 0
    # spec: n=3, deg=(2,0), n_inf=2 -> a > 0
    assert se.a_number(cover(F2, 3, "1,1,1", "1")) > 0
    with pytest.raises(DomainError, match="specific to characteristic 2"):
        se.a_number(cover(FieldSpec(5), 3, "0,1", "1,1"))
    # genus-0 cover -> a = 0
    assert se.a_number(cover(F2, 3, "0,1", "1")) == 0


def test_ordinary_criterion_examples():
    # spec: n=3, deg=(2,2), n_inf=0 -> ordinary
    assert se.is_ordinary_se(cover(F2, 3, "1,1,1", "0,1,1"))
    # spec: n=3, deg=(1,2), n_inf=1 -> ordinary
    assert se.is_ordinary_se(cover(F2, 3, "0,1", "1,1,1"))
    # spec: n=5, deg=(1,2,2,1) -> ordinary; deg=(2,1,2,1) -> not
    assert se.ordinary_degree_tuple(5, (1, 2, 2, 1))
    assert not se.ordinary_degree_tuple(5, (2, 1, 2, 1))


def test_symmetry_vs_orbit_criterion():
    # the two coincide when 2 generates (Z/n)^*: n = 3, 5
    for n in (3, 5):
        for m in range(0, 9):
            for e in se.degree_tuples(n, m):
                assert (se.ordinary_degree_tuple(n, e)
                        == se.degree_symmetry_criterion(n, e))
    # for n = 7 symmetry is strictly stronger: implication plus a witness
    witness_found = False
    for m in range(0, 5):
        for e in se.degree_tuples(7, m):
            if se.degree_symmetry_criterion(7, e):
                assert se.ordinary_degree_tuple(7, e)
            elif se.ordinary_degree_tuple(7, e):
                witness_found = True
    assert witness_found
    # the explicit counterexample: y^7 = x^3 (x+1)^6
    assert se.ordinary_degree_tuple(7, (0, 0, 1, 0, 0, 1))
    assert not se.degree_symmetry_criterion(7, (0, 0, 1, 0, 0, 1))


def dense_eigen_degrees(n, degs):
    """d_i summed over all (n-1)^2 index pairs: the reference for the sparse sums."""
    n_inf = (-sum(i * d for i, d in enumerate(degs, start=1))) % n
    out = []
    for i in range(1, n):
        total = sum(degs[j - 1] * ((i * j) % n) for j in range(1, n))
        total += (i * n_inf) % n - n
        assert total % n == 0 and total >= 0
        out.append(total // n)
    return tuple(out)


def dense_genus(n, degs):
    """The general ramification formula -(n-1) + (1/2) sum_j x_j (n - gcd(n, j))
    over every j: the reference for (n-1)(m-2)/2."""
    n_inf = (-sum(i * d for i, d in enumerate(degs, start=1))) % n
    x = [degs[j - 1] + (1 if j == n_inf else 0) for j in range(1, n)]
    twice = -2 * (n - 1) + sum(xj * (n - math.gcd(n, j)) for j, xj in enumerate(x, start=1))
    assert twice % 2 == 0
    return twice // 2


def dense_ordinary(n, degs):
    n_inf = (-sum(i * d for i, d in enumerate(degs, start=1))) % n
    x = [degs[j - 1] + (1 if j == n_inf else 0) for j in range(1, n)]
    d = [sum(xj * ((i * j) % n) for j, xj in enumerate(x, start=1)) for i in range(1, n)]
    sigma = se.sigma_permutation(n, 2)
    return all(d[i - 1] == d[sigma[i] - 1] for i in range(1, n))


def dense_symmetry(n, degs):
    n_inf = (-sum(i * d for i, d in enumerate(degs, start=1))) % n
    if n_inf == 0:
        return all(degs[i - 1] == degs[n - i - 1] for i in range(1, n))
    i = n_inf
    if degs[i - 1] + 1 != degs[n - i - 1]:
        return False
    return all(degs[j - 1] == degs[n - j - 1] for j in range(1, n) if j not in (i, n - i))


@st.composite
def sparse_covers(draw):
    """A cover over F_32 with one to eight non-constant parts of degree 1 to 4,
    each a product of distinct linear factors x + a, so that the parts are
    squarefree and pairwise coprime.  About half the draws set deg f_{n-i} =
    deg f_i, so that ordinary tuples occur at every n, and indices near 0 and
    n are favoured, so that n_inf and the mirror images fall among the parts."""
    n = draw(st.sampled_from([3, 5, 7, 11, 13, 101, 1009]))
    index = st.integers(1, n - 1) | st.integers(1, min(3, n - 1)) | st.integers(max(1, n - 3), n - 1)
    indices = draw(st.lists(index, min_size=1, max_size=4, unique=True))
    degrees = {i: draw(st.integers(1, 4)) for i in indices}
    if draw(st.booleans()):
        degrees.update({n - i: d for i, d in list(degrees.items()) if n - i not in degrees})
    roots = iter(draw(st.permutations(range(32))))
    parts = [poly_one(F32)] * (n - 1)
    for i, d in degrees.items():
        for _ in range(d):
            parts[i - 1] = mul_monic(parts[i - 1], MonicPoly(F32, (next(roots),)))
    return se.SECover(F32, n, tuple(parts))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(sparse_covers())
def test_sparse_degree_rules_equal_the_dense_formulas(c):
    assert se.genus_se(c) == dense_genus(c.n, c.degrees)
    assert 0 <= se.a_number(c) <= se.genus_se(c)
    assert se.eigen_degrees(c).d == dense_eigen_degrees(c.n, c.degrees)
    assert se.ordinary_degree_tuple(c.n, c.degrees) == dense_ordinary(c.n, c.degrees)
    assert se.degree_symmetry_criterion(c.n, c.degrees) == dense_symmetry(c.n, c.degrees)


def test_two_route_agreement_random():
    rng = random.Random(424242)
    for n, field in ((5, F2), (5, F4), (7, F2), (7, F4)):
        for _ in range(25):
            c = se.random_se_cover(field, n, rng.randint(2, 4), rng)
            assert se.is_ordinary_se(c) == (se.a_number(c) == 0)
            assert sum(se.eigen_degrees(c).d) == se.genus_se(c)


def test_kernel_lemma():
    for n in (3, 5, 7, 11, 13):
        assert se.verify_kernel_lemma(n)
    with pytest.raises(DomainError):
        se.verify_kernel_lemma(9)
    with pytest.raises(ResourceGuardError):
        se.verify_kernel_lemma(103)


def test_kernel_lemma_eliminates_once(monkeypatch):
    # (i) reads the matrix entries, and the rank comes from one elimination
    calls = []
    rank = se.matrix_rank
    monkeypatch.setattr(se, "matrix_rank", lambda matrix: calls.append(1) or rank(matrix))
    assert se.verify_kernel_lemma(13)
    assert len(calls) == 1


@pytest.mark.parametrize("matrix", [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # A x^(1) != 0
    [[0] * 4] * 4,  # A x^(1) = 0, but rank 0, not 3
], ids=["kernel-vector", "rank"])
def test_kernel_lemma_fails_on_a_wrong_matrix(monkeypatch, matrix):
    monkeypatch.setattr(se, "fractional_part_matrix", lambda n: matrix)
    assert se.verify_kernel_lemma(5) is False


def test_kernel_lemma_details():
    # spec: n=5, A x^(1) = 0 with x^(1) = (1,-1,-1,1)
    a = se.fractional_part_matrix(5)
    x = [1, -1, -1, 1]
    assert all(sum(Fraction(r) * xi for r, xi in zip(row, x)) == 0 for row in a)
    # spec: n=3 -> rank 2, trivial kernel; n=7 -> rank 4, kernel dim 2
    assert se.matrix_rank(se.fractional_part_matrix(3)) == 2
    assert 3 - 1 - se.matrix_rank(se.fractional_part_matrix(3)) == 0
    assert se.matrix_rank(se.fractional_part_matrix(7)) == 4
    assert 7 - 1 - se.matrix_rank(se.fractional_part_matrix(7)) == 2


@st.composite
def _rational_matrices(draw):
    """0-6 rows of 0-6 rational columns: independent rows, zero rows and
    rows that are combinations of earlier rows, in a drawn order."""
    cols = draw(st.integers(0, 6))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["free", "zero", "combination"]), max_size=6)):
        if kind == "free" or (kind == "combination" and not rows):
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([Fraction(0)] * cols)
        else:
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
                         for j in range(cols)])
    return cols, draw(st.permutations(rows))


def _sympy_matrix(rows, cols):
    import sympy
    return sympy.Matrix(len(rows), cols, [x for row in rows for x in row])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rational_matrices())
def test_matrix_rank_matches_sympy(shape):
    # sympy's rank shares no code with the forward elimination
    cols, rows = shape
    assert se.matrix_rank(rows) == _sympy_matrix(rows, cols).rank()


def test_matrix_rank_of_the_fractional_part_matrix_matches_sympy():
    for n in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        a = se.fractional_part_matrix(n)
        assert se.matrix_rank(a) == _sympy_matrix(a, n - 1).rank(), n


def test_kernel_is_symmetric_by_sympy():
    # the statement verify_kernel_lemma derives from (i) and (ii), computed apart
    for n in (3, 5, 7, 11, 13):
        kernel = _sympy_matrix(se.fractional_part_matrix(n), n - 1).nullspace()
        assert len(kernel) == (n - 3) // 2, n
        for v in kernel:
            assert all(v[k - 1] == v[n - k - 1] for k in range(1, n)), n


def test_count_tuple_family_examples():
    # spec: q=2, n=3: |F_{1,0}| = 2, |F_{1,1}| = 2, |F_{0,...,0}| = 1
    assert se.count_tuple_family(F2, (1, 0)) == 2
    assert se.count_tuple_family(F2, (1, 1)) == 2
    assert se.count_tuple_family(F2, (0, 0)) == 1
    with pytest.raises(ResourceGuardError):
        se.count_tuple_family(F2, (10, 10))


def test_census_examples():
    rows = se.census_se(F2, 3, 3)
    assert rows[0][0] == 1
    assert rows[1][0] == 4   # spec hand computation
    assert rows[2][0] == 6   # 2^2 + 2 over the two squarefree quadratics
    # routes cross-checked internally; b <= a throughout
    for a, b in rows.values():
        assert 0 <= b <= a


def test_omega_identity():
    # ordered factorizations of squarefree H into n-1 coprime parts = (n-1)^omega(H)
    from ordcensus.polys import omega
    for n in (3, 5):
        for m in range(1, 6):
            for (h,) in se.enumerate_tuple_family(F2, (m,)):
                count = 0
                for e in se.degree_tuples(n, m):
                    for parts in se.enumerate_tuple_family(F2, e):
                        prod = parts[0]
                        for f in parts[1:]:
                            from ordcensus.polys import mul_monic
                            prod = mul_monic(prod, f)
                        if prod == h:
                            count += 1
                assert count == (n - 1) ** omega(h)


def test_ordinary_ratio_decreasing():
    ratios = dict(se.ordinary_ratio_se(F2, 3, 10))
    assert all(0 < r <= 1 for r in ratios.values())
    # decreasing for m >= 4 in the even steps
    assert ratios[10] < ratios[6]


def test_growth_bound():
    for r in (2, 3, 4):
        assert se.growth_bound_holds(2, r, 30)


def test_bdfl_ratio_report():
    # |F_{0,0}| zeta(2)^2 / L_1: a fixed positive number, no hard tolerance
    v = se.bdfl_ratio_report(F2, 0, 0)
    assert v > 0
    # balanced moderate degrees drift toward 1
    v2 = se.bdfl_ratio_report(F2, 3, 3)
    assert 0.2 < v2 < 5


def test_bdfl_ratio_report_keeps_its_floats():
    # the floats of the 30-digit mpmath evaluation this report replaced
    F8 = FieldSpec(2, 3)
    assert [se.bdfl_ratio_report(F, e1, e2) for F, e1, e2 in
            ((F2, 0, 0), (F2, 3, 3), (F4, 2, 1), (F4, 2, 2), (F8, 1, 1))] == [
        5.515120095480131, 0.8617375149187705, 1.2092171737026511, 0.9069128802769884,
        1.2715603825920152]


def test_random_cover_determinism():
    a = se.random_se_cover(F2, 3, 4, random.Random(7))
    b = se.random_se_cover(F2, 3, 4, random.Random(7))
    assert a == b


def test_census_se_guard_fires_before_any_route(monkeypatch):
    def no_work(*args):
        raise AssertionError("census route ran before the guard")
    monkeypatch.setattr(se, "census_a_euler", no_work)
    monkeypatch.setattr(se, "count_tuple_family", no_work)
    monkeypatch.setattr(se, "census_a_omega", no_work)
    for field, m_max in ((F2, se.MAX_TUPLE_DEGREE + 1), (F4, 9)):
        with pytest.raises(ResourceGuardError):
            se.census_se(field, 3, m_max)


def test_tuple_families_enumerated_once_per_sorted_degree_tuple(monkeypatch, cold_caches):
    calls = []
    family_positions = se._tuple_family_positions

    def recording(field, e):
        calls.append(tuple(e))
        return family_positions(field, e)
    monkeypatch.setattr(se, "_tuple_family_positions", recording)
    se.census_se(F2, 5, 7)
    expected = {tuple(sorted(e)) for m in range(8) for e in se.degree_tuples(5, m)}
    assert len(calls) == len(set(calls))
    assert set(calls) == expected


def test_tuple_family_count_is_symmetric():
    # the last: many parts of degree 0, past the recursion limit if each took a level
    for e in ((3, 1), (2, 0, 1, 1), (0, 4), (1,) + (0,) * 1200):
        count = sum(1 for _ in se.enumerate_tuple_family(F2, e))
        assert se.count_tuple_family(F2, e) == count
        assert se.count_tuple_family(F2, tuple(reversed(e))) == count


def test_no_route_builds_a_cover_the_record_refuses(cold_caches):
    # every part constant, y^n = 1, is the one equation with sum deg f_i = m
    # that is not a curve, and at m = 0 it is the only one
    assert list(se.enumerate_se_covers(F2, 3, 0)) == []
    with pytest.raises(DomainError, match="no admissible degree tuples with sum 0"):
        se.random_se_cover(F2, 3, 0, random.Random(0))
    for field, n, m_max in ((F2, 3, 6), (F4, 5, 3), (F2, 7, 4)):
        for m in range(1, m_max + 1):
            tuples = se._sample_tuples(field, n, m)
            assert tuples == tuple(e for e in se.degree_tuples(n, m)
                                   if any(se._tuple_family_positions(field, e)))
            for e in tuples:
                se.SECover(field, n, next(se.enumerate_tuple_family(field, e)))


def test_sampler_checks_and_lists_once_per_sorted_degree_tuple(monkeypatch, cold_caches):
    calls, guards = [], []
    family_positions, guard = se._tuple_family_positions, se._guard_tuple_count

    def recording(field, e):
        calls.append(tuple(e))
        return family_positions(field, e)
    monkeypatch.setattr(se, "_tuple_family_positions", recording)
    monkeypatch.setattr(se, "_guard_tuple_count", lambda *args: guards.append(guard(*args)))
    draws = [se.random_se_cover(F2, 5, 6, random.Random(seed)) for seed in range(3)]
    assert len({c.degrees for c in draws}) > 1
    assert len(guards) == 1
    assert len(calls) == len(set(calls))
    assert set(calls) == {tuple(sorted(e)) for e in se.degree_tuples(5, 6)}


def test_sampler_refuses_a_negative_degree_sum():
    for m in (-1, -4):
        with pytest.raises(DomainError, match="must be >= 0"):
            se.random_se_cover(F2, 3, m, random.Random(0))


def test_sampler_guards_on_number_of_monics():
    F8 = FieldSpec(2, 3)
    for field, m in ((F4, 9), (F8, 6), (F2, se.MAX_TUPLE_DEGREE + 1)):
        with pytest.raises(ResourceGuardError):
            se.random_se_cover(field, 3, m, random.Random(0))
        with pytest.raises(ResourceGuardError):
            next(se.enumerate_tuple_family(field, (m - 1, 1)))


def test_classify_fields_in_order(monkeypatch):
    c = cover(F2, 3, "0,1,1", "1")
    assert list(c.classify().items()) == [
        ("kind", "superelliptic"), ("genus", 1), ("m", 3), ("d_i", [0, 1]),
        ("a_number", 1), ("ordinary", False)]
    assert cover(F2, 3, "1,1,1", "0,1,1").classify()["ordinary"] is True
    # the a-number and the degree criterion are checked against each other
    monkeypatch.setattr(secover, "a_number", lambda c: 0)
    with pytest.raises(InvariantViolation) as info:
        c.classify()
    assert str(info.value) == (
        "classification routes disagree on {'kind': 'superelliptic', 'genus': 1, 'm': 3, "
        "'d_i': [0, 1], 'a_number': 0, 'ordinary': False}; "
        'cover = {"q": 2, "n": 3, "parts": ["0,1,1", "1"]}')
    # the cover after "; cover = " loads back as the same cover
    assert cover_from_dict(json.loads(str(info.value).split("; cover = ")[1])) == c


def test_sample_covers_checks_everything_before_the_first_draw(monkeypatch):
    assert se.sample_covers(3, q=4, n=5, max_m=3, seed=7) == se.sample_covers(3, 4, 5, 3, 7)
    assert len(se.sample_covers(2)) == 2

    def no_draw(*args):
        raise AssertionError("drew a cover before the checks")
    monkeypatch.setattr(se, "random_se_cover", no_draw)
    # each case breaks the checks from its own onwards, so the first check
    # that fails is the one named
    cases = [
        ((-1, 3, 4, -1, 0), DomainError, "--sample must be >= 0"),
        ((10 ** 9, 3, 4, -1, 0), DomainError, "q = 3 is not a power of p = 2"),
        ((10 ** 9, 2, 4, -1, 0), DomainError, "odd prime"),
        ((10 ** 9, 2, 3, -1, 0), DomainError, "--max-m must be >= 0"),
        ((61882, 2, 3, 1, 0), ResourceGuardError, "classify --sample guarded at N"),
    ]
    for args, error, message in cases:
        with pytest.raises(error, match=message):
            se.sample_covers(*args)
    assert se.sample_covers(0, 2, 3, 1) == []
    with pytest.raises(AssertionError, match="before the checks"):
        se.sample_covers(61881, 2, 3, 1)
