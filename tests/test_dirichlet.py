from decimal import Decimal
from fractions import Fraction

import pytest

from ordcensus import dirichlet as dd
from ordcensus.artin_schreier import admissible_pole_orders, count_local_parts
from ordcensus.errors import DomainError, InvariantViolation, ResourceGuardError
from ordcensus.fields import FieldSpec
from ordcensus.polys import places_of_degree

TABLE1_PHI = {2: 0.314148, 4: 0.593976, 8: 0.776577, 16: 0.882162, 32: 0.939367}
TABLE1_PAS = {2: 0.314148, 4: 0.514777, 8: 0.702617, 16: 0.833730, 32: 0.911820}
TABLE1_CEZB = {2: 0.419422, 4: 0.737512, 8: 0.873264, 16: 0.937270, 32: 0.968720}


def test_series_multiply_and_pow():
    a = [1, 1]                                  # 1 + u
    assert dd.series_multiply(a, a, 4) == [1, 2, 1, 0, 0]
    assert dd.series_multiply(a, [1, 2, 1], 2) == [1, 3, 3]  # truncated at degree 2


def test_euler_coefficients_closed_form():
    # prod_Q (1 + u^{deg Q}) = zeta(s)/zeta(2s) = (1 - q u^2)/(1 - q u)
    M = 60
    for q in (2, 3, 4):
        c = dd.euler_coefficients(q, lambda d: [1, 1], M)
        assert c[:2] == [1, q]
        assert c[2:] == [q ** m - q ** (m - 1) for m in range(2, M + 1)]


def _as_local_factors(q, p, M):
    def all_covers(d):
        coeffs = [1] + [0] * (M // d)
        for k in admissible_pole_orders(p, M // d):
            coeffs[k] = count_local_parts(q ** d, k - 1, p)
        return coeffs
    return all_covers, lambda d: [1, 0, q ** d - 1]


@pytest.mark.parametrize("field, M", [(FieldSpec(2), 12), (FieldSpec(3), 8), (FieldSpec(2, 2), 6)])
def test_euler_coefficients_match_the_product_over_places(field, M):
    # one series_multiply per place listed by places_of_degree: nothing
    # shared with the logarithmic-derivative recurrence
    q = field.q
    factors = [*_as_local_factors(q, field.p, M), lambda d: [1, 2], lambda d: [1, 4]]
    for local in factors:
        product = [1] + [0] * M
        for d in range(1, M + 1):
            spread = [0] * (M + 1)
            for j, x in enumerate(local(d)[: M // d + 1]):
                spread[j * d] = x
            for _ in places_of_degree(field, d):
                product = dd.series_multiply(spread, product, M)
        assert dd.euler_coefficients(q, local, M) == product


def test_euler_coefficients_refuse_what_is_not_an_integer_series():
    with pytest.raises(InvariantViolation, match="degree-1 local factor has constant term 2"):
        dd.euler_coefficients(2, lambda d: [2, 1], 4)
    # prod_Q (1 + |Q|^{-s}/2) over F_3 has u-coefficient 3/2
    with pytest.raises(InvariantViolation, match="c_1 is not an integer"):
        dd.euler_coefficients(3, lambda d: [1, Fraction(1, 2)], 4)


def test_cumulative_ratios():
    rows = {0: (1, 1), 1: (2, 0), 2: (1, 1)}
    assert list(dd.cumulative_ratios(rows, range(3))) == [
        (0, 1, 1, 1.0), (1, 2, 0, 1 / 3), (2, 1, 1, 0.5)]
    with pytest.raises(DomainError):
        list(dd.cumulative_ratios({2: (0, 0)}, [2]))


def test_zeta_affine():
    # zeta(2) over F_q is 1/(1 - q^{-1}) = q/(q-1)
    assert abs(dd.zeta_affine(2, 2) - 2) < 1e-25
    assert abs(dd.zeta_affine(3, 2) - Decimal(3) / 2) < 1e-25
    with pytest.raises(DomainError):
        dd.zeta_affine(2, 1)


def test_zeta_affine_truncated_matches_closed_form():
    for q in (2, 3, 4):
        for s in (2, 3):
            ep = dd.zeta_affine_truncated(q, s, 25)
            assert abs(ep.value - dd.zeta_affine(q, s)) <= ep.error_bound + Decimal("1e-20")
    with pytest.raises(DomainError, match="pole at s = 1"):
        dd.zeta_affine_truncated(2, 1, 8)


def test_phi_at_1_table():
    for q, want in TABLE1_PHI.items():
        ep = dd.phi_at_1(q)
        assert ep.error_bound < 1e-8
        assert abs(float(ep.value) - want) < 1e-5


def test_psi_2_exact():
    for q in (2, 4, 8):
        ep = dd.psi_p_at_1(2, q)
        assert abs(ep.value - (1 - Decimal(1) / q)) < 1e-25
        assert ep.error_bound == 0


def test_psi_p_odd():
    # for p >= 3 the product converges to something in (0, 1)
    for p, q in ((3, 3), (5, 5), (3, 9)):
        ep = dd.psi_p_at_1(p, q)
        assert 0 < float(ep.value) < 1
        assert ep.error_bound < 1e-8
    with pytest.raises(DomainError):
        dd.psi_p_at_1(3, 4)


def test_q_must_be_a_power_of_p():
    for q, p in ((6, 2), (6, 3), (16, 4)):
        with pytest.raises(DomainError):
            dd.psi_p_at_1(p, q)
        for include_infinity in (False, True):
            with pytest.raises(DomainError):
                dd.ordinary_probability_as(q, p, include_infinity)


def test_ordinary_probability_as_table():
    for q, want in TABLE1_PAS.items():
        got = float(dd.ordinary_probability_as(q, 2, include_infinity=True))
        assert abs(got - want) < 1e-5
    # unramified version equals phi(1) * zeta(2)
    got = float(dd.ordinary_probability_as(2, 2, include_infinity=False))
    assert abs(got - float(dd.phi_at_1(2).value) * 2) < 1e-12
    assert dd.ordinary_probability_as(3, 3, include_infinity=False) == 0


def test_cezb_table():
    for q, want in TABLE1_CEZB.items():
        assert abs(float(dd.cezb_constant(q)) - want) < 1e-5


def test_phi_k():
    assert dd.phi_k_at_1(2, 0).value == 1
    # phi_1(1) = prod (1+x)(1-x) = prod (1 - |Q|^{-2}) = 1/zeta(2)
    ep = dd.phi_k_at_1(2, 1)
    assert abs(ep.value - Decimal("0.5")) <= ep.error_bound + Decimal("1e-20")
    for k in (2, 4, 6):
        assert 0 < float(dd.phi_k_at_1(2, k).value) < 1
    with pytest.raises(DomainError, match="k must be >= 0"):
        dd.phi_k_at_1(2, -1)


def test_l_constant():
    for n, q in ((3, 2), (3, 8), (5, 2)):
        ep = dd.l_constant(n, q)
        assert 0 < float(ep.value) < 1
        assert ep.error_bound < 1e-8
    with pytest.raises(DomainError):
        dd.l_constant(4, 2)


def test_kappa_constant():
    for n, q in ((3, 2), (5, 2), (3, 4)):
        assert float(dd.kappa_constant(n, q)) > 0
    with pytest.raises(DomainError):
        dd.kappa_constant(9, 2)


def test_kappa_and_l_keep_their_floats():
    # the floats of the 30-digit mpmath evaluation these constants replaced:
    # no CLI output carries kappa_n or L_{n-2}
    assert {(n, q): float(dd.kappa_constant(n, q))
            for n, q in ((3, 2), (5, 2), (3, 4), (7, 3), (5, 9))} == {
        (3, 2): 0.5231781053799122, (5, 2): 0.006766135436196392,
        (3, 4): 1.3422170610138426, (7, 3): 0.00017373891182995155,
        (5, 9): 0.25388328829377266}
    got = {(n, q): dd.l_constant(n, q) for n, q in ((3, 2), (3, 8), (5, 2), (7, 4), (5, 9))}
    assert {k: (float(ep.value), ep.truncation_degree, float(ep.error_bound))
            for k, ep in got.items()} == {
        (3, 2): (0.7252788571690697, 28, 7.453446321875289e-10),
        (3, 8): (0.8987832261079753, 8, 6.802749857140725e-09),
        (5, 2): (0.22511652979516544, 28, 9.253786771784765e-10),
        (7, 4): (0.1290618827093009, 16, 4.242290996798885e-11),
        (5, 9): (0.5956997167871506, 12, 6.489838946512701e-13)}


def test_tail_bound_shrinks():
    b1 = dd._tail_bound(2, 20, 3, 2)
    b2 = dd._tail_bound(2, 40, 3, 2)
    assert b2 < b1 < Decimal("1e-4")


def test_truncation_search_steps_past_degrees_where_the_tail_bound_fails():
    # psi_127(1) has lead ~2^127, so its tail bound holds only from D = 11:
    # the search goes on past 8 to the first D where it holds and is <= 1e-8
    ep = dd.psi_p_at_1(127, 127)
    assert ep.truncation_degree == 24
    assert 0 < ep.value < 1 and 0 < ep.error_bound < ep.value * Decimal("1e-8")
    # a D the caller gives is still refused where the bound fails
    assert dd._tail_bound(127, 8, 2 ** 127, 2) is None
    with pytest.raises(DomainError, match="truncation degree too small"):
        dd.euler_product(127, lambda x: 1, lead=2 ** 127, D=8)


def test_psi_p_is_refused_above_its_bound_before_any_product(monkeypatch):
    def no_work(*args):
        raise AssertionError("series formed past the guard")
    monkeypatch.setattr(dd, "series_multiply", no_work)
    for p, q in ((2053, 2053), (1048573, 1048573)):  # the primes past 2048 and below 2^20
        with pytest.raises(ResourceGuardError, match=f"p <= 2048, got p = {p}"):
            dd.psi_p_at_1(p, q)
    with pytest.raises(AssertionError, match="past the guard"):
        dd.psi_p_at_1(2039, 2039)


def test_local_polynomial_product_refuses_an_uncancelled_first_term():
    # the tail bound needs the 1/|Q| term to cancel; a raise survives python -O
    with pytest.raises(InvariantViolation, match=r"\[1, 1\]"):
        dd._local_polynomial_product(2, [1, 1])


def test_expm1_keeps_its_relative_precision():
    # exp(t) - 1 at 30 digits alone keeps 10 digits of t = 1e-20
    with dd.working_context():
        assert dd._expm1(Decimal("1e-20")) == Decimal("1.00000000000000000000500000000E-20")
        assert dd._expm1(Decimal("0.5")) == Decimal("0.648721270700128146848650787814")


def test_zeta_truncation_bound_sweep():
    # the claimed tail bound covers the true truncation error across depths
    for q in (2, 3):
        for s in (1.5, 2, 3):
            exact = dd.zeta_affine(q, s)
            for D in range(4, 15):
                ep = dd.zeta_affine_truncated(q, s, D)
                assert abs(ep.value - exact) <= ep.error_bound + Decimal("1e-20")


def test_euler_product_stabilization():
    # deepening the truncation moves the value by at most the claimed bound
    for q in (2, 3):
        for D in range(8, 17, 2):
            shallow = dd.phi_at_1(q, D=D)
            deeper = dd.phi_at_1(q, D=D + 2)
            assert abs(deeper.value - shallow.value) <= shallow.error_bound


def test_euler_product_error_bound_honest():
    # truncating at two different depths stays within the claimed bounds
    shallow = dd.phi_at_1(2, D=12)
    deep = dd.phi_at_1(2, D=60)
    assert abs(shallow.value - deep.value) <= shallow.error_bound + deep.error_bound


def test_euler_products_carry_their_rounding(monkeypatch):
    # each factor is raised to I_d, up to ~q^D/D, which multiplies its
    # rounding error; the value and bound must still hold to WORKING_DPS
    cases = [(121, 11), (1024, 2), (128, 2), (81, 3), (2, 2), (3, 3)]
    got = {(q, p): (dd.phi_at_1.__wrapped__(q), dd.psi_p_at_1(p, q)) for q, p in cases}
    monkeypatch.setattr(dd, "WORKING_DPS", dd.WORKING_DPS + 40)
    for (q, p), products in got.items():
        for ep, ref in zip(products, (dd.phi_at_1.__wrapped__(q), dd.psi_p_at_1(p, q))):
            assert ep.truncation_degree == ref.truncation_degree
            assert abs(ep.value - ref.value) <= Decimal("1e-25") * abs(ref.value), (q, p)
            assert abs(ep.error_bound - ref.error_bound) <= Decimal("1e-12") * ref.error_bound, (q, p)


def test_reports_are_what_the_cli_prints(capsys):
    """``table1_rows`` and ``constants_report`` are the rows ``report-table1
    --format json`` and ``constants`` print, keys in the same order."""
    import json
    from ordcensus.cli import main

    def printed(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    rows = dd.table1_rows()
    assert [q for q in dd.TABLE1] == [row["q"] for row in rows] == [2, 4, 8, 16, 32]
    assert [list(row.items()) for row in rows] == \
        [list(row.items()) for row in printed("report-table1", "--format", "json")]
    for q, p in ((3, 3), (4, 2), (9, 3)):
        report = dd.constants_report(q, p)
        assert list(report.items()) == list(printed("constants", "--q", str(q), "--p", str(p)).items())
    with pytest.raises(DomainError):
        dd.constants_report(4, 3)
