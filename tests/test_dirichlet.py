import pytest
from mpmath import mpf

from ordcensus import dirichlet as dd
from ordcensus.errors import DomainError

TABLE1_PHI = {2: 0.314148, 4: 0.593976, 8: 0.776577, 16: 0.882162, 32: 0.939367}
TABLE1_PAS = {2: 0.314148, 4: 0.514777, 8: 0.702617, 16: 0.833730, 32: 0.911820}
TABLE1_CEZB = {2: 0.419422, 4: 0.737512, 8: 0.873264, 16: 0.937270, 32: 0.968720}


def test_series_multiply_and_pow():
    a = [1, 1]                                  # 1 + u
    assert dd.series_multiply(a, a, 4) == [1, 2, 1, 0, 0]
    assert dd.series_pow(a, 3, 4) == [1, 3, 3, 1, 0]
    assert dd.series_pow(a, 3, 2) == [1, 3, 3]  # truncated at degree 2
    assert dd.series_pow(a, 0, 4) == [1, 0, 0, 0, 0]


def test_euler_coefficients_closed_form():
    # prod_Q (1 + u^{deg Q}) = zeta(s)/zeta(2s) = (1 - q u^2)/(1 - q u)
    M = 60
    for q in (2, 3, 4):
        c = dd.euler_coefficients(q, lambda d: [1, 1], M)
        assert c[:2] == [1, q]
        assert c[2:] == [q ** m - q ** (m - 1) for m in range(2, M + 1)]


def test_cumulative_ratios():
    rows = {0: (1, 1), 1: (2, 0), 2: (1, 1)}
    assert list(dd.cumulative_ratios(rows, range(3))) == [
        (0, 1, 1, 1.0), (1, 2, 0, 1 / 3), (2, 1, 1, 0.5)]
    with pytest.raises(DomainError):
        list(dd.cumulative_ratios({2: (0, 0)}, [2]))


def test_zeta_affine():
    # zeta(2) over F_q is 1/(1 - q^{-1}) = q/(q-1)
    assert abs(dd.zeta_affine(2, 2) - 2) < 1e-25
    assert abs(dd.zeta_affine(3, 2) - mpf(3) / 2) < 1e-25
    with pytest.raises(DomainError):
        dd.zeta_affine(2, 1)


def test_zeta_affine_truncated_matches_closed_form():
    for q in (2, 3, 4):
        for s in (2, 3):
            ep = dd.zeta_affine_truncated(q, s, 25)
            assert abs(ep.value - dd.zeta_affine(q, s)) <= ep.error_bound + mpf("1e-20")


def test_phi_at_1_table():
    for q, want in TABLE1_PHI.items():
        ep = dd.phi_at_1(q)
        assert ep.error_bound < 1e-8
        assert abs(float(ep.value) - want) < 1e-5


def test_psi_2_exact():
    for q in (2, 4, 8):
        ep = dd.psi_p_at_1(2, q)
        assert abs(ep.value - (1 - mpf(1) / q)) < 1e-25
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
    assert abs(ep.value - mpf("0.5")) <= ep.error_bound + mpf("1e-20")
    for k in (2, 4, 6):
        assert 0 < float(dd.phi_k_at_1(2, k).value) < 1


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


def test_tail_bound_shrinks():
    b1 = dd._tail_bound(2, 20, 3, 2)
    b2 = dd._tail_bound(2, 40, 3, 2)
    assert b2 < b1 < mpf("1e-4")


def test_zeta_truncation_bound_sweep():
    # the claimed tail bound covers the true truncation error across depths
    for q in (2, 3):
        for s in (1.5, 2, 3):
            exact = dd.zeta_affine(q, s)
            for D in range(4, 15):
                ep = dd.zeta_affine_truncated(q, s, D)
                assert abs(ep.value - exact) <= ep.error_bound + mpf("1e-20")


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
            assert abs(ep.value - ref.value) <= mpf("1e-25") * abs(ref.value), (q, p)
            assert abs(ep.error_bound - ref.error_bound) <= mpf("1e-12") * ref.error_bound, (q, p)
