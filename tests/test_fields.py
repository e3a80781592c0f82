import copy
import pickle
import random

import pytest

from ordcensus.errors import DomainError, ResourceGuardError
from ordcensus.fields import (FieldSpec, default_modulus, extension, from_log_derivative,
                              is_irreducible_over, is_prime, log_derivative)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_guards_before_its_trial_division():
    assert is_prime(2 ** 40 - 87)  # the largest prime it tests, ~0.1 s
    with pytest.raises(ResourceGuardError, match="primality test guarded at n <= 2"):
        is_prime(2 ** 40 + 1)


def test_newton_recurrences_invert_each_other():
    # v (1 - v)'/(1 - v) = -v - v^2 - ...
    assert log_derivative([1, -1], 5) == [0, -1, -1, -1, -1, -1]
    rng = random.Random(22)
    for _ in range(40):
        N = rng.randrange(0, 25)
        f = [1] + [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(N)]
        r = log_derivative(f, N)
        assert from_log_derivative(r, N, "c") == f
        # a series that stops early is padded with zeros
        assert from_log_derivative(log_derivative(f[:3], N), N, "c") == (f[:3] + [0] * N)[: N + 1]


def test_prime_field_arithmetic():
    F5 = FieldSpec(5)
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.neg(2) == 3
    assert F5.inv(2) == 3
    assert F5.pow(2, 4) == 1


def test_default_modulus_f4():
    # lexicographically smallest irreducible quadratic over F_2 is t^2 + t + 1
    assert default_modulus(2, 2) == (1, 1)


def test_f4_multiplication():
    # spec example: in F_4 with modulus t^2 + t + 1, t * t = t + 1
    F4 = FieldSpec(2, 2)
    t = F4.undigits((0, 1))
    t_plus_1 = F4.undigits((1, 1))
    assert F4.mul(t, t) == t_plus_1


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 5), (5, 2)])
def test_field_axioms_random(p, k):
    F = FieldSpec(p, k)
    rng = random.Random(20240800 + p * 10 + k)
    for _ in range(50):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.q) == a  # Frobenius fixed field


def test_inv_zero_raises():
    with pytest.raises(DomainError):
        FieldSpec(2, 3).inv(0)


def test_trace_surjective_and_additive():
    F8 = FieldSpec(2, 3)
    traces = {F8.trace(a) for a in F8.elements()}
    assert traces == {0, 1}
    # trace is F_p-linear
    for a in F8.elements():
        for b in (1, 3, 5):
            assert F8.trace(F8.add(a, b)) == (F8.trace(a) + F8.trace(b)) % 2
    # half the elements of F_{2^k} have trace zero
    assert sum(1 for a in F8.elements() if F8.trace(a) == 0) == 4


def test_bad_modulus_rejected():
    with pytest.raises(DomainError):
        FieldSpec(4)  # not prime
    with pytest.raises(DomainError):
        FieldSpec(2, 21)  # q > 2^20


def test_one_field_object_per_order():
    assert FieldSpec(2) is FieldSpec(2, 1)
    assert FieldSpec(2, 4) is FieldSpec(2, 4)
    assert extension(FieldSpec(2), 4)[0] is extension(FieldSpec(2, 2), 2)[0] is FieldSpec(2, 4)
    for _ in range(2):  # a refused order is not cached
        with pytest.raises(DomainError):
            FieldSpec(4)


def test_pickle_and_copy_give_back_the_field_without_its_tables():
    F = FieldSpec(2, 12)
    F.mul(5, 7), F.trace(5)  # build the tables
    data = pickle.dumps(F)
    assert len(data) < 200
    for twin in (pickle.loads(data), copy.copy(F), copy.deepcopy(F)):
        assert twin is F


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ben_or_rejects_repeated_and_equal_degree_factors(p):
    """g^2, g^3 and g h with deg g = deg h = D/2, g irreducible: the inputs
    whose smallest factor sits at the last step i = D/2, or repeats, against
    sympy's gf_irreducible_p, which shares no code with it."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_mul

    K = FieldSpec(p)
    rng = random.Random(300 + p)

    def monic(d):  # dense list, highest degree first
        return [1] + [rng.randrange(p) for _ in range(d)]

    def irreducible(d):
        return next(f for f in iter(lambda: monic(d), None) if gf_irreducible_p(f, p, ZZ))

    for half in (1, 2, 3, 5, 7):
        g = irreducible(half)
        for h in (irreducible(half), monic(half)):
            for f in (gf_mul(g, g, p, ZZ), gf_mul(gf_mul(g, g, p, ZZ), g, p, ZZ),
                      gf_mul(g, h, p, ZZ)):
                assert is_irreducible_over(K, tuple(reversed(f))) is False
                assert not gf_irreducible_p(f, p, ZZ)
        f = irreducible(2 * half)
        assert is_irreducible_over(K, tuple(reversed(f))) is True
