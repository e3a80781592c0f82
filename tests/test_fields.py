import random

import pytest

from ordcensus.errors import DomainError
from ordcensus.fields import FieldSpec, default_modulus, is_prime


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


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
        FieldSpec(2, 2, modulus=(0, 0))  # t^2 is reducible
    with pytest.raises(DomainError):
        FieldSpec(4)  # not prime
    with pytest.raises(DomainError):
        FieldSpec(2, 21)  # q > 2^20
