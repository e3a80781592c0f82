import random

import pytest

from ordcensus.errors import DomainError
from ordcensus.fields import ExtField, FieldSpec, default_modulus, is_prime


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


def test_ext_field_basic():
    F2 = FieldSpec(2)
    # F_8 = F_2[t]/(t^3 + t + 1)
    E = ExtField(F2, (1, 1, 0))
    assert E.size == 8
    t = E.gen()
    assert E.mul(t, E.mul(t, t)) == E.add(t, E.one)  # t^3 = t + 1
    elements = [E.from_index(n) for n in range(8)]
    assert sorted(elements) == list(range(8))
    for z in elements:
        if z != E.zero:
            assert E.mul(z, E.inv(z)) == E.one
        assert E.pow(z, 8) == z


def test_ext_field_frobenius_and_trace():
    F4 = FieldSpec(2, 2)
    # a degree-2 extension of F_4 (16 elements)
    t = F4.undigits((0, 1))
    E = ExtField(F4, (t, 1))  # u^2 + u + t, irreducible over F_4
    assert E.size == 16
    for z in E.elements():
        assert E.pow(z, 16) == z
        # frobenius is the q-power map and fixes exactly the base field
        frob = E.frobenius(z)
        assert frob == E.pow(z, 4)
    fixed = [z for z in E.elements() if E.frobenius(z) == z]
    assert len(fixed) == 4
    assert {E.trace(z) for z in E.elements()} == {0, 1}


def test_ext_field_in_base():
    F2 = FieldSpec(2)
    E = ExtField(F2, (1, 1, 0))
    assert E.in_base(E.embed(1)) == 1
    with pytest.raises(DomainError):
        E.in_base(E.gen())


def test_from_index_is_a_ring_isomorphism():
    # from_index maps F_q[t]/(h), coordinates read as base-q digits, onto the
    # ExtField; so the serialized "local" indices keep their meaning
    from ordcensus import _polyarith as pa
    from ordcensus.polys import ext_field_for, places_of_degree
    rng = random.Random(11)
    for K in (FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)):
        for d in (1, 2, 3):
            for place in places_of_degree(K, d)[:2]:
                E = ext_field_for(place)

                def index(c):  # of a polynomial in t over K, reduced mod h
                    return sum(x * K.q ** i for i, x in enumerate(c))

                assert E.size == K.q ** d
                assert sorted(map(E.from_index, range(E.size))) == list(range(E.size))
                for c in range(K.q):
                    assert E.in_base(E.embed(c)) == c
                if d >= 2:
                    assert E.from_index(K.q) == E.gen()
                for _ in range(60):
                    a = pa.trim(K, [rng.randrange(K.q) for _ in range(d)])
                    b = pa.trim(K, [rng.randrange(K.q) for _ in range(d)])
                    za, zb = E.from_index(index(a)), E.from_index(index(b))
                    assert E.add(za, zb) == E.from_index(index(pa.add(K, a, b)))
                    ab = pa.mod(K, pa.mul(K, a, b), place.poly.full)
                    assert E.mul(za, zb) == E.from_index(index(ab))
