import random

import pytest

from ordcensus.errors import DomainError
from ordcensus.fields import FieldSpec, default_modulus, from_index, is_prime, residue_field


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


def test_residue_field_basic():
    F2 = FieldSpec(2)
    # F_8 = F_2[t]/(t^3 + t + 1)
    rf = residue_field(F2, (1, 1, 0))
    E, t = rf.field, rf.root
    assert E.q == 8
    assert E.mul(t, E.mul(t, t)) == E.add(t, E.one)  # t^3 = t + 1
    elements = [from_index(rf, n) for n in range(8)]
    assert sorted(elements) == list(range(8))
    for z in elements:
        if z != E.zero:
            assert E.mul(z, E.inv(z)) == E.one
        assert E.pow(z, 8) == z


def test_residue_field_frobenius_and_trace():
    F4 = FieldSpec(2, 2)
    # a degree-2 extension of F_4 (16 elements)
    t = F4.undigits((0, 1))
    rf = residue_field(F4, (t, 1))  # u^2 + u + t, irreducible over F_4
    E, alpha = rf.field, rf.root
    assert E.q == 16
    assert E.add(E.add(E.mul(alpha, alpha), alpha), rf.images[t]) == 0
    # alpha generates over F_4: 1 and alpha span the field
    assert sorted(from_index(rf, n) for n in range(16)) == list(range(16))
    for z in range(16):
        assert E.pow(z, 16) == z
    # the Frobenius z -> z^4 fixes exactly the images of the base field
    assert {z for z in range(16) if E.pow(z, 4) == z} == set(rf.images)
    assert E.pow(alpha, 4) != alpha
    assert {E.trace(z) for z in range(16)} == {0, 1}


def test_residue_field_base_images(monkeypatch):
    from ordcensus import polys
    F2 = FieldSpec(2)
    rf = residue_field(F2, (1, 1, 0))
    assert rf.preimage[rf.images[1]] == 1
    assert rf.root not in rf.preimage
    # local_to_global reads each relative trace back through the inverse
    # images, and a trace that they do not hold is a DomainError
    place = polys.Place(polys.MonicPoly(F2, (1, 1, 0)))
    assert polys.ext_field_for(place) == rf
    assert polys.local_to_global(place, (rf.root,)) != ()
    monkeypatch.setitem(polys._EXT_CACHE, place, rf._replace(preimage={}))
    with pytest.raises(DomainError, match="base field"):
        polys.local_to_global(place, (rf.root,))


def test_residue_field_of_a_reducible_polynomial_is_an_error():
    # (), (t + 1)^2 and t^2 (t + 1) over F_2, and (t - 1)(t + 1) over F_3
    for K, h in ((FieldSpec(2), ()), (FieldSpec(2), (1, 0)), (FieldSpec(2), (0, 0, 1)),
                 (FieldSpec(3), (2, 0))):
        with pytest.raises(DomainError):
            residue_field(K, h)


def test_from_index_is_a_ring_isomorphism():
    # from_index maps F_q[t]/(h), coordinates read as base-q digits, onto the
    # residue field; so the serialized "local" indices keep their meaning
    from ordcensus import _polyarith as pa
    from ordcensus.polys import ext_field_for, places_of_degree
    rng = random.Random(11)
    for K in (FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)):
        for d in (1, 2, 3):
            for place in places_of_degree(K, d)[:2]:
                rf = ext_field_for(place)
                E = rf.field

                def index(c):  # of a polynomial in t over K, reduced mod h
                    return sum(x * K.q ** i for i, x in enumerate(c))

                assert E.q == K.q ** d
                assert sorted(from_index(rf, n) for n in range(E.q)) == list(range(E.q))
                for c in range(K.q):
                    assert rf.preimage[rf.images[c]] == c
                if d >= 2:
                    assert from_index(rf, K.q) == rf.root
                for _ in range(60):
                    a = pa.trim(K, [rng.randrange(K.q) for _ in range(d)])
                    b = pa.trim(K, [rng.randrange(K.q) for _ in range(d)])
                    za, zb = from_index(rf, index(a)), from_index(rf, index(b))
                    assert E.add(za, zb) == from_index(rf, index(pa.add(K, a, b)))
                    ab = pa.mod(K, pa.mul(K, a, b), place.poly.full)
                    assert E.mul(za, zb) == from_index(rf, index(ab))
