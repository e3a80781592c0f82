"""Table arithmetic of FieldSpec against sympy's galoistools, which shares no
code with it, plus property tests of the field axioms, the trace and the
subfield embedding."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_pow_mod, gf_rem

from ordcensus.errors import DomainError
from ordcensus.fields import FieldSpec, digits, embedding, undigits

SIZES = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 7)]


def to_gf(F, a):
    """Code -> sympy dense polynomial (highest degree first, stripped)."""
    ds = list(reversed(digits(a, F.p, F.k)))
    while ds and ds[0] == 0:
        ds.pop(0)
    return ds


def from_gf(F, f):
    return undigits(f[::-1], F.p)


def gf_modulus(F):
    return [1] + list(reversed(F.modulus))


# each id ends in "-False" (not a custom modulus), the name each case has run under
@pytest.mark.parametrize("p,k", SIZES, ids=[f"{p}-{k}-False" for p, k in SIZES])
def test_against_galoistools(p, k):
    # t is primitive under most default moduli, but not in F_9, F_25, F_49 and
    # F_81, so the primitive-element search is exercised (see
    # test_the_primitive_element_search_is_exercised)
    F = FieldSpec(p, k)
    m = gf_modulus(F)
    rng = random.Random(p * 100 + k * 10)
    samples = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(40)]
    samples += [(0, 1), (1, F.q - 1), (F.q - 1, F.q - 1)]
    for a, b in samples:
        fa, fb = to_gf(F, a), to_gf(F, b)
        assert F.add(a, b) == from_gf(F, gf_add(fa, fb, p, ZZ))
        assert F.mul(a, b) == from_gf(F, gf_rem(gf_mul(fa, fb, p, ZZ), m, p, ZZ))
        e = rng.randrange(3 * F.q)
        assert F.pow(a, e) == from_gf(F, gf_pow_mod(fa, e, m, p, ZZ))
        if a:
            # a^(q-2) is the inverse in F_q^*
            assert F.inv(a) == from_gf(F, gf_pow_mod(fa, F.q - 2, m, p, ZZ))
            assert F.pow(a, -e) == F.pow(F.inv(a), e)


def test_the_primitive_element_search_is_exercised():
    # t, coded p, does not generate F_q^* under these default moduli
    assert FieldSpec(3, 2).mul(3, 3) == 2  # over F_9, t^2 = -1
    for p, k in [(3, 2), (5, 2), (7, 2), (3, 4)]:
        F = FieldSpec(p, k)
        assert math.gcd(F.log(p), F.q - 1) > 1


TRACE_SIZES = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 13) if p ** k <= 2 ** 12]


@pytest.mark.parametrize("p,k", TRACE_SIZES)
def test_trace_is_the_sum_of_the_frobenius_conjugates(p, k):
    F = FieldSpec(p, k)
    for a in F.elements():
        tau = 0
        for j in range(k):
            tau = F.add(tau, F.pow(a, p ** j))
        assert F.trace(a) == tau


def test_log_exp_tables():
    for p, k in [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2)]:
        F = FieldSpec(p, k)
        assert sorted(F.exp(i) for i in range(F.q - 1)) == list(range(1, F.q))
        for a in range(1, F.q):
            assert F.exp(F.log(a)) == a
    with pytest.raises(DomainError):
        FieldSpec(2, 3).log(0)


FIELDS = [FieldSpec(2, 4), FieldSpec(3, 3), FieldSpec(5, 2), FieldSpec(7, 2),
          FieldSpec(3, 2), FieldSpec(2, 6)]


@st.composite
def field_and_elements(draw, n=3):
    F = draw(st.sampled_from(FIELDS))
    return (F,) + tuple(draw(st.integers(0, F.q - 1)) for _ in range(n))


@settings(max_examples=150, deadline=None)
@given(field_and_elements())
def test_field_axioms(args):
    F, a, b, c = args
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, 0) == a and F.mul(a, 1) == a
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(F.add(a, b), b) == a
    if a:
        assert F.mul(a, F.inv(a)) == 1


@settings(max_examples=150, deadline=None)
@given(field_and_elements())
def test_trace_is_linear(args):
    F, a, b, c = args
    p = F.p
    s = c % p  # an element of F_p
    assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % p
    assert F.trace(F.mul(s, a)) == s * F.trace(a) % p
    assert F.trace(F.pow(a, p)) == F.trace(a)
    assert 0 <= F.trace(a) < p


@pytest.mark.parametrize("sub", [FieldSpec(2, 2), FieldSpec(2, 3), FieldSpec(3, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_embedding_is_a_ring_homomorphism(sub, d):
    field = FieldSpec(sub.p, sub.k * d)
    emb = embedding(sub, field)
    assert len(set(emb)) == sub.q
    assert emb[0] == 0 and emb[1] == 1
    for a in sub.elements():
        assert field.pow(emb[a], sub.q) == emb[a]  # lands in the subfield
        for b in sub.elements():
            assert emb[sub.add(a, b)] == field.add(emb[a], emb[b])
            assert emb[sub.mul(a, b)] == field.mul(emb[a], emb[b])


def test_embedding_rejects_non_subfield():
    with pytest.raises(DomainError):
        embedding(FieldSpec(2, 2), FieldSpec(2, 3))
    with pytest.raises(DomainError):
        embedding(FieldSpec(3), FieldSpec(2, 2))
