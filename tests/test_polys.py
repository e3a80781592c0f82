import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ordcensus import _polyarith as pa
from ordcensus import polys
from ordcensus.errors import DomainError, InvariantViolation, ResourceGuardError
from ordcensus.fields import FieldSpec, count_irreducibles, digits, embedding, mobius
from ordcensus.polys import (MonicPoly, Place, enumerate_monic,
                             factor, gcd_monic, is_irreducible, is_squarefree,
                             local_to_global, monic_rank, mul_monic, omega,
                             place_sieve, places_of_degree, poly_one,
                             pow_monic, reconstruct)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)


def test_text_format():
    # spec example: over F_2, "0,1,1" is x^2 + x
    f = MonicPoly.from_text(F2, "0,1,1")
    assert f.degree == 2
    assert f.coeffs == (0, 1)
    assert f.to_text() == "0,1,1"
    assert MonicPoly.from_text(F2, "1").degree == 0
    with pytest.raises(DomainError):
        MonicPoly.from_text(F2, "1,0")  # not monic
    with pytest.raises(DomainError):
        MonicPoly.from_text(F2, "2,1")  # coefficient out of range
    with pytest.raises(DomainError):
        MonicPoly.from_text(F2, "x+1")


def test_enumerate_monic_order():
    quads = list(enumerate_monic(F2, 2))
    assert [f.coeffs for f in quads] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(DomainError, match="degree must be >= 0"):
        list(enumerate_monic(F2, -1))


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    with pytest.raises(DomainError, match="mobius is defined for n >= 1"):
        mobius(0)


@pytest.mark.parametrize("q,expected", [
    (2, [2, 1, 2, 3, 6, 9, 18, 30]),
    (3, [3, 3, 8, 18, 48, 116]),
])
def test_count_irreducibles(q, expected):
    assert [count_irreducibles(q, d) for d in range(1, len(expected) + 1)] == expected
    with pytest.raises(DomainError, match="degree must be >= 1"):
        count_irreducibles(q, 0)


def test_irreducibles_match_count():
    for field in (F2, F3, F4):
        for d in range(1, 5):
            polys = [place.poly for place in places_of_degree(field, d)]
            assert len(polys) == count_irreducibles(field.q, d)
            assert list(polys) == sorted(polys)


def test_is_irreducible_examples():
    assert is_irreducible(MonicPoly.from_text(F2, "1,1,1"))   # x^2+x+1
    assert not is_irreducible(MonicPoly.from_text(F2, "1,0,1"))  # (x+1)^2
    assert is_irreducible(MonicPoly.from_text(F2, "1,1,0,1"))  # x^3+x+1


def test_place_norm_and_validation():
    pl = Place(MonicPoly.from_text(F2, "1,1,1"))
    assert pl.degree == 2
    assert pl.norm == 4
    with pytest.raises(DomainError):
        Place(MonicPoly.from_text(F2, "1,0,1"))


def test_factor_and_squarefree():
    # x^2 + x = x(x+1) over F_2
    f = MonicPoly.from_text(F2, "0,1,1")
    fac = factor(f)
    assert [(p.poly.to_text(), m) for p, m in fac] == [("0,1", 1), ("1,1", 1)]
    assert omega(f) == 2
    assert is_squarefree(f)
    g = MonicPoly.from_text(F2, "1,0,1")  # (x+1)^2
    assert not is_squarefree(g)


def test_factor_roundtrip_random():
    rng = random.Random(31415)
    for field in (F2, F3):
        for _ in range(30):
            d = rng.randint(1, 6)
            f = MonicPoly(field, tuple(rng.randrange(field.q) for _ in range(d)))
            prod = poly_one(field)
            for place, mult in factor(f):
                prod = mul_monic(prod, pow_monic(place.poly, mult))
            assert prod == f


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        places_of_degree(FieldSpec(2, 12), 2)  # 4096^2 > 2^22


def test_sieve_guards_fire_before_any_work(monkeypatch, cold_caches):

    def refuse(*args):
        raise AssertionError("sieved past the guard")

    monkeypatch.setattr(polys, "_times_place", refuse)
    with pytest.raises(ResourceGuardError, match="irreducibles of degree 23 over F_2"):
        places_of_degree(F2, 23)
    with pytest.raises(ResourceGuardError, match="degree 23 over F_2"):
        place_sieve(F2, 23)
    with pytest.raises(DomainError, match="the place sieves need degree >= 1"):
        place_sieve(F2, 0)


# The tests below check the arithmetic of local parts, which runs over
# F_q[t]/(Q), against the field F_{q^d} = FieldSpec(p, k d) and the roots of
# Q found there by brute force: the two share only FieldSpec arithmetic.

def _value(E, coeffs, z):
    """coeffs (codes of E, lowest first) evaluated at z, by Horner."""
    acc = 0
    for c in reversed(coeffs):
        acc = E.add(E.mul(acc, z), c)
    return acc


def _roots(E, images, place):
    full = [images[c] for c in place.poly.full]
    roots = [z for z in range(E.q) if _value(E, full, z) == 0]
    assert len(roots) == place.degree
    return roots


@pytest.mark.parametrize("field, d_max", [(F2, 4), (F3, 4), (F4, 4), (FieldSpec(3, 2), 2)],
                         ids=["F2", "F3", "F4", "F9"])
def test_ext_field_for_is_the_trace_of_the_powers_of_t(field, d_max):
    # Tr(t^m) = sum_i beta^(m q^i) for a root beta of the place
    for d in range(1, d_max + 1):
        E = FieldSpec(field.p, field.k * d)
        images = embedding(field, E)
        for place in places_of_degree(field, d):
            beta = _roots(E, images, place)[0]
            traces = polys.ext_field_for(place)
            assert len(traces) == d
            for m, s in enumerate(traces):
                tr = 0
                for i in range(d):
                    tr = E.add(tr, E.pow(beta, m * field.q ** i))
                assert images[s] == tr, (place.poly, m)


def _local_value(E, images, q, place, roots, coeffs, x):
    """sum over the roots beta of the place of sum_j c_j(beta)/(x - beta)^j
    in E, c_j(beta) the element with index c_j at t = beta."""
    total = 0
    for beta in roots:
        u = E.inv(E.sub(x, beta))
        for j, n in enumerate(coeffs, 1):
            c = _value(E, [images[n // q ** i % q] for i in range(place.degree)], beta)
            total = E.add(total, E.mul(c, E.pow(u, j)))
    return total


def test_local_to_global_matches_the_definition():
    # the local part of the place is A(x)/Q(x)^e at every x of F_{q^d} that
    # is not a root
    rng = random.Random(1618)
    for field in (F2, F3, F4):
        q = field.q
        for d in (1, 2, 3):
            E = FieldSpec(field.p, field.k * d)
            images = embedding(field, E)
            for place in places_of_degree(field, d)[:2]:
                roots = _roots(E, images, place)
                for e in (1, 2, 3):
                    coeffs = tuple(rng.randrange(q ** d) for _ in range(e - 1)) + (
                        rng.randrange(1, q ** d),)
                    num = [images[c] for c in local_to_global(place, coeffs)]
                    den = [images[c] for c in pow_monic(place.poly, e).full]
                    for x in range(E.q):
                        if x not in roots:
                            assert _local_value(E, images, q, place, roots, coeffs, x) == E.mul(
                                _value(E, num, x), E.inv(_value(E, den, x)))


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_reconstruct_is_the_sum_of_the_parts(field):
    # N/D = P + the local parts of 2-3 places of mixed degree, at every x of
    # the compositum F_{q^D} that is no pole, and D = prod Q^e exactly
    rng = random.Random(field.q)
    q = field.q
    for _ in range(4):
        n = rng.randint(2, 3)
        places = ()
        while len(places) < n or len({pl.degree for pl in places}) < 2:
            places = {rng.choice(places_of_degree(field, rng.randint(1, 3))) for _ in range(n)}
        parts = tuple((pl, tuple(rng.randrange(pl.norm) for _ in range(e - 1))
                       + (rng.randrange(1, pl.norm),))
                      for pl, e in ((pl, rng.randint(1, 3)) for pl in sorted(places)))
        poly = tuple(rng.randrange(q) for _ in range(rng.randint(0, 2))) + (rng.randrange(1, q),)
        num, den = reconstruct(field, poly, parts)
        expected_den = (1,)
        for pl, coeffs in parts:
            expected_den = pa.mul(field, expected_den, pow_monic(pl.poly, len(coeffs)).full)
        assert den == expected_den
        D = math.lcm(*(pl.degree for pl in places))
        E = FieldSpec(field.p, field.k * D)
        images = embedding(field, E)
        roots = {pl: _roots(E, images, pl) for pl in places}
        poles = {beta for rs in roots.values() for beta in rs}
        for x in range(E.q):
            if x in poles:
                continue
            total = _value(E, [images[c] for c in poly], x)
            for pl, coeffs in parts:
                total = E.add(total, _local_value(E, images, q, pl, roots[pl], coeffs, x))
            assert total == E.mul(_value(E, [images[c] for c in num], x),
                                  E.inv(_value(E, [images[c] for c in den], x)))


def test_local_to_global_at_a_degree_10_place_builds_no_field(monkeypatch):
    # the first place of degree 10 over F_4, whose residue field has 2^20
    # elements; the numerator is the one that a construction of that field,
    # with a root found in FieldSpec(2, 20), gave
    from ordcensus import fields
    of_order = fields._of_order

    def no_field(p, k):
        if p ** k > F4.q:
            raise AssertionError("field built")
        return of_order(p, k)
    monkeypatch.setattr(fields, "_of_order", no_field)
    place = Place(MonicPoly.from_text(F4, "1,0,0,0,0,0,0,2,1,0,1"))
    assert local_to_global(place, (123456, 0, 987654)) == (
        1, 3, 1, 1, 1, 2, 0, 2, 3, 3, 1, 0, 1, 1, 0, 1, 2, 3, 1, 2, 2, 0, 2, 3, 2, 3, 1, 1, 3, 2)


@pytest.mark.parametrize("field", [F4, FieldSpec(3, 2)], ids=["F4", "F9"])
def test_derivative_is_the_derivation_with_x_prime_1(field):
    # (fg)' = f'g + fg' and x' = 1 determine the derivative of a polynomial
    rng = random.Random(field.q)
    assert pa.derivative(field, (0, 1)) == (1,)
    for _ in range(200):
        f, g = (pa.trim([rng.randrange(field.q) for _ in range(rng.randrange(10))])
                for _ in range(2))
        assert pa.derivative(field, pa.mul(field, f, g)) == pa.add(
            field, pa.mul(field, pa.derivative(field, f), g),
            pa.mul(field, f, pa.derivative(field, g)))


def test_a_coefficient_outside_the_field_is_refused_not_looped_on():
    # divmod_ left a coefficient 2 over F_2 unreduced, and gcd then cycled
    # between (1,) and (2,) for ever; run apart, with a timeout, should it hang
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("from ordcensus.fields import FieldSpec\n"
            "from ordcensus.polys import MonicPoly, is_squarefree\n"
            "is_squarefree(MonicPoly(FieldSpec(2), (2,)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ordcensus.errors.DomainError: coefficient outside [0, 2) in (2,)")
    for field, coeffs in ((F2, (2,)), (F2, (0, -1)), (F4, (1, 4))):
        with pytest.raises(DomainError, match="outside"):
            MonicPoly(field, coeffs)


def test_squarefree_matches_factorization():
    for field in (F2, F3, F4):
        for d in range(0, 5):
            for f in enumerate_monic(field, d):
                assert is_squarefree(f) == all(m == 1 for _, m in factor(f))


@pytest.mark.parametrize("field,d_max", [(F2, 10), (F3, 6), (F4, 5), (FieldSpec(3, 2), 3)])
def test_place_sieve_matches_factor(cold_caches, field, d_max):
    # entry by entry: smallest place as factor's first, the places as the
    # ranks of factor's places on squarefree polynomials and () off them
    for d in range(1, d_max + 1):
        least, places = place_sieve(field, d)
        monics = list(enumerate_monic(field, d))
        assert len(least) == len(places) == len(monics)
        for f, r, s in zip(monics, least, places):
            factors = factor(f)
            assert r == monic_rank(factors[0][0].poly), f
            ranks = tuple(monic_rank(place.poly) for place, _ in factors)
            assert s == (ranks if is_squarefree(f) else ()), f


@pytest.mark.parametrize("field,d_max", [(F4, 5), (FieldSpec(2, 3), 3), (FieldSpec(3, 2), 3),
                                         (FieldSpec(2, 4), 2)])
def test_rabin_test_agrees_with_the_place_sieve(field, d_max):
    # Ben-Or's test over F_q, q not prime, on every monic polynomial of degree
    # up to d_max, against the sieve, which leaves exactly the places
    # unreached, each its own smallest place
    for d in range(1, d_max + 1):
        least = place_sieve(field, d)[0]
        for f, r in zip(enumerate_monic(field, d), least):
            assert is_irreducible(f) == (r == monic_rank(f)), f


def test_rabin_test_is_guarded_before_any_squaring(monkeypatch):
    def refuse(*args):
        raise AssertionError("squared past the guard")

    monkeypatch.setattr(pa, "pow_mod", refuse)
    # D^3 log2 q: 47^3 > 10^5 >= 46^3 over F_2, 37^3 * 2 > 10^5 >= 36^3 * 2 over F_4
    for field, edge in ((F2, 46), (F4, 36)):
        with pytest.raises(ResourceGuardError, match=f"degree {edge + 1} over F_{field.q}"):
            is_irreducible(MonicPoly(field, (1,) + (0,) * edge))
        with pytest.raises(AssertionError, match="past the guard"):
            is_irreducible(MonicPoly(field, (1,) + (0,) * (edge - 1)))


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_place_sieve_disjoint_iff_coprime(field):
    # the coprimality test the tuple families read from the sieve, against gcd
    pool = [(poly_one(field), ())]
    for d in range(1, 5):
        pool += [(f, s) for f, s in zip(enumerate_monic(field, d), place_sieve(field, d)[1])
                 if s]
    for (f, s), (g, t) in itertools.combinations_with_replacement(pool, 2):
        assert set(s).isdisjoint(t) == (gcd_monic(f, g).degree == 0), (f, g)


def test_monic_rank_counts_smaller_monics():
    monics = [f for d in range(4) for f in enumerate_monic(F3, d)]
    assert [monic_rank(f) for f in monics] == list(range(len(monics)))
    assert monics == sorted(monics)


def test_squarefree_proportion():
    # exactly 1 - 1/q of monic degree-d polynomials are squarefree (d >= 2)
    for field in (F2, F3, F4):
        for d in range(2, 9):
            total = field.q ** d
            count = sum(1 for f in enumerate_monic(field, d) if is_squarefree(f))
            assert count * field.q == total * (field.q - 1), (field.q, d)


def test_factor_multiplicativity_random():
    # factor(fg) is the multiset union of factor(f) and factor(g)
    rng = random.Random(1618)
    for _ in range(500):
        field = (F2, F3)[rng.randrange(2)]
        f = MonicPoly(field, tuple(rng.randrange(field.q)
                                   for _ in range(rng.randint(1, 6))))
        g = MonicPoly(field, tuple(rng.randrange(field.q)
                                   for _ in range(rng.randint(1, 6))))
        combined = {}
        for place, mult in factor(f) + factor(g):
            combined[place] = combined.get(place, 0) + mult
        assert dict(factor(mul_monic(f, g))) == combined


def test_poly_helpers():
    x = MonicPoly(F2, (0,))
    assert mul_monic(x, x).to_text() == "0,0,1"
    assert gcd_monic(MonicPoly.from_text(F2, "0,1,1"), x) == x


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_arithmetic_matches_galoistools(p):
    """mul and divmod_ (the inline residue paths) and derivative over F_p
    against sympy's galoistools, which shares no code with them."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_diff, gf_div, gf_mul

    def gf(c):  # lowest degree first -> sympy's highest first
        return list(reversed(c))

    K = FieldSpec(p)
    rng = random.Random(p)
    for _ in range(200):
        a = pa.trim([rng.randrange(p) for _ in range(rng.randrange(12))])
        b = pa.trim([rng.randrange(p) for _ in range(rng.randrange(1, 8))])
        assert gf(pa.mul(K, a, b)) == gf_mul(gf(a), gf(b), p, ZZ)
        assert gf(pa.derivative(K, a)) == gf_diff(gf(a), p, ZZ)
        if b:
            q, r = pa.divmod_(K, a, b)
            assert [gf(q), gf(r)] == list(gf_div(gf(a), gf(b), p, ZZ))
    with pytest.raises(DomainError, match="division by the zero polynomial"):
        pa.divmod_(K, (1,), ())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_polys_layer_matches_galoistools(p):
    """is_irreducible, factor, is_squarefree, gcd_monic and places_of_degree
    over F_p against sympy's galoistools, which shares no code with them."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import (gf_factor, gf_gcd, gf_irreducible_p,
                                         gf_sqf_p)

    def gf(f):  # MonicPoly -> dense list, highest degree first
        return list(reversed(f.full))

    K = FieldSpec(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        f, g = (MonicPoly(K, tuple(rng.randrange(p) for _ in range(rng.randint(1, 10))))
                for _ in range(2))
        assert is_irreducible(f) == gf_irreducible_p(gf(f), p, ZZ)
        assert is_squarefree(f) == gf_sqf_p(gf(f), p, ZZ)
        expected = sorted(((h[::-1], m) for h, m in gf_factor(gf(f), p, ZZ)[1]),
                          key=lambda hm: (len(hm[0]), hm[0]))
        assert [(list(pl.poly.full), m) for pl, m in factor(f)] == expected
        assert gf(gcd_monic(f, g)) == gf_gcd(gf(f), gf(g), p, ZZ)
    d = 1
    while p ** d <= 2 ** 10:
        expected = [f for f in enumerate_monic(K, d) if gf_irreducible_p(gf(f), p, ZZ)]
        assert [place.poly for place in places_of_degree(K, d)] == expected
        d += 1


def test_factor_runs_no_irreducibility_test(monkeypatch):
    import ordcensus.polys as polys

    for d in range(1, 7):
        places_of_degree(F2, d)

    def refuse(f):
        raise AssertionError(f"irreducibility of {f} tested again")

    monkeypatch.setattr(polys, "is_irreducible", refuse)
    f = MonicPoly.from_text(F2, "1,0,0,1,0,0,0,0,0,0,0,0,1")  # x^12 + x^3 + 1
    assert [(place.poly, m) for place, m in factor(f)] == [(f, 1)]
    places = [places_of_degree(F2, d)[-1] for d in (1, 2, 3, 6)]
    prod = poly_one(F2)
    for place in places + places[:2]:
        prod = mul_monic(prod, place.poly)
    assert factor(prod) == ((places[0], 2), (places[1], 2), (places[2], 1), (places[3], 1))


@pytest.mark.parametrize("field,d_max", [(F4, 5), (FieldSpec(2, 3), 4), (FieldSpec(3, 2), 3)])
def test_places_are_minimal_polynomials(field, d_max):
    """Over F_q with q not prime, places_of_degree against a second route
    that shares no code with the sieve: the minimal polynomials
    prod_{i<d} (x - a^(q^i)) of the elements a of exact degree d in
    F_(q^d), multiplied out in the tables of that field."""
    from ordcensus.fields import embedding
    q = field.q
    for d in range(1, d_max + 1):
        A = FieldSpec(field.p, field.k * d)
        preimage = {z: c for c, z in enumerate(embedding(field, A))}
        minimal = set()
        for a in range(A.q):
            conj = [A.pow(a, q ** i) for i in range(d)]
            if len(set(conj)) < d:
                continue  # a lies in a proper subfield
            h = [1]  # prod (x - root), lowest degree first
            for root in conj:
                shifted = [0] + h
                for j, c in enumerate(h):
                    shifted[j] = A.sub(shifted[j], A.mul(root, c))
                h = shifted
            minimal.add(tuple(preimage[c] for c in h[:-1]))
        assert len(minimal) == count_irreducibles(q, d)
        assert [pl.poly.coeffs for pl in places_of_degree(field, d)] == sorted(minimal)


def test_places_of_degree_divide_nothing(monkeypatch, cold_caches):
    # cold caches: every place up to degree 8 comes from the sieve alone

    def refuse(*args):
        raise AssertionError("places found by division")

    monkeypatch.setattr(polys, "is_irreducible", refuse)
    monkeypatch.setattr(pa, "divmod_", refuse)
    for d in range(1, 9):
        assert len(places_of_degree(F2, d)) == count_irreducibles(2, d)


@pytest.mark.parametrize("field,d", [(F2, 8), (F3, 5), (F4, 4), (FieldSpec(3, 2), 3)])
def test_position_codecs_match_their_loop_formulas(field, d):
    # the loops these functions were written as before the digit codec
    def position(coeffs, q):
        pos = 0
        for c in coeffs:
            pos = pos * q + c
        return pos

    def coeffs_at(pos, q, d):
        out = [0] * d
        for j in range(d - 1, -1, -1):
            pos, out[j] = divmod(pos, q)
        return tuple(out)

    q = field.q
    for pos in range(q ** d):
        cs = coeffs_at(pos, q, d)
        assert polys._coeffs_at(pos, q, d) == cs
        assert polys._position(cs, q) == pos
        # a residue-field index: coefficients lowest power first, trimmed
        assert pa.trim(digits(pos, q, d)) == pa.trim([pos // q ** m % q for m in range(d)])


@pytest.mark.parametrize("p,width", [(2, 5), (3, 3), (5, 2)])
def test_linear_table_is_digitwise_sum(p, width):
    from ordcensus.fields import linear_table
    rng = random.Random(p)

    def digits(a):
        return [a // p ** j % p for j in range(width)]

    base = rng.randrange(p ** width)
    rows = [rng.randrange(p ** width) for _ in range(3)]
    expected = []
    for ds in itertools.product(range(p), repeat=len(rows)):
        d = ds[::-1]  # d[0] is the lowest digit of the index
        vec = [(b + sum(di * digits(r)[j] for di, r in zip(d, rows))) % p
               for j, b in enumerate(digits(base))]
        expected.append(sum(v * p ** j for j, v in enumerate(vec)))
    assert linear_table(p, width, rows, base) == expected


def test_place_sieve_names_a_polynomial_reached_twice(monkeypatch, cold_caches):
    # each place listed twice: x * x is reached from both copies of x
    real = polys.places_of_degree
    monkeypatch.setattr(polys, "places_of_degree", lambda field, e: real(field, e) * 2)
    with pytest.raises(InvariantViolation, match="place sieve reached 0,0,1 twice"):
        place_sieve(F2, 2)


@pytest.mark.parametrize("field", [FieldSpec(2), FieldSpec(3), FieldSpec(5), F4, FieldSpec(3, 2)])
def test_pow_mod_matches_galoistools_with_the_fewest_products(field, monkeypatch):
    """pow_mod against sympy's gf_pow_mod over F_p, and against repeated
    products over F_q, at e = 0, 1, 2 and a random e, with
    bit_length(e) + popcount(e) - 2 products for e >= 1: none by one, and no
    squaring after the last bit."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    def gf(c):  # lowest degree first -> sympy's highest first
        return list(reversed(c))

    products = 0
    mul = pa.mul

    def counted(L, *args):
        nonlocal products
        products += L is K  # not the products of F_p[t] inside K's own arithmetic
        return mul(L, *args)

    K, q = field, field.q
    rng = random.Random(q)
    for _ in range(60):
        m = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 8))) + (1,)
        a = pa.trim([rng.randrange(q) for _ in range(rng.randrange(10))])
        for e in (0, 1, 2, rng.randrange(3, 10 ** 6 if K.k == 1 else 40)):
            monkeypatch.setattr(pa, "mul", counted)
            products = 0
            got = pa.pow_mod(K, a, e, m)
            monkeypatch.setattr(pa, "mul", mul)
            assert products == (e.bit_length() + bin(e).count("1") - 2 if e else 0)
            if K.k == 1:
                assert gf(got) == gf_pow_mod(gf(a), e, gf(m), q, ZZ)
            else:
                expected = (1,)
                for _ in range(e):
                    expected = pa.mod(K, pa.mul(K, expected, a), m)
                assert got == (expected if e else (1,))
