"""The immutable record classes: equality, hashing, ordering and validation."""

import copy
import pickle
import random

import pytest

from ordcensus import artin_schreier as asc
from ordcensus import oracle as orc
from ordcensus import superelliptic as se
from ordcensus.errors import DomainError, InvariantViolation
from ordcensus.fields import FieldSpec
from ordcensus.polys import MonicPoly, Place, places_of_degree

F2 = FieldSpec(2)


def _fresh_records():
    """Two independently built copies of one record of each class."""
    def build():
        x = MonicPoly(F2, (0,))
        place = Place(MonicPoly(F2, (1,)))
        cover_as = asc.ASCover(F2, ((place, (1,)),), (1,))
        cover_se = se.SECover(F2, 3, (MonicPoly(F2, (0,)), MonicPoly(F2, (1,))))
        return x, place, cover_as, cover_se
    return build(), build()


def test_equal_arguments_give_equal_records_and_hashes():
    for a, b in zip(*_fresh_records()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    x = MonicPoly(F2, (0,))
    assert x != MonicPoly(F2, (1,)) and x != MonicPoly(FieldSpec(3), (0,))
    assert Place(x) != x and x != x.coeffs


def test_records_survive_pickle_and_copy():
    for record in _fresh_records()[0]:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert twin == record and hash(twin) == hash(record)
            assert type(twin) is type(record)


@pytest.mark.parametrize("index, name", [(0, "coeffs"), (1, "poly"),
                                         (2, "branch"), (3, "parts")])
def test_assigning_to_a_field_raises(index, name):
    record = _fresh_records()[0][index]
    with pytest.raises(AttributeError):
        setattr(record, name, ())
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("field", [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2)])
def test_places_sort_by_degree_then_coefficients(field):
    places = [pl for d in range(1, 5) for pl in places_of_degree(field, d)]
    expected = sorted(places, key=lambda pl: (pl.degree, pl.poly.coeffs))
    assert places == expected
    shuffled = places[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == expected
    assert sorted((pl.poly for pl in shuffled), reverse=True) == [pl.poly for pl in
                                                                  reversed(expected)]
    a, b = expected[3], expected[4]
    assert a < b and a <= b and b > a and b >= a and a <= a and not b < a


def test_validation_fires_on_construction():
    x = Place(MonicPoly(F2, (0,)))
    with pytest.raises(DomainError, match="not irreducible"):
        Place(MonicPoly(F2, (0, 0)))  # x^2
    with pytest.raises(DomainError, match="multiple of p"):
        asc.ASCover(F2, ((x, (1, 1)),))
    with pytest.raises(DomainError, match="place occurs twice"):
        asc.ASCover(F2, ((x, (1,)), (x, (1,))))
    with pytest.raises(DomainError, match="not squarefree"):
        se.SECover(F2, 3, (MonicPoly(F2, (1, 0)), MonicPoly(F2, ())))  # (x+1)^2
    with pytest.raises(DomainError, match="b <= a"):
        asc.CensusTable(2, 2, {2: (1, 2)}, "analytic")
    with pytest.raises(InvariantViolation, match="Weil bound"):
        orc.PointCounts(2, 1, (9,))
    with pytest.raises(InvariantViolation, match="functional equation"):
        orc.LPolynomial(2, 1, (1, 1, 3))
    with pytest.raises(DomainError):
        orc.LPolynomial(q=2, genus=1, coeffs=(2, 1, 2))


def test_l_polynomial_rejects_a_non_integral_newton_step():
    # s_1 = 0 and s_2 = 1, so 2 a_2 = -(s_2 + a_1 s_1) = -1; within the Weil bound
    counts = orc.PointCounts(2, 2, (3, 4))
    with pytest.raises(InvariantViolation, match=r"a_2 = -1/2"):
        orc.l_polynomial(counts)


@pytest.mark.parametrize("data, message", [
    ({"p": 2, "branch": [{"place": "0,1", "local": [1]}]}, "bad cover data"),
    ({"q": 2, "branch": [{"place": "0,1", "local": [1]}]}, "must contain 'p'"),
    # x + 1 over F_4 has norm 4: index 4 names no element of its residue field
    ({"q": 4, "p": 2, "branch": [{"place": "1,1", "local": [4]}]}, "out of range"),
    # missing keys
    ({"q": 2, "p": 2, "branch": [{"place": "0,1"}]}, "bad cover data"),
    ({"q": 2, "p": 2, "branch": [{"local": [1]}]}, "bad cover data"),
    ({"q": 2, "n": 3}, "bad cover data"),
    # non-integer indices and n
    ({"q": 2, "p": 2, "branch": [{"place": "0,1", "local": [1.5]}]}, "bad cover data"),
    ({"q": 2, "p": 2, "branch": [{"place": "0,1", "local": ["1"]}]}, "bad cover data"),
    ({"q": 2, "n": 3.0, "parts": ["0,1", "1"]}, "bad cover data"),
    # a branch, parts or place of the wrong type
    ({"q": 2, "p": 2, "branch": "0,1"}, "bad cover data"),
    ({"q": 2, "p": 2, "branch": {"place": "0,1", "local": [1]}}, "bad cover data"),
    ({"q": 2, "n": 3, "parts": "0,1"}, "bad cover data"),
    ({"q": 2, "p": 2, "branch": [{"place": 1, "local": [1]}]}, "bad cover data"),
    # infinity coefficients outside [0, q)
    ({"q": 2, "p": 2, "infinity": [5]}, "bad cover data"),
    ({"q": 2, "p": 2, "infinity": [-1]}, "bad cover data"),
    ({"q": 4, "p": 2, "infinity": [7]}, "bad cover data"),
    # q and p are integers too, not truncated floats or strings
    ({"q": 4.7, "p": 2.5, "branch": [{"place": "0,1", "local": [1]}]}, "bad cover data"),
    ({"q": 4, "p": 2.0, "branch": [{"place": "0,1", "local": [1]}]}, "bad cover data"),
    ({"q": "2", "p": 2, "branch": [{"place": "0,1", "local": [1]}]}, "bad cover data"),
    ({"q": 2.0, "n": 3, "parts": ["0,1", "1"]}, "bad cover data"),
])
def test_cover_data_without_a_field_kind_or_in_range_index_is_refused(data, message):
    from ordcensus.serialize import cover_from_dict
    with pytest.raises(DomainError, match=message):
        cover_from_dict(data)
