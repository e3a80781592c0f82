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
    """Two independently built copies of one record of each hashable class."""
    def build():
        x = MonicPoly(F2, (0,))
        place = Place(MonicPoly(F2, (1,)))
        cover_as = asc.ASCover(F2, ((place, (1,)),), (1,))
        cover_se = se.SECover(F2, 3, (MonicPoly(F2, (0,)), MonicPoly(F2, (1,))))
        return (x, place, cover_as, cover_se, orc.PointCounts(2, 1, (3, 5)),
                orc.LPolynomial(2, 1, (1, 0, 2)))
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


@pytest.mark.parametrize("index, name", [(0, "coeffs"), (1, "poly"), (2, "branch"),
                                         (3, "parts"), (4, "counts"), (5, "coeffs")])
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
    with pytest.raises(DomainError, match="does not define a curve"):
        se.SECover(F2, 3, (MonicPoly(F2, ()), MonicPoly(F2, ())))  # y^3 = 1
    with pytest.raises(DomainError, match="every part must be over F_4"):
        se.SECover(FieldSpec(2, 2), 3, (MonicPoly(FieldSpec(3), (2,)), MonicPoly(F2, ())))
    with pytest.raises(DomainError, match="b <= a"):
        asc.CensusTable({2: (1, 2)})
    with pytest.raises(InvariantViolation, match="Weil bound"):
        orc.PointCounts(2, 1, (9,))
    with pytest.raises(InvariantViolation, match="functional equation"):
        orc.LPolynomial(2, 1, (1, 1, 3))
    with pytest.raises(DomainError):
        orc.LPolynomial(q=2, genus=1, coeffs=(2, 1, 2))


def _invalid_replacements():
    """(record, field changes, error, message): one change each that the
    record's constructor refuses."""
    x, x1 = MonicPoly(F2, (0,)), MonicPoly(F2, (1,))
    return [
        (asc.ASCover(F2, ((Place(x), (1,)),)), {"branch": ()}, DomainError, "nonempty"),
        (asc.CensusTable({2: (1, 1)}), {"rows": {2: (1, 2)}},
         DomainError, "b <= a"),
        (se.SECover(F2, 3, (x, x1)), {"parts": (x, x)}, DomainError, "pairwise coprime"),
        (orc.PointCounts(2, 1, (3, 5)), {"counts": (9,)}, InvariantViolation, "Weil bound"),
        (orc.LPolynomial(2, 1, (1, 0, 2)), {"coeffs": (1, 0, 3)}, InvariantViolation,
         "functional equation"),
        # index 2 names no element of F_2, though it passes "top coefficient nonzero"
        (asc.ASCover(F2, ((Place(x), (1,)),), (1,)), {"branch": ((Place(x), (2,)),)},
         DomainError, "out of range"),
        (asc.ASCover(F2, (), (1,)), {"infinity_part": (1, 0, 2)}, DomainError, "out of range"),
        # 3 names no element of F_2
        (x, {"coeffs": (3,)}, DomainError, "outside"),
        # x^2 + 1 = (x + 1)^2
        (Place(x), {"poly": MonicPoly(F2, (1, 0))}, DomainError, "not irreducible"),
        # y^3 = 1 has no branch point
        (se.SECover(F2, 3, (x, x1)), {"parts": (MonicPoly(F2, ()),) * 2}, DomainError,
         "does not define a curve"),
        # y^3 = f over F_3 is purely inseparable: no Kummer cover
        (se.SECover(F2, 3, (x, x1)), {"field": FieldSpec(3)}, DomainError,
         "n must be coprime to the characteristic"),
    ]


@pytest.mark.parametrize("record, change, error, message", _invalid_replacements(),
                         ids=["ASCover", "CensusTable", "SECover", "PointCounts",
                              "LPolynomial", "ASCover-local-index", "ASCover-infinity-index",
                              "MonicPoly-coefficient", "Place", "SECover-no-curve",
                              "SECover-characteristic"])
def test_replace_and_make_run_the_constructor_checks(record, change, error, message):
    fields = {**record._asdict(), **change}
    with pytest.raises(error, match=message) as built:
        type(record)(**fields)
    with pytest.raises(error) as replaced:
        record._replace(**change)
    with pytest.raises(error) as made:
        type(record)._make(fields.values())
    # a record smuggled past the checks is refused when it is unpickled or copied
    smuggled = tuple.__new__(type(record), fields.values())
    with pytest.raises(error) as unpickled:
        pickle.loads(pickle.dumps(smuggled))
    with pytest.raises(error) as copied:
        copy.copy(smuggled)
    for raised in (replaced, made, unpickled, copied):
        assert type(raised.value) is type(built.value)
        assert str(raised.value) == str(built.value)


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
    # JSON true is not the integer 1
    ({"q": 2, "p": 2, "branch": [], "infinity": [True]}, "bad cover data"),
    ({"q": 2, "p": 2, "branch": [{"place": "0,1", "local": [True]}]}, "bad cover data"),
    ({"q": True, "p": 2, "branch": [{"place": "0,1", "local": [1]}]}, "bad cover data"),
    ({"q": 2, "p": True, "branch": [{"place": "0,1", "local": [1]}]}, "bad cover data"),
    ({"q": 2, "n": True, "parts": []}, "bad cover data"),
    # both kinds named: neither key is dropped
    ({"q": 3, "p": 3, "n": 5, "parts": ["0,1", "1,1", "2,1", "1"]}, "not both"),
    ({"q": 2, "p": 2, "n": 3, "parts": ["0,1", "1,1"]}, "not both"),
])
def test_cover_data_without_a_field_kind_or_in_range_index_is_refused(data, message):
    from ordcensus.serialize import cover_from_dict
    with pytest.raises(DomainError, match=message):
        cover_from_dict(data)


@pytest.mark.parametrize("data", [
    {"q": 4, "p": 2, "branch": [{"place": "2,1,1", "local": [1]}], "infinity": [7]},
    {"q": 4, "p": 2, "branch": [{"place": "1,1", "local": [4]}]},
    {"q": 2, "n": 3, "parts": ["0,0,1", "1"]},
    {"q": 2, "n": 3, "parts": ["0,1", "0,1,1"]},
    {"q": 2, "n": 3, "parts": ["2,1", "1"]},
    {"q": 2, "p": 2, "branch": [{"place": "1,0,1", "local": [1]}]},
    {"q": 2, "p": 2, "branch": [], "infinity": [True]},
    {"q": 2, "n": 3, "parts": "0,1"},
    {"q": 2, "p": 2, "n": 3, "parts": ["0,1", "1,1"]},
    {"q": 2, "n": 3, "parts": ["1", "1"]},
], ids=["infinity-range", "local-range", "not-squarefree", "not-coprime", "part-range",
        "not-irreducible", "boolean", "not-a-list", "both-kinds", "not-a-curve"])
def test_a_cover_data_fault_is_reported_as_bad_cover_data_once(data):
    from ordcensus.serialize import cover_from_dict
    with pytest.raises(DomainError) as info:
        cover_from_dict(data)
    assert str(info.value).count("bad cover data") == 1


def test_cover_loading_leaves_index_ranges_to_the_record(monkeypatch):
    # with the record's range check switched off, the loader refuses nothing itself
    from ordcensus import ascover
    from ordcensus.serialize import cover_from_dict
    monkeypatch.setattr(ascover, "_check_indices", lambda coeffs, size: None)
    cover = cover_from_dict({"q": 4, "p": 2, "branch": [{"place": "1,1", "local": [4]}]})
    assert cover.branch[0][1] == (4,)


def test_polynomial_text_leaves_coefficient_ranges_to_the_record(monkeypatch):
    monkeypatch.setattr(MonicPoly, "_check", lambda self: None)
    assert MonicPoly.from_text(F2, "2,1").coeffs == (2,)
