"""Field tables for F_2, F_3, F_4, F_5."""

import pytest

from qcsd.gf import (
    FIELD_SIZES,
    field,
    sum_of_squares_minus_one,
)


def test_supported_sizes():
    assert FIELD_SIZES == (2, 3, 4, 5)
    with pytest.raises(ValueError):
        field(7)
    with pytest.raises(ValueError):
        field(6)


def test_factory_caches():
    assert field(3) is field(3)
    assert field(4) == field(4)
    assert field(2) != field(3)


def test_field_axioms_exhaustive():
    for q in FIELD_SIZES:
        f = field(q)
        els = list(f.elements())
        for a in els:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, a) == 0
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(
                        f.mul(a, b), f.mul(a, c)
                    )


def test_characteristic_and_residue_class():
    assert field(2).characteristic == 2
    assert field(4).characteristic == 2
    assert field(3).characteristic == 3
    assert field(5).characteristic == 5
    assert field(2).residue_class == "char-2"
    assert field(4).residue_class == "char-2"
    assert field(5).residue_class == "1-mod-4"
    assert field(3).residue_class == "3-mod-4"


def test_f4_structure():
    f = field(4)
    w, w2 = 2, 3
    assert f.mul(w, w) == w2
    assert f.mul(w, w2) == 1
    assert f.mul(w2, w2) == w
    assert f.add(w, w2) == 1
    assert f.add(1, w) == w2
    assert f.add(1, 1) == 0
    assert f.inv(w) == w2
    assert f.mul(f.mul(w, w), w) == 1


def test_f4_symbols():
    f = field(4)
    assert f.parse_element("w^2") == 3
    assert f.parse_element("w2") == 3
    assert f.parse_element(" w ") == 2
    with pytest.raises(ValueError):
        f.parse_element("x")


def test_prime_field_symbols():
    f = field(5)
    assert f.parse_element("4") == 4
    with pytest.raises(ValueError):
        f.parse_element("5")
    with pytest.raises(ValueError):
        f.parse_element("w")


def test_minus_one():
    assert field(2).minus_one == 1
    assert field(3).minus_one == 2
    assert field(4).minus_one == 1
    assert field(5).minus_one == 4


def test_zero_has_no_inverse():
    for q in FIELD_SIZES:
        with pytest.raises(ZeroDivisionError):
            field(q).inv(0)


def test_sum_of_squares_minus_one():
    a, b = sum_of_squares_minus_one(field(3))
    f = field(3)
    assert f.add(f.mul(a, a), f.mul(b, b)) == f.minus_one
    for q in (2, 4, 5):
        with pytest.raises(ValueError):
            sum_of_squares_minus_one(field(q))
