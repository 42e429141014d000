"""Arithmetic in R = F_q[Y]/(Y^m - 1): products, conjugation, and the
residue field K as the ideal e_phi*R."""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsd.errors import UnsupportedCase
from qcsd.gf import field
from qcsd.qc import _matmul, rref
from qcsd.rcode import RingCode, _lift_matrix, component_forms
from qcsd.ring import digit_rows, ring

from conftest import crt_combine, element_at, mod_phi, reference_k, ring_elements


def test_constructor_validation():
    with pytest.raises(ValueError):
        ring(2, 0)
    # m sharing a factor with the characteristic is rejected
    with pytest.raises(ValueError):
        ring(2, 4)
    with pytest.raises(ValueError):
        ring(3, 3)
    with pytest.raises(ValueError):
        ring(4, 6)


def test_constants():
    sp = ring(2, 3)
    assert sp.zero == (0, 0, 0)
    assert sp.one == (1, 0, 0)
    assert sp.y == (0, 1, 0)
    assert sp.q == 2 and sp.m == 3


def test_cyclotomic_flag():
    # true exactly when m is prime and q generates the multiplicative
    # group modulo m
    assert ring(2, 3).cyclotomic_ok
    assert ring(2, 5).cyclotomic_ok
    assert ring(3, 5).cyclotomic_ok
    assert ring(3, 7).cyclotomic_ok
    assert ring(5, 7).cyclotomic_ok
    assert not ring(2, 7).cyclotomic_ok  # 2 has order 3 modulo 7
    assert not ring(4, 3).cyclotomic_ok  # 4 = 1 modulo 3
    assert not ring(4, 5).cyclotomic_ok  # 4 has order 2 modulo 5
    assert not ring(4, 7).cyclotomic_ok  # 4 has order 3 modulo 7


def test_mul_literals():
    sp = ring(2, 3)
    y, one = sp.y, sp.one
    y2 = sp.mul(y, y)
    assert y2 == (0, 0, 1)
    assert sp.mul(y2, y) == one  # Y^3 = 1
    a = (1, 1, 0)  # 1 + Y
    assert sp.mul(a, a) == (1, 0, 1)  # squaring in characteristic 2
    sp5 = ring(5, 7)
    b = (2, 0, 0, 0, 1, 0, 0)  # 2 + Y^4
    c = (0, 0, 0, 3, 0, 0, 0)  # 3Y^3
    assert sp5.mul(b, c) == (3, 0, 0, 1, 0, 0, 0)  # 6Y^3 + 3Y^7 = 3 + Y^3


def test_mul_matches_naive_convolution():
    rng = random.Random(11)
    for q, m in [(2, 3), (3, 5), (4, 3), (5, 7)]:
        sp = ring(q, m)
        f = sp.field
        for _ in range(50):
            a = tuple(rng.randrange(q) for _ in range(m))
            b = tuple(rng.randrange(q) for _ in range(m))
            out = [0] * m
            for i in range(m):
                for j in range(m):
                    k = (i + j) % m
                    out[k] = f.add(out[k], f.mul(a[i], b[j]))
            assert sp.mul(a, b) == tuple(out)


def test_conj_is_order_two_ring_map():
    rng = random.Random(7)
    for q, m in [(2, 3), (2, 5), (4, 5), (3, 7)]:
        sp = ring(q, m)
        assert sp.conj(sp.y) == sp.shift(sp.one, m - 1)  # Y -> Y^(m-1)
        for _ in range(40):
            a = element_at(sp, rng.randrange(q**m))
            b = element_at(sp, rng.randrange(q**m))
            assert sp.conj(sp.conj(a)) == a
            assert sp.conj(sp.add(a, b)) == sp.add(sp.conj(a), sp.conj(b))
            assert sp.conj(sp.mul(a, b)) == sp.mul(sp.conj(a), sp.conj(b))


def test_shift_and_eval1():
    sp = ring(3, 5)
    a = (1, 2, 0, 0, 1)
    assert sp.shift(a, 1) == (1, 1, 2, 0, 0)
    assert sp.shift(a, 5) == a
    assert sp.mul(sp.y, a) == sp.shift(a, 1)
    assert sp.eval1(a) == 1  # 1 + 2 + 1 = 4 = 1 in F_3


def _sample(elements, size, seed):
    """All the elements, or a fixed sample of `size` of them."""
    elements = list(elements)
    if size is None:
        return elements
    return random.Random(seed).sample(elements, size)


def test_element_indexing_roundtrip():
    # row i lists the base-q digits of i, most significant first: the
    # elements in lexicographic order of coefficient tuples
    rows = digit_rows(4, 3)
    assert rows.dtype == np.uint8
    for i, e in enumerate(rows.tolist()):
        assert e[0] * 16 + e[1] * 4 + e[2] == i
    assert list(map(tuple, rows.tolist())) == list(ring_elements(ring(4, 3)))
    assert digit_rows(300, 1).ravel().tolist() == list(range(300))


def test_crt_split_combine_roundtrip_exhaustive():
    # r = eval1(r) * e_1 + e_phi * r, and that is the element the reference
    # CRT combines from eval1(r) and the residue of r mod Phi
    for q, m in [(2, 3), (2, 5), (3, 5), (5, 2)]:
        sp = ring(q, m)
        for i in range(q**m):
            a = element_at(sp, i)
            v = sp.mul(sp.ephi, a)
            assert sp.add(sp.scalar_mul(sp.eval1(a), sp.e1), v) == a
            assert crt_combine(sp, sp.eval1(a), mod_phi(sp, v)) == a
            assert sp.eval1(v) == 0


def test_crt_split_is_a_ring_map():
    # r -> e_phi * r is a ring map onto the ideal that commutes with conj,
    # as eval1 is onto F_q, and it keeps the residue mod Phi
    rng = random.Random(23)
    for q, m in [(2, 5), (5, 3), (3, 5)]:
        sp = ring(q, m)
        for _ in range(60):
            a = element_at(sp, rng.randrange(q**m))
            b = element_at(sp, rng.randrange(q**m))
            pa, pb = sp.mul(sp.ephi, a), sp.mul(sp.ephi, b)
            prod = sp.mul(a, b)
            assert sp.eval1(prod) == sp.field.mul(sp.eval1(a), sp.eval1(b))
            assert sp.mul(sp.ephi, prod) == sp.mul(pa, pb)
            assert sp.mul(sp.ephi, sp.add(a, b)) == sp.add(pa, pb)
            assert sp.mul(sp.ephi, sp.sub(a, b)) == sp.sub(pa, pb)
            assert sp.mul(sp.ephi, sp.conj(a)) == sp.conj(pa)
            assert mod_phi(sp, pa) == mod_phi(sp, a)


def test_crt_requires_two_factor_splitting():
    # e_phi*R is a field, and the component forms and standard form exist,
    # only when Y^m - 1 = (Y - 1) * Phi_m with Phi_m irreducible
    for q, m in [(2, 7), (4, 5)]:
        sp = ring(q, m)
        with pytest.raises(UnsupportedCase):
            sp.phi_field()
        code = RingCode(sp, 2, [(sp.one, sp.one)])
        with pytest.raises(UnsupportedCase):
            component_forms(code)
        with pytest.raises(UnsupportedCase):
            code.standard_form()


def test_multiples_of_phi():
    # the multiples of Phi are exactly the elements that e_phi kills
    sp = ring(2, 3)
    phi = (1, 1, 1)
    multiples = {sp.mul(c, phi) for c in ring_elements(sp)}
    assert multiples == {sp.zero, phi}
    for a in ring_elements(sp):
        assert (sp.mul(sp.ephi, a) == sp.zero) == (a in multiples)


def test_residue_field_is_a_field():
    # every element of each field, and a fixed sample of F_{5^6}
    for q, m, size in [(2, 3, None), (2, 5, None), (3, 5, None), (5, 2, None),
                       (5, 3, None), (3, 7, None), (2, 11, None), (5, 7, 500)]:
        sp = ring(q, m)
        kf = sp.phi_field()
        elems = _lifted_tuples(q, m)
        assert q ** (m - 1) == len(set(elems))
        assert elems[0] == kf.zero and kf.one == sp.ephi in elems
        for a in _sample(elems, size, 19):
            assert sp.mul(sp.ephi, a) == a  # in the ideal
            assert sp.conj(sp.conj(a)) == a
            assert kf.add(a, kf.neg(a)) == kf.zero
            if a != kf.zero:
                assert kf.mul(a, kf.inv(a)) == kf.one
        with pytest.raises(ZeroDivisionError):
            kf.inv(kf.zero)


def test_rref_over_the_residue_field():
    # over (2, 3) the residue field is F_4, with Y a primitive cube root of
    # one; c0 + c1*Y <-> index c0 | c1 << 1 is the isomorphism to field(4),
    # so the K echelon form of a code is the F_4 RREF of its residue rows
    sp = ring(2, 3)
    kf = reference_k(2, 3)
    to_f4 = {kf.lift(t): t[0] | (t[1] << 1) for t in kf.elements()}
    rng = random.Random(3)
    for _ in range(30):
        rows = [
            tuple(element_at(sp, rng.randrange(8)) for _ in range(5))
            for _ in range(3)
        ]
        if not any(map(any, rows)):
            continue
        form = component_forms(RingCode(sp, 5, rows))[1]
        residues = [[to_f4[sp.mul(sp.ephi, e)] for e in r] for r in rows]
        basis4, piv4 = rref(field(4), 5, np.array(residues, dtype=np.uint8))
        assert tuple(form) == piv4
        assert [[to_f4[e] for e in r] for r in form.values()] == basis4.tolist()


@functools.lru_cache(maxsize=None)
def _lifted_tuples(q, m):
    kf = reference_k(q, m)
    return tuple(map(kf.lift, kf.elements()))


_K_RINGS = [(2, 3), (2, 5), (2, 11), (3, 5), (5, 2), (5, 3), (5, 7)]


@st.composite
def residue_pairs(draw):
    q, m = draw(st.sampled_from(_K_RINGS))
    residue = st.tuples(*[st.integers(0, q - 1)] * (m - 1))
    r = draw(st.tuples(*[st.integers(0, q - 1)] * m))
    return ring(q, m), draw(residue), draw(residue), r


@settings(max_examples=200, deadline=None)
@given(residue_pairs())
def test_residue_field_is_the_ideal_of_e_phi(case):
    sp, t, u, r = case
    e1, ephi = sp.e1, sp.ephi
    # orthogonal idempotents with e_1 + e_phi = 1, both fixed by conj
    assert sp.mul(e1, e1) == e1 and sp.mul(ephi, ephi) == ephi
    assert sp.mul(e1, ephi) == sp.zero and sp.add(e1, ephi) == sp.one
    assert sp.conj(e1) == e1 and sp.conj(ephi) == ephi
    # the lift carries the reference K's operations to R's own
    kf, ideal = reference_k(sp.q, sp.m), sp.phi_field()
    lt, lu = kf.lift(t), kf.lift(u)
    assert kf.lift(kf.add(t, u)) == sp.add(lt, lu)
    assert kf.lift(kf.mul(t, u)) == sp.mul(lt, lu)
    assert kf.lift(kf.conj(t)) == sp.conj(lt)
    if t != kf.zero:
        assert kf.lift(kf.inv(t)) == ideal.inv(lt)
    # the lift matrix lists the ideal's elements as the lifted tuples, in
    # lexicographic order
    lifted = _matmul(sp.field, digit_rows(sp.q, sp.m - 1), _lift_matrix(sp))
    assert tuple(map(tuple, lifted.tolist())) == _lifted_tuples(sp.q, sp.m)
    # and every r splits as eval1(r) * e_1 + e_phi * r
    assert sp.add(sp.scalar_mul(sp.eval1(r), e1), sp.mul(ephi, r)) == r


def test_hermitian_ip_sesquilinear():
    rng = random.Random(31)
    for q, m in [(2, 3), (4, 5), (5, 7)]:
        sp = ring(q, m)
        ell = 4
        def rvec():
            return tuple(
                element_at(sp, rng.randrange(q**m)) for _ in range(ell)
            )
        for _ in range(30):
            x, y, z = rvec(), rvec(), rvec()
            sx = tuple(map(sp.add, x, y))
            # additive in the first argument
            assert sp.hermitian_ip(sx, z) == sp.add(
                sp.hermitian_ip(x, z), sp.hermitian_ip(y, z)
            )
            # conjugate-symmetric
            assert sp.hermitian_ip(x, y) == sp.conj(sp.hermitian_ip(y, x))
            c = element_at(sp, rng.randrange(q**m))
            cx = tuple(sp.mul(c, e) for e in x)
            assert sp.hermitian_ip(cx, y) == sp.mul(c, sp.hermitian_ip(x, y))


def test_norm_classes_partition():
    for q, m in [(2, 3), (3, 5), (4, 3)]:
        sp = ring(q, m)
        classes = sp.norm_classes()
        total = 0
        for t, members in classes.items():
            total += len(members)
            for a in members:
                assert sp.mul(a, sp.conj(a)) == t
        assert total == q**m


def _reference_norm_classes(sp):
    """The loop `norm_classes` replaced: one product per element, in
    lexicographic order."""
    classes: dict = {}
    for a in ring_elements(sp):
        classes.setdefault(sp.mul(a, sp.conj(a)), []).append(a)
    return classes


_ARRAY_RINGS = [
    (2, 3), (2, 5), (2, 7), (2, 11), (3, 5), (3, 7),
    (4, 5), (4, 7), (5, 2), (5, 3), (5, 7),
]


@pytest.mark.parametrize("q, m", _ARRAY_RINGS)
def test_norm_classes_match_the_loop(q, m):
    sp = ring(q, m)
    classes, reference = sp.norm_classes(), _reference_norm_classes(sp)
    assert list(classes) == list(reference)
    assert classes == reference


@st.composite
def element_pairs(draw):
    q, m = draw(st.sampled_from(_ARRAY_RINGS))
    element = st.tuples(*[st.integers(0, q - 1)] * m)
    pairs = st.lists(st.tuples(element, element), min_size=1, max_size=6)
    return ring(q, m), draw(pairs)


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_mul_array_matches_mul(case):
    sp, pairs = case
    xs, ys = zip(*pairs)
    a, b = np.array(xs, dtype=np.uint8), np.array(ys, dtype=np.uint8)
    rows = sp.mul_array(a, b)
    assert rows.dtype == np.uint8
    assert list(map(tuple, rows.tolist())) == [sp.mul(x, y) for x, y in zip(xs, ys)]
    table = [[tuple(e) for e in r] for r in sp.mul_array(a[:, None], b).tolist()]
    assert table == [[sp.mul(x, y) for y in ys] for x in xs]
    assert list(map(tuple, sp.conj_array(a).tolist())) == list(map(sp.conj, xs))
