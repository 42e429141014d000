"""Field codes: RREF canonicalisation, duality, expand/collapse, Gray map."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import naive_rref, random_self_dual, reference_contains
from qcsd.gf import FIELD_SIZES, field
from qcsd import qc
from qcsd.qc import (
    FieldCode,
    collapse,
    expand,
    gray_image,
    is_euclidean_self_dual,
    is_shift_invariant,
    rref,
)
from qcsd.rcode import RingCode
from qcsd.ring import ring


def test_rref_matches_naive_reduction():
    rng = random.Random(11)
    for q in FIELD_SIZES:
        fld = field(q)
        for _ in range(40):
            n = rng.randrange(1, 8)
            rows = [
                tuple(rng.randrange(q) for _ in range(n))
                for _ in range(rng.randrange(0, 6))
            ]
            got_rows, got_piv = rref(fld, n, rows)
            want_rows, want_piv = naive_rref(fld, n, rows)
            assert list(got_rows) == want_rows
            assert list(got_piv) == want_piv


def _dependent_rows(fld, rng, n, count):
    """`count` rows of length n over F_q in random order: a random number of
    random rows, the others repeats, zero rows and linear combinations of
    them."""
    q = fld.q
    nfresh = rng.randrange(count + 1)
    fresh = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(nfresh)]
    rows = list(fresh)
    while len(rows) < count:
        kind = rng.randrange(3)
        if not fresh or kind == 0:
            rows.append((0,) * n)
        elif kind == 1:
            rows.append(rng.choice(fresh))
        else:
            acc = [0] * n
            for r in rng.sample(fresh, min(len(fresh), 3)):
                c = rng.randrange(1, q)
                acc = [fld.add(a, fld.mul(c, b)) for a, b in zip(acc, r)]
            rows.append(tuple(acc))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_matches_naive_reduction_at_kernel_sizes(q):
    # up to n = 100 and 60 rows, rank-deficient, and more rows than columns;
    # over F_2 the bit masks span several bytes
    fld = field(q)
    rng = random.Random(100 + q)
    shapes = [(rng.randrange(0, 61), rng.randrange(1, 101)) for _ in range(12)]
    shapes += [(60, 12), (45, 30), (0, 80), (1, 100), (25, 8), (8, 25)]
    # both sides of the size cut
    cut = qc._ARRAY_CUT
    shapes += [(1, cut - 1), (1, cut), (cut // 10, 9), (cut // 10, 10)]
    shapes += [(14, 14), (10, 20)]
    cases = [(n, _dependent_rows(fld, rng, n, count)) for count, n in shapes]
    # full rank, wide and tall
    for count, n in [(40, 100), (60, 45)]:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(count)]
        cases.append((n, rows))
    for n, rows in cases:
        count = len(rows)
        want_rows, want_piv = naive_rref(fld, n, rows)
        for given in (rows, np.array(rows, dtype=np.uint8).reshape(count, n)):
            got_rows, got_piv = rref(fld, n, given)
            assert list(got_rows) == want_rows
            assert list(got_piv) == want_piv
            assert all(type(v) is int for r in got_rows for v in r)
        code = FieldCode(fld, n, rows)
        assert (list(code.rows), list(code.pivots)) == (want_rows, want_piv)


def test_field_code_from_tuples_equals_field_code_from_array():
    rng = random.Random(15)
    for q in FIELD_SIZES:
        fld = field(q)
        for count, n in [(3, 5), (7, 14), (20, 40), (30, 12)]:
            rows = _dependent_rows(fld, rng, n, count)
            a = FieldCode(fld, n, rows)
            b = FieldCode(fld, n, np.array(rows, dtype=np.int64))
            assert a == b and hash(a) == hash(b)
            assert a.rows == b.rows and a.pivots == b.pivots
            assert a.matrix.tolist() == [list(r) for r in a.rows]
            assert a.matrix.dtype == np.uint8 and a.matrix.shape == (a.k, n)


def test_rref_shape_properties():
    rng = random.Random(12)
    for q in FIELD_SIZES:
        fld = field(q)
        for _ in range(25):
            n = rng.randrange(2, 9)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)]
            red, piv = rref(fld, n, rows)
            assert list(piv) == sorted(piv)
            for i, p in enumerate(piv):
                assert red[i][p] == 1
                assert all(red[t][p] == 0 for t in range(len(red)) if t != i)
                assert all(v == 0 for v in red[i][:p])


def test_field_code_equality_is_row_space_equality():
    f = field(3)
    a = FieldCode(f, 3, [(1, 2, 0), (0, 1, 1)])
    b = FieldCode(f, 3, [(0, 1, 1), (1, 0, 1)])  # same space, different basis
    c = FieldCode(f, 3, [(1, 2, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.key() == b.key()
    assert a != c
    assert a.k == 2 and c.k == 1


def test_field_code_contains():
    f = field(2)
    code = FieldCode(f, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert reference_contains(code, (1, 1, 1, 1))
    assert reference_contains(code, (0, 0, 0, 0))
    assert not reference_contains(code, (1, 0, 0, 0))


def test_field_code_validation():
    f = field(2)
    with pytest.raises(ValueError):
        FieldCode(f, 0, [])
    with pytest.raises(ValueError):
        FieldCode(f, 2, [(1,)])
    with pytest.raises(ValueError):
        FieldCode(f, 2, [(1, 2)])


@pytest.mark.parametrize("q", FIELD_SIZES)
@pytest.mark.parametrize("as_array", [False, True])
def test_field_code_rejects_bad_symbols_and_ragged_rows(q, as_array):
    fld = field(q)
    n = 30  # 8 rows of 30 symbols lie above the array kernel's size cut
    good = [tuple((i + j) % q for j in range(n)) for i in range(8)]

    def given(rows, dtype=np.int64):
        return np.array(rows, dtype=dtype) if as_array else rows

    for bad in (-1, q, 255, 256):
        rows = [list(r) for r in good]
        rows[5][7] = bad
        with pytest.raises(ValueError, match=f"symbol {bad} out of range for F_{q}"):
            FieldCode(fld, n, given(rows))
    if as_array:
        with pytest.raises(ValueError, match="symbol -1 out of range"):
            FieldCode(fld, n, given([r[:-1] + (-1,) for r in good], np.int8))
    # ragged: one row short, or every row of another length
    with pytest.raises(ValueError, match=f"row of length {n - 1} in a code of length"):
        FieldCode(fld, n, good[:3] + [good[3][:-1]] + good[4:])
    with pytest.raises(ValueError, match=f"row of length {n + 1} in a code of length"):
        FieldCode(fld, n, given([r + (0,) for r in good]))
    # the first fault in row order is the one reported
    rows = [list(r) for r in good]
    rows[2][0], rows[4] = -3, rows[4][:4]
    with pytest.raises(ValueError, match="symbol -3 out of range"):
        FieldCode(fld, n, rows)


def test_euclidean_self_dual_literals():
    assert is_euclidean_self_dual(FieldCode(field(2), 2, [(1, 1)]))
    assert not is_euclidean_self_dual(FieldCode(field(2), 2, [(1, 0)]))
    assert not is_euclidean_self_dual(FieldCode(field(2), 3, [(1, 1, 1)]))
    assert is_euclidean_self_dual(FieldCode(field(5), 2, [(1, 2)]))
    assert not is_euclidean_self_dual(FieldCode(field(5), 2, [(1, 1)]))
    assert is_euclidean_self_dual(FieldCode(field(4), 2, [(1, 1)]))
    assert not is_euclidean_self_dual(FieldCode(field(4), 2, [(1, 2)]))


def test_shift_invariance():
    f = field(2)
    cyclic = FieldCode(f, 4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    assert is_shift_invariant(cyclic, 1)
    assert is_shift_invariant(cyclic, 2)
    half_cyclic = FieldCode(f, 4, [(1, 0, 1, 0)])
    assert not is_shift_invariant(half_cyclic, 1)
    assert is_shift_invariant(half_cyclic, 2)
    assert not is_shift_invariant(FieldCode(f, 4, [(1, 1, 0, 0)]), 2)


def _dot(fld, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = fld.add(acc, fld.mul(x, y))
    return acc


def _reference_self_dual(code):
    rows = code.rows
    return 2 * code.k == code.n and all(
        _dot(code.field, a, b) == 0 for a in rows for b in rows
    )


def _rotate(word, step):
    """Shift every coordinate forward by `step`."""
    step %= len(word)
    return tuple(word[-step:]) + tuple(word[:-step])


def _reference_shift_invariant(code, step):
    return all(reference_contains(code, _rotate(r, step)) for r in code.rows)


@st.composite
def codes_and_steps(draw):
    """A code over F_q (k = 0 and odd n included) and a shift.  Half of the
    codes are closed under the shift, so both answers occur."""
    q = draw(st.sampled_from(FIELD_SIZES))
    n = draw(st.integers(1, 9))
    vectors = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(vectors, max_size=4))
    step = draw(st.integers(0, 2 * n))
    if rows and draw(st.booleans()):
        rows = [_rotate(r, i * step) for r in rows for i in range(n)]
    return FieldCode(field(q), n, rows), step


@settings(max_examples=400, deadline=None)
@given(codes_and_steps())
@example((FieldCode(field(3), 4, []), 1))
@example((FieldCode(field(5), 3, [(1, 2, 0)]), 2))
def test_predicates_agree_with_field_arithmetic(case):
    code, step = case
    assert is_euclidean_self_dual(code) is _reference_self_dual(code)
    assert is_shift_invariant(code, step) is _reference_shift_invariant(code, step)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3, 4), (2, 5, 2), (4, 3, 4), (3, 5, 4), (5, 3, 2)]),
    st.randoms(use_true_random=False),
)
def test_self_dual_expansions_pass_the_predicates(case, rnd):
    q, m, ell = case
    code = random_self_dual(q, m, ell, rnd).expansion()
    assert _reference_self_dual(code) and is_euclidean_self_dual(code)
    assert _reference_shift_invariant(code, ell) and is_shift_invariant(code, ell)


def test_f4_self_duality_is_euclidean_not_hermitian():
    f4 = field(4)
    one_w = (1, 2)  # [1, w]: 1 + w*conj(w) = 1 + w^3 = 0, but 1 + w^2 = w
    assert _dot(f4, one_w, tuple(f4.mul(x, x) for x in one_w)) == 0
    assert _dot(f4, one_w, one_w) != 0
    assert not is_euclidean_self_dual(FieldCode(f4, 2, [one_w]))
    assert is_euclidean_self_dual(FieldCode(f4, 2, [(1, 1)]))


def test_expand_collapse_roundtrip_exhaustive_single_generator():
    # every nonzero single-generator code over F_2[Y]/(Y^3 - 1), ell = 2
    sp = ring(2, 3)
    count = 0
    for idx_a in range(8):
        for idx_b in range(8):
            if idx_a == 0 and idx_b == 0:
                continue
            row = (sp.element_from_index(idx_a), sp.element_from_index(idx_b))
            rc = RingCode(sp, 2, [row])
            back = collapse(rc.expansion(), sp.m, 2)
            assert back.same_row_space(rc)
            assert back.expansion() == rc.expansion()
            count += 1
    assert count == 63


def test_collapse_expand_roundtrip_random_multirow():
    rng = random.Random(13)
    for q, m in [(2, 3), (3, 5), (4, 3), (5, 7)]:
        sp = ring(q, m)
        for _ in range(8):
            ell = rng.choice([1, 2, 3])
            rows = [
                tuple(
                    tuple(rng.randrange(q) for _ in range(m)) for _ in range(ell)
                )
                for _ in range(rng.randrange(1, 3))
            ]
            if not any(any(any(e) for e in r) for r in rows):
                continue
            rc = RingCode(sp, ell, rows)
            fc = rc.expansion()
            assert is_shift_invariant(fc, ell)
            back = collapse(fc, m, ell)
            assert back.expansion() == fc


def test_expand_fills_the_cached_expansion():
    # one row reduction per ring code, whichever of the two is called first
    rc = random_self_dual(2, 3, 4, random.Random(12))
    fc = expand(rc)
    assert expand(rc) is fc is rc.expansion()
    other = RingCode(rc.spec, rc.ell, rc.rows)
    assert other.expansion() is expand(other) == fc


def test_collapse_rejects_bad_input():
    f = field(2)
    code = FieldCode(f, 6, [(1, 0, 1, 1, 0, 1)])
    with pytest.raises(ValueError):
        collapse(code, 4, 2)  # 4*2 != 6
    not_invariant = FieldCode(f, 6, [(1, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        collapse(not_invariant, 3, 2)


def test_gray_image_literal():
    # w -> (1, 0), w^2 -> (0, 1), 1 = w + w^2 -> (1, 1), x parts then y parts
    f4 = field(4)
    code = FieldCode(f4, 2, [(2, 1)])  # (w, 1)
    img = gray_image(code)
    assert img.n == 4
    assert img.k == 2
    # row itself: (w, 1) -> x=(1,1), y=(0,1); w*row = (w^2, w) -> x=(0,1), y=(1,0)
    assert img == FieldCode(field(2), 4, [(1, 1, 0, 1), (0, 1, 1, 0)])


def test_gray_image_doubles_parameters():
    rng = random.Random(14)
    f4 = field(4)
    for _ in range(10):
        n = rng.randrange(2, 7)
        rows = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(2)]
        code = FieldCode(f4, n, rows)
        img = gray_image(code)
        assert img.n == 2 * n
        assert img.k == 2 * code.k


def test_gray_image_of_hermitian_self_dual_is_self_dual():
    from qcsd import corpus

    for name in ["J_2", "M_2", "J_4"]:
        rc = corpus.load(corpus.get(name))
        img = gray_image(rc.expansion())
        assert is_euclidean_self_dual(img)


def test_gray_image_rejects_other_fields():
    with pytest.raises(ValueError):
        gray_image(FieldCode(field(2), 2, [(1, 1)]))
