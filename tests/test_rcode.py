"""Codes over R: expansion layout, self-duality, standard form."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from qcsd.gf import field
from qcsd.qc import FieldCode, is_shift_invariant
from qcsd.rcode import RingCode, component_forms
from qcsd.ring import ring

from conftest import (
    mod_phi,
    naive_rref,
    permute_columns,
    reference_component_forms,
    reference_k,
    same_row_space,
)


def test_constructor_validation():
    sp = ring(2, 3)
    with pytest.raises(ValueError):
        RingCode(sp, 2, [((1, 0, 0),)])  # row too short
    with pytest.raises(ValueError):
        RingCode(sp, 1, [((1, 0),)])  # element with wrong coefficient count
    with pytest.raises(ValueError):
        RingCode(sp, 1, [((2, 0, 0),)])  # coefficient out of range for F_2
    with pytest.raises(ValueError):
        RingCode(sp, 2, [((0, 0, 0), (0, 0, 0))])  # no nonzero generators
    with pytest.raises(ValueError):
        RingCode(sp, 0, [])
    # the first bad row in the order given names the error, however bytes()
    # refuses its coefficient; the row after it is bad in another way
    good = ((1, 0, 1), (0, 1, 1))
    short = ((1, 0, 1), (0, 1))
    for v in (-1, 2, 256, 0.5):
        with pytest.raises(ValueError, match=f"coefficient {v} out of range for F_2"):
            RingCode(sp, 2, [good, ((1, 0, 0), (0, v, 0)), short])
    with pytest.raises(ValueError, match="wrong number of coefficients"):
        RingCode(sp, 2, [good, good, short, ((1, 0, 0), (0, -1, 0))])
    with pytest.raises(ValueError, match="row of length 1 in a code of length 2"):
        RingCode(sp, 2, [good, ((1, 0, 0),), ((1, 0, 0), (0, 5, 0))])
    # nested lists, as collapse passes them, and zero rows dropped
    rc = RingCode(sp, 2, [[[0, 0, 0], [0, 0, 0]], [[1, 0, 1], [0, 1, 1]], [[0, 0, 0]] * 2])
    assert rc.rows == (good,)
    assert rc.coeffs.tolist() == [[[1, 0, 1], [0, 1, 1]]]


def test_expansion_layout_literal():
    # entry j of a ring row contributes the coefficient of Y^i at field
    # position i*ell + j, and multiplying a row by Y lands in the code
    sp = ring(2, 3)
    rc = RingCode(sp, 2, [((1, 1, 0), (0, 1, 1))])  # (1 + Y | Y + Y^2)
    exp = rc.expansion()
    assert exp.n == 6
    assert exp.k == 2
    expected = FieldCode(
        field(2),
        6,
        [
            (1, 0, 1, 1, 0, 1),  # the row itself
            (0, 1, 1, 0, 1, 1),  # Y times the row
            (1, 1, 0, 1, 1, 0),  # Y^2 times the row
        ],
    )
    assert exp == expected


def test_expansion_is_shift_invariant():
    sp = ring(5, 7)
    rc = RingCode(
        sp,
        2,
        [((1, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 3, 0, 0))],
    )
    exp = rc.expansion()
    assert exp.n == 14
    assert exp.k == 7
    assert is_shift_invariant(exp, 2)


def test_expansion_dimension_is_rank_not_row_count():
    sp = ring(2, 3)
    # Phi = 1 + Y + Y^2 spans a 1-dimensional module: Y*Phi = Phi
    rc = RingCode(sp, 1, [((1, 1, 1),)])
    assert rc.expansion().k == 1


def test_self_dual_literals():
    sp = ring(2, 3)
    assert RingCode(sp, 2, [((1, 0, 0), (0, 0, 1))]).is_self_dual()
    assert not RingCode(sp, 2, [((1, 0, 0), (0, 0, 0))]).is_self_dual()
    assert not RingCode(sp, 1, [((1, 1, 1),)]).is_self_dual()
    sp4 = ring(4, 3)
    # over F_4 the all-ones column pair is not self-dual (norms add to 2*1=0
    # but the dimension is right only for the hermitian-orthogonal pair)
    assert RingCode(sp4, 2, [((1, 0, 0), (0, 0, 1))]).is_self_dual()


def test_self_duality_breaks_under_single_coefficient_typo():
    # the transcription gate: flipping any one coefficient of a self-dual
    # generator matrix destroys self-duality
    from qcsd import corpus

    rc = corpus.load(corpus.get("K_2"))
    sp = rc.spec
    rows = [list(list(e) for e in r) for r in rc.rows]
    flips = 0
    for i in range(len(rows)):
        for j in range(rc.ell):
            for t in range(sp.m):
                rows[i][j][t] ^= 1
                bad = RingCode(sp, rc.ell, [tuple(tuple(e) for e in r) for r in rows])
                assert not bad.is_self_dual()
                rows[i][j][t] ^= 1
                flips += 1
    assert flips == len(rc.rows) * rc.ell * sp.m


def test_standard_form_blocks_on_self_dual_codes():
    # self-dual codes have no Phi-block (k3 = 0) and split the half-length
    # between the free block and the (Y-1)-block
    from qcsd import corpus

    for name in ["G_14", "G_16", "I_8", "I_4", "G_12"]:
        rc = corpus.load(corpus.get(name))
        sf = rc.standard_form()
        assert sf.k3 == 0
        assert sf.k1 + sf.k2 == rc.ell // 2
        assert sf.k1 >= 2
        # the first k1 rows start with an identity block
        sp = rc.spec
        for i in range(sf.k1):
            for j in range(sf.k1):
                want = sp.one if i == j else sp.zero
                assert sf.rows[i][j] == want
        # the standard form generates the permuted code
        recon = RingCode(sp, rc.ell, sf.rows)
        assert same_row_space(recon, permute_columns(rc, sf.col_perm))


def test_standard_form_seed_profile():
    sp = ring(2, 3)
    rc = RingCode(sp, 2, [((1, 0, 0), (0, 0, 1))])
    sf = rc.standard_form()
    assert (sf.k1, sf.k2, sf.k3) == (1, 0, 0)


def test_standard_form_needs_two_factor_splitting():
    from qcsd.errors import UnsupportedCase

    sp = ring(2, 7)
    rc = RingCode(sp, 2, [((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1))])
    with pytest.raises(UnsupportedCase):
        rc.standard_form()


def test_single_factor_rows_fill_k3():
    # generators living inside one maximal ideal only form the k3 block,
    # tagged with the ideal they came from
    sp = ring(2, 3)
    phi = (1, 1, 1)
    rc = RingCode(sp, 2, [(phi, sp.zero)])
    sf = rc.standard_form()
    assert (sf.k1, sf.k2, sf.k3) == (0, 0, 1)
    assert sf.alpha_branch == "phi"
    rc2 = RingCode(sp, 2, [(sp.sub(sp.y, sp.one), sp.zero)])
    sf2 = rc2.standard_form()
    assert (sf2.k1, sf2.k2, sf2.k3) == (0, 0, 1)
    assert sf2.alpha_branch == "Y-1"


def test_two_ideal_row_fills_k2():
    # a row with a (Y-1)-multiple in one column and a Phi-multiple in
    # another has zero annihilator but no unit coordinate: it is counted
    # by k2 and spans a full rank-m module
    sp = ring(2, 3)
    y_minus_1 = sp.sub(sp.y, sp.one)
    rc = RingCode(sp, 2, [(y_minus_1, (1, 1, 1))])
    sf = rc.standard_form()
    assert (sf.k1, sf.k2, sf.k3) == (0, 1, 0)
    assert rc.expansion().k == sp.m


def _ring_rows(sp, text_rows):
    """Rows of ring elements from coefficient strings, constant first."""
    return [tuple(tuple(int(c) for c in e) for e in r.split()) for r in text_rows]


def test_standard_form_keeps_every_generator():
    # pair clearing must divide by the Y-1 pivot's residue; without that,
    # leftover rows kept a <Y-1> entry in a pivot column and were dropped
    sp = ring(2, 3)
    rows = _ring_rows(sp, [
        "000 111 101 000 000 000",
        "110 101 000 000 111 000",
        "111 111 101 000 000 110",
        "100 001 110 110 000 010",
        "110 000 000 101 111 000",
        "000 111 110 000 000 000",
    ])
    rc = RingCode(sp, 6, rows)
    sf = rc.standard_form()
    assert rc.expansion().k == 14
    assert same_row_space(RingCode(sp, 6, sf.rows), permute_columns(rc, sf.col_perm))


def _brute_force_k1(rc):
    """Largest column set on which both component codes have full rank."""
    sp = rc.spec
    comps = [
        (sp.field, [[sp.eval1(e) for e in r] for r in rc.rows]),
        (reference_k(sp.q, sp.m), [[mod_phi(sp, e) for e in r] for r in rc.rows]),
    ]
    for size in range(rc.ell, 0, -1):
        for cols in itertools.combinations(range(rc.ell), size):
            if all(
                len(naive_rref(fld, size, [[r[j] for j in cols] for r in rows])[0]) == size
                for fld, rows in comps
            ):
                return size
    return 0


def _assert_block_shape(rc, sf):
    """I_k1, then (Y-1)*I_k2 beside PHI*I_k2, then alpha*I_k3; zeros below
    each block, and the rows span the permuted input."""
    sp = rc.spec
    k1, k2, k3 = sf.k1, sf.k2, sf.k3
    phi = (1,) * sp.m
    y_minus_1 = sp.sub(sp.y, sp.one)
    alpha = {"phi": phi, "Y-1": y_minus_1, None: None}[sf.alpha_branch]
    assert (k3 > 0) == (alpha is not None)
    assert len(sf.rows) == k1 + k2 + k3
    for i, row in enumerate(sf.rows):
        want = [sp.zero] * (k1 + 2 * k2 + k3)
        if i < k1:
            want[i] = sp.one
            want = want[:k1]  # the rest of a unit row is free
        elif i < k1 + k2:
            want[i] = y_minus_1
            want[i + k2] = phi
        else:
            want[i + k2] = alpha
        assert list(row[: len(want)]) == want, (i, row)
    assert same_row_space(RingCode(sp, rc.ell, sf.rows), permute_columns(rc, sf.col_perm))


def test_standard_form_finds_every_unit_column():
    # a self-dual code whose three unit columns {0, 3, 4} only appear after
    # one exchange: the shared pivots of its components are {0, 1}, and
    # column 1 must give way to columns 3 and 4
    sp = ring(2, 3)
    rows = _ring_rows(sp, [
        "100 000 010 111 110 100",
        "111 111 100 000 010 000",
        "001 001 001 100 100 001",
    ])
    rc = RingCode(sp, 6, rows)
    assert rc.is_self_dual()
    sf = rc.standard_form()
    assert (sf.k1, sf.k2, sf.k3) == (3, 0, 0)
    assert sf.k1 == _brute_force_k1(rc)
    _assert_block_shape(rc, sf)


@st.composite
def ring_codes(draw):
    q, m = draw(st.sampled_from([(2, 3), (2, 5), (5, 3), (3, 5), (5, 2)]))
    sp = ring(q, m)
    ell = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 5))
    coeff = st.integers(0, q - 1)
    # entries from the two maximal ideals as well as units, so that the
    # unit columns are not simply the first columns met
    factor = st.sampled_from([sp.one, sp.sub(sp.y, sp.one), (1,) * m])
    elem = st.builds(sp.mul, st.tuples(*[coeff] * m), factor)
    rows = draw(st.lists(st.tuples(*[elem] * ell), min_size=nrows, max_size=nrows))
    if not any(any(e) for r in rows for e in r):
        rows[0] = (sp.one,) + rows[0][1:]
    return RingCode(sp, ell, rows)


@settings(max_examples=150, deadline=None)
@given(ring_codes())
def test_standard_form_spans_the_input(rc):
    _assert_block_shape(rc, rc.standard_form())


@settings(max_examples=100, deadline=None)
@given(ring_codes())
@example(  # one unit column, though no entry of the generators is a unit
    RingCode(ring(2, 3), 3, _ring_rows(ring(2, 3), ["000 111 111", "011 111 101"]))
)
def test_standard_form_k1_is_the_largest_unit_column_set(rc):
    assert rc.standard_form().k1 == _brute_force_k1(rc)


@settings(max_examples=100, deadline=None)
@given(ring_codes(), st.randoms(use_true_random=False))
def test_standard_form_k1_ignores_row_and_column_order(rc, rnd):
    rows = list(rc.rows)
    rnd.shuffle(rows)
    perm = list(range(rc.ell))
    rnd.shuffle(perm)
    moved = permute_columns(RingCode(rc.spec, rc.ell, rows), perm)
    assert moved.standard_form().k1 == rc.standard_form().k1


@st.composite
def k_inputs(draw):
    """Codes whose rows repeat, include multiples of PHI (zero K image) and
    outnumber the columns, over every residue-field shape in use."""
    q, m = draw(st.sampled_from(
        [(2, 3), (2, 5), (2, 11), (3, 5), (3, 7), (5, 2), (5, 3), (5, 7)]
    ))
    sp = ring(q, m)
    ell = draw(st.integers(1, 4))
    coeff = st.integers(0, q - 1)
    phi = (1,) * m
    elem = st.tuples(*[coeff] * m)
    factor = st.sampled_from([sp.one, sp.one, sp.sub(sp.y, sp.one), phi])
    row = st.tuples(*[st.builds(sp.mul, elem, factor)] * ell)
    rows = draw(st.lists(row, min_size=1, max_size=ell + 3))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # repeats
    rows.append(tuple(sp.mul(e, phi) for e in draw(row)))  # K image zero
    if not any(any(e) for r in rows for e in r):
        rows[0] = (sp.one,) + rows[0][1:]
    return RingCode(sp, ell, rows)


@settings(max_examples=150, deadline=None)
@given(k_inputs(), st.booleans())
def test_component_forms_match_the_reference_k_elimination(rc, shared):
    # the K forms come from one F_q elimination of the rows Y^s * r, lifted
    # into e_phi*R; the reference eliminates over K on its residue tuples,
    # one operation per symbol, and lifts its rows, and both forms must
    # agree in content and pivot order
    got = component_forms(rc, shared=shared)
    want = reference_component_forms(rc, shared=shared)
    assert [list(f.items()) for f in got] == [list(f.items()) for f in want]
