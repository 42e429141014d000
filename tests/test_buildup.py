"""Building-up constructions: seeds, the two extension branches, reduce."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qcsd.buildup import (
    _minus_pairings,
    extend_i,
    extend_ii,
    norm_minus_one_elements,
    reduce,
    seed,
)
from qcsd.equiv import ClassStore, apply_monomial, fingerprint
from qcsd.errors import ConstructionError, UnsupportedCase
from qcsd.rcode import RingCode
from qcsd.ring import ring

from conftest import (
    pairs_for,
    random_element,
    random_extension_i,
    random_extension_ii,
    random_norm_minus_one_vector,
    seeds_for,
)


NORM_MINUS_ONE_COUNTS = {
    (2, 3): 3,
    (2, 5): 5,
    (2, 7): 7,
    (4, 3): 3,
    (4, 5): 25,
    (4, 7): 63,
    (3, 5): 0,
    (3, 7): 0,
    (5, 7): 252,
}


def test_norm_minus_one_counts():
    for (q, m), want in NORM_MINUS_ONE_COUNTS.items():
        got = norm_minus_one_elements(ring(q, m))
        assert len(got) == want, (q, m)
        sp = ring(q, m)
        minus1 = sp.neg(sp.one)
        for c in got:
            assert sp.mul(c, sp.conj(c)) == minus1


SEED_COUNTS = {
    (2, 3): 1,
    (2, 5): 1,
    (2, 7): 1,
    (4, 3): 1,
    (4, 5): 2,
    (4, 7): 3,
    (3, 5): 1,
    (5, 7): 6,
}


def test_seed_counts_and_self_duality():
    for (q, m), want in SEED_COUNTS.items():
        sds = seeds_for(q, m)
        assert len(sds) == want, (q, m)
        for s in sds:
            assert s.is_self_dual()
            assert s.ell == (4 if q % 4 == 3 else 2)


def first_fit_seeds(spec):
    """Reference seeds: every [1 | c] sorted first-fit, in lexicographic
    order of c, into classes of unrestricted equivalence of expansions."""
    store = ClassStore()
    kept = []
    for c in norm_minus_one_elements(spec):
        code = RingCode(spec, 2, [(spec.one, c)])
        exp = code.expansion()
        if store.add(exp, fingerprint(exp)):
            kept.append(code)
    return kept


@pytest.mark.parametrize(
    "q, m", [(2, 3), (2, 5), (2, 7), (4, 3), (4, 5), (4, 7), (2, 11), (5, 3)]
)
def test_seeds_match_first_fit_over_every_c(q, m):
    want = first_fit_seeds(ring(q, m))
    assert [s.rows for s in seeds_for(q, m)] == [s.rows for s in want]


def _seed_expansion(sp, c):
    return RingCode(sp, 2, [(sp.one, c)]).expansion()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3), (2, 5), (4, 5), (5, 3), (5, 7)]), st.data())
def test_seed_symmetries_are_monomial_maps(qm, data):
    # position 2*i + j of the expansion of [1 | c] holds coefficient i of
    # block j (see qc.expand)
    sp = ring(*qm)
    m, fld = sp.m, sp.field
    c = data.draw(st.sampled_from(norm_minus_one_elements(sp)))
    exp = _seed_expansion(sp, c)
    ident = list(range(2 * m))
    # block 1 times u = gamma * Y^s: rotate it by s and scale it by gamma
    gamma = data.draw(st.sampled_from([g for g in range(1, sp.q) if fld.mul(g, g) == 1]))
    s = data.draw(st.integers(0, m - 1))
    u = sp.scalar_mul(gamma, sp.shift(sp.one, s))
    perm = [2 * ((p // 2 + s) % m) + 1 if p % 2 else p for p in ident]
    scalars = [gamma if p % 2 else 1 for p in ident]
    assert apply_monomial(exp, perm, scalars) == _seed_expansion(sp, sp.mul(u, c))
    # swap the blocks, then scale block 1 by -1
    perm = [p ^ 1 for p in ident]
    scalars = [1 if p % 2 else fld.neg(1) for p in ident]
    assert apply_monomial(exp, perm, scalars) == _seed_expansion(sp, sp.conj(c))
    # Y -> Y^a on both blocks, for a unit a mod m
    a = data.draw(st.sampled_from([a for a in range(1, m) if math.gcd(a, m) == 1]))
    perm = [2 * (a * (p // 2) % m) + p % 2 for p in ident]
    c_a = [0] * m
    for i, v in enumerate(c):
        c_a[a * i % m] = v
    assert apply_monomial(exp, perm, [1] * (2 * m)) == _seed_expansion(sp, tuple(c_a))


def test_seed_literals():
    assert seeds_for(2, 3)[0].rows == (((1, 0, 0), (0, 0, 1)),)
    assert seeds_for(2, 5)[0].rows == (((1, 0, 0, 0, 0), (0, 0, 0, 0, 1)),)
    one57 = ring(5, 7).one
    assert [s.rows for s in seeds_for(5, 7)] == [
        ((one57, c),)
        for c in [
            (0, 0, 0, 0, 0, 0, 2),
            (0, 0, 1, 0, 1, 1, 4),
            (0, 1, 1, 4, 2, 4, 1),
            (0, 2, 2, 2, 2, 2, 2),
            (1, 1, 2, 1, 2, 2, 3),
            (1, 1, 2, 3, 4, 3, 3),
        ]
    ]
    sp35 = ring(3, 5)
    s = seeds_for(3, 5)[0]
    one, zero = sp35.one, sp35.zero
    a = (1, 0, 0, 0, 0)  # 1^2 + 1^2 = -1 over F_3
    assert s.rows == (
        (one, zero, a, a),
        (zero, one, sp35.neg(a), a),
    )


def test_extend_i_literal():
    sp = ring(2, 3)
    base = seeds_for(2, 3)[0]
    # x = (1, 0) has <x, x> = 1 = -1 in characteristic 2
    x = (sp.one, sp.zero)
    ext = extend_i(base, sp.one, x)
    assert ext.ell == 4
    assert ext.is_self_dual()
    # top row is (1, 0 | x); the seed row continues with y = -<r, x>
    assert ext.rows[0] == (sp.one, sp.zero, sp.one, sp.zero)
    r = base.rows[0]
    y = sp.neg(sp.hermitian_ip(r, x))
    assert y == sp.one
    assert ext.rows[1] == (y, y) + r


def test_extend_i_preserves_self_duality_random():
    rng = random.Random(31)
    for q, m in [(2, 3), (2, 5), (2, 7), (4, 3), (4, 5), (4, 7), (5, 7)]:
        code = seeds_for(q, m)[0]
        for _ in range(3):
            code = random_extension_i(code, rng)
            assert code.is_self_dual()
        assert code.ell == 8


def test_extend_i_rejects_bad_witnesses():
    sp = ring(2, 3)
    base = seeds_for(2, 3)[0]
    good_x = (sp.one, sp.zero)
    with pytest.raises(ConstructionError, match="c\\*conj\\(c\\) = -1"):
        extend_i(base, sp.zero, good_x)
    with pytest.raises(ConstructionError, match="<x, x> = -1"):
        extend_i(base, sp.one, (sp.one, sp.one))
    with pytest.raises(ConstructionError, match="x has length 1"):
        extend_i(base, sp.one, (sp.one,))
    bad_base = RingCode(sp, 2, [(sp.one, sp.zero)])
    with pytest.raises(ConstructionError, match="base self-dual"):
        extend_i(bad_base, sp.one, good_x)
    sp3 = ring(3, 5)
    with pytest.raises(ConstructionError, match="3 mod 4"):
        extend_i(seeds_for(3, 5)[0], sp3.one, (sp3.one,) * 4)


def test_extend_i_checks_its_base_once(monkeypatch):
    # the base's self-duality is decided once, not once per witness
    from qcsd import rcode

    sp = ring(2, 5)
    base = RingCode(sp, 2, [(sp.one, norm_minus_one_elements(sp)[0])])
    check = rcode.is_euclidean_self_dual
    checked = []

    def counting(code):
        checked.append(code)
        return check(code)

    monkeypatch.setattr(rcode, "is_euclidean_self_dual", counting)
    rng = random.Random(33)
    for _ in range(50):
        random_extension_i(base, rng)
    assert sum(code is base.expansion() for code in checked) == 1


@pytest.mark.parametrize("q, m, nx", [(2, 3, 1), (4, 5, 1), (5, 7, 1), (3, 5, 2), (2, 11, 1)])
def test_batched_pairings_match_hermitian_ip(q, m, nx):
    # one F_q product gives -<r, x> for every row r (and each x side by
    # side); (4, 5) runs the F_4 bit-plane product
    sp = ring(q, m)
    rng = random.Random(q * 100 + m)
    for ell in (1, 2, 5, 24):
        rows = [tuple(random_element(sp, rng) for _ in range(ell)) for _ in range(4)]
        rows.append(rows[0])
        rows[1] = (sp.one,) + (sp.zero,) * (ell - 1)
        base = RingCode(sp, ell, rows)
        xs = [tuple(random_element(sp, rng) for _ in range(ell)) for _ in range(nx)]
        got = _minus_pairings(base, *xs)
        assert len(got) == len(base.rows)
        for row, r in zip(got, base.rows):
            want = [v for x in xs for v in sp.neg(sp.hermitian_ip(r, x))]
            assert row == want


def test_extend_ii_grows_by_four_and_preserves_self_duality():
    rng = random.Random(32)
    for q, m in [(3, 5), (3, 7)]:
        pairs = pairs_for(q, m)
        assert pairs
        code = seeds_for(q, m)[0]
        for _ in range(2):
            code = random_extension_ii(code, pairs, rng)
            assert code.is_self_dual()
        assert code.ell == 12


def test_extend_ii_rejects_bad_witnesses():
    rng = random.Random(33)
    sp = ring(3, 5)
    base = seeds_for(3, 5)[0]
    one, zero = sp.one, sp.zero
    x1 = random_norm_minus_one_vector(sp, 4, rng)
    x2 = None
    for _ in range(100000):
        cand = random_norm_minus_one_vector(sp, 4, rng)
        if sp.hermitian_ip(x1, cand) == zero:
            x2 = cand
            break
    assert x2 is not None
    with pytest.raises(ConstructionError, match="alpha\\*conj\\(alpha\\)"):
        extend_ii(base, zero, zero, x1, x2)
    with pytest.raises(ConstructionError, match="<x1, x1> = -1"):
        extend_ii(base, one, one, (one, zero, zero, zero), x2)
    with pytest.raises(ConstructionError, match="<x1, x2> = 0"):
        extend_ii(base, one, one, x1, x1)
    with pytest.raises(ConstructionError, match="length 2L with L even"):
        extend_ii(RingCode(sp, 2, [(one, zero)]), one, one, x1[:2], x2[:2])
    bad_base = RingCode(sp, 4, [(one, zero, zero, zero)])
    with pytest.raises(ConstructionError, match="base self-dual"):
        extend_ii(bad_base, one, one, x1, x2)
    sp2 = ring(2, 3)
    with pytest.raises(ConstructionError, match="branch ii needs q = 3 mod 4"):
        extend_ii(seeds_for(2, 3)[0], sp2.one, sp2.one, (sp2.one,) * 2, (sp2.one,) * 2)


def test_reduce_inverts_extend_i():
    # reduce needs the standard form, so it runs on the two-factor rings
    rng = random.Random(35)
    for q, m in [(2, 3), (2, 5), (5, 7), (5, 3)]:
        code = seeds_for(q, m)[0]
        code = random_extension_i(code, rng)
        code = random_extension_i(code, rng)
        assert code.ell == 6
        base = reduce(code)
        assert base.ell == 4
        assert base.is_self_dual()
        inner = reduce(base)
        assert inner.ell == 2
        assert inner.is_self_dual()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3), (2, 5), (5, 3), (5, 7)]),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_reduce_of_an_extension_extends_back(qm, steps, rnd):
    # the base reduce finds need not be the base extend_i started from, but
    # it is self-dual of the same length, and the first c with the
    # standard form's row-0 tail as x extends it back to the permuted code
    sp = ring(*qm)
    base = rnd.choice(seeds_for(*qm))
    for _ in range(steps - 1):
        base = random_extension_i(base, rnd)
    code = random_extension_i(base, rnd)
    shorter = reduce(code)
    assert shorter.ell == base.ell
    assert shorter.is_self_dual()
    sf = code.standard_form()
    again = extend_i(shorter, norm_minus_one_elements(sp)[0], sf.rows[0][2:])
    assert again.same_row_space(code.permute_columns(sf.col_perm))


def test_reduce_refuses_a_base_that_does_not_extend_back(monkeypatch):
    # a standard form whose column order is wrong: the base is built from
    # its rows as before, but the permuted code is not the extension
    import dataclasses

    rng = random.Random(36)
    code = random_extension_i(random_extension_i(seeds_for(2, 3)[0], rng), rng)
    sf = code.standard_form()
    wrong = sf.col_perm[:2] + sf.col_perm[:1:-1]
    assert not code.permute_columns(wrong).same_row_space(
        code.permute_columns(sf.col_perm)
    )
    assert reduce(code).ell == code.ell - 2
    monkeypatch.setattr(
        RingCode, "standard_form", lambda self: dataclasses.replace(sf, col_perm=wrong)
    )
    with pytest.raises(RuntimeError, match="does not extend back"):
        reduce(code)


def test_reduce_unsupported_cases():
    sp = ring(2, 3)
    with pytest.raises(UnsupportedCase, match="below the reducible minimum"):
        reduce(seeds_for(2, 3)[0])
    not_sd = RingCode(sp, 4, [(sp.one, sp.zero, sp.zero, sp.zero)])
    with pytest.raises(UnsupportedCase, match="not self-dual"):
        reduce(not_sd)
    with pytest.raises(UnsupportedCase, match="branch i fields only"):
        reduce(seeds_for(3, 5)[0])
