"""Monomial equivalence, fingerprints, automorphism group orders."""

import random

import pytest

from qcsd.equiv import (
    apply_monomial,
    are_equivalent,
    automorphism_order,
    fingerprint,
)
from qcsd.errors import BudgetExceeded
from qcsd.gf import field
from qcsd.qc import FieldCode

from conftest import random_self_dual


def random_monomial(n, q, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    scalars = tuple(rng.randrange(1, q) for _ in range(n))
    return tuple(perm), scalars


def test_apply_monomial_literal():
    f3 = field(3)
    code = FieldCode(f3, 3, [(1, 2, 0)])
    moved = apply_monomial(code, (2, 0, 1), (1, 1, 2))
    # old column j lands at perm[j] after scaling by scalars[j]
    assert moved == FieldCode(f3, 3, [(2, 0, 1)])


def test_equivalent_after_random_monomial_maps():
    rng = random.Random(51)
    for q, m, ell in [(2, 3, 4), (2, 5, 2), (4, 3, 2), (3, 5, 4), (5, 7, 2)]:
        code = random_self_dual(q, m, ell, rng).expansion()
        perm, scalars = random_monomial(code.n, q, rng)
        moved = apply_monomial(code, perm, scalars)
        res = are_equivalent(code, moved)
        assert res
        assert res.equivalent
        # the returned witness maps code onto moved exactly
        again = apply_monomial(code, res.perm, res.scalars)
        assert again == moved


def test_inequivalent_known_pair():
    rng = random.Random(52)
    f2 = field(2)
    # [8,4,2] direct sum versus the [8,4,4] extended Hamming code
    direct = FieldCode(
        f2,
        8,
        [
            (1, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 1, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 1),
        ],
    )
    hamming = FieldCode(
        f2,
        8,
        [
            (1, 1, 1, 1, 0, 0, 0, 0),
            (0, 0, 1, 1, 1, 1, 0, 0),
            (0, 0, 0, 0, 1, 1, 1, 1),
            (1, 0, 1, 0, 1, 0, 1, 0),
        ],
    )
    assert not are_equivalent(direct, hamming)
    # different parameters short-circuit
    assert not are_equivalent(direct, FieldCode(f2, 8, [(1, 1, 0, 0, 0, 0, 0, 0)]))
    perm, scalars = random_monomial(8, 2, rng)
    assert are_equivalent(hamming, apply_monomial(hamming, perm, scalars))


def test_node_budget_overrun_is_budget_exceeded():
    # the three weight-2 words leave the refinement with symmetric colour
    # classes, so the search has to branch past its first node
    f2 = field(2)
    code = FieldCode(f2, 6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)])
    assert are_equivalent(code, code)
    with pytest.raises(BudgetExceeded) as exc:
        are_equivalent(code, code, node_budget=1)
    assert exc.value.budget == 1 and exc.value.required == 2


def test_are_equivalent_rejects_mixed_fields():
    with pytest.raises(ValueError):
        are_equivalent(
            FieldCode(field(2), 2, [(1, 1)]), FieldCode(field(3), 2, [(1, 2)])
        )


def test_fingerprint_is_monomial_invariant():
    rng = random.Random(53)
    for q, m, ell in [(2, 3, 4), (4, 3, 2), (5, 7, 2)]:
        code = random_self_dual(q, m, ell, rng).expansion()
        fp = fingerprint(code)
        for _ in range(3):
            perm, scalars = random_monomial(code.n, q, rng)
            moved = apply_monomial(code, perm, scalars)
            assert fingerprint(moved) == fp
        assert fp.n == code.n and fp.k == code.k
        assert fp.key()[0] == code.n


def test_fingerprint_separates_inequivalent_codes():
    f2 = field(2)
    a = FieldCode(f2, 6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)])
    b = FieldCode(f2, 6, [(1, 1, 1, 1, 0, 0), (0, 0, 1, 1, 1, 1), (1, 0, 1, 0, 1, 0)])
    assert fingerprint(a) != fingerprint(b)


def brute_force_automorphism_count(code):
    """Count monomial maps fixing the code by trying all of them."""
    import itertools

    n, q = code.n, code.field.q
    count = 0
    for perm in itertools.permutations(range(n)):
        for scalars in itertools.product(range(1, q), repeat=n):
            if apply_monomial(code, perm, scalars) == code:
                count += 1
    return count


def test_automorphism_order_small_literals():
    f2 = field(2)
    # the [2,1] repetition code admits only the swap and the identity
    rep2 = FieldCode(f2, 2, [(1, 1)])
    assert automorphism_order(rep2) == 2
    # two disjoint pair blocks: swap within each block and swap the blocks
    pairs = FieldCode(f2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert automorphism_order(pairs) == 8


def test_automorphism_order_matches_brute_force():
    cases = [
        FieldCode(field(2), 6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1)]),
        FieldCode(field(2), 5, [(1, 1, 1, 0, 0), (0, 0, 1, 1, 1)]),
        FieldCode(field(3), 4, [(1, 0, 1, 1), (0, 1, 2, 1)]),
        FieldCode(field(3), 4, [(1, 0, 1, 0), (0, 1, 0, 2)]),
        FieldCode(field(4), 3, [(1, 2, 3)]),
        FieldCode(field(5), 3, [(1, 2, 0), (0, 1, 3)]),
    ]
    for code in cases:
        assert automorphism_order(code) == brute_force_automorphism_count(code)


def test_automorphism_order_known_codes():
    from qcsd import corpus

    i4 = corpus.load(corpus.get("I_4")).expansion()
    assert automorphism_order(i4, max_n=24) == 3840
    with pytest.raises(BudgetExceeded):
        automorphism_order(i4, max_n=10)


def test_qc_blocks_mode_confirms_block_structured_maps():
    from qcsd.rcode import RingCode

    rng = random.Random(54)
    rc = random_self_dual(2, 3, 4, rng)
    sp = rc.spec
    code = rc.expansion()
    # swap two ring coordinates and multiply one of them by Y: the image
    # is a block permutation plus an in-block rotation of the expansion
    moved_rc = RingCode(
        sp,
        rc.ell,
        [(sp.shift(r[1], 1), r[0], r[2], r[3]) for r in rc.rows],
    )
    moved = moved_rc.expansion()
    res = are_equivalent(code, moved, qc_blocks=(rc.m, rc.ell))
    assert res
    again = apply_monomial(code, res.perm, res.scalars)
    assert again == moved


def test_qc_blocks_mode_is_a_restriction():
    # plain equivalence can use any column permutation; the block mode
    # must refuse maps that break the block structure, so inequivalence
    # under qc_blocks does not imply full inequivalence but equivalence
    # under qc_blocks always implies full equivalence
    rng = random.Random(55)
    rc = random_self_dual(2, 3, 6, rng)
    code = rc.expansion()
    perm, scalars = random_monomial(code.n, 2, rng)
    moved = apply_monomial(code, perm, scalars)
    if are_equivalent(code, moved, qc_blocks=(rc.m, rc.ell)):
        assert are_equivalent(code, moved)
