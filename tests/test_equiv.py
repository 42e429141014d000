"""Monomial equivalence, fingerprints, automorphism group orders."""

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsd.equiv import (
    ClassStore,
    apply_monomial,
    are_equivalent,
    automorphism_order,
    fingerprint,
)
from qcsd.errors import BudgetExceeded, UnsupportedCase
from qcsd.gf import field
from qcsd.qc import FieldCode

from conftest import random_self_dual


def random_monomial(n, q, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    scalars = tuple(rng.randrange(1, q) for _ in range(n))
    return tuple(perm), scalars


def reference_monomial(code, perm, scalars):
    """`apply_monomial` one symbol at a time: column j, scaled by
    scalars[j], becomes column perm[j]."""
    fld, n = code.field, code.n
    rows = []
    for row in code.matrix.tolist():
        new = [0] * n
        for j, v in enumerate(row):
            new[perm[j]] = fld.mul(scalars[j], v)
        rows.append(new)
    return FieldCode(fld, n, rows)


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
        assert moved == reference_monomial(code, perm, scalars)
        res = are_equivalent(code, moved)
        assert res
        assert res.equivalent
        # the returned witness maps code onto moved exactly
        again = apply_monomial(code, res.perm, res.scalars)
        assert again == moved == reference_monomial(code, res.perm, res.scalars)


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


def test_node_budget_overrun_is_budget_exceeded(monkeypatch):
    # the three weight-2 words leave the refinement with symmetric colour
    # classes, so the search has to branch past its first node
    import qcsd.equiv

    f2 = field(2)
    code = FieldCode(f2, 6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)])
    assert are_equivalent(code, code)
    monkeypatch.setattr(qcsd.equiv, "DEFAULT_NODE_BUDGET", 1)
    with pytest.raises(BudgetExceeded) as exc:
        are_equivalent(code, code)
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


def test_automorphism_order_with_a_failed_search():
    # one of the searches for this code finds no automorphism, so the
    # orbit of that failure must be excluded without another search
    code = FieldCode(
        field(3),
        7,
        [
            (1, 0, 0, 0, 2, 0, 1),
            (0, 1, 0, 0, 2, 1, 1),
            (0, 0, 1, 0, 0, 2, 2),
            (0, 0, 0, 1, 1, 1, 2),
        ],
    )
    assert automorphism_order(code) == 12


# largest length per field whose n! (q-1)^n maps a brute force can try
BRUTE_FORCE_N = {2: 6, 3: 5, 4: 4, 5: 4}


@st.composite
def codes_with_a_monomial(draw):
    q = draw(st.sampled_from(sorted(BRUTE_FORCE_N)))
    n = draw(st.integers(2, BRUTE_FORCE_N[q]))
    k = draw(st.integers(1, n))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), min_size=k, max_size=k
    ))
    perm = draw(st.permutations(range(n)))
    scalars = draw(st.tuples(*[st.integers(1, q - 1)] * n))
    return FieldCode(field(q), n, rows), tuple(perm), scalars


@settings(max_examples=80, deadline=None)
@given(codes_with_a_monomial())
def test_automorphism_order_property(case):
    code, perm, scalars = case
    if code.k == 0:
        return
    order = automorphism_order(code)
    assert order == brute_force_automorphism_count(code)
    assert automorphism_order(apply_monomial(code, perm, scalars)) == order


def test_automorphism_order_known_codes(monkeypatch):
    import qcsd.equiv
    from qcsd import corpus

    i4 = corpus.load(corpus.get("I_4")).expansion()
    assert automorphism_order(i4) == 3840
    monkeypatch.setattr(qcsd.equiv, "DEFAULT_NODE_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        automorphism_order(i4)


def test_code_too_large_to_materialize_fails_before_any_walk(monkeypatch):
    import qcsd.analysis

    def no_walk(code):
        raise AssertionError("walked the codewords of an unmaterializable code")

    monkeypatch.setattr(qcsd.analysis, "codeword_blocks", no_walk)
    f2 = field(2)
    n, k = 26, 25
    code = FieldCode(f2, n, [tuple(int(j in (i, n - 1)) for j in range(n)) for i in range(k)])
    assert code.k == k
    with pytest.raises(BudgetExceeded) as exc:
        fingerprint(code)
    assert exc.value.required == 2**k and exc.value.budget == 2**24
    with pytest.raises(BudgetExceeded) as exc:
        are_equivalent(code, code)
    assert exc.value.required == 2**k and exc.value.budget == 2**24


def test_profile_collects_its_strata_in_one_walk(monkeypatch):
    import qcsd.analysis
    import qcsd.equiv

    calls = []
    walk = qcsd.analysis.codeword_blocks

    def counting(code):
        calls.append(code.k)
        return walk(code)

    monkeypatch.setattr(qcsd.analysis, "codeword_blocks", counting)
    # the three weight-2 words span only a plane; weight 7 completes the span
    rows = [(1, 1) + (0,) * 8, (0, 1, 1) + (0,) * 7, (0,) * 3 + (1,) * 7]
    code = FieldCode(field(2), 10, rows)
    prof = qcsd.equiv._Profile(code, 1 << 20, 100)
    assert prof.weights == [2, 7]
    assert sorted(prof.stratum_sizes.values()) == [1, 3]
    assert calls == [3]  # one walk gives the enumerator and the strata


def naive_strata(code, cap):
    """The strata by pure-Python enumeration: the lightest weights while the
    words up to each stay within `cap`, cut at the first prefix that spans
    the code; and the words of those weights, by weight."""
    from itertools import product

    from qcsd.qc import rref

    fld = code.field
    by_weight = {}
    for msg in product(range(fld.q), repeat=code.k):
        word = [0] * code.n
        for c, row in zip(msg, code.matrix.tolist()):
            for j, v in enumerate(row):
                word[j] = fld.add(word[j], fld.mul(c, v))
        wt = sum(1 for v in word if v)
        if wt:
            by_weight.setdefault(wt, set()).add(tuple(word))
    chosen, total = [], 0
    for wt in sorted(by_weight):
        total += len(by_weight[wt])
        if total > cap:
            break
        chosen.append(wt)
    for i in range(len(chosen)):
        words = [w for wt in chosen[: i + 1] for w in by_weight[wt]]
        if len(rref(fld, code.n, np.array(words, dtype=np.uint8))[0]) == code.k:
            chosen = chosen[: i + 1]
            break
    return chosen, {wt: by_weight[wt] for wt in chosen}


@pytest.mark.parametrize(
    "q, m, ell, cap",
    [(2, 3, 4, 20000), (2, 3, 8, 20000), (2, 3, 8, 400), (2, 3, 8, None),
     (2, 7, 2, 20000), (4, 3, 4, 20000), (4, 3, 4, 300), (4, 3, 4, None),
     (5, 2, 4, 20000)],
)
def test_profile_strata_match_naive_collection(monkeypatch, q, m, ell, cap):
    # cap None: exactly the words of the two lightest weights, the edge at
    # which the second stratum is still kept
    import qcsd.analysis
    import qcsd.equiv as E

    calls = []
    walk = qcsd.analysis.codeword_blocks

    def counting(code):
        calls.append(code.k)
        return walk(code)

    code = random_self_dual(q, m, ell, random.Random(57 + q * m * ell)).expansion()
    if cap is None:
        cap = sum(sorted(len(ws) for ws in naive_strata(code, 1 << 20)[1].values())[:2])
    chosen, want = naive_strata(code, cap)
    monkeypatch.setattr(qcsd.analysis, "codeword_blocks", counting)
    _, weights, words = E._select_strata(code, 1 << 28, cap)
    assert weights == chosen
    got = {}
    for row in words.tolist():
        got.setdefault(sum(1 for v in row if v), []).append(tuple(row))
    assert {wt: sorted(ws) for wt, ws in got.items()} == {
        wt: sorted(ws) for wt, ws in want.items()
    }
    # a binary self-dual code contains 1, so the walk is of S, at k - 1
    walked_k = code.k - 1 if q == 2 else code.k
    assert calls == [walked_k]
    calls.clear()
    prof = E._Profile(code, 1 << 28, cap)
    assert calls == [walked_k]
    assert prof.weights == chosen
    assert sorted(prof.stratum_sizes.values()) == sorted(len(ws) for ws in want.values())


def test_profiles_are_freed_with_their_code():
    rng = random.Random(56)
    code = random_self_dual(2, 3, 4, rng).expansion()
    moved = apply_monomial(code, *random_monomial(code.n, 2, rng))
    gc.disable()
    try:
        fingerprint(code)
        assert are_equivalent(code, moved)
        assert are_equivalent(code, code, qc_blocks=(3, 4))
        assert automorphism_order(code) > 0
        assert code.cache
        ref = weakref.ref(code)
        del code
        assert ref() is None
    finally:
        gc.enable()


def test_profiles_are_keyed_by_word_cap(monkeypatch):
    # the 120 weight-6 words of I_4's expansion exceed a cap of 100; the cap
    # is read when a profile is built, so each capped call gets a fresh
    # expansion, and a refused profile leaves nothing in the code's cache
    import qcsd.equiv
    from qcsd import corpus

    def i4():
        return corpus.load(corpus.get("I_4")).expansion()

    fp = fingerprint(i4())
    capped = i4()
    with monkeypatch.context() as patch:
        patch.setattr(qcsd.equiv, "DEFAULT_MAX_WORDS", 100)
        for call in (
            lambda: fingerprint(capped),
            lambda: are_equivalent(i4(), i4()),
            lambda: automorphism_order(i4()),
        ):
            with pytest.raises(UnsupportedCase):
                call()
    assert fingerprint(capped) == fp
    assert are_equivalent(capped, i4())


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


def test_incidence_is_built_once_per_code(monkeypatch):
    # the fingerprint and the block-restricted search share one word-slot
    # incidence; only the shape data differs between them
    import qcsd.equiv

    built = []
    incidence = qcsd.equiv._incidence

    def counting(code, *args):
        built.append(code)
        return incidence(code, *args)

    monkeypatch.setattr(qcsd.equiv, "_incidence", counting)
    rc = random_self_dual(2, 3, 4, random.Random(57))
    exp = rc.expansion()
    fingerprint(exp)
    assert are_equivalent(exp, exp, qc_blocks=(rc.m, rc.ell))
    assert built == [exp]


def test_class_store_matches_unbucketed_first_fit(monkeypatch):
    import qcsd.equiv
    from qcsd.buildup import norm_minus_one_elements
    from qcsd.rcode import RingCode
    from qcsd.ring import ring

    sp = ring(4, 7)
    codes = [
        RingCode(sp, 2, [(sp.one, c)]).expansion()
        for c in norm_minus_one_elements(sp)
    ]
    assert len(codes) == 63
    pairwise = []
    for code in codes:
        if not any(are_equivalent(code, rep) for rep in pairwise):
            pairwise.append(code)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return are_equivalent(*args, **kwargs)

    monkeypatch.setattr(qcsd.equiv, "are_equivalent", counting)
    store = ClassStore()
    kept = [code for code in codes if store.add(code, fingerprint(code))]
    assert len(kept) == 3
    assert [id(c) for c in kept] == [id(c) for c in pairwise]
    assert store.checks == len(calls) > 0


def tuple_sort_refine(shape, profs, colors_list):
    """Refinement by sorting signature tuples over list incidence, the
    reference that the lexsort ranking of `equiv._refine` must agree with."""
    from collections import Counter

    incidence = []
    for P in profs:
        word_slots = [tuple(s for s in row if s != shape.nslots) for row in P.words.tolist()]
        word_stratum = P.stratum.tolist()
        nwords = len(word_slots)
        slot_words = [[w for w in row if w != nwords] for row in P.slot_words.tolist()]
        incidence.append((word_slots, word_stratum, slot_words))
    pair = len(profs) == 2
    mates, succ, pred = shape.mates, shape.succ_mate, shape.pred_mate
    while True:
        if pair and Counter(colors_list[0]) != Counter(colors_list[1]):
            return None
        wsigs_list = []
        for (word_slots, word_stratum, _), colors in zip(incidence, colors_list):
            wsigs_list.append([
                (word_stratum[w],) + tuple(sorted(colors[s] for s in slots))
                for w, slots in enumerate(word_slots)
            ])
        wrank = {sig: i for i, sig in enumerate(sorted(set().union(*wsigs_list)))}
        sigs_list = []
        for (*_, slot_words), colors, wsigs in zip(incidence, colors_list, wsigs_list):
            sigs_list.append([
                (
                    colors[s],
                    tuple(colors[t] for t in mates[s]),
                    (colors[succ[s]], colors[pred[s]]) if succ is not None else (),
                    tuple(sorted(wrank[wsigs[w]] for w in slot_words[s])),
                )
                for s in range(shape.nslots)
            ])
        srank = {sig: i for i, sig in enumerate(sorted(set().union(*sigs_list)))}
        new_list = [[srank[sig] for sig in sigs] for sigs in sigs_list]
        if all(len(set(a)) == len(set(b)) for a, b in zip(new_list, colors_list)):
            if pair and Counter(new_list[0]) != Counter(new_list[1]):
                return None
            return new_list
        colors_list = new_list


@st.composite
def codes_for_refinement(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    m = draw(st.integers(2, 3))
    ell = draw(st.integers(2, 4))
    n = m * ell
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), min_size=k, max_size=k
    ))
    perm = draw(st.permutations(range(n)))
    scalars = draw(st.tuples(*[st.integers(1, q - 1)] * n))
    blocks = draw(st.sampled_from([None, (m, ell)]))
    slot = st.integers(0, n * (q - 1) - 1)
    pin = draw(st.tuples(slot, slot))
    return FieldCode(field(q), n, rows), perm, scalars, blocks, pin


@settings(max_examples=80, deadline=None)
@given(codes_for_refinement())
def test_refine_matches_tuple_sort_reference(case):
    import qcsd.equiv as E

    code, perm, scalars, blocks, pin = case
    if code.k == 0:
        return
    moved = apply_monomial(code, perm, scalars)
    shape = E._shape(code.field, code.n, blocks)
    profs = tuple(E._Profile(c, 1 << 20, E.DEFAULT_MAX_WORDS) for c in (code, moved))
    start = [[0] * shape.nslots]
    assert E._refine(E._Stack(shape, profs[:1]), start).tolist() == tuple_sort_refine(
        shape, profs[:1], start
    )
    mapping = E._pin_closure(shape, [pin])
    if mapping is None:
        return
    start = list(E._pinned_colors(shape, mapping))
    got = E._refine(E._Stack(shape, profs), start)
    want = tuple_sort_refine(shape, profs, start)
    assert (got if got is None else got.tolist()) == want


@pytest.mark.parametrize(
    "q, m, ell, blocks", [(2, 3, 6, None), (2, 3, 6, (3, 6)), (4, 3, 4, None)]
)
def test_refine_matches_tuple_sort_reference_on_wide_slot_rows(q, m, ell, blocks):
    # slots meet tens of words here, so each slot row packs into several keys
    import qcsd.equiv as E

    rng = random.Random(61)
    code = random_self_dual(q, m, ell, rng).expansion()
    perm, scalars = random_monomial(code.n, q, rng)
    if blocks is not None:  # a map the block restriction keeps: the identity
        perm, scalars = range(code.n), (1,) * code.n
    moved = apply_monomial(code, perm, scalars)
    shape = E._shape(code.field, code.n, blocks)
    profs = tuple(E._Profile(c, 1 << 20, E.DEFAULT_MAX_WORDS) for c in (code, moved))
    # slot 0 pinned to itself, and to its image under the monomial map
    image = perm[0] * shape.r + scalars[0] - 1
    for sides, pin in ((profs[:1], (0, 0)), (profs, (0, image))):
        stack = E._Stack(shape, sides)
        assert stack.slots.shape[1] // len(stack.slot_powers) >= 2
        start = list(E._pinned_colors(shape, E._pin_closure(shape, [pin])))
        start = start[: len(sides)]
        want = tuple_sort_refine(shape, sides, start)
        assert want is not None and len(set(want[0])) > len(set(start[0]))
        assert E._refine(stack, start).tolist() == want


def dense_rank(rows):
    """The rank of each row of an integer matrix among its distinct rows in
    lexicographic order, and the number of distinct rows: the ranking that
    `equiv._refine` ran on whole rows, one lexsort pass per column, before
    its columns were packed into keys."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    step = np.ones(len(rows), dtype=bool)
    step[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty(len(rows), dtype=np.int32)
    ranks[order] = np.cumsum(step) - 1
    return ranks, int(ranks[order[-1]]) + 1


@st.composite
def packed_rank_cases(draw):
    """Rows whose width and bit bound take exactly `keys` packed keys, drawn
    from a few distinct rows so that ties occur, with a leading column of
    `lead_bits` bits and a pad value for the columns that fill the last key."""
    keys = draw(st.integers(1, 4))
    bits = draw(st.integers(1, 21))
    lead_bits = draw(st.integers(0, 4))
    per = (62 - lead_bits) // bits
    ncols = draw(st.integers((keys - 1) * per + 1, keys * per))
    value = st.integers(0, (1 << bits) - 1)
    row = st.tuples(st.integers(0, (1 << lead_bits) - 1), *[value] * ncols)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return keys, bits, lead_bits, np.array(rows, dtype=np.int64), draw(value)


@settings(max_examples=200, deadline=None)
@given(packed_rank_cases())
def test_packed_ranks_match_dense_rank(case):
    import qcsd.equiv as E

    keys, bits, lead_bits, rows, pad = case
    lead, cols = rows[:, 0], rows[:, 1:]
    width, powers = E._packing(cols.shape[1], bits, lead_bits)
    assert width // len(powers) == keys
    padded = np.full((len(rows), width), pad, dtype=np.int64)
    padded[:, : cols.shape[1]] = cols
    shifted = lead << (bits * len(powers)) if lead_bits else None
    ranks, count = E._rank(padded, powers, shifted)
    want, want_count = dense_rank(rows if lead_bits else cols)
    assert ranks.tolist() == want.tolist()
    assert count == want_count


@settings(max_examples=80, deadline=None)
@given(codes_for_refinement())
def test_strata_are_the_shortest_spanning_prefix(case):
    import qcsd.equiv as E
    from qcsd.analysis import weight_enumerator
    from qcsd.qc import rref

    code, _, _, _, _ = case
    if code.k == 0:
        return
    cap = 30
    enum = weight_enumerator(code)
    counts = enum.counts
    if counts[min(i for i in range(1, code.n + 1) if counts[i])] > cap:
        with pytest.raises(UnsupportedCase):
            E._select_strata(code, 1 << 28, cap)
        return
    walked_enum, chosen, words = E._select_strata(code, 1 << 28, cap)
    assert walked_enum == enum
    weights = (words != 0).sum(axis=1)
    assert sorted(set(weights.tolist())) == chosen

    def rank(upto):
        return len(rref(code.field, code.n, words[weights <= upto])[0])

    # the strata span the code, or the next stratum would pass the cap
    later = [i for i in range(chosen[-1] + 1, code.n + 1) if counts[i]]
    spans = rank(chosen[-1]) == code.k
    assert spans or not later or len(words) + counts[later[0]] > cap
    # and no shorter prefix spans it
    if len(chosen) > 1:
        assert rank(chosen[-2]) < code.k
