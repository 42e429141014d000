"""Weight analytics: enumerators, distance scans, templates, MacWilliams."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsd import analysis
from qcsd.analysis import (
    WeightEnum,
    divisibility_check,
    fixed_subcode,
    is_type_ii_binary,
    is_type_ii_f4,
    macwilliams_transform,
    match_template,
    min_distance,
    min_distance_prefix,
    shift_congruence_check,
    weight_enumerator,
    weight_profile,
)
from qcsd.errors import BudgetExceeded
from qcsd.gf import FIELD_SIZES, field
from qcsd.qc import FieldCode, is_shift_invariant

from conftest import reference_contains, random_self_dual


def naive_weight_enumerator(code):
    """Pure-Python full enumeration, independent of the packed kernels."""
    fld = code.field
    counts = [0] * (code.n + 1)
    for msg in itertools.product(range(fld.q), repeat=code.k):
        word = [0] * code.n
        for c, row in zip(msg, code.matrix.tolist()):
            if c == 0:
                continue
            for j, v in enumerate(row):
                word[j] = fld.add(word[j], fld.mul(c, v))
        counts[sum(1 for v in word if v)] += 1
    return tuple(counts)


def test_weight_enumerator_matches_naive_enumeration():
    rng = random.Random(41)
    for q in FIELD_SIZES:
        fld = field(q)
        for _ in range(6):
            n = rng.randrange(3, 10)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)]
            code = FieldCode(fld, n, rows)
            w = weight_enumerator(code)
            assert w.counts == naive_weight_enumerator(code)
            assert w.complete
            assert sum(w.counts) == q**code.k


def test_weight_enumerator_wide_binary_words():
    # packed kernel must handle codes wider than one 64-bit word
    rng = random.Random(42)
    f2 = field(2)
    rows = [tuple(rng.randrange(2) for _ in range(70)) for _ in range(4)]
    code = FieldCode(f2, 70, rows)
    assert weight_enumerator(code).counts == naive_weight_enumerator(code)


def test_weight_enumerator_wide_binary_code_past_one_table_block():
    # n > 64 and k = 18 > 16: two machine words per word, and the Gray walk
    # runs past the first 2^16-word table block; without 1 the whole code
    # is walked
    rng = random.Random(77)
    f2 = field(2)
    n, k = 70, 18
    while True:
        rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
        code = FieldCode(f2, n, rows)
        if code.k == k and not reference_contains(code, (1,) * n):
            break
    gen = code.matrix.astype(np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = 1 << 14
    for start in range(0, 1 << k, chunk):
        msgs = (np.arange(start, start + chunk)[:, None] >> np.arange(k)) & 1
        counts += np.bincount((msgs @ gen % 2).sum(axis=1), minlength=n + 1)
    assert weight_enumerator(code).counts == tuple(counts.tolist())


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, {2: 8, 3: 5, 4: 4, 5: 4}[q])))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), min_size=k, max_size=k
    ))
    return FieldCode(field(q), n, rows)


def naive_codewords(code):
    """Every codeword, zero included, by pure-Python message enumeration."""
    fld = code.field
    words = set()
    for msg in itertools.product(range(fld.q), repeat=code.k):
        word = [0] * code.n
        for c, row in zip(msg, code.matrix.tolist()):
            for j, v in enumerate(row):
                word[j] = fld.add(word[j], fld.mul(c, v))
        words.add(tuple(word))
    return words


def _check_walk(code):
    """The walker yields each nonzero codeword with leading symbol 1 exactly
    once, with its weight; with their q - 1 multiples and zero, those are
    all q^k codewords."""
    fld = code.field
    layout = analysis._ScanLayout(fld, code.n)
    walked = []
    for words, weights in analysis.codeword_blocks(code):
        rows = layout.symbols(words).tolist()
        assert len(rows) == len(weights)
        for word, wt in zip(rows, weights.tolist()):
            nonzero = [v for v in word if v]
            assert nonzero and nonzero[0] == 1 and reference_contains(code, word)
            assert wt == len(nonzero)
            walked.append(tuple(word))
    assert len(set(walked)) == len(walked)
    scaled = {
        tuple(fld.mul(c, v) for v in word) for word in walked for c in range(1, fld.q)
    }
    assert len(scaled) == (fld.q - 1) * len(walked)
    assert scaled | {(0,) * code.n} == naive_codewords(code)
    assert len(walked) == (fld.q**code.k - 1) // (fld.q - 1)


@settings(max_examples=80, deadline=None)
@given(small_codes(), st.sampled_from([1, 3, 8, 1 << 16]))
def test_walker_yields_each_leading_one_word_once(code, table_columns):
    # small tables leave several generators to the p-ary Gray walk
    if not code.k:
        return
    with mock.patch.object(analysis, "_SCAN_TABLE_COLUMNS", table_columns):
        _check_walk(code)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("table_columns", [1, 8, 1 << 16])
def test_walker_wide_codes(q, table_columns):
    # n > 64: two machine words per word over F_2, several uint8 symbols
    # per column over F_3, two machine words per bit plane over F_4
    rng = random.Random(75 + q)
    rows = [tuple(rng.randrange(q) for _ in range(70)) for _ in range(5)]
    code = FieldCode(field(q), 70, rows)
    assert code.k == 5
    with mock.patch.object(analysis, "_SCAN_TABLE_COLUMNS", table_columns):
        _check_walk(code)


@settings(max_examples=60, deadline=None)
@given(small_codes(), st.sampled_from([1, 3, 8, 1 << 16]))
def test_enumerator_matches_naive_at_every_table_size(code, table_columns):
    # small tables leave several generators to the p-ary Gray walk
    if not code.k:
        return
    with mock.patch.object(analysis, "_SCAN_TABLE_COLUMNS", table_columns):
        assert weight_enumerator(code).counts == naive_weight_enumerator(code)


# -- the walk by shift orbits ------------------------------------------------

# rings where F_q^* x <Y> acts freely off the fixed subcode
ORBIT_RINGS = [(2, 3), (2, 5), (2, 7), (3, 5), (4, 5), (4, 7), (5, 3), (5, 7)]
# the smallest length each ring's random self-dual codes reach
SELF_DUAL_ELL = {(3, 5): 4}


def message_codewords(code):
    """Every codeword as one row of an array, from every message: the
    message enumeration of `naive_codewords`, vectorized over messages, so
    that the [14, 7] code over F_5 and the [20, 10] code over F_3 check in
    well under a second."""
    fld = code.field
    q, k = fld.q, code.k
    add, mul = np.array(fld._add), np.array(fld._mul)
    msgs = np.arange(q**k)[:, None] // q ** np.arange(k) % q
    words = np.zeros((q**k, code.n), dtype=np.int64)
    for r, row in enumerate(code.matrix.tolist()):
        words = add[words, mul[msgs[:, r][:, None], np.array(row)]]
    return words


def _word_set(words):
    return {row.tobytes() for row in np.ascontiguousarray(words, dtype=np.uint8)}


def shift_invariant_code(q, m, self_dual, words, block, rng):
    """A random self-dual code over F_q[Y]/(Y^m - 1), or the span of the
    shifts of `words` random words plus, with `block`, a random word that
    repeats one block m times (so that C_1 is not always zero); all at most
    5^7 codewords.  Returns the code and its ell."""
    if self_dual:
        ell = SELF_DUAL_ELL.get((q, m), 2)
        return random_self_dual(q, m, ell, rng).expansion(), ell
    ell = rng.randint(1, max(1, int(17 / (m * np.log2(q)))))
    n = m * ell
    rows = []
    for _ in range(words):
        v = [rng.randrange(q) for _ in range(n)]
        rows += [v[-s * ell:] + v[: -s * ell] if s else v for s in range(m)]
    if block:
        rows.append([rng.randrange(q) for _ in range(ell)] * m)
    code = FieldCode(field(q), n, rows)
    assert is_shift_invariant(code, ell)
    return code, ell


def _check_orbit_walk(code, ell):
    """The orbit walk yields exactly one word per orbit of F_q^* x <sigma> on
    C minus C_1 (with its complement's orbit, when the binary code contains
    1), each with its weight; `weight_enumerator` counts every codeword."""
    fld, n = code.field, code.n
    q, m = fld.q, n // ell
    mul = np.array(fld._mul, dtype=np.uint8)
    layout = analysis._ScanLayout(fld, n)
    ones = analysis._splits_off_ones(code)
    fixed = fixed_subcode(code, ell)
    walked = FieldCode(fld, n, fixed.matrix[1:]) if ones else fixed
    blocks = [np.zeros((0, n), np.uint8)]
    for words, weights in analysis._orbit_blocks(code, ell, m, walked):
        blocks.append(layout.symbols(words))
        assert (weights == (blocks[-1] != 0).sum(axis=1)).all()
    reps = np.concatenate(blocks)
    images = [mul[c][np.roll(reps, s * ell, axis=1)]
              for c in range(1, q) for s in range(m)]
    if ones:
        images += [image ^ 1 for image in images]
    images = np.concatenate(images)
    codewords = message_codewords(code)
    want = _word_set(codewords) - _word_set(message_codewords(fixed))
    assert len(_word_set(images)) == len(images) == len(want)
    assert _word_set(images) == want
    counts = np.bincount((codewords != 0).sum(axis=1), minlength=n + 1)
    assert weight_enumerator(code, ell=ell).counts == tuple(counts.tolist())


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ORBIT_RINGS),
    st.booleans(),
    st.integers(1, 2),
    st.booleans(),
    st.randoms(use_true_random=False),
    st.sampled_from([1, 3, 8, 1 << 16]),
)
def test_orbit_walk_yields_one_word_per_shift_orbit(
    ring_, self_dual, words, block, rng, table_columns
):
    code, ell = shift_invariant_code(*ring_, self_dual, words, block, rng)
    with mock.patch.object(analysis, "_SCAN_TABLE_COLUMNS", table_columns):
        _check_orbit_walk(code, ell)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(5, 2, 2), (5, 2, 4), (3, 2, 4), (4, 3, 2), (4, 3, 4)]),
    st.randoms(use_true_random=False),
    st.sampled_from([1, 8, 1 << 16]),
)
def test_rings_without_free_orbits_keep_the_scalar_walk(case, rng, table_columns):
    # m = 2 divides q - 1 over F_3 and F_5, and m = 3 divides 4 - 1
    q, m, ell = case
    code = random_self_dual(q, m, ell, rng).expansion()
    assert not analysis._orbits_are_free(q, m)
    with mock.patch.object(analysis, "_SCAN_TABLE_COLUMNS", table_columns):
        assert weight_enumerator(code, ell=ell) == weight_enumerator(code)


def test_orbit_walk_takes_a_factor_m_fewer_words(monkeypatch):
    # C_54_1 is binary with k = 27 and contains 1: the walk by scalar classes
    # takes 2^26 words, the walk by orbits about 2^26/3
    from qcsd import corpus

    entry = corpus.get("C_54_1")
    code = corpus.field_form(entry)
    counted = []
    walk = analysis._walk

    def counting(layout, gens, segments):
        for words, weights in walk(layout, gens, segments):
            counted[-1] += len(weights)
            yield words, weights

    monkeypatch.setattr(analysis, "_walk", counting)
    for ell in (None, entry.ell):
        counted.append(0)
        weight_enumerator(code, ell=ell)
    assert counted[0] == 2**26 - 1
    assert 2**26 // 3 <= counted[1] < 2**26 // 3 + 2**10


def test_weight_enumerator_refuses_a_shift_the_code_does_not_have():
    rng = random.Random(78)
    code = random_self_dual(2, 3, 4, rng).expansion()
    rows = code.matrix.tolist()
    rows[0][-1] ^= 1  # one corrupted generator
    bad = FieldCode(code.field, code.n, rows)
    assert not is_shift_invariant(bad, 4)
    with pytest.raises(ValueError, match="not invariant"):
        weight_enumerator(bad, ell=4)
    with pytest.raises(ValueError, match="not a multiple"):
        weight_enumerator(code, ell=5)
    with pytest.raises(ValueError, match="not invariant"):
        weight_profile(bad, 1 << 20, 3, ell=4)


def test_fixed_subcode_literal():
    # the shifts of 110000 by 2 span a [6, 3] code; averaging each ring
    # coordinate {0, 2, 4} and {1, 3, 5} over F_2 gives 1
    rows = [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]
    code = FieldCode(field(2), 6, rows)
    assert fixed_subcode(code, 2).matrix.tolist() == [[1] * 6]
    w = weight_enumerator(code, ell=2)
    assert w.counts == (1, 0, 3, 0, 3, 0, 1)
    assert shift_congruence_check(w, weight_enumerator(fixed_subcode(code, 2)), 3)
    # over F_5, e_1 = 3^-1 (1 + sigma + sigma^2) = 2 (1 + sigma + sigma^2)
    code = FieldCode(field(5), 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert fixed_subcode(code, 1).matrix.tolist() == [[1, 1, 1]]
    with pytest.raises(ValueError, match="not a unit"):
        fixed_subcode(FieldCode(field(2), 4, [(1, 0, 1, 0)]), 2)


def test_shift_congruence_check_literals():
    fixed = WeightEnum(n=6, counts=(1, 0, 0, 0, 0, 0, 1), complete=True, q=2, k=1)
    w = WeightEnum(n=6, counts=(1, 0, 3, 0, 3, 0, 1), complete=True, q=2, k=3)
    assert shift_congruence_check(w, fixed, 3)
    # A_4 = 1 is not 0 mod 3
    bad = WeightEnum(n=6, counts=(1, 0, 3, 0, 1, 0, 3), complete=False, q=2, k=3)
    assert not shift_congruence_check(bad, fixed, 3)
    # divisible by 3 off multiples of 3, but A_6 = 3 is not 1 mod 3
    bad = WeightEnum(n=6, counts=(1, 0, 3, 0, 0, 0, 3), complete=False, q=2, k=3)
    assert divisibility_check(bad, 3) and not shift_congruence_check(bad, fixed, 3)
    # a scan prefix is checked up to its cut
    prefix = WeightEnum(n=6, counts=(1, 0, 3), complete=False, q=2, k=3)
    assert shift_congruence_check(prefix, fixed, 3)
    assert not shift_congruence_check(prefix, fixed, 2)


def test_profile_certifies_the_congruence_on_shift_invariant_codes():
    rng = random.Random(79)
    for q, m, ell in [(2, 3, 6), (2, 5, 4), (3, 5, 4), (4, 5, 2), (5, 3, 4), (5, 2, 4)]:
        code = random_self_dual(q, m, ell, rng).expansion()
        fixed = fixed_subcode(code, ell)
        for cap in (q**code.k, q**code.k - 1):  # enumerate, then scan
            prof = weight_profile(code, cap, 3, ell=ell)
            method = "enumerate" if cap == q**code.k else "scan"
            assert prof.certificate["method"] == method
            assert prof.fixed.counts == naive_weight_enumerator(fixed)
            assert shift_congruence_check(prof.enum, prof.fixed, m)
        assert weight_profile(code, q**fixed.k - 1, 3, ell=ell).fixed is None
        assert weight_profile(code, 1 << 28, 3).fixed is None


def _binary_dual(code):
    """The dual of a binary code, from its RREF basis and pivots."""
    rows = []
    for j in range(code.n):
        if j in code.pivots:
            continue
        v = [0] * code.n
        v[j] = 1
        for piv, row in zip(code.pivots, code.matrix.tolist()):
            v[piv] = row[j]
        rows.append(tuple(v))
    return FieldCode(code.field, code.n, rows)


def _walked_dimensions(monkeypatch):
    """Record the dimension of every code `weight_enumerator` walks."""
    dims = []
    walk = analysis.codeword_blocks

    def recording(code):
        dims.append(code.k)
        return walk(code)

    monkeypatch.setattr(analysis, "codeword_blocks", recording)
    return dims


def test_all_ones_split_matches_naive_enumeration(monkeypatch):
    dims = _walked_dimensions(monkeypatch)
    rng = random.Random(73)
    f2 = field(2)
    codes = [FieldCode(f2, 5, [(1,) * 5])]  # C = <1>: S is the zero code
    for with_ones in (True, False) * 6:
        n = rng.randrange(2, 14)
        k = rng.randrange(1, 8)
        rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
        codes.append(FieldCode(f2, n, rows + [(1,) * n] * with_ones))
    for m, ell in [(3, 4), (5, 2), (7, 2)]:
        codes.append(random_self_dual(2, m, ell, rng).expansion())
    for code in codes:
        walked_k = code.k - reference_contains(code, (1,) * code.n)
        dims.clear()
        assert weight_enumerator(code).counts == naive_weight_enumerator(code)
        assert dims == ([walked_k] if walked_k else [])


def test_all_ones_split_matches_dual_macwilliams(monkeypatch):
    # k = 18 walks more than one 2^16-word block, with and without 1
    dims = _walked_dimensions(monkeypatch)
    rng = random.Random(74)
    f2 = field(2)
    n, k = 22, 18
    for with_ones in (True, False):
        while True:
            rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
            code = FieldCode(f2, n, rows)
            if code.k == k and reference_contains(code, (1,) * n) is with_ones:
                break
        dual = _binary_dual(code)
        dual_enum = WeightEnum(n=n, counts=naive_weight_enumerator(dual),
                               complete=True, q=2, k=dual.k)
        dims.clear()
        assert weight_enumerator(code).counts == macwilliams_transform(dual_enum).counts
        assert dims == [k - 1 if with_ones else k]


def test_weight_enumerator_budget():
    f2 = field(2)
    rows = [tuple(1 if i == j else 0 for i in range(30)) for j in range(30)]
    code = FieldCode(f2, 30, rows)
    with pytest.raises(BudgetExceeded):
        weight_enumerator(code, budget=1 << 20)


def test_min_distance_literals():
    f2 = field(2)
    code = FieldCode(f2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert min_distance(code) == 2
    with pytest.raises(BudgetExceeded):
        min_distance(code, budget=2)


def test_poly_str():
    w = WeightEnum(n=4, counts=(1, 0, 3, 0, 1), complete=True, q=2, k=2)
    assert w.poly_str() == "1 + 3y^2 + y^4"
    assert w.poly_str(max_terms=2) == "1 + 3y^2"
    partial = WeightEnum(n=4, counts=(1, 0, 3), complete=False, q=2, k=2)
    assert partial.poly_str() == "1 + 3y^2 + ..."


def test_distance_scan_agrees_with_full_enumeration():
    rng = random.Random(43)
    cases = [(2, 3, 6), (2, 5, 4), (4, 3, 4), (5, 7, 2), (3, 5, 4)]
    for q, m, ell in cases:
        code = random_self_dual(q, m, ell, rng).expansion()
        exact = weight_enumerator(code)
        true_d = next(i for i in range(1, code.n + 1) if exact.counts[i])
        scan = min_distance_prefix(code, message_weight=3)
        assert scan.lower <= true_d
        cut = len(scan.prefix) - 1
        assert scan.prefix == exact.counts[: cut + 1]
        if scan.exact:
            assert scan.distance == true_d
        if scan.found is not None:
            assert scan.found >= true_d
            assert exact.counts[scan.found] > 0


def _check_scan(code, w):
    exact = weight_enumerator(code).counts
    true_d = next(i for i in range(1, code.n + 1) if exact[i])
    scan = min_distance_prefix(code, message_weight=w)
    cut = len(scan.prefix) - 1
    assert cut == min(scan.bound - 1, code.n)
    assert scan.prefix == exact[: cut + 1]
    assert scan.lower <= true_d
    assert scan.found is not None and scan.found >= true_d and exact[scan.found] > 0
    if scan.exact:
        assert scan.distance == true_d


@settings(max_examples=120, deadline=None)
@given(small_codes(), st.integers(1, 9), st.sampled_from([1, 3, 8, 1 << 16]))
def test_distance_scan_property(code, w, table_columns):
    # small tables make the tail size t small, so messages of weight w > t + 1
    # run the head loop; large ones put every weight on one table suffix
    if code.k == 0:
        return
    with mock.patch.object(analysis, "_SCAN_TABLE_COLUMNS", table_columns):
        _check_scan(code, w)


def test_distance_scan_wide_binary_code():
    # n > 64 packs each scanned word into two machine words
    rng = random.Random(76)
    rows = [tuple(rng.randrange(2) for _ in range(70)) for _ in range(14)]
    _check_scan(FieldCode(field(2), 70, rows), 4)


def test_distance_scan_certifies_known_code():
    from qcsd import corpus

    code = corpus.load(corpus.get("G_16")).expansion()
    scan = min_distance_prefix(code, message_weight=6)
    assert scan.exact
    assert scan.distance == 10
    assert scan.prefix[10] == 768
    assert scan.prefix[12] == 8592


def test_divisibility_check():
    w = WeightEnum(n=6, counts=(1, 0, 0, 3, 0, 0, 4), complete=True, q=2, k=3)
    assert divisibility_check(w, 3)
    bad = WeightEnum(n=6, counts=(1, 0, 2, 3, 0, 0, 2), complete=True, q=2, k=3)
    assert not divisibility_check(bad, 3)


def test_divisibility_on_shift_invariant_code():
    from qcsd import corpus

    rc = corpus.load(corpus.get("G_14"))
    w = weight_enumerator(rc.expansion())
    assert divisibility_check(w, 3)


def test_match_template_literals():
    counts48 = [0] * 49
    counts48[0], counts48[10], counts48[12] = 1, 768, 8592
    got = match_template(None, n=48, counts=tuple(counts48))
    assert [m.family for m in got] == ["W_2"]
    assert got[0].beta is None

    counts54 = [0] * 55
    counts54[0], counts54[10], counts54[12] = 1, 351 - 8 * 18, 5031 + 24 * 18
    got = match_template(None, n=54, counts=tuple(counts54))
    assert [m.family for m in got] == ["W_1"]
    assert got[0].beta == 18
    assert got[0].in_listed_range

    # negative beta solves the linear system but sits outside the table range
    counts54[10], counts54[12] = 351 + 8, 5031 - 24
    got = match_template(None, n=54, counts=tuple(counts54))
    assert got and got[0].beta == -1 and not got[0].in_listed_range

    assert match_template(None, n=48, counts=(1,) + (0,) * 48) == []
    assert match_template(None, n=50, counts=(1,) + (0,) * 50) == []


def test_match_template_accepts_weight_enum():
    counts48 = [0] * 49
    counts48[0], counts48[10], counts48[12] = 1, 704, 8976
    w = WeightEnum(n=48, counts=tuple(counts48), complete=False, q=2, k=24)
    got = match_template(w)
    assert [m.family for m in got] == ["W_1"]


def test_macwilliams_transform_literals():
    rep = WeightEnum(n=3, counts=(1, 0, 0, 1), complete=True, q=2, k=1)
    dual = macwilliams_transform(rep)
    assert dual.counts == (1, 0, 3, 0)  # the even-weight code
    assert dual.k == 2
    even = WeightEnum(n=2, counts=(1, 0, 1), complete=True, q=2, k=1)
    assert macwilliams_transform(even).counts == even.counts
    assert macwilliams_transform(rep).counts != rep.counts
    with pytest.raises(ValueError):
        macwilliams_transform(WeightEnum(n=2, counts=(1, 0, 2), complete=True, q=2, k=1))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 3, 2), (2, 3, 6), (3, 5, 4), (4, 3, 4), (5, 3, 2), (5, 3, 4)]),
    st.randoms(use_true_random=False),
)
def test_macwilliams_self_consistency_on_self_dual_codes(case, rng):
    # a self-dual code's weight enumerator is its own MacWilliams transform
    q, m, ell = case
    w = weight_enumerator(random_self_dual(q, m, ell, rng).expansion())
    assert macwilliams_transform(w) == w


def test_type_ii_binary_oracle():
    from qcsd import corpus

    flags = {"G_8": True, "K_8": True, "K_2": False, "G_14": False}
    for name, want in flags.items():
        code = corpus.load(corpus.get(name)).expansion()
        assert is_type_ii_binary(code) is want, name
    with pytest.raises(ValueError):
        is_type_ii_binary(FieldCode(field(3), 2, [(1, 2)]))


def test_type_ii_f4_oracle():
    from qcsd import corpus

    flags = {"J_4": True, "M_4": True, "J_2": False, "M_2": False}
    for name, want in flags.items():
        code = corpus.load(corpus.get(name)).expansion()
        assert is_type_ii_f4(code) is want, name
    with pytest.raises(ValueError):
        is_type_ii_f4(FieldCode(field(2), 2, [(1, 1)]))
    with pytest.raises(ValueError):
        is_type_ii_f4(FieldCode(field(4), 2, [(1, 2)]))
