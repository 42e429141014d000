"""Weight analytics: enumerators, distance scans, templates, MacWilliams."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qcsd import analysis
from qcsd.analysis import (
    WeightEnum,
    divisibility_check,
    is_type_ii_binary,
    is_type_ii_f4,
    macwilliams_self_consistent,
    macwilliams_transform,
    match_template,
    min_distance,
    min_distance_prefix,
    weight_enumerator,
)
from qcsd.equiv import _collect_words
from qcsd.errors import BudgetExceeded
from qcsd.gf import FIELD_SIZES, field
from qcsd.qc import FieldCode

from conftest import random_self_dual


def naive_weight_enumerator(code):
    """Pure-Python full enumeration, independent of the packed kernels."""
    fld = code.field
    counts = [0] * (code.n + 1)
    for msg in itertools.product(range(fld.q), repeat=code.k):
        word = [0] * code.n
        for c, row in zip(msg, code.rows):
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


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, {2: 8, 3: 5, 4: 4, 5: 4}[q])))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), min_size=k, max_size=k
    ))
    return FieldCode(field(q), n, rows)


def _check_collected_words(code, wanted):
    w = weight_enumerator(code)
    words = _collect_words(code, wanted, cap=sum(w.counts))
    by_weight = [0] * (code.n + 1)
    for word in words:
        assert len(word) == code.n and code.contains(word)
        by_weight[sum(1 for v in word if v)] += 1
    assert len(set(words)) == len(words)
    assert by_weight == [a if i in wanted else 0 for i, a in enumerate(w.counts)]


@settings(max_examples=60, deadline=None)
@given(small_codes())
def test_collected_words_match_the_enumerator(code):
    if code.k:
        _check_collected_words(code, set(range(1, code.n + 1)))


def test_collected_words_wide_binary_code():
    # n > 64 packs each word into two machine words; k > 16 walks the
    # Gray-code prefix past the first table block
    rng = random.Random(71)
    rows = [tuple(rng.randrange(2) for _ in range(70)) for _ in range(18)]
    _check_collected_words(FieldCode(field(2), 70, rows), set(range(1, 26)))


def test_collected_words_wide_f4_code():
    # n > 64 over F_4: each of the two bit planes takes two machine words
    rng = random.Random(72)
    rows = [tuple(rng.randrange(4) for _ in range(70)) for _ in range(5)]
    _check_collected_words(FieldCode(field(4), 70, rows), set(range(1, 71)))


def _binary_dual(code):
    """The dual of a binary code, from its RREF basis and pivots."""
    rows = []
    for j in range(code.n):
        if j in code.pivots:
            continue
        v = [0] * code.n
        v[j] = 1
        for piv, row in zip(code.pivots, code.rows):
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
        walked_k = code.k - code.contains((1,) * code.n)
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
            if code.k == k and code.contains((1,) * n) is with_ones:
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
    assert macwilliams_self_consistent(even)
    assert not macwilliams_self_consistent(rep)
    with pytest.raises(ValueError):
        macwilliams_transform(WeightEnum(n=2, counts=(1, 0, 2), complete=True, q=2, k=1))


def test_macwilliams_self_consistency_on_self_dual_codes():
    rng = random.Random(44)
    for q, m, ell in [(2, 3, 4), (4, 3, 2), (5, 7, 2)]:
        code = random_self_dual(q, m, ell, rng).expansion()
        assert macwilliams_self_consistent(weight_enumerator(code))


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
