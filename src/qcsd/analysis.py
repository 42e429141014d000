"""Weight distributions, minimum distance, and enumerator diagnostics.

Exact weight enumeration walks the whole message space with
`codeword_blocks`, the one codeword walker (the equivalence engine
collects its low-weight words with it too).  Binary and F_4 codes use
bit-packed kernels.  The table is plane-major: one row per 64-bit word
of a bit plane, one column per combination of the first 16 generators.
It is XORed against a Gray-code-ordered prefix of the rest, so each
block of 2^16 words costs a few contiguous XOR and popcount passes.
F_3/F_5 codes use blocked matrix products mod q, which computes the same
counts.  A binary code that contains the all-ones word 1 is C = S + <1>,
where S is spanned by every RREF row but the first; only S is walked,
and A_w(C) = A_w(S) + A_{n-w}(S).

Above the enumeration budget, `min_distance_prefix` enumerates low
message weights over a greedy chain of information sets (the
Brouwer-Zimmermann bound).  With deficits d_1..d_s after exhausting
message weight w in every set, any unseen codeword has weight at least
sum(max(0, w+1-d_j)), which both bounds the distance and certifies exact
counts strictly below that bound.  Each set is scanned with numpy.  For
every s <= t, the sums of all s-subsets of its rows, under every nonzero
scalar pattern, form a lex-ordered table, so the subsets that start at
row a or later are a suffix of it; t is the largest size whose table
has at most 2^16 columns.  A combination of message weight w is a head
of max(1, w - t) rows (first scalar 1), built in Python, plus one table
suffix, added in a single numpy pass; only words at or below the cut
reach Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .errors import BudgetExceeded
from .qc import FieldCode, gray_image, is_euclidean_self_dual, rref

DEFAULT_WEIGHT_BUDGET = 1 << 28
_TABLE_BITS = 16
_SCAN_TABLE_COLUMNS = 1 << _TABLE_BITS


@dataclass(frozen=True)
class WeightEnum:
    n: int
    counts: tuple  # A_0 .. A_n
    complete: bool
    q: int
    k: int

    def poly_str(self, max_terms: int | None = None) -> str:
        terms = []
        for i, a in enumerate(self.counts):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            else:
                terms.append(f"{a}y^{i}" if a != 1 else f"y^{i}")
            if max_terms is not None and len(terms) >= max_terms:
                break
        s = " + ".join(terms) if terms else "0"
        if not self.complete:
            s += " + ..."
        return s


def _pack_bits(row, n):
    x = 0
    for j, v in enumerate(row):
        if v:
            x |= 1 << j
    return x


def _words(x: int, nwords: int):
    return [(x >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(nwords)]


def _packed_column(q: int, n: int, row) -> list[int]:
    """A word over F_2 or F_4 as 64-bit words: its bit plane over F_2; the
    planes of the coefficients of 1 and of w over F_4."""
    nwords = (n + 63) // 64
    col = _words(_pack_bits([v & 1 for v in row], n), nwords)
    if q == 4:
        col += _words(_pack_bits([v >> 1 for v in row], n), nwords)
    return col


def _packed_weights(words, nwords: int):
    """Symbol weights of plane-major packed words, shape (planes * nwords,
    m): the popcount of the OR of the planes."""
    support = words[:nwords] | words[nwords:] if len(words) > nwords else words
    if nwords == 1:
        return np.bitwise_count(support[0])
    return np.bitwise_count(support).sum(axis=0, dtype=np.uint16)


def _gray_flip_sequence(bits: int):
    """Index of the bit to flip at each Gray-code step (2^bits - 1 steps)."""
    for i in range(1, 1 << bits):
        yield (i & -i).bit_length() - 1


def _walk_packed(gens: list[list[int]], nwords: int):
    """All XOR combinations of packed generators, in blocks.

    Each generator is a `_packed_column`.  A plane-major table, shape
    (planes * nwords, 2^t), of all combinations of the first t generators
    is XORed against a Gray-code-ordered prefix of the rest.  Yields
    (words, weights); words is the transposed view of the block, shape
    (2^t, planes * nwords).
    """
    width = len(gens[0])
    t = min(len(gens), _TABLE_BITS)
    tab = np.zeros((width, 1), dtype=np.uint64)
    for g in gens[:t]:
        col = np.array(g, dtype=np.uint64)[:, None]
        tab = np.concatenate([tab, tab ^ col], axis=1)
    rest = gens[t:]
    prefix = np.zeros((width, 1), dtype=np.uint64)

    def block():
        words = tab ^ prefix
        return words.T, _packed_weights(words, nwords)

    yield block()
    for j in _gray_flip_sequence(len(rest)):
        prefix = prefix ^ np.array(rest[j], dtype=np.uint64)[:, None]
        yield block()


def _walk_modq(code: FieldCode):
    """All codewords over a prime field via blocked products mod q.

    Yields (words, weights) with words of shape (block, n).
    """
    q, k = code.field.q, code.k
    G = np.array(code.rows, dtype=np.int64)
    total = q**k
    block = 1 << 16
    powers = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // powers) % q
        words = (digits @ G) % q
        yield words, np.count_nonzero(words, axis=1)


def codeword_blocks(code: FieldCode):
    """Walk all q^k codewords of a code with k >= 1, in blocks.

    Yields (words, weights) pairs; `decode_words` turns selected words
    back into symbol tuples.  Every codeword, zero included, appears
    exactly once.
    """
    q, n = code.field.q, code.n
    if q not in (2, 4):
        return _walk_modq(code)
    gens = []
    for row in code.rows:
        gens.append(_packed_column(q, n, row))
        if q == 4:  # over F_2, F_4 row spaces are spanned by row and w * row
            gens.append(_packed_column(q, n, [code.field.mul(2, v) for v in row]))
    return _walk_packed(gens, (n + 63) // 64)


def _symbols(q: int, n: int, words):
    """Symbol rows (m, n) of packed words of shape (m, planes * nwords)."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    if q == 2:
        return bits[:, :n]
    half = bits.shape[1] // 2
    return bits[:, :n] | (bits[:, half:half + n] << 1)


def decode_words(q: int, n: int, words) -> list[tuple]:
    """Symbol tuples of words taken from `codeword_blocks` blocks."""
    if q not in (2, 4):
        return [tuple(r) for r in words.tolist()]
    return [tuple(r) for r in _symbols(q, n, words).tolist()]


def weight_enumerator(code: FieldCode, budget: int = DEFAULT_WEIGHT_BUDGET) -> WeightEnum:
    """Exact weight distribution by full message enumeration."""
    q, k, n = code.field.q, code.k, code.n
    total = q**k
    if total > budget:
        raise BudgetExceeded(
            f"full enumeration of {q}^{k} codewords (use min_distance_prefix "
            f"for bounds)",
            total,
            budget,
        )
    walked = code
    # the RREF rows sum to the all-ones word exactly when it is a codeword
    # (its pivot entries are all 1); then C = S + <1> with S spanned by the
    # other rows, because only the first row has the first pivot
    all_ones = q == 2 and k > 0 and all(sum(col) % 2 for col in zip(*code.rows))
    if all_ones:
        walked = FieldCode(code.field, n, code.rows[1:])
    counts = np.zeros(n + 1, dtype=np.int64)
    if walked.k == 0:
        counts[0] = 1
    else:
        for _, weights in codeword_blocks(walked):
            counts += np.bincount(weights, minlength=n + 1)
    if all_ones:
        counts = counts + counts[::-1]
    return WeightEnum(n=n, counts=tuple(int(c) for c in counts), complete=True, q=q, k=k)


def min_distance(code: FieldCode, budget: int = DEFAULT_WEIGHT_BUDGET) -> int:
    """Exact minimum distance within the enumeration budget."""
    if code.k == 0:
        raise ValueError("the zero code has no nonzero words")
    w = weight_enumerator(code, budget)
    for i in range(1, code.n + 1):
        if w.counts[i]:
            return i
    raise AssertionError("nonzero code with no nonzero words")


# -- information-set distance scan ----------------------------------------


@dataclass(frozen=True)
class DistanceScan:
    lower: int  # certified: no nonzero codeword has weight < lower
    found: int | None  # smallest weight actually seen (an upper bound)
    exact: bool  # found is not None and found <= certified bound
    prefix: tuple  # exact A_0..A_cut (cut = certified bound - 1)
    deficits: tuple  # per information set
    bound: int  # every codeword the scan did not see has weight >= bound

    @property
    def distance(self) -> int:
        if not self.exact:
            raise ValueError("scan certifies only a lower bound; distance unknown")
        return self.found


def _information_sets(code: FieldCode):
    """Greedy chain of information sets with rank deficits.

    Each round reduces the generator matrix preferring columns not yet
    used as pivots; the deficit counts pivots that had to reuse old
    columns.  Stops after the first round that reuses any column (later
    rounds would reuse nearly everything at rate-1/2 lengths).
    """
    fld, n = code.field, code.n
    used: set[int] = set()
    sets = []
    while True:
        order = [c for c in range(n) if c not in used] + sorted(used)
        reordered = [[r[c] for c in order] for r in code.rows]
        basis, pivots = rref(fld, n, reordered)
        piv_orig = [order[p] for p in pivots]
        deficit = sum(1 for c in piv_orig if c in used)
        if deficit >= code.k:
            break
        back = [0] * n
        for newpos, c in enumerate(order):
            back[c] = newpos
        rows_orig = [tuple(row[back[c]] for c in range(n)) for row in basis]
        sets.append((rows_orig, deficit))
        used.update(piv_orig)
        if deficit > 0:
            break
    return sets


class _ScanLayout:
    """How the scan stores the words of one field, one word per column:
    packed bit planes over F_2/F_4, where XOR adds; one uint8 symbol per
    entry over F_3/F_5, added mod q."""

    def __init__(self, fld, n: int):
        q = fld.q
        self.fld, self.q, self.n = fld, q, n
        self.packed = q in (2, 4)
        self.nwords = (n + 63) // 64
        self.mul = np.array(
            [[fld.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.uint8
        )
        self.inv = np.array([0] + [fld.inv(c) for c in range(1, q)], dtype=np.uint8)

    def scaled(self, row):
        """The row times 1, 2, .., q-1, as columns."""
        out = []
        for c in range(1, self.q):
            word = [self.fld.mul(c, v) for v in row]
            if self.packed:
                packed = _packed_column(self.q, self.n, word)
                out.append(np.array(packed, dtype=np.uint64))
            else:
                out.append(np.array(word, dtype=np.uint8))
        return out

    def add(self, a, b):
        if self.packed:
            return a ^ b
        s = a + b
        # subtract q where s >= q; below q, s - q wraps above s
        return np.minimum(s, s - self.q, out=s)

    def weights(self, words):
        if self.packed:
            return _packed_weights(words, self.nwords)
        return (words != 0).sum(axis=0, dtype=np.uint16)

    def keys(self, words):
        """Canonical bytes of each column word, scaled so its first nonzero
        symbol is 1."""
        sym = _symbols(self.q, self.n, words.T) if self.packed else words.T
        if self.q != 2:
            first = sym[np.arange(len(sym)), (sym != 0).argmax(axis=1)]
            sym = self.mul[self.inv[first][:, None], sym]
        return [row.tobytes() for row in np.ascontiguousarray(sym, dtype=np.uint8)]


def _scan_set(layout: _ScanLayout, rows, w: int, cut: int, seen: dict) -> int:
    """Scan every message of weight <= w over one information set; returns
    the smallest weight seen and records canonical words of weight <= cut
    in `seen`.

    Within one information set every codeword arises from exactly one
    message, and each of its scalar classes from exactly one message
    whose first nonzero scalar is 1, so no deduplication is needed here;
    `seen` deduplicates across sets.
    """
    q, k = layout.q, len(rows)
    scaled = [layout.scaled(r) for r in rows]
    t = 0
    while t < min(w - 1, k) and (
        comb(k, t + 1) * (q - 1) ** (t + 1) <= _SCAN_TABLE_COLUMNS
    ):
        t += 1
    # tables[s]: the sums of every s-subset of rows under every nonzero
    # scalar pattern, one column each, in lex order of the subsets; those
    # whose first row is >= a are the columns from starts[s][a] on
    zero = np.zeros_like(scaled[0][0])[:, None]
    tables, starts = [zero], [[0] * (k + 1)]
    for s in range(1, t + 1):
        parts = [
            layout.add(v[:, None], tables[-1][:, starts[-1][a + 1]:])
            for a in range(k)
            for v in scaled[a]
        ]
        tables.append(np.concatenate(parts, axis=1))
        starts.append(np.cumsum([0] + [p.shape[1] for p in parts])[:: q - 1].tolist())
    found = layout.n + 1
    for wt in range(1, w + 1):
        s = min(wt - 1, t)
        table, start = tables[s], starts[s]
        for head_rows in combinations(range(k - s), wt - s):
            for pattern in product(range(q - 1), repeat=wt - s - 1):
                head = scaled[head_rows[0]][0]
                for i, c in zip(head_rows[1:], pattern):
                    head = layout.add(head, scaled[i][c])
                words = layout.add(head[:, None], table[:, start[head_rows[-1] + 1]:])
                wts = layout.weights(words)
                low = int(wts.min())
                found = min(found, low)
                if low <= cut:
                    hits = np.flatnonzero(wts <= cut)
                    seen.update(zip(layout.keys(words[:, hits]), wts[hits].tolist()))
    return found


def min_distance_prefix(
    code: FieldCode,
    message_weight: int = 3,
) -> DistanceScan:
    """Scan low message weights over a chain of information sets.

    Certifies that no nonzero codeword has weight below the returned
    `lower`; counts strictly below the certified bound are exact.  When
    a codeword at or below the certified bound is seen, the distance is
    exact.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero words")
    q, n = code.field.q, code.n
    sets = _information_sets(code)
    w = message_weight
    bound = sum(max(0, w + 1 - d) for _, d in sets)
    cut = min(bound - 1, n)
    seen: dict[bytes, int] = {}
    found: int | None = None
    layout = _ScanLayout(code.field, n)
    for rows, _deficit in sets:
        f = _scan_set(layout, rows, w, cut, seen)
        if f <= n and (found is None or f < found):
            found = f
    prefix = [0] * (cut + 1)
    prefix[0] = 1
    for weight in seen.values():
        prefix[weight] += q - 1
    exact = found is not None and found <= bound
    return DistanceScan(
        lower=found if exact else bound,
        found=found,
        exact=exact,
        prefix=tuple(prefix),
        deficits=tuple(d for _, d in sets),
        bound=bound,
    )


# -- enumerator diagnostics -------------------------------------------------


def divisibility_check(w: WeightEnum, p: int) -> bool:
    """p divides A_i whenever p does not divide i (shift-orbit counting
    for codes invariant under a fixed-point-free order-p permutation)."""
    return all(
        a % p == 0 for i, a in enumerate(w.counts) if i % p != 0 and i > 0
    )


@dataclass(frozen=True)
class Template:
    name: str  # W_1 / W_2 / W_3 for the length
    terms: tuple  # (exponent, constant, beta_coefficient)
    beta_range: tuple | None  # inclusive (lo, hi) when parametric


TEMPLATES = {
    30: (
        Template("W_1", ((6, 19, 0), (8, 393, 0), (10, 1848, 0), (12, 5192, 0)), None),
        Template("W_2", ((6, 27, 0), (8, 369, 0), (10, 1848, 0), (12, 5256, 0)), None),
        Template("W_3", ((6, 35, 0), (8, 345, 0), (10, 1848, 0), (12, 5320, 0)), None),
    ),
    36: (
        Template("W_1", ((8, 225, 0), (10, 2016, 0)), None),
        Template("W_2", ((8, 289, 0), (10, 1632, 0)), None),
    ),
    42: (
        Template("W_1", ((8, 164, 0), (10, 679, 0)), None),
        Template("W_2", ((8, 84, 8), (10, 1449, -24)), (0, 42)),
    ),
    48: (
        Template("W_1", ((10, 704, 0), (12, 8976, 0)), None),
        Template("W_2", ((10, 768, 0), (12, 8592, 0)), None),
    ),
    54: (
        Template("W_1", ((10, 351, -8), (12, 5031, 24)), (0, 43)),
        Template("W_2", ((10, 351, -8), (12, 5543, 24), (14, 43884, 32)), (12, 43)),
    ),
    60: (
        # listed in the reference tables for Type I [60,30,12]
        Template("W_2", ((12, 2555, 64), (14, 33600, -384)), (0, 43)),
    ),
    66: (
        Template("W_1", ((12, 1690, 0), (14, 7990, 0)), None),
        Template("W_2", ((12, 858, 8), (14, 18678, -24)), (0, 778)),
        Template("W_3", ((12, 858, 8), (14, 18166, -24)), (14, 756)),
    ),
}


@dataclass(frozen=True)
class TemplateMatch:
    family: str
    beta: int | None
    in_listed_range: bool


def match_template(w, n: int | None = None, counts=None):
    """Match counts against the candidate enumerator forms for a length.

    Accepts a WeightEnum (or explicit counts); returns every consistent
    TemplateMatch (several when the data cannot discriminate, none when
    nothing fits).  `counts[i]` must be exact for every exponent that a
    candidate template lists.
    """
    if counts is None:
        counts = w.counts
        n = w.n
    matches = []
    for tpl in TEMPLATES.get(n, ()):
        beta = None
        ok = True
        for expo, const, coef in tpl.terms:
            if expo >= len(counts):
                ok = False
                break
            a = counts[expo]
            if coef == 0:
                if a != const:
                    ok = False
                    break
            else:
                b, rem = divmod(a - const, coef)
                if rem != 0:
                    ok = False
                    break
                if beta is None:
                    beta = b
                elif beta != b:
                    ok = False
                    break
        if not ok:
            continue
        in_range = True
        if beta is not None and tpl.beta_range is not None:
            in_range = tpl.beta_range[0] <= beta <= tpl.beta_range[1]
        matches.append(TemplateMatch(tpl.name, beta, in_range))
    return matches


# -- enumerate or scan ----------------------------------------------------


@dataclass(frozen=True)
class WeightProfile:
    """Weight data of a code, from full enumeration or a distance scan."""

    enum: WeightEnum  # exact A_0..A_cut; complete when cut = n
    d: int | None  # the distance when d_exact, else a certified lower bound
    d_exact: bool
    templates: tuple | None  # matches, when the counts reach every exponent
    # that the templates for this length list
    method: str  # "enumerate", or "scan" (an information-set scan)
    message_weight: int | None = None  # the scan's message weight
    deficits: tuple | None = None  # the scan's information-set deficits
    bound: int | None = None  # the scan's certified bound

    @property
    def cut(self) -> int:
        return len(self.enum.counts) - 1

    def certificate(self) -> dict:
        """How the numbers were certified, as JSON-ready keys."""
        if self.method == "enumerate":
            return {"method": "enumerate"}
        return {
            "method": "scan",
            "message_weight": self.message_weight,
            "deficits": list(self.deficits),
            "bound": self.bound,
        }


def weight_profile(code: FieldCode, cap: int, message_weight: int) -> WeightProfile:
    """Enumerate every codeword when q^k <= cap; otherwise scan the
    information sets at `message_weight`, which certifies the distance or
    a lower bound and the counts below it."""
    q, n, k = code.field.q, code.n, code.k
    if q**k <= cap:
        w = weight_enumerator(code, budget=cap)
        d = next((i for i, a in enumerate(w.counts) if i and a), None)
        d_exact = True
        how = {"method": "enumerate"}
    else:
        scan = min_distance_prefix(code, message_weight=message_weight)
        w = WeightEnum(n=n, counts=scan.prefix, complete=len(scan.prefix) > n, q=q, k=k)
        d = scan.found if scan.exact else scan.lower
        d_exact = scan.exact
        how = {"method": "scan", "message_weight": message_weight,
               "deficits": scan.deficits, "bound": scan.bound}
    needed = max(
        (t[0] for tpl in TEMPLATES.get(n, ()) for t in tpl.terms), default=None
    )
    templates = None
    if needed is not None and needed < len(w.counts):
        full = list(w.counts) + [0] * (n + 1 - len(w.counts))
        templates = tuple(match_template(None, n=n, counts=full))
    return WeightProfile(w, d, d_exact, templates, **how)


def macwilliams_transform(w: WeightEnum) -> WeightEnum:
    """Dual enumerator by the exact integer Krawtchouk sum."""
    n, q = w.n, w.q
    size = q**w.k
    dual_counts = []
    for j in range(n + 1):
        acc = 0
        for i, a in enumerate(w.counts):
            if a == 0:
                continue
            kr = 0
            for s in range(j + 1):
                term = comb(i, s) * comb(n - i, j - s) * (q - 1) ** (j - s)
                kr += -term if s % 2 else term
            acc += a * kr
        aj, rem = divmod(acc, size)
        if rem:
            raise ValueError("counts are not a weight distribution (transform fails)")
        dual_counts.append(aj)
    return WeightEnum(n=n, counts=tuple(dual_counts), complete=True, q=q, k=n - w.k)


def macwilliams_self_consistent(w: WeightEnum) -> bool:
    return macwilliams_transform(w).counts == w.counts


# -- Type II ---------------------------------------------------------------


def is_type_ii_binary(code: FieldCode) -> bool:
    """Binary self-dual with doubly-even generators (hence all words)."""
    if code.field.q != 2:
        raise ValueError("Type II in this sense is a binary property")
    if not is_euclidean_self_dual(code):
        return False
    return all(sum(r) % 4 == 0 for r in code.rows)


def is_type_ii_f4(code: FieldCode) -> bool:
    """Euclidean self-dual F_4 code whose binary Gray image is Type II."""
    if code.field.q != 4:
        raise ValueError("expected a code over F_4")
    if not is_euclidean_self_dual(code):
        raise ValueError("Type II test expects a Euclidean self-dual input")
    return is_type_ii_binary(gray_image(code))

