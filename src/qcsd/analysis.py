"""Weight distributions, minimum distance, and enumerator diagnostics.

Exact weight enumeration walks the whole message space with
`codeword_blocks`, the one codeword walker (the equivalence engine
collects its low-weight words with it too).  Binary and F_4 codes use
bit-packed kernels: a table of all combinations of the first few
generators is XORed against a Gray-code-ordered prefix, so each step
costs one vectorised popcount pass.  F_3/F_5 codes use blocked matrix
products mod q, which computes the same counts.

Above the enumeration budget, `min_distance_prefix` enumerates low
message weights over a greedy chain of information sets.  With deficits
d_1..d_s after exhausting message weight w in every set, any unseen
codeword has weight at least sum(max(0, w+1-d_j)), which both bounds
the distance and certifies exact counts strictly below that bound.
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


def _gray_flip_sequence(bits: int):
    """Index of the bit to flip at each Gray-code step (2^bits - 1 steps)."""
    for i in range(1, 1 << bits):
        yield (i & -i).bit_length() - 1


def _walk_packed(gens: list[list[int]], nwords: int):
    """All XOR combinations of packed generators, in blocks.

    Each generator is a list of 64-bit words: one bit plane of `nwords`
    words over F_2, two planes (coefficients of 1 and of w) over F_4.  A
    table of all combinations of the first generators is XORed against a
    Gray-code-ordered prefix of the rest.  Yields (words, weights) with
    words of shape (block, planes * nwords); the symbol weight is the
    popcount of the OR of the planes.
    """
    width = len(gens[0])
    t = min(len(gens), _TABLE_BITS)
    tab = np.zeros((1, width), dtype=np.uint64)
    for g in gens[:t]:
        tab = np.concatenate([tab, tab ^ np.array(g, dtype=np.uint64)])
    rest = gens[t:]
    prefix = np.zeros(width, dtype=np.uint64)

    def block():
        words = tab ^ prefix
        support = words[:, :nwords] | words[:, nwords:] if width > nwords else words
        if nwords == 1:
            return words, np.bitwise_count(support[:, 0])
        return words, np.bitwise_count(support).sum(axis=1, dtype=np.uint16)

    yield block()
    for j in _gray_flip_sequence(len(rest)):
        prefix = prefix ^ np.array(rest[j], dtype=np.uint64)
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
    nwords = (n + 63) // 64
    gens = []
    for row in code.rows:
        p0 = _pack_bits([v & 1 for v in row], n)
        if q == 2:
            gens.append(_words(p0, nwords))
            continue
        # F_4: the row and w times the row; multiplying by w maps the
        # planes (p0, p1) to (p1, p0 XOR p1)
        p1 = _pack_bits([v >> 1 for v in row], n)
        gens.append(_words(p0, nwords) + _words(p1, nwords))
        gens.append(_words(p1, nwords) + _words(p0 ^ p1, nwords))
    return _walk_packed(gens, nwords)


def decode_words(q: int, n: int, words) -> list[tuple]:
    """Symbol tuples of words taken from `codeword_blocks` blocks."""
    if q not in (2, 4):
        return [tuple(r) for r in words.tolist()]
    raw = words.astype("<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    if q == 2:
        symbols = bits[:, :n]
    else:
        half = bits.shape[1] // 2
        symbols = bits[:, :n] | (bits[:, half:half + n] << 1)
    return [tuple(r) for r in symbols.tolist()]


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
    counts = np.zeros(n + 1, dtype=np.int64)
    if k == 0:
        counts[0] = 1
    else:
        for _, weights in codeword_blocks(code):
            w = weights.astype(np.int64, copy=False)
            counts += np.bincount(w, minlength=n + 1)[: n + 1]
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


def _scan_set_q2(rows, n, w, cut, seen):
    """Binary scan of one information set; returns the smallest weight
    seen and records canonical words of weight <= cut in `seen`.

    Within one information set every codeword arises from exactly one
    message, so no deduplication is needed here; `seen` deduplicates
    across sets.
    """
    packed = [_pack_bits(r, n) for r in rows]
    found = n + 1
    nbytes = (n + 7) // 8
    for wt in range(1, w + 1):
        for support in combinations(packed, wt):
            x = 0
            for g in support:
                x ^= g
            wx = x.bit_count()
            if wx < found:
                found = wx
            if wx <= cut:
                seen[x.to_bytes(nbytes, "little")] = wx
    return found


def _canon_f4_key(x, mask, n, nbytes):
    """Scale a packed two-plane word so its first nonzero symbol is 1."""
    p0, p1 = x & mask, x >> n
    merged = p0 | p1
    j = (merged & -merged).bit_length() - 1
    sym = ((p0 >> j) & 1) | (((p1 >> j) & 1) << 1)
    if sym == 2:  # divide by w: multiply by w^2 maps (p0,p1) to (p0^p1, p0)
        p0, p1 = p0 ^ p1, p0
    elif sym == 3:  # divide by w^2: multiply by w maps (p0,p1) to (p1, p0^p1)
        p0, p1 = p1, p0 ^ p1
    return (p0 | (p1 << n)).to_bytes(nbytes, "little")


def _scan_set_q4(fld, rows, n, w, cut, seen):
    """F_4 scan of one information set (packed planes, scalars 1/w/w^2)."""
    mask = (1 << n) - 1
    nbytes = (2 * n + 7) // 8
    scaled = []
    for r in rows:
        variants = []
        for s in (1, 2, 3):
            rs = [fld.mul(s, v) for v in r]
            p0 = _pack_bits([v & 1 for v in rs], n)
            p1 = _pack_bits([v >> 1 for v in rs], n)
            variants.append(p0 | (p1 << n))
        scaled.append(variants)
    found = n + 1
    for wt in range(1, w + 1):
        for sup in combinations(range(len(scaled)), wt):
            first = scaled[sup[0]][0]
            tail = sup[1:]
            for pattern in product((0, 1, 2), repeat=wt - 1):
                x = first
                for i, s in zip(tail, pattern):
                    x ^= scaled[i][s]
                wx = ((x & mask) | (x >> n)).bit_count()
                if wx < found:
                    found = wx
                if wx <= cut:
                    seen[_canon_f4_key(x, mask, n, nbytes)] = wx
    return found


def _scan_set_modq(fld, rows, n, w, cut, seen):
    """Prime-field scan; all scalar patterns of one support go through a
    single matrix product."""
    q = fld.q
    k = len(rows)
    G = np.array(rows, dtype=np.int64)
    inv = [0] + [fld.inv(s) for s in range(1, q)]
    found = n + 1
    for wt in range(1, w + 1):
        pats = np.array(
            [(1,) + p for p in product(range(1, q), repeat=wt - 1)], dtype=np.int64
        )
        for sup in combinations(range(k), wt):
            words = (pats @ G[list(sup)]) % q
            wts = np.count_nonzero(words, axis=1)
            m = int(wts.min())
            if m < found:
                found = m
            if m <= cut:
                for idx in np.flatnonzero(wts <= cut):
                    word = words[idx]
                    first = int(word[np.flatnonzero(word)[0]])
                    if first != 1:
                        word = (word * inv[first]) % q
                    seen[word.astype(np.uint8).tobytes()] = int(wts[idx])
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
    for rows, _deficit in sets:
        if q == 2:
            f = _scan_set_q2(rows, n, w, cut, seen)
        elif q == 4:
            f = _scan_set_q4(code.field, rows, n, w, cut, seen)
        else:
            f = _scan_set_modq(code.field, rows, n, w, cut, seen)
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

    @property
    def cut(self) -> int:
        return len(self.enum.counts) - 1


def weight_profile(code: FieldCode, cap: int, message_weight: int) -> WeightProfile:
    """Enumerate every codeword when q^k <= cap; otherwise scan the
    information sets at `message_weight`, which certifies the distance or
    a lower bound and the counts below it."""
    q, n, k = code.field.q, code.n, code.k
    if q**k <= cap:
        w = weight_enumerator(code, budget=cap)
        d = next((i for i, a in enumerate(w.counts) if i and a), None)
        d_exact = True
    else:
        scan = min_distance_prefix(code, message_weight=message_weight)
        w = WeightEnum(n=n, counts=scan.prefix, complete=len(scan.prefix) > n, q=q, k=k)
        d = scan.found if scan.exact else scan.lower
        d_exact = scan.exact
    needed = max(
        (t[0] for tpl in TEMPLATES.get(n, ()) for t in tpl.terms), default=None
    )
    templates = None
    if needed is not None and needed < len(w.counts):
        full = list(w.counts) + [0] * (n + 1 - len(w.counts))
        templates = tuple(match_template(None, n=n, counts=full))
    return WeightProfile(w, d, d_exact, templates)


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

