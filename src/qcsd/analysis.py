"""Weight distributions, minimum distance, and enumerator diagnostics.

Exact weight enumeration walks the code projectively with
`codeword_blocks`, the one codeword walker: the q - 1 nonzero multiples
of a word share its weight, so only the words whose first nonzero symbol
is 1 are walked, (q^k - 1)/(q - 1) of them, and each is counted q - 1
times (the information-set scan below likewise counts one word per scalar
class).  The equivalence engine keeps its low-weight words during the
same walk.  The walker keeps words as the distance scan does
(`_ScanLayout`), one per column: plane-major 64-bit bit planes over
F_2/F_4, where XOR adds, and uint8 symbols over F_3/F_5, added mod q.
With the rows in RREF, the words with leading symbol 1 are row i plus the
span of the rows after it, for each i.  Over the prime field F_p, a table
of every combination of the last t generators (p^t <= 2^16 columns), or
its prefix that spans the rows after row i, is shifted by row i and added
to each combination of the remaining generators in p-ary modular Gray
order (Knuth, TAOCP 4A, 7.2.1.1), in which each step adds one generator
once.  Each block of up to p^t words costs one addition and one weight
pass; for p = 2 the order is the binary reflected Gray code.  A binary
code that contains the all-ones word 1 is C = S + <1>, where S is spanned
by every RREF row but the first; only S is walked, and A_w(C) = A_w(S) +
A_{n-w}(S).

Told the code's quasi-cyclic index ell, the enumerator also uses the shift
sigma by ell, an automorphism of order m = n/ell (multiplication by Y on
R^ell, R = F_q[Y]/(Y^m - 1)).  With e_1 = m^-1 (1 + sigma + .. +
sigma^(m-1)), C splits as C_1 + C_phi, where C_1 = e_1*C is the subcode
sigma fixes and C_phi = (1 - e_1)*C (Ling and Sole, "On the algebraic
structure of quasi-cyclic codes I", IEEE Trans. IT 47, 2001).  When m is
prime and prime to q and to q - 1, Y^e - 1 is a unit on e_phi*R for
0 < e < m and no power of Y other than 1 is a scalar there, so F_q^* x
<sigma> acts freely on C minus C_1: every such word lies in an orbit of
(q - 1)m words of one weight.  C_phi is row-reduced with its ring
coordinates major and its rows grouped by the ring coordinate j of their
pivot; group j holds the words whose first nonzero ring coordinate is j,
and their values there form a Y-stable subspace M_j of e_phi*R.  One
element of each orbit of F_q^* x <Y> on M_j minus 0, the one with the
least integer label among its (q - 1)m images, is lifted through the
group's rows to a head; each head plus the span of the later groups and
of C_1 is walked on the same table and Gray order, counting each word
(q - 1)m times, and C_1 is walked projectively.  That is about
q^k/((q - 1)m) words.  Over F_2 the all-ones split moves inside C_1,
since 1 is fixed by sigma: S_1 takes C_1's place.

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
from itertools import combinations, groupby, product
from math import comb, gcd

import numpy as np

from .errors import BudgetExceeded
from .qc import (
    FieldCode,
    _matmul,
    gray_image,
    is_euclidean_self_dual,
    is_shift_invariant,
    rref,
)
from .ring import _is_prime

DEFAULT_WEIGHT_BUDGET = 1 << 28
_SCAN_TABLE_COLUMNS = 1 << 16
_LABELLED_ELEMENTS = 1 << 16  # of e_phi*R, for the orbit walk's labels


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


class _ScanLayout:
    """How the walker and the scan store the words of one field, one word
    per column: plane-major packed bit planes over F_2/F_4, where XOR
    adds (over F_4 the planes of the coefficients of 1 and of w); one
    uint8 symbol per entry over F_3/F_5, added mod q."""

    def __init__(self, fld, n: int):
        q = fld.q
        self.q, self.n = q, n
        self.packed = q in (2, 4)
        self.p = 2 if self.packed else q  # the characteristic
        self.planes = 2 if q == 4 else 1
        self.nwords = (n + 63) // 64
        self.mul, self.inv = fld.mul_table, fld.inv_table

    def words(self, sym):
        """Symbol rows, shape (..., n), as words: shape (..., column length)."""
        if not self.packed:
            return sym
        planes = np.stack([sym & 1, sym >> 1], axis=-2)[..., : self.planes, :]
        bits = np.zeros(planes.shape[:-1] + (64 * self.nwords,), dtype=np.uint8)
        bits[..., : self.n] = planes
        packed = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
        shape = sym.shape[:-1] + (self.planes * self.nwords,)
        return packed.reshape(shape).astype(np.uint64)

    def scaled(self, rows):
        """Every row times 1, 2, .., q-1: shape (rows, q - 1, column
        length)."""
        rows = np.asarray(rows, dtype=np.intp)
        return self.words(np.moveaxis(self.mul[1:, rows], 0, 1))

    def generators(self, rows):
        """The rows of a 2-D symbol array as heads, one column each, and
        the F_p generators of their span, one word each: every row and,
        over F_4, w times it (1 and w, stored as 2, span F_4 over F_2)."""
        gens = self.scaled(rows)[:, : self.planes]
        return gens[:, 0].T, gens.reshape(-1, gens.shape[-1])

    def add(self, a, b):
        if self.packed:
            return a ^ b
        s = a + b
        # subtract q where s >= q; below q, s - q wraps above s
        return np.minimum(s, s - self.q, out=s)

    def weights(self, words):
        if not self.packed:
            return (words != 0).sum(axis=0, dtype=np.uint16)
        nw = self.nwords
        # a symbol is nonzero where any of its planes has a bit
        support = words[:nw] | words[nw:] if self.planes == 2 else words
        if nw == 1:
            return np.bitwise_count(support[0])
        return np.bitwise_count(support).sum(axis=0, dtype=np.uint16)

    def symbols(self, words):
        """The symbols of column words, one row each, shape (m, n)."""
        if not self.packed:
            return words.T
        raw = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        if self.planes == 1:
            return bits[:, : self.n]
        half = bits.shape[1] // 2
        return bits[:, : self.n] | (bits[:, half : half + self.n] << 1)

    def keys(self, words):
        """Canonical bytes of each column word, scaled so its first nonzero
        symbol is 1."""
        sym = self.symbols(words)
        if self.q != 2:
            first = sym[np.arange(len(sym)), (sym != 0).argmax(axis=1)]
            sym = self.mul[self.inv[first][:, None], sym]
        return [row.tobytes() for row in np.ascontiguousarray(sym, dtype=np.uint8)]


def _walk(layout: _ScanLayout, gens, segments):
    """Walk segments that share one list of F_p generators, in blocks.

    Segment s = (heads, after) is each head, a column of `heads`, plus each
    word of the F_p span of gens[after:].  A table of all p^t combinations
    of the last t generators, at most `_SCAN_TABLE_COLUMNS` columns and no
    more generators than the widest segment spans, is built so that the
    combinations of the last u <= t generators are its first p^u columns.
    Heads are added to the table, or to the prefix that spans gens[after:],
    as many at once as fit in one table block, and that is added to each
    combination of the generators left over in p-ary modular Gray order:
    step j adds one more copy of the generator whose index is the number of
    times p divides j.  Yields (words, weights) with the words in the
    `_ScanLayout` form, one per column.
    """
    p = layout.p
    # no segment spans more than the generators after the earliest one
    widest = len(gens) - min((after for _, after in segments), default=len(gens))
    t = 0
    while t < widest and p ** (t + 1) <= _SCAN_TABLE_COLUMNS:
        t += 1
    split = len(gens) - t
    table = np.zeros((gens.shape[1], 1), dtype=gens.dtype)
    for g in gens[split:][::-1]:
        parts = [table]
        for _ in range(p - 1):
            parts.append(layout.add(parts[-1], g[:, None]))
        table = np.concatenate(parts, axis=1)
    for heads, after in segments:
        span = table[:, : p ** (len(gens) - max(after, split))]
        rest = gens[after:split]
        batch = max(1, _SCAN_TABLE_COLUMNS // span.shape[1])
        for at in range(0, heads.shape[1], batch):
            if heads.shape[1] == 1:  # the walk by scalar classes: a plain broadcast
                words = layout.add(span, heads)
            else:  # each head of the batch plus the span, head-major
                words = layout.add(span[:, None, :], heads[:, at : at + batch, None])
                words = words.reshape(len(span), -1)
            yield words, layout.weights(words)
            for j in range(1, p ** len(rest)):
                v = 0
                while j % p == 0:
                    j //= p
                    v += 1
                words = layout.add(words, rest[v][:, None])
                yield words, layout.weights(words)


def codeword_blocks(code: FieldCode):
    """Walk the nonzero codewords of a code with k >= 1 whose first nonzero
    symbol is 1, each exactly once, in blocks; over F_2 that is every
    nonzero codeword.

    The rows are in RREF, so these words are the messages whose first
    nonzero coefficient is 1: row i plus each word of the span of the rows
    after it, one `_walk` segment per row.  The blocks are (words,
    weights), with the words in the `_ScanLayout` form, one per column;
    `_ScanLayout.symbols` decodes them.
    """
    layout = _ScanLayout(code.field, code.n)
    heads, gens = layout.generators(code.matrix)
    segments = [(heads[:, i : i + 1], layout.planes * (i + 1)) for i in range(code.k)]
    return _walk(layout, gens, segments)


def _splits_off_ones(code: FieldCode) -> bool:
    """Whether a binary code contains the all-ones word 1, so that the
    enumerator walks S, spanned by every RREF row but the first, and
    C = S + <1>.  The RREF rows sum to 1 exactly when it is a codeword (its
    pivot entries are all 1), and only the first row has the first pivot."""
    return (
        code.field.q == 2
        and code.k > 0
        and bool(np.bitwise_xor.reduce(code.matrix, axis=0).all())
    )


# -- the shift by ell ------------------------------------------------------


def _shift_order(code: FieldCode, ell: int) -> int:
    """m = n/ell, for a code invariant under the shift by ell."""
    if ell < 1 or code.n % ell:
        raise ValueError(f"length {code.n} is not a multiple of ell = {ell}")
    if not is_shift_invariant(code, ell):
        raise ValueError(f"code is not invariant under the shift by {ell}")
    return code.n // ell


def _orbits_are_free(q: int, m: int) -> bool:
    """Whether F_q^* x <Y> acts freely on e_phi*R minus 0, for R =
    F_q[Y]/(Y^m - 1): m prime and prime to q and to q - 1.  The walk also
    lists subspaces of e_phi*R element by element to label them, so it asks
    that its q^(m - 1) elements number at most `_LABELLED_ELEMENTS`."""
    return (
        _is_prime(m)
        and q % m != 0
        and gcd(m, q - 1) == 1
        and q ** (m - 1) <= _LABELLED_ELEMENTS
    )


def _averaged(code: FieldCode, m: int):
    """The first ell columns of e_1*G: m^-1 times the sum of the m symbols of
    each ring coordinate, for every row of the generator matrix G."""
    fld = code.field
    blocks = code.matrix.reshape(code.k, m, code.n // m)
    if fld.characteristic == 2:
        sums = np.bitwise_xor.reduce(blocks, axis=1)
    else:
        sums = blocks.sum(axis=1) % fld.q
    return fld.mul_table[fld.inv(m % fld.characteristic)][sums]


def _tiled(fld, m: int, rows) -> FieldCode:
    """The code spanned by the rows of a 2-D array, each repeated m times;
    the rows are row-reduced before they are repeated."""
    basis, _ = rref(fld, rows.shape[1], rows)
    return FieldCode(fld, m * basis.shape[1], np.tile(basis, m))


def fixed_subcode(code: FieldCode, ell: int) -> FieldCode:
    """The subcode C_1 = e_1*C that the shift sigma by ell fixes, for a code
    invariant under sigma whose order m = n/ell is prime to q; e_1 =
    m^-1 (1 + sigma + .. + sigma^(m-1)).  Each of its words repeats one
    length-ell word m times, so its weights are multiples of m."""
    m = _shift_order(code, ell)
    if m % code.field.characteristic == 0:
        raise ValueError(f"m = {m} is not a unit of F_{code.field.q}")
    return _tiled(code.field, m, _averaged(code, m))


def _orbit_representatives(layout: _ScanLayout, block):
    """One coefficient vector a per orbit of F_q^* x <Y> on the nonzero
    elements h = a*block of M, the row space of `block` (d x m, in RREF and
    Y-stable).

    The elements are listed as the walker's table is built, so element i
    has the coefficients a_r, the base-q digits of i, which are also its
    entries at the pivot columns.  Y*h lies in M, so Y and a generator of
    F_q^* permute the indices.  Each element is labelled by the least index
    of its orbit, by min-label doubling along the two permutations (powers
    1, 2, 4, .. of each, on the cycles of m and of q - 1 they make), and the
    element whose index is its label is kept."""
    q, (d, m) = layout.q, block.shape
    h = np.zeros((1, m), dtype=np.uint8)
    for row in block:
        h = layout.add(h[None], layout.mul[:, row][:, None]).reshape(-1, m)
    pivots = (block != 0).argmax(axis=1)

    # the index of each Y*h: a float product runs on BLAS, and the sums are
    # integers below 2^53
    digits = q ** np.arange(d, dtype=np.float64)
    shift = (h[:, (pivots - 1) % m].astype(np.float64) @ digits).astype(np.intp)
    # 2 generates F_3^*, F_4^* (it stands for w) and F_5^*; it maps each
    # digit c of an index to 2c
    double = layout.mul[2 if q > 2 else 1].astype(np.intp)
    scale = np.zeros(1, dtype=np.intp)
    for r in range(d):
        scale = (double[:, None] * q**r + scale).ravel()
    least = np.arange(q**d)
    for perm, order in ((shift, m), (scale, q - 1)):
        reach = 1
        while reach < order:
            least = np.minimum(least, least[perm])
            perm = perm[perm]
            reach *= 2
    return h[least == np.arange(q**d)][1:, pivots]  # the first is the zero vector


def _orbit_blocks(code: FieldCode, ell: int, m: int, walked: FieldCode):
    """The walk of C minus C_1 by orbits of F_q^* x <sigma>, for
    `_orbits_are_free` rings: one word per orbit, which stands for its
    (q - 1)m words, and for their complements too when `walked` is S_1.
    The heads run over the span of the later groups and of `walked` (C_1,
    or S_1 when the binary code contains 1)."""
    fld, n = code.field, code.n
    layout = _ScanLayout(fld, n)
    e1g = np.tile(_averaged(code, m), m)
    g = code.matrix
    if fld.characteristic == 2:
        phi = g ^ e1g
    else:
        phi = ((g.astype(np.int16) - e1g) % fld.q).astype(np.uint8)
    # ring coordinates major: column jm + t is the code's column t*ell + j
    order = (np.arange(m) * ell + np.arange(ell)[:, None]).ravel()
    major, pivots = rref(fld, n, phi[:, order])
    rows = major[:, np.argsort(order)]  # in the code's own column order
    gens = np.concatenate([layout.generators(r)[1] for r in (rows, walked.matrix)])
    # group j: the rows that pivot in ring coordinate j, columns jm..jm+m-1
    segments = []
    at = 0
    for j, group in groupby(p // m for p in pivots):
        d = len(list(group))
        reps = _orbit_representatives(layout, major[at : at + d, j * m : (j + 1) * m])
        heads = layout.words(_matmul(fld, reps, rows[at : at + d])).T
        at += d
        segments.append((heads, layout.planes * at))
    return _walk(layout, gens, segments)


def weight_enumerator(
    code: FieldCode,
    budget: int = DEFAULT_WEIGHT_BUDGET,
    *,
    ell: int | None = None,
    _visit=None,
    _c1=None,
) -> WeightEnum:
    """Exact weight distribution by full enumeration.

    `budget` bounds the q^k codewords, although the walk takes only the
    (q^k - 1)/(q - 1) whose first nonzero symbol is 1 (half as many over F_2
    when the code contains 1) and counts each for its q - 1 nonzero
    multiples, which share its weight.  Given `ell`, the code must be
    invariant under the shift by ell (ValueError otherwise), and when its
    order m = n/ell is prime and prime to q and to q - 1 the walk takes one
    word per orbit of F_q^* x <shift> off the fixed subcode, a further
    factor m fewer (see the module docstring), unless the walk by scalar
    classes fits one table block anyway.  The equivalence engine
    passes `_visit(words, weights, counts)`, without `ell`, which sees every
    walked block with the running counts A_0..A_n of the code's words
    accounted for so far.  `weight_profile` passes `_c1`, the fixed
    subcode that it built after checking the shift by `ell`, so the shift
    is neither checked nor its subcode built again.
    """
    q, k, n = code.field.q, code.k, code.n
    if ell is None:
        m = 1
    else:
        m = _shift_order(code, ell) if _c1 is None else n // ell
    total = q**k
    if total > budget:
        raise BudgetExceeded(
            f"full enumeration of {q}^{k} codewords (use min_distance_prefix "
            f"for bounds)",
            total,
            budget,
        )
    all_ones = _splits_off_ones(code)

    def whole(walked_counts):
        counts = walked_counts * (q - 1)
        counts[0] = 1
        # each word s of S stands for s and its complement s + 1 in C
        return counts + counts[::-1] if all_ones else counts

    # labelling orbits pays only once the walk by scalar classes outgrows
    # one table block
    scalar_classes = (q ** (k - all_ones) - 1) // (q - 1)
    orbits = (
        ell is not None
        and _orbits_are_free(q, m)
        and scalar_classes > _SCAN_TABLE_COLUMNS
    )
    if orbits and _c1 is None:
        _c1 = _tiled(code.field, m, _averaged(code, m))
    walked = _c1 if orbits else code  # C_1 or C
    if all_ones:
        walked = FieldCode(code.field, n, walked.matrix[1:])
    counts = np.zeros(n + 1, dtype=np.int64)
    if orbits:
        for _, weights in _orbit_blocks(code, ell, m, walked):
            counts += np.bincount(weights, minlength=n + 1)
        counts *= m
    if walked.k:
        for words, weights in codeword_blocks(walked):
            counts += np.bincount(weights, minlength=n + 1)
            if _visit is not None:
                _visit(words, weights, whole(counts))
    counts = whole(counts)
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
        order = np.array([c for c in range(n) if c not in used] + sorted(used))
        basis, pivots = rref(fld, n, code.matrix[:, order])
        piv_orig = order[list(pivots)].tolist()
        deficit = sum(1 for c in piv_orig if c in used)
        if deficit >= code.k:
            break
        sets.append((basis[:, np.argsort(order)], deficit))
        used.update(piv_orig)
        if deficit > 0:
            break
    return sets


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
    scaled = [list(s) for s in layout.scaled(rows)]
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


def shift_congruence_check(w: WeightEnum, w1: WeightEnum, m: int) -> bool:
    """A_i(C) = A_i(C_1) (mod m) for every i that w counts, where w1 is the
    enumerator of the subcode C_1 fixed by a shift of prime order m.

    Every word of C outside C_1 lies in a shift orbit of m words of one
    weight.  C_1's weights are multiples of m, so this is the sharp form of
    `divisibility_check`."""
    return all((a - a1) % m == 0 for a, a1 in zip(w.counts, w1.counts))


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
    certificate: dict  # how the numbers were certified, as JSON-ready keys:
    # {"method": "enumerate"}, or an information-set scan's "method": "scan",
    # "message_weight", "deficits" and "bound"
    fixed: WeightEnum | None = None  # the enumerator of the subcode that the
    # shift by ell fixes, when ell was given, the shift's order is prime and
    # the subcode fits the cap

    @property
    def cut(self) -> int:
        return len(self.enum.counts) - 1


def weight_profile(
    code: FieldCode, cap: int, message_weight: int, *, ell: int | None = None
) -> WeightProfile:
    """Enumerate every codeword when q^k <= cap; otherwise scan the
    information sets at `message_weight`, which certifies the distance or
    a lower bound and the counts below it.  Given the quasi-cyclic index
    `ell`, the enumeration walks shift orbits (`weight_enumerator`), and
    when the shift's order m is prime the fixed subcode (`fixed_subcode`,
    which needs m prime to q) is enumerated too, if it fits the cap."""
    q, n, k = code.field.q, code.n, code.k
    fixed = sub = None
    if ell is not None:
        sub = fixed_subcode(code, ell)  # checks the shift
        if _is_prime(n // ell) and q**sub.k <= cap:
            fixed = weight_enumerator(sub, budget=cap)
    if q**k <= cap:
        w = weight_enumerator(code, budget=cap, ell=ell, _c1=sub)
        d = next((i for i, a in enumerate(w.counts) if i and a), None)
        d_exact = True
        how = {"method": "enumerate"}
    else:
        scan = min_distance_prefix(code, message_weight=message_weight)
        w = WeightEnum(n=n, counts=scan.prefix, complete=len(scan.prefix) > n, q=q, k=k)
        d = scan.found if scan.exact else scan.lower
        d_exact = scan.exact
        how = {"method": "scan", "message_weight": message_weight,
               "deficits": list(scan.deficits), "bound": scan.bound}
    needed = max(
        (t[0] for tpl in TEMPLATES.get(n, ()) for t in tpl.terms), default=None
    )
    templates = None
    if needed is not None and needed < len(w.counts):
        full = list(w.counts) + [0] * (n + 1 - len(w.counts))
        templates = tuple(match_template(None, n=n, counts=full))
    return WeightProfile(w, d, d_exact, templates, how, fixed)


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


# -- Type II ---------------------------------------------------------------


def is_type_ii_binary(code: FieldCode) -> bool:
    """Binary self-dual with doubly-even generators (hence all words)."""
    if code.field.q != 2:
        raise ValueError("Type II in this sense is a binary property")
    if not is_euclidean_self_dual(code):
        return False
    return not (code.matrix.sum(axis=1, dtype=np.int64) % 4).any()


def is_type_ii_f4(code: FieldCode) -> bool:
    """Euclidean self-dual F_4 code whose binary Gray image is Type II."""
    if code.field.q != 4:
        raise ValueError("expected a code over F_4")
    if not is_euclidean_self_dual(code):
        raise ValueError("Type II test expects a Euclidean self-dual input")
    return is_type_ii_binary(gray_image(code))

