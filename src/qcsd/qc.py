"""Field-level linear codes and the correspondence with codes over R.

A length-n code over F_q with n = m*ell corresponds to a code of length
ell over R = F_q[Y]/(Y^m - 1) when it is invariant under the coordinate
shift by ell.  The correspondence reads coordinate i*ell + j as the
Y^i coefficient of ring coordinate j, so shifting by ell is exactly
multiplication by Y.

Self-duality and shift invariance are decided by one matrix product over
F_q, `_matmul`, on uint8 arrays of symbol indices: an int64 product
reduced mod q for prime q, and for F_4 a product of the two bit planes of
the index (c0 + c1*w, w^2 = w + 1).  A code is Euclidean self-dual when
k = n/2 and its Gram matrix G*G^T is zero.  It is shift invariant when
its shifted rows lie in it; since G is in RREF, a word w lies in the code
exactly when w = w[pivots]*G: the coefficients of w on the basis rows are
its entries at the pivots.

`rref` over F_3, F_4 and F_5 eliminates on an int64 array of symbol
indices once the matrix holds `_ARRAY_CUT` symbols (rows * n).  For each
pivot it scales the pivot row through the inverse and product tables, then
clears the pivot column from every other row in one whole-matrix step: it
adds the table of the row's negated multiples, indexed by the column.  Over
F_4 adding is XOR; over F_p it is the integer sum, reduced mod p only where
an entry is read.  Below the cut the loop over symbols is faster; F_2
reduces rows packed into bit masks, one row at a time, and stops once n
rows are independent.  Every path takes a uint8 array and
returns the same canonical basis, a read-only uint8 array, which
`FieldCode` stores as it is.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec, field

# Matrices over F_3, F_4 and F_5 with at least this many symbols (rows * n)
# are row-reduced on an array.  Timed on dense random matrices of 144 to 288
# symbols, the loop over symbols still won some trials up to 196 and the
# array kernel won every trial over all three fields from 200 on.
_ARRAY_CUT = 200


def rref(fld: FieldSpec, n: int, rows):
    """Reduced row echelon form over F_q.

    `rows` is a 2-D uint8 array of symbol indices with n columns.  Returns
    (basis, pivot_columns): the nonzero rows of the RREF as a read-only,
    C-contiguous (rank, n) uint8 array, and the pivot columns as a tuple of
    ints.  The result is canonical for the row space.
    """
    if len(rows):
        if fld.q == 2:
            return _rref_gf2(n, rows)
        if len(rows) * n >= _ARRAY_CUT:
            return _rref_array(fld, n, rows)

    zero = fld.zero
    work = rows.tolist()
    pivots = []
    rank = 0
    for col in range(n):
        pr = None
        for i in range(rank, len(work)):
            if work[i][col] != zero:
                pr = i
                break
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        row = work[rank]
        # the pivot row is zero left of col; only its nonzero entries act
        support = [j for j in range(col, n) if row[j] != zero]
        inv = fld.inv(row[col])
        for j in support:
            row[j] = fld.mul(inv, row[j])
        for i, other in enumerate(work):
            c = other[col]
            if i != rank and c != zero:
                for j in support:
                    other[j] = fld.sub(other[j], fld.mul(c, row[j]))
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    # bytes are immutable, so the array over them is read-only
    buf = b"".join(map(bytes, work[:rank]))
    return np.frombuffer(buf, dtype=np.uint8).reshape(rank, n), tuple(pivots)


def _frozen(a):
    """`a`, made read-only."""
    a.flags.writeable = False
    return a


def _rref_array(fld, n: int, a):
    """RREF over F_3, F_4 or F_5 of a 2-D array of symbol indices."""
    q = fld.q
    # int64 like the work array, so that no step casts
    mul = fld.mul_table.astype(np.int64)
    step = mul[fld.minus_one].take(mul)  # the clearing steps -(a*b)
    # adding symbol indices: XOR over F_4; over F_p the integer sum, taken
    # mod p only where it is read (entries grow by < p per pivot)
    add = np.bitwise_xor if q == 4 else np.add
    w = a.astype(np.int64)
    pivots = []
    for col in range(n):
        rank = len(pivots)
        p = int(w[rank, col]) % q
        if not p:
            below = w[rank:, col] % q
            i = int(below.argmax())
            p = int(below[i])
            if not p:
                continue
            w[[rank, rank + i]] = w[[rank + i, rank]]
        row = w[rank] % q
        if p != 1:
            row = mul[fld.inv(p)].take(row)
        w[rank] = row
        c = w[:, col] % q
        c[rank] = 0
        add(w, step.take(row, axis=1).take(c, axis=0), out=w)
        pivots.append(col)
        if len(pivots) == len(w):
            break
    return _frozen((w[: len(pivots)] % q).astype(np.uint8)), tuple(pivots)


def _rref_gf2(n: int, a):
    """RREF over GF(2) of a 0/1 array, on rows packed into bit masks (bit
    j = column j).  The basis rows are keyed by their pivot bit; each is
    zero at every other pivot, so an incoming row is reduced only at the
    pivot bits it has.  Once n rows are independent the rest are not read."""
    packed = np.packbits(a, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    basis: dict[int, int] = {}
    pivot_mask = 0
    for start in range(0, len(buf), width):
        x = int.from_bytes(buf[start : start + width], "little")
        hits = x & pivot_mask
        while hits:
            bit = hits & -hits
            x ^= basis[bit]
            hits ^= bit
        if x == 0:
            continue
        bit = x & -x
        for pivot, row in basis.items():
            if row & bit:
                basis[pivot] = row ^ x
        basis[bit] = x
        pivot_mask |= bit
        if len(basis) == n:  # every later row is in the span
            break
    pivots = sorted(basis)
    buf = b"".join(basis[pivot].to_bytes(width, "little") for pivot in pivots)
    bits = np.frombuffer(buf, dtype=np.uint8).reshape(len(pivots), width)
    rows = np.unpackbits(bits, axis=1, count=n, bitorder="little")
    return _frozen(rows), tuple(b.bit_length() - 1 for b in pivots)


def _symbols(fld, n: int, rows):
    """`rows` as a validated (len(rows), n) uint8 array of symbol indices.

    Raises ValueError for the first row, in the order given, whose length
    is not n or that holds a symbol outside 0..q-1.  Ranges are checked
    before any cast, since a negative symbol has no uint8 value.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        a = rows
        ok = a.shape[1] == n and (not a.size or (a.min() >= 0 and a.max() < fld.q))
    else:
        rows = [tuple(r) for r in rows]
        a = None
        if all(len(r) == n for r in rows):
            try:
                buf = b"".join(map(bytes, rows))
            except ValueError:  # bytes() refuses symbols outside 0..255
                pass
            else:
                a = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), n)
        ok = a is not None and (not a.size or a.max() < fld.q)
    if not ok:
        for r in rows.tolist() if isinstance(rows, np.ndarray) else rows:
            if len(r) != n:
                raise ValueError(f"row of length {len(r)} in a code of length {n}")
            for v in r:
                if not 0 <= v < fld.q:
                    raise ValueError(f"symbol {v} out of range for F_{fld.q}")
    return a.astype(np.uint8, copy=False)


class FieldCode:
    """A linear [n, k] code over F_q, stored by its canonical RREF basis.

    It is built from `rows`, a sequence of rows or a 2-D array of symbol
    indices, which is validated (ValueError) and row-reduced by `rref`.
    `matrix` is the basis as a read-only k x n uint8 array of symbol
    indices and `pivots` its pivot columns.  Two FieldCode objects compare
    equal exactly when they have the same row space, that is the same
    basis.  `cache` holds what other modules derive from the row space and
    reuse (the equivalence engine's refinement profiles); it is freed with
    the object and takes no part in equality.
    """

    def __init__(self, fld: FieldSpec, n: int, rows):
        if n < 1:
            raise ValueError("length must be positive")
        self.field = fld
        self.n = n
        self.matrix, self.pivots = rref(fld, n, _symbols(fld, n, rows))
        self.k = len(self.pivots)
        self.cache: dict = {}

    def __eq__(self, other):
        return (
            isinstance(other, FieldCode)
            and other.field.q == self.field.q
            and other.n == self.n
            and other.matrix.tobytes() == self.matrix.tobytes()
        )

    def __hash__(self):
        return hash((self.field.q, self.n, self.matrix.tobytes()))

    def __repr__(self):
        return f"FieldCode(q={self.field.q}, n={self.n}, k={self.k})"


def _matmul(fld, a, b):
    """a*b over F_q, for uint8 arrays of symbol indices."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    if fld.q != 4:
        return (a @ b % fld.q).astype(np.uint8)
    # (a0 + a1 w)(b0 + b1 w) = (a0 b0 + a1 b1) + (a0 b1 + a1 b0 + a1 b1) w
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    p11 = a1 @ b1
    c0 = (a0 @ b0 + p11) & 1
    c1 = (a0 @ b1 + a1 @ b0 + p11) & 1
    return (c0 | c1 << 1).astype(np.uint8)


def _in_span(code: FieldCode, g, words) -> bool:
    """True if every row of `words` lies in the code: w = w[pivots]*G."""
    coeffs = words[:, list(code.pivots)]
    return not (words != _matmul(code.field, coeffs, g)).any()


def is_euclidean_self_dual(code: FieldCode) -> bool:
    """dim = n/2 and all generator pairs orthogonal under the plain dot
    product (no conjugation; over F_4 this is the Euclidean form)."""
    if code.n % 2 or code.k != code.n // 2:
        return False
    g = code.matrix
    return not _matmul(code.field, g, g.T).any()


def is_shift_invariant(code: FieldCode, step: int) -> bool:
    """True if shifting every coordinate forward by `step` preserves the code."""
    g = code.matrix
    return _in_span(code, g, np.roll(g, step, axis=1))


def expand(rc) -> FieldCode:
    """Image of a ring code as an m*ell field code, row-reduced once per
    code: it is kept on `rc` and returned by `rc.expansion()` as well.

    Each generator row r contributes the field rows of r, Y*r, ...,
    Y^(m-1)*r; field position i*ell + j carries the Y^i coefficient of
    ring coordinate j, which in Y^s*r is coefficient (i - s) mod m of r_j.
    """
    if rc._expansion is None:
        spec = rc.spec
        m, ell = spec.m, rc.ell
        i = np.arange(m)
        # [r, s, i, j] = coefficient (i - s) mod m of r_j
        frows = rc.coeffs.transpose(0, 2, 1)[:, (i - i[:, None]) % m]
        rc._expansion = FieldCode(spec.field, m * ell, frows.reshape(-1, m * ell))
    return rc._expansion


def collapse(code: FieldCode, m: int, ell: int):
    """Inverse of expand: read a shift-invariant field code as a code over R.

    Raises ValueError when the length does not factor or the code is not
    invariant under the shift by ell.
    """
    from .rcode import RingCode
    from .ring import ring

    if code.n != m * ell:
        raise ValueError(f"length {code.n} is not m*ell = {m}*{ell}")
    if not is_shift_invariant(code, ell):
        raise ValueError(f"code is not invariant under the shift by {ell}")
    rrows = code.matrix.reshape(code.k, m, ell).transpose(0, 2, 1)
    return RingCode(ring(code.field.q, m), ell, rrows.tolist())


def gray_image(code: FieldCode) -> FieldCode:
    """Binary image of an F_4 code under a + b*w -> (a XOR b, a).

    Symbol s written as x*w + y*w^2 maps to the bit pair (x, y); the
    image word is all x parts followed by all y parts, so an [n, k]
    F_4 code maps to a binary [2n, 2k] code (as an F_2 space).
    """
    if code.field.q != 4:
        raise ValueError("gray_image is defined for F_4 codes only")
    g = code.matrix
    # rows and w*rows (times w: 1 -> w -> w^2 -> 1), then (x parts | y parts)
    words = np.stack([g, np.array([0, 2, 3, 1], dtype=np.uint8)[g]], axis=1)
    bits = np.concatenate([(words & 1) ^ (words >> 1), words & 1], axis=2)
    return FieldCode(field(2), 2 * code.n, bits.reshape(-1, 2 * code.n))
