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
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec, field


def rref(fld, n: int, rows):
    """Reduced row echelon form over F_q or the residue field of R.

    `fld` is a FieldSpec or a `ring.ResidueField`.  Returns (basis_rows,
    pivot_columns); zero rows are dropped.  The result is canonical for
    the row space.
    """
    if fld.q == 2:
        masks = []
        for r in rows:
            x = 0
            for j, v in enumerate(r):
                if v:
                    x |= 1 << j
            masks.append(x)
        basis, pivots = _rref_gf2(masks)
        out = tuple(
            tuple((x >> j) & 1 for j in range(n)) for x in basis
        )
        return out, tuple(pivots)

    zero = fld.zero
    work = [list(r) for r in rows]
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
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def _rref_gf2(masks):
    """RREF of GF(2) rows given as bit masks (bit j = column j)."""
    basis = []
    pivots = []
    for x in masks:
        for p, b in zip(pivots, basis):
            if (x >> p) & 1:
                x ^= b
        if x == 0:
            continue
        p = (x & -x).bit_length() - 1
        for i in range(len(basis)):
            if (basis[i] >> p) & 1:
                basis[i] ^= x
        # keep rows ordered by pivot
        at = 0
        while at < len(pivots) and pivots[at] < p:
            at += 1
        pivots.insert(at, p)
        basis.insert(at, x)
    return basis, pivots


class FieldCode:
    """A linear [n, k] code over F_q, stored by its canonical RREF basis.

    Two FieldCode objects compare equal exactly when they have the same
    row space.  `cache` holds what other modules derive from the row space
    and reuse (the equivalence engine's refinement profiles); it is freed
    with the object and takes no part in equality.
    """

    def __init__(self, fld: FieldSpec, n: int, rows):
        if n < 1:
            raise ValueError("length must be positive")
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != n:
                raise ValueError(f"row of length {len(r)} in a code of length {n}")
            for v in r:
                if not 0 <= v < fld.q:
                    raise ValueError(f"symbol {v} out of range for F_{fld.q}")
        self.field = fld
        self.n = n
        self.rows, self.pivots = rref(fld, n, rows)
        self.k = len(self.rows)
        self.cache: dict = {}

    def key(self) -> bytes:
        """Canonical bytes for the row space (dedup key)."""
        return bytes([self.field.q, self.n % 256, self.n // 256]) + b"".join(
            bytes(r) for r in self.rows
        )

    def __eq__(self, other):
        return (
            isinstance(other, FieldCode)
            and other.field.q == self.field.q
            and other.n == self.n
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field.q, self.n, self.rows))

    def __repr__(self):
        return f"FieldCode(q={self.field.q}, n={self.n}, k={self.k})"


def _matrix(code: FieldCode):
    """The RREF basis as a k x n uint8 array."""
    return np.array(code.rows, dtype=np.uint8).reshape(code.k, code.n)


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
    g = _matrix(code)
    return not _matmul(code.field, g, g.T).any()


def is_shift_invariant(code: FieldCode, step: int) -> bool:
    """True if shifting every coordinate forward by `step` preserves the code."""
    g = _matrix(code)
    return _in_span(code, g, np.roll(g, step, axis=1))


def expand(rc) -> FieldCode:
    """Image of a ring code as an m*ell field code.

    Each generator row r contributes the field rows of r, Y*r, ...,
    Y^(m-1)*r; field position i*ell + j carries the Y^i coefficient of
    ring coordinate j.
    """
    spec = rc.spec
    m, ell = spec.m, rc.ell
    n = m * ell
    frows = []
    for row in rc.rows:
        shifted = row
        for _ in range(m):
            out = [0] * n
            for j, entry in enumerate(shifted):
                for i in range(m):
                    out[i * ell + j] = entry[i]
            frows.append(tuple(out))
            shifted = tuple(spec.shift(e, 1) for e in shifted)
    return FieldCode(spec.field, n, frows)


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
    spec = ring(code.field.q, m)
    rrows = []
    for row in code.rows:
        rrows.append(tuple(tuple(row[i * ell + j] for i in range(m)) for j in range(ell)))
    return RingCode(spec, ell, rrows)


def gray_image(code: FieldCode) -> FieldCode:
    """Binary image of an F_4 code under a + b*w -> (a XOR b, a).

    Symbol s written as x*w + y*w^2 maps to the bit pair (x, y); the
    image word is all x parts followed by all y parts, so an [n, k]
    F_4 code maps to a binary [2n, 2k] code (as an F_2 space).
    """
    if code.field.q != 4:
        raise ValueError("gray_image is defined for F_4 codes only")
    f2 = field(2)
    f4 = code.field
    out = []
    for row in code.rows:
        for scaled in (row, tuple(f4.mul(2, v) for v in row)):
            x = tuple(((v & 1) ^ (v >> 1)) for v in scaled)
            y = tuple((v & 1) for v in scaled)
            out.append(x + y)
    return FieldCode(f2, 2 * code.n, out)
