"""Building-up constructions for self-dual codes over R.

Seeds are the shortest self-dual codes: [1 c] with c*conj(c) = -1 when
char 2 or q = 1 mod 4, and a fixed 2x4 matrix built from a solution of
a^2 + b^2 = -1 when q = 3 mod 4.  The [1 c] seeds are level 2 of
`classify`: it starts from one c per orbit under the block-rotation units
(`c_reps`), sorts those codes into classes, and on the rings where the
classification is exhaustive certifies the classes complete by the mass
identity.  `extend_i` grows a self-dual code by two columns and one row,
`extend_ii` by four columns and two rows; both preserve self-duality for
every valid witness.  `reduce` inverts extend_i from the standard form's
first two unit columns and is used as a verification oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, UnsupportedCase
from .gf import sum_of_squares_minus_one
from .qc import _in_span, _matmul
from .rcode import RingCode
from .ring import RingSpec


def minus_one_elem(spec: RingSpec):
    return spec.neg(spec.one)


def norm_minus_one_elements(spec: RingSpec):
    """All c in R with c*conj(c) = -1, in lexicographic order."""
    return tuple(spec.norm_classes().get(minus_one_elem(spec), ()))


def seed(spec: RingSpec):
    """All shortest self-dual codes over R, one per equivalence class of
    their expansions, each the first of its class in lexicographic order
    of c.  For char 2 and q = 1 mod 4 these are the classes of level 2 of
    `classify`."""
    if spec.field.residue_class in ("char-2", "1-mod-4"):
        from .classify import classify

        return [cc.code for cc in classify(spec, 2, constructive=True).classes]

    a, b = sum_of_squares_minus_one(spec.field)
    alpha = (a,) + (0,) * (spec.m - 1)
    beta = (b,) + (0,) * (spec.m - 1)
    one, zero = spec.one, spec.zero
    rows = [
        (one, zero, alpha, beta),
        (zero, one, spec.neg(beta), alpha),
    ]
    return [RingCode(spec, 4, rows)]


def _check(cond: bool, identity: str):
    if not cond:
        raise ConstructionError(f"witness violates {identity}")


def _minus_pairings(base: RingCode, *xs):
    """-<r, x> for every base row r, side by side for each x in `xs`: one
    (rows, len(xs)*m) list of coefficient lists, from one F_q product.

    <r, x>_t = sum over j and a of r_j[a] * x_j[(a - t) mod m], since
    conj(x_j) has x_j[-b mod m] at Y^b; so the row of r's coefficients
    times the (ell*m x m) circulant of -x, C[j*m + a, t] = -x_j[(a - t) mod m],
    gives -<r, x>.
    """
    sp = base.spec
    m = sp.m
    i = np.arange(m)
    neg = np.array([[sp.neg(e) for e in x] for x in xs], dtype=np.uint8)
    # [x, j, a, t] = -x_j[(a - t) mod m]
    circ = neg[:, :, (i[:, None] - i) % m]
    cols = circ.transpose(1, 2, 0, 3).reshape(base.ell * m, len(xs) * m)
    rows = base.coeffs.reshape(len(base.rows), base.ell * m)
    return _matmul(sp.field, rows, cols).tolist()


def extend_i(base: RingCode, c, x) -> RingCode:
    """Two new columns and one new row: (1, 0 | x) on top, each base row
    r continues as (y, c*y | r) with y = -<r, x>."""
    sp = base.spec
    if sp.field.residue_class == "3-mod-4":
        raise ConstructionError(
            f"branch i needs char 2 or q = 1 mod 4; q = {sp.q} is 3 mod 4"
        )
    x = tuple(tuple(e) for e in x)
    if len(x) != base.ell:
        raise ConstructionError(
            f"x has length {len(x)}, base has length {base.ell}"
        )
    minus1 = minus_one_elem(sp)
    _check(sp.mul(c, sp.conj(c)) == minus1, "c*conj(c) = -1")
    _check(sp.hermitian_ip(x, x) == minus1, "<x, x> = -1")
    _check(base.is_self_dual(), "base self-dual")
    rows = [(sp.one, sp.zero) + x]
    for y, r in zip(_minus_pairings(base, x), base.rows):
        y = tuple(y)
        rows.append((y, sp.mul(c, y)) + r)
    return RingCode(sp, base.ell + 2, rows)


def extend_ii(base: RingCode, alpha, beta, x1, x2) -> RingCode:
    """Four new columns and two new rows for q = 3 mod 4: (1,0,0,0 | x1),
    (0,1,0,0 | x2), and each base row r continues as
    (s, t, alpha*s + beta*t, beta*s - alpha*t | r) with s = -<r, x1>,
    t = -<r, x2>."""
    sp = base.spec
    if sp.field.residue_class != "3-mod-4":
        raise ConstructionError(
            f"branch ii needs q = 3 mod 4; q = {sp.q} is not"
        )
    if base.ell % 4 != 0:
        raise ConstructionError(
            f"branch ii needs base length 2L with L even; length {base.ell}"
        )
    x1 = tuple(tuple(e) for e in x1)
    x2 = tuple(tuple(e) for e in x2)
    if len(x1) != base.ell or len(x2) != base.ell:
        raise ConstructionError("x1/x2 length must match the base length")
    minus1 = minus_one_elem(sp)
    aa = sp.mul(alpha, sp.conj(alpha))
    bb = sp.mul(beta, sp.conj(beta))
    _check(sp.add(aa, bb) == minus1, "alpha*conj(alpha) + beta*conj(beta) = -1")
    _check(
        sp.mul(alpha, sp.conj(beta)) == sp.mul(sp.conj(alpha), beta),
        "alpha*conj(beta) = conj(alpha)*beta",
    )
    _check(sp.hermitian_ip(x1, x1) == minus1, "<x1, x1> = -1")
    _check(sp.hermitian_ip(x2, x2) == minus1, "<x2, x2> = -1")
    _check(sp.hermitian_ip(x1, x2) == sp.zero, "<x1, x2> = 0")
    _check(base.is_self_dual(), "base self-dual")
    one, zero = sp.one, sp.zero
    rows = [
        (one, zero, zero, zero) + x1,
        (zero, one, zero, zero) + x2,
    ]
    m = sp.m
    for st, r in zip(_minus_pairings(base, x1, x2), base.rows):
        s, t = tuple(st[:m]), tuple(st[m:])
        y = (
            s,
            t,
            sp.add(sp.mul(alpha, s), sp.mul(beta, t)),
            sp.sub(sp.mul(beta, s), sp.mul(alpha, t)),
        )
        rows.append(y + r)
    return RingCode(sp, base.ell + 4, rows)


def reduce(code: RingCode) -> RingCode:
    """Invert extend_i: a self-dual code of length ell - 2 that extend_i takes
    back to this code in the standard form's column order.

    The standard form's rows are (1, 0 | x), (0, 1 | x') and (0, 0 | w).
    Self-duality gives <x, x> = <x', x'> = -1, <x, x'> = 0 and each w
    orthogonal to x and x'.  With c the first element with c*conj(c) = -1,
    the base rows x' - conj(c)*x and w are self-orthogonal, and
    extend_i(base, c, x) has the rows (1, 0 | x), (0, 0 | w) and
    (-conj(c), 1 | x' - conj(c)*x) = (0, 1 | x') - conj(c)*(1, 0 | x): it
    is the permuted code, so the base is self-dual by its dimension.
    """
    sp = code.spec
    if sp.field.residue_class == "3-mod-4":
        raise UnsupportedCase("reduction implemented for branch i fields only")
    if code.ell < 4:
        raise UnsupportedCase(f"length {code.ell} is below the reducible minimum 4")
    if not code.is_self_dual():
        raise UnsupportedCase("input is not self-dual")
    sf = code.standard_form()
    if sf.k1 < 2:
        raise UnsupportedCase(f"{sf.k1} unit columns; the converse needs at least 2")
    c = norm_minus_one_elements(sp)[0]
    cbar = sp.conj(c)
    first, second, *rest = sf.rows
    x = first[2:]
    base_rows = [tuple(sp.sub(b, sp.mul(cbar, a)) for a, b in zip(x, second[2:]))]
    base = RingCode(sp, code.ell - 2, base_rows + [r[2:] for r in rest])
    # the permuted code equals the extension: the same dimension, and the
    # permuted rows of the code's expansion lie in the extension's
    ex, back = code.expansion(), extend_i(base, c, x).expansion()
    cols = (np.arange(sp.m)[:, None] * code.ell + sf.col_perm).ravel()
    if back.k != ex.k or not _in_span(back, back.matrix, ex.matrix[:, cols]):
        raise RuntimeError("the reduced base does not extend back to the code")
    return base
