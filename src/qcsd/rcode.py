"""Linear codes over R = F_q[Y]/(Y^m - 1) and their standard form.

When m is a prime p with q primitive mod p, Y^m - 1 factors as
(Y - 1) * PHI with PHI = 1 + Y + ... + Y^(p-1) irreducible, R splits as
F_q x K with K = F_q[Y]/PHI, and every generator matrix can be brought,
up to row operations and a column permutation, to the block shape

    [ I_k1 |  *        *        *    ]
    [  0   | (Y-1)I_k2 PHI*I_k2  *    ]
    [  0   |  0        0      alpha*I_k3 ... ]

where alpha is Y-1 or PHI.  k1 is the largest number of coordinates on
which the code projects onto R^k1: the largest column set independent in
both component codes.  `standard_form` computes that shape from the two
component echelon forms.

The two components are the ideals e_1*R, a copy of F_q, and e_phi*R, a
copy of K (see `ring`): a row r splits as eval1(r) * e_1 + e_phi * r.  K has
the F_q basis 1, Y, ..., Y^(p-2) of mod-Phi coefficients, so a code over K
of length ell is, as an F_q space, the code of length ell*(p-1) spanned by
the rows Y^s * r, s < p - 1, each K entry written as its p - 1
coefficients.  Its F_q RREF is the set of rows Y^s * b over the K RREF rows
b: Y^s * b is zero left of b's pivot block, holds the unit vector e_s on
that block and zero on every other pivot block, which is the RREF shape,
and the RREF is unique.  So K is echelonised by the F_q kernels of
`qc.rref`, its basis rows are the F_q basis rows whose pivot is the first
coefficient of a block, and they are lifted into e_phi*R.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, zip_longest
from numbers import Integral

import numpy as np

from .qc import FieldCode, _matmul, expand, is_euclidean_self_dual, rref
from .ring import RingSpec


@dataclass(frozen=True)
class StandardForm:
    """The block shape of a code, in permuted coordinates.

    k1 counts the unit columns: the largest number of coordinates on which
    the code projects onto R^k1.  k2 counts the rows (Y-1 | PHI) on two
    further columns, and k3 the rows with a single pivot alpha.
    """

    k1: int
    k2: int
    k3: int
    rows: tuple  # generator rows in block order, in the permuted coordinates
    col_perm: tuple  # col_perm[new_position] = original column index
    alpha_branch: str | None  # "Y-1" or "phi" when k3 > 0


class RingCode:
    """A code over R given by generator rows (not necessarily free).

    Rows are tuples of ring elements (coefficient tuples); `coeffs` holds
    the same rows as a (rows, ell, m) uint8 array.  Zero rows are dropped;
    the row list is otherwise kept as given, since over R there is no
    canonical echelon form without the CRT structure.
    """

    def __init__(self, spec: RingSpec, ell: int, rows):
        if ell < 1:
            raise ValueError("ell must be positive")
        rows = [tuple(map(tuple, r)) for r in rows]
        coeffs = _coefficients(spec, ell, rows)
        nonzero = coeffs.reshape(len(rows), ell * spec.m).any(axis=1)
        if not nonzero.any():
            raise ValueError("code has no nonzero generators")
        self.spec = spec
        self.ell = ell
        self.rows = tuple(compress(rows, nonzero))
        self.coeffs = coeffs[nonzero]
        self._expansion = None
        self._self_dual = None

    @property
    def q(self):
        return self.spec.q

    @property
    def m(self):
        return self.spec.m

    def expansion(self) -> FieldCode:
        return expand(self)

    def is_self_dual(self) -> bool:
        """Self-dual under the hermitian product, decided in the field image:
        the expansion must be self-orthogonal of dimension m*ell/2."""
        if self._self_dual is None:
            self._self_dual = is_euclidean_self_dual(self.expansion())
        return self._self_dual

    def standard_form(self) -> StandardForm:
        return _standard_form(self)

    def __repr__(self):
        return f"RingCode(q={self.q}, m={self.m}, ell={self.ell}, rows={len(self.rows)})"


def _coefficients(spec: RingSpec, ell: int, rows):
    """`rows`, tuples of element tuples, as a (len(rows), ell, m) uint8 array.

    Raises ValueError for the first row, in the order given, that is not ell
    elements of m integer coefficients in 0..q-1.  All rows are checked in
    one bytes buffer; the loop runs only to name the first bad row, since
    bytes() refuses a float and a coefficient outside 0..255 each in its own
    way and lets 2..255 through.
    """
    m = spec.m
    try:
        parts = list(map(bytes, chain.from_iterable(rows)))
    except (TypeError, ValueError):
        parts = None
    if parts is not None and set(map(len, rows)) <= {ell} and set(map(len, parts)) <= {m}:
        a = np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(len(rows), ell, m)
        if not a.size or a.max() < spec.q:
            return a
    for r in rows:
        if len(r) != ell:
            raise ValueError(f"row of length {len(r)} in a code of length {ell}")
        for e in r:
            if len(e) != m:
                raise ValueError("ring element with wrong number of coefficients")
            for v in e:
                if not (isinstance(v, Integral) and 0 <= v < spec.q):
                    raise ValueError(f"coefficient {v} out of range for F_{spec.q}")
    raise AssertionError("unreachable: a row failed the buffer check")


def component_forms(code: RingCode, shared: bool = False):
    """The two component codes of `code` under R = e_1*R + e_phi*R, in
    echelon form.

    Component 1 is eval1 of the rows, over F_q, and component 2 is e_phi
    times the rows, over K = e_phi*R; `code` is their product.  Both are
    echelonised in natural column order, except that component 1's pivots
    lead in component 2 when `shared`.  Each form maps a pivot column to its
    basis row, in pivot order; a row holds 1 (e_phi) at its pivot, 0 at the
    others.  Component 1's entries are field indices, component 2's are
    ring elements of e_phi*R, echelonised through their mod-Phi
    coefficients (see the module docstring).
    """
    sp = code.spec
    sp._require_cyclotomic("residue field arithmetic")
    ell, m, k = code.ell, sp.m, len(code.rows)
    i = np.arange(m)
    # [r, s, j, i] = coefficient i of Y^s * r_j, which is coefficient
    # (i - s) mod m of r_j, for s < p - 1
    shifted = code.coeffs[:, :, (i - i[: m - 1, None]) % m].transpose(0, 2, 1, 3)
    split = _matmul(sp.field, shifted.reshape(-1, m), _split_matrix(sp))
    split = split.reshape(k, m - 1, ell, m)
    images = (split[:, 0, :, m - 1 :], split[..., : m - 1].reshape(k * (m - 1), ell, m - 1))
    forms = []
    lead = ()
    for image, lift in zip(images, (None, _lift_matrix(sp))):
        width = image.shape[2]
        order = list(lead) + [j for j in range(ell) if j not in lead]
        flat = image[:, order].reshape(len(image), ell * width)
        basis, pivots = rref(sp.field, ell * width, flat)
        # the other basis rows are Y^s times a K basis row, s > 0
        keep = [p % width == 0 for p in pivots]
        rows = basis[np.array(keep, dtype=bool)].reshape(-1, width)
        if lift is None:
            entries = rows[:, 0].tolist()
        else:
            entries = list(map(tuple, _matmul(sp.field, rows, lift).tolist()))
        form = {}
        for at, p in enumerate(compress(pivots, keep)):
            full = [None] * ell
            for j, e in zip(order, entries[at * ell : (at + 1) * ell]):
                full[j] = e
            form[order[p // width]] = full
        forms.append(form)
        if shared:
            lead = tuple(form)
    return forms


def _split_matrix(sp: RingSpec):
    """The m x m matrix over F_q that takes a ring element's coefficients
    to its mod-Phi coefficients (the first p - 1 columns) and eval1 (the
    last)."""
    m = sp.m
    mat = np.zeros((m, m), dtype=np.uint8)
    mat[: m - 1, : m - 1] = np.eye(m - 1, dtype=np.uint8)
    mat[m - 1, : m - 1] = sp.field.neg(1)  # Y^(p-1) = -(1 + Y + ... + Y^(p-2))
    mat[:, m - 1] = 1
    return mat


def _lift_matrix(sp: RingSpec):
    """The (p - 1) x m matrix over F_q that lifts mod-Phi coefficients into
    e_phi*R: its row i is e_phi * Y^i = Y^i - e_1."""
    return np.array(
        [sp.sub(sp.shift(sp.one, i), sp.e1) for i in range(sp.m - 1)], dtype=np.uint8
    )


def _augmenting_path(e1, e2, zero2, unit, ell):
    """A shortest augmenting path y0, x1, y1, ..., xm, ym for the unit
    columns `unit`, or None when no larger set exists.

    A column y outside `unit` is free on a side when that side's form has a
    nonzero entry at y in a row whose pivot is outside `unit`; otherwise it
    may replace exactly the x in `unit` with form[x][y] != 0.  y0 is free on
    side 1 and ym on side 2; side 1 lets y_i replace x_i, side 2 lets
    y_(i-1) replace x_i.
    """
    xs = sorted(unit)
    outside = [y for y in range(ell) if y not in unit]

    def free(form, zero):
        rows = [row for p, row in form.items() if p not in unit]
        return [y for y in outside if any(r[y] != zero for r in rows)]

    sinks = set(free(e2, zero2))
    prev = {}
    queue = []
    for y in free(e1, 0):
        if y in sinks:
            return [y]
        prev[y] = None
        queue.append(y)
    for node in queue:
        if node in unit:
            row = e1[node]
            step = [y for y in outside if y not in prev and row[y] != 0]
        else:
            step = [x for x in xs if x not in prev and e2[x][node] != zero2]
        for v in step:
            prev[v] = node
            if v in sinks:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(v)
    return None


def _exchange(fld, form, old, new):
    """Move the pivot of row `old` to column `new` (form[old][new] != 0)."""
    row = form.pop(old)
    inv = fld.inv(row[new])
    row = [fld.mul(inv, v) for v in row]
    for key, other in form.items():
        c = other[new]
        if c != fld.zero:
            form[key] = [fld.sub(a, fld.mul(c, b)) for a, b in zip(other, row)]
    form[new] = row


def _standard_form(code: RingCode) -> StandardForm:
    """The block shape from the component echelon forms.

    The unit columns are a largest column set independent in both component
    codes (matroid intersection: Edmonds 1970; Schrijver, Combinatorial
    Optimization, ch. 41).  They start as the pivots the two forms share and
    grow along shortest augmenting paths, which move pivots of the same
    forms: along a shortest path the exchanges are triangular, so side 1's
    in path order and side 2's in reverse order never meet a zero pivot.  A
    row with only a component-1 pivot b, scaled by p = PHI(1), holds
    p * e_1 = PHI at b; one with only a component-2 pivot a, scaled by
    Y - 1, holds (Y - 1) * e_phi = Y - 1 at a; the k2 block pairs one of
    each.  With no path left, none of them meets the other side's pivots:
    the block shape is exact.
    """
    sp = code.spec
    sp._require_cyclotomic("standard_form")
    ell = code.ell
    f1, f2 = sp.field, sp.phi_field()
    e1, e2 = component_forms(code, shared=True)
    unit = {j for j in e1 if j in e2}
    while (path := _augmenting_path(e1, e2, f2.zero, unit, ell)) is not None:
        ys, xs = path[0::2], path[1::2]
        for fld, form, start, steps in (
            (f1, e1, ys[0], zip(xs, ys[1:])),
            (f2, e2, ys[-1], reversed(list(zip(xs, ys)))),
        ):
            free = next(p for p, r in form.items() if p not in unit and r[start] != fld.zero)
            _exchange(fld, form, free, start)
            for x, y in steps:
                _exchange(fld, form, x, y)
        unit = unit.difference(xs).union(ys)

    units = sorted(unit)
    only1 = sorted(b for b in e1 if b not in unit)
    only2 = sorted(a for a in e2 if a not in unit)
    k2 = min(len(only1), len(only2))
    ym1 = sp.sub(sp.y, sp.one)  # in e_phi*R already, as (Y - 1) * e_1 = 0
    scaled1 = [[f1.mul(sp.p_in_field, v) for v in e1[b]] for b in only1]
    scaled2 = [[sp.mul(ym1, v) for v in e2[a]] for a in only2]
    pairs = [(e1[s], e2[s]) for s in units] + list(zip_longest(scaled1, scaled2))
    # each entry is u * e_1 + v: the row [u | v] times the rows e_1 and I_m
    parts = np.array(
        [
            [(a,) + b for a, b in zip(r1 or [0] * ell, r2 or [sp.zero] * ell)]
            for r1, r2 in pairs
        ],
        dtype=np.uint8,
    )
    assemble = np.vstack([sp.e1, np.eye(sp.m, dtype=np.uint8)])
    coeffs = _matmul(f1, parts.reshape(-1, sp.m + 1), assemble)
    rows = coeffs.reshape(len(pairs), ell, sp.m).tolist()
    single = only1[k2:] or only2[k2:]
    col_order = units + only2[:k2] + only1[:k2] + single
    col_order += [c for c in range(ell) if c not in col_order]
    return StandardForm(
        k1=len(units),
        k2=k2,
        k3=len(single),
        rows=tuple(tuple(tuple(r[c]) for c in col_order) for r in rows),
        col_perm=tuple(col_order),
        alpha_branch=("phi" if only1[k2:] else "Y-1") if single else None,
    )
