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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .qc import FieldCode, expand, is_euclidean_self_dual, rref
from .ring import CrtPair, RingSpec


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

    Rows are tuples of ring elements (coefficient tuples).  Zero rows
    are dropped; the row list is otherwise kept as given, since over R
    there is no canonical echelon form without the CRT structure.
    """

    def __init__(self, spec: RingSpec, ell: int, rows):
        if ell < 1:
            raise ValueError("ell must be positive")
        clean = []
        for r in rows:
            r = tuple(tuple(e) for e in r)
            if len(r) != ell:
                raise ValueError(f"row of length {len(r)} in a code of length {ell}")
            for e in r:
                if len(e) != spec.m:
                    raise ValueError("ring element with wrong number of coefficients")
                for v in e:
                    if not 0 <= v < spec.q:
                        raise ValueError(f"coefficient {v} out of range for F_{spec.q}")
            if any(v for e in r for v in e):
                clean.append(r)
        if not clean:
            raise ValueError("code has no nonzero generators")
        self.spec = spec
        self.ell = ell
        self.rows = tuple(clean)
        self._expansion = None
        self._self_dual = None

    @property
    def q(self):
        return self.spec.q

    @property
    def m(self):
        return self.spec.m

    def expansion(self) -> FieldCode:
        if self._expansion is None:
            self._expansion = expand(self)
        return self._expansion

    def same_row_space(self, other: "RingCode") -> bool:
        return (
            self.q == other.q
            and self.m == other.m
            and self.ell == other.ell
            and self.expansion() == other.expansion()
        )

    def permute_columns(self, perm) -> "RingCode":
        """New code whose column j is this code's column perm[j]."""
        rows = [tuple(r[perm[j]] for j in range(self.ell)) for r in self.rows]
        return RingCode(self.spec, self.ell, rows)

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


def component_forms(code: RingCode, shared: bool = False):
    """The two component codes of `code` under R = F_q x K, in echelon form.

    Component 1 is eval1 of the rows over F_q and component 2 is mod_phi of
    the rows over K = `residue_field()`; `code` is their product.  Both are
    echelonised in natural column order, except that component 1's pivots
    lead in component 2 when `shared`.  Each form maps a pivot column to its
    basis row, in pivot order; a row holds 1 at its pivot, 0 at the others.
    """
    sp = code.spec
    ell = code.ell
    forms = []
    lead = ()
    for fld, split in ((sp.field, sp.eval1), (sp.residue_field(), sp.mod_phi)):
        order = list(lead) + [j for j in range(ell) if j not in lead]
        basis, pivots = rref(fld, ell, [[split(r[j]) for j in order] for r in code.rows])
        form = {}
        for row, p in zip(basis, pivots):
            full = [None] * ell
            for j, v in zip(order, row):
                full[j] = v
            form[order[p]] = full
        forms.append(form)
        if shared:
            lead = tuple(form)
    return forms


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
    row with only a component-1 pivot b, scaled by p = PHI(1), holds PHI at
    b; one with only a component-2 pivot a, scaled by the residue of Y - 1,
    holds Y - 1 at a; the k2 block pairs one of each.  With no path left,
    none of them meets the other side's pivots: the block shape is exact.
    """
    sp = code.spec
    sp._require_cyclotomic("standard_form")
    ell = code.ell
    f1, f2 = sp.field, sp.residue_field()
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
    ya = sp.mod_phi(sp.sub(sp.y, sp.one))
    scaled1 = [[f1.mul(sp.p_in_field, v) for v in e1[b]] for b in only1]
    scaled2 = [[f2.mul(ya, v) for v in e2[a]] for a in only2]
    pairs = [(e1[s], e2[s]) for s in units] + list(zip_longest(scaled1, scaled2))
    rows = [
        [sp.crt_combine(CrtPair(a, b)) for a, b in zip(r1 or [0] * ell, r2 or [f2.zero] * ell)]
        for r1, r2 in pairs
    ]
    single = only1[k2:] or only2[k2:]
    col_order = units + only2[:k2] + only1[:k2] + single
    col_order += [c for c in range(ell) if c not in col_order]
    return StandardForm(
        k1=len(units),
        k2=k2,
        k3=len(single),
        rows=tuple(tuple(r[c] for c in col_order) for r in rows),
        col_perm=tuple(col_order),
        alpha_branch=("phi" if only1[k2:] else "Y-1") if single else None,
    )
