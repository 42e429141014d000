"""Linear codes over R = F_q[Y]/(Y^m - 1) and their standard form.

When m is a prime p with q primitive mod p, Y^m - 1 factors as
(Y - 1) * PHI with PHI = 1 + Y + ... + Y^(p-1) irreducible, and every
generator matrix can be reduced, up to row operations and a column
permutation, to the block shape

    [ I_k1 |  *        *        *    ]
    [  0   | (Y-1)I_k2 PHI*M    *    ]
    [  0   |  0        0      alpha*I_k3 ... ]

where M is diagonal with nonzero entries from F_q and alpha is Y-1 or
PHI.  `standard_form` computes that reduction; k1 is the free rank of
the code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qc import FieldCode, expand, is_euclidean_self_dual, rref
from .ring import CrtPair, RingSpec


@dataclass(frozen=True)
class StandardForm:
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


def _standard_form(code: RingCode) -> StandardForm:
    """Reduce by row operations, tracking pivot columns by id; a single
    column permutation is applied at the end.

    The reduction loops over three phases.  Unit pivots form the I_k1
    block.  A row with nonzero entries in both maximal ideals <Y-1> and
    <PHI> is normalised to a (Y-1, scalar*PHI) pivot pair; since
    (Y-1)*PHI = 0, the two pivot columns can be cleared independently in
    every other non-unit row.  Whenever an entry of the wrong ideal sits
    in a pivot column, adding the pivot row produces a unit there, so the
    whole reduction restarts with a strictly larger k1.  Rows left over
    generate over one residue field only and are echelonised there; if
    both residue types remain, a pair is merged into a two-ideal row
    (strictly growing k2) and the loop repeats.
    """
    sp = code.spec
    sp._require_cyclotomic("standard_form")
    ell = code.ell
    rows = [list(r) for r in code.rows]
    res = sp.residue_field()
    ya = sp.mod_phi(sp.sub(sp.y, sp.one))  # Psi2 image of Y-1, nonzero
    inv_ya = res.inv(ya)

    def split1(e):
        return sp.eval1(e)

    def row_sub_scaled(dst, src, lam):
        for j in range(ell):
            dst[j] = sp.sub(dst[j], sp.mul(lam, src[j]))

    def row_add(dst, src):
        for j in range(ell):
            dst[j] = sp.add(dst[j], src[j])

    def row_scale(r, u):
        for j in range(ell):
            r[j] = sp.mul(r[j], u)

    while True:
        rows = [r for r in rows if any(any(e) for e in r)]

        # Unit pivots: scan columns left to right, rows top-down.
        unit_cols = []
        done = 0
        progress = True
        while progress:
            progress = False
            for col in range(ell):
                if col in unit_cols:
                    continue
                for i in range(done, len(rows)):
                    e = rows[i][col]
                    if sp.is_unit(e):
                        rows[done], rows[i] = rows[i], rows[done]
                        row_scale(rows[done], sp.inv(e))
                        for t in range(len(rows)):
                            if t != done and any(rows[t][col]):
                                row_sub_scaled(rows[t], rows[done], rows[t][col])
                        unit_cols.append(col)
                        done += 1
                        progress = True
                        break
                if progress:
                    break
        k1 = done
        rows = rows[:k1] + [r for r in rows[k1:] if any(any(e) for e in r)]

        # Two-ideal rows become (Y-1, scalar*PHI) pivot pairs.
        restart = False
        pair_a, pair_b = [], []
        i = k1
        while i < len(rows):
            row = rows[i]
            a = b = None
            for col in range(ell):
                if col in unit_cols or col in pair_a or col in pair_b:
                    continue
                e = row[col]
                if not any(e):
                    continue
                e1 = split1(e)
                ephi = sp.mod_phi(e)
                if e1 != 0 and any(ephi):
                    restart = True  # unit entry: created by an earlier subtraction
                    break
                if e1 == 0 and a is None:
                    a = col
                elif e1 != 0 and b is None:
                    b = col
                if a is not None and b is not None:
                    break
            if restart:
                break
            if a is None or b is None:
                i += 1
                continue
            # scale the row so the column-a entry becomes exactly Y-1
            ea = sp.mod_phi(row[a])
            u = sp.crt_combine(CrtPair(1, res.mul(ya, res.inv(ea))))
            row_scale(row, u)
            mb = split1(row[b])  # column-b entry is the PHI-multiple with this Psi1 value
            pos = k1 + len(pair_a)
            rows[pos], rows[i] = rows[i], rows[pos]
            rowr = rows[pos]
            inv_mb = sp.field.inv(mb)
            for t in range(k1, len(rows)):
                trow = rows[t]
                if trow is rowr:
                    continue
                bad_a = split1(trow[a]) != 0  # column a must stay inside <Y-1>
                bad_b = any(sp.mod_phi(trow[b]))  # column b must stay inside <PHI>
                if bad_a or bad_b:
                    row_add(trow, rowr)  # forces a unit into the offending column
                    restart = True
                    break
                # the pivots are Y-1 (component ya) and a PHI-multiple (mb)
                lam = sp.crt_combine(
                    CrtPair(
                        sp.field.mul(split1(trow[b]), inv_mb),
                        res.mul(sp.mod_phi(trow[a]), inv_ya),
                    )
                )
                if any(lam):
                    row_sub_scaled(trow, rowr, lam)
                    if any(sp.is_unit(e) for e in trow):
                        restart = True
                        break
            if restart:
                break
            pair_a.append(a)
            pair_b.append(b)
            i = k1 + len(pair_a)  # rescan: clearing may have mixed later rows

        if restart:
            continue
        k2 = len(pair_a)

        # Leftover rows are single-ideal; echelonise over the residue field.
        rest = [r for r in rows[k1 + k2:] if any(any(e) for e in r)]
        typeA, typeB = [], []  # <Y-1> rows as Psi2 components; <PHI> rows as Psi1
        for r in rest:
            if all(split1(e) == 0 for e in r):
                typeA.append((r, [sp.mod_phi(e) for e in r]))
            else:
                typeB.append((r, [split1(e) for e in r]))

        if typeA and typeB:
            merged = [sp.add(x, y) for x, y in zip(typeA[0][0], typeB[0][0])]
            # shared support: the sum has a unit there (k1 will grow);
            # disjoint support: the sum is a two-ideal row (k2 will grow)
            rows = (
                rows[: k1 + k2]
                + [merged]
                + [r for r, _ in typeA[1:]]
                + [r for r, _ in typeB]
            )
            continue

        free_cols = [
            c
            for c in range(ell)
            if c not in unit_cols and c not in pair_a and c not in pair_b
        ]
        # Pair clearing leaves these rows supported on the free columns, so
        # they are echelonised there, with pivots scaled to the component of
        # Y-1 (or to PHI(1) = p) so that the lifted pivots are Y-1 (or PHI).
        if typeA:
            fld, scale, alpha_branch = res, ya, "Y-1"
        else:
            fld, scale, alpha_branch = sp.field, sp.p_in_field, "phi"
        comps = [[comp[j] for j in free_cols] for _, comp in typeA or typeB]
        basis, free_piv = rref(fld, len(free_cols), comps)
        piv = [free_cols[p] for p in free_piv]
        lifted = []
        for r in basis:
            full = [sp.zero] * ell
            for j, c in zip(free_cols, r):
                c = fld.mul(scale, c)
                full[j] = sp.crt_combine(CrtPair(0, c) if typeA else CrtPair(c, res.zero))
            lifted.append(full)
        k3 = len(lifted)
        if k3 == 0:
            alpha_branch = None

        used = set(unit_cols) | set(pair_a) | set(pair_b) | set(piv)
        col_order = (
            list(unit_cols)
            + list(pair_a)
            + list(pair_b)
            + list(piv)
            + [c for c in range(ell) if c not in used]
        )
        out = [tuple(r[c] for c in col_order) for r in rows[: k1 + k2]]
        out += [tuple(r[c] for c in col_order) for r in lifted]
        return StandardForm(
            k1=k1,
            k2=k2,
            k3=k3,
            rows=tuple(out),
            col_perm=tuple(col_order),
            alpha_branch=alpha_branch,
        )
