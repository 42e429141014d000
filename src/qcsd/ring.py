"""Arithmetic in R = F_q[Y]/(Y^m - 1) and its conjugation structure.

Ring elements are tuples of m field indices, constant coefficient
first.  The conjugation sends Y to Y^(m-1) = Y^(-1) and fixes F_q; the
hermitian inner product of vectors over R is sum_j x_j * conj(y_j).

R splits by the orthogonal idempotents e_1 = p^(-1) * (1 + Y + ... + Y^(m-1))
and e_phi = 1 - e_1, where p is m read in F_q (nonzero, as m is prime to the
characteristic); conj fixes both.  Since e_1 * r = eval1(r) * e_1, the ideal
e_1*R is a copy of F_q and every r is eval1(r) * e_1 + e_phi * r.  When m is
a prime p and q is a primitive root mod p, Y^m - 1 has exactly the two
irreducible factors (Y - 1) and Phi_p = 1 + Y + ... + Y^(p-1), and the ideal
e_phi*R is the residue field K = F_q[Y]/Phi_p (Ling and Sole): the residue
with mod-Phi coefficients t is the element e_phi * t of R.  K's sums,
products and conjugates are then R's own, with unit e_phi; `phi_inv`
inverts in K, and `phi_field` names these operations as FieldSpec does.
The flag `cyclotomic_ok` records that situation; K, the standard forms and
the classification downstream require it.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import UnsupportedCase
from .gf import FieldSpec, field

RingElem = tuple  # m field indices, constant coefficient first


def _mult_order(q: int, m: int) -> int:
    o, x = 1, q % m
    while x != 1:
        x = (x * q) % m
        o += 1
    return o


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


class RingSpec:
    """Operations for R = F_q[Y]/(Y^m - 1)."""

    def __init__(self, f: FieldSpec, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        if m % f.characteristic == 0:
            raise ValueError(
                f"m = {m} shares a factor with the characteristic {f.characteristic}"
            )
        self.field = f
        self.m = m
        self.cyclotomic_ok = _is_prime(m) and _mult_order(f.q, m) == m - 1
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self.y = ((0, 1) + (0,) * (m - 2)) if m > 1 else (1,)
        p_in_f = 0
        for _ in range(m):
            p_in_f = f.add(p_in_f, 1)
        self.p_in_field = p_in_f  # m as an element of F_q (nonzero: gcd(m, char)=1)
        self.e1 = (f.inv(p_in_f),) * m
        self.ephi = self.sub(self.one, self.e1)
        self._norm_classes = None

    @property
    def q(self) -> int:
        return self.field.q

    # -- scalar ops ------------------------------------------------------

    def add(self, a, b):
        add = self.field._add
        return tuple(add[x][y] for x, y in zip(a, b))

    def sub(self, a, b):
        fld = self.field
        return tuple(fld.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        neg = self.field._neg
        return tuple(neg[x] for x in a)

    def scalar_mul(self, c: int, a):
        mul = self.field._mul
        return tuple(mul[c][x] for x in a)

    def mul(self, a, b):
        m = self.m
        mul = self.field._mul
        add = self.field._add
        out = [0] * m
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = mul[ai]
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                k = i + j
                if k >= m:
                    k -= m
                out[k] = add[out[k]][row[bj]]
        return tuple(out)

    def conj(self, a):
        """Y -> Y^(-1): coefficient of Y^i moves to Y^(m-i)."""
        m = self.m
        return (a[0],) + tuple(a[m - i] for i in range(1, m))

    # -- whole arrays of elements ----------------------------------------

    def mul_array(self, a, b):
        """Products of the elements on two (..., m) uint8 arrays, broadcast
        against each other: the sum over i of a_i times b rotated by i
        (Y^i * b), each term through `FieldSpec.mul_table`."""
        out = 0
        for i in range(self.m):
            term = self.field.mul_table[a[..., i, None], np.roll(b, i, axis=-1)]
            out = out ^ term if self.q == 4 else (out + term) % self.q
        return out

    def conj_array(self, a):
        """`conj` on a (..., m) array of elements."""
        return a[..., -np.arange(self.m) % self.m]

    def eval1(self, a) -> int:
        s = 0
        add = self.field._add
        for x in a:
            s = add[s][x]
        return s

    def shift(self, a, j: int):
        """Multiply by Y^j (cyclic coefficient shift)."""
        m = self.m
        j %= m
        return a[m - j:] + a[:m - j]

    # -- the residue field e_phi*R ----------------------------------------

    def _require_cyclotomic(self, what: str):
        if not self.cyclotomic_ok:
            raise UnsupportedCase(
                f"{what} needs m prime with q primitive mod m; "
                f"Y^{self.m}-1 over F_{self.field.q} has a different factor pattern"
            )

    def phi_inv(self, a):
        """The inverse of a nonzero a of the field e_phi*R, after Itoh and
        Tsujii: a^(-1) = a^(r-1) * N(a)^(-1) with r = (|K| - 1)/(q - 1).  The
        Frobenius a -> a^q sends Y^i to Y^(iq mod p), so a^(r-1) is the
        product of the coefficient permutations a^(q^i), i = 1..p-2.  The
        norm N = a * a^(r-1) is n * e_phi with n in F_q, and as e_phi holds
        1 - 1/p at 1 and -1/p at Y, n = N[0] - N[1]."""
        m = self.m
        q_inv = pow(self.q, -1, m)
        part, image = self.ephi, a  # a^(r-1) = e_phi when p = 2, where K = F_q
        for i in range(m - 2):
            image = tuple(image[j * q_inv % m] for j in range(m))
            part = self.mul(part, image) if i else image
        fld = self.field
        norm = self.mul(a, part)
        return self.scalar_mul(fld.inv(fld.sub(norm[0], norm[1])), part)

    def phi_field(self):
        """The residue field K as e_phi*R, under FieldSpec's operation names:
        R's own sum and product, the unit e_phi and `phi_inv`."""
        self._require_cyclotomic("residue field arithmetic")
        return SimpleNamespace(
            zero=self.zero, one=self.ephi, add=self.add, sub=self.sub,
            neg=self.neg, mul=self.mul, inv=self.phi_inv,
        )

    # -- vectors ---------------------------------------------------------

    def hermitian_ip(self, xs, ys):
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, self.conj(y)))
        return acc

    def norm_classes(self):
        """Map t -> the elements a with a*conj(a) = t in lexicographic order,
        keyed in order of first elements: one `mul_array` pass over all q^m
        elements, grouped by a stable sort of the norms.  Cached."""
        if self._norm_classes is None:
            elems = digit_rows(self.q, self.m)
            norms = self.mul_array(elems, self.conj_array(elems))
            value = np.zeros(len(norms), dtype=np.int64)
            for column in norms.T:
                value = value * self.q + column
            order = np.argsort(value, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(value[order])) + 1)
            self._norm_classes = {
                tuple(norms[g[0]].tolist()): list(map(tuple, elems[g].tolist()))
                for g in sorted(groups, key=lambda g: g[0])
            }
        return self._norm_classes

    def __repr__(self):
        return f"RingSpec(q={self.field.q}, m={self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and other.field.q == self.field.q
            and other.m == self.m
        )

    def __hash__(self):
        return hash(("RingSpec", self.field.q, self.m))


def digit_rows(base: int, length: int):
    """All base^length rows of `length` digits below `base`, in
    lexicographic order, as an array: uint8 when the digits fit."""
    dtype = np.uint8 if base <= 256 else np.intp
    return np.indices((base,) * length, dtype=dtype).reshape(length, -1).T


@lru_cache(maxsize=None)
def ring(q: int, m: int) -> RingSpec:
    return RingSpec(field(q), m)

