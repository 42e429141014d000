"""Arithmetic for the small fields F_2, F_3, F_4, F_5.

Elements are plain integer indices 0..q-1.  For prime q the index is the
residue itself; for q = 4 the indices 0, 1, 2, 3 stand for 0, 1, w, w^2
where w is a primitive cube root of unity.  Under that encoding F_4
addition is XOR of indices (index bits are the coordinates over the
basis {1, w}), which several internal kernels rely on.
"""

from __future__ import annotations

import numpy as np

FIELD_SIZES = (2, 3, 4, 5)


class FieldSpec:
    """Operation tables for one of the supported fields.

    Use the module-level :func:`field` factory; instances are cached and
    can be compared by identity.  `mul_table` and `inv_table` hold the
    products and inverses (0 for 0) as read-only uint8 arrays, for the
    array kernels to index; the scalar methods index Python lists.
    """

    zero = 0
    one = 1

    def __init__(self, q: int):
        if q not in FIELD_SIZES:
            raise ValueError(f"unsupported field size {q}; supported: {FIELD_SIZES}")
        self.q = q
        self.characteristic = 2 if q in (2, 4) else q
        if self.characteristic == 2:
            self.residue_class = "char-2"
        elif q % 4 == 1:
            self.residue_class = "1-mod-4"
        else:
            self.residue_class = "3-mod-4"
        self._build_tables()

    def _build_tables(self):
        q = self.q
        if q == 4:
            add = [[a ^ b for b in range(4)] for a in range(4)]
            # index -> (c0, c1) coefficients over {1, w}; w^2 = w + 1
            mul = [[0] * 4 for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    a0, a1 = a & 1, a >> 1
                    b0, b1 = b & 1, b >> 1
                    # (a0 + a1 w)(b0 + b1 w) with w^2 = w + 1
                    c0 = (a0 * b0) ^ (a1 * b1)
                    c1 = (a0 * b1) ^ (a1 * b0) ^ (a1 * b1)
                    mul[a][b] = c0 | (c1 << 1)
        else:
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        self._add = add
        self._mul = mul
        self._neg = [next(b for b in range(q) if add[a][b] == 0) for a in range(q)]
        self._inv = [0] + [
            next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)
        ]
        self.mul_table = np.array(mul, dtype=np.uint8)
        self.inv_table = np.array(self._inv, dtype=np.uint8)
        self.mul_table.flags.writeable = self.inv_table.flags.writeable = False

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    @property
    def minus_one(self) -> int:
        return self._neg[1]

    def elements(self):
        return range(self.q)

    def parse_element(self, text: str) -> int:
        t = text.strip()
        if self.q == 4:
            try:
                return {"0": 0, "1": 1, "w": 2, "w^2": 3, "w2": 3}[t]
            except KeyError:
                raise ValueError(f"bad F_4 symbol {text!r}") from None
        try:
            a = int(t)
        except ValueError:
            raise ValueError(f"bad F_{self.q} symbol {text!r}") from None
        if not 0 <= a < self.q:
            raise ValueError(f"symbol {text!r} out of range for F_{self.q}")
        return a

    def __repr__(self):
        return f"FieldSpec(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.q == self.q

    def __hash__(self):
        return hash(("FieldSpec", self.q))


_CACHE: dict[int, FieldSpec] = {}


def field(q: int) -> FieldSpec:
    """Return the (cached) FieldSpec for F_q, q in {2, 3, 4, 5}."""
    if q not in _CACHE:
        _CACHE[q] = FieldSpec(q)
    return _CACHE[q]


def sum_of_squares_minus_one(spec: FieldSpec) -> tuple[int, int]:
    """Smallest nonzero pair (a, b) with a^2 + b^2 = -1, for q = 3 (mod 4).

    For the other residue classes -1 is already a square and the
    two-square decomposition is not the one the length-4 seed needs, so
    they are rejected.
    """
    if spec.residue_class != "3-mod-4":
        raise ValueError(
            f"two-square seed only applies to q = 3 mod 4, not F_{spec.q}"
        )
    target = spec.minus_one
    for a in range(1, spec.q):
        for b in range(1, spec.q):
            if spec.add(spec.mul(a, a), spec.mul(b, b)) == target:
                return (a, b)
    raise AssertionError("unreachable: a^2 + b^2 = -1 is always solvable")
