"""Arithmetic in R = F_q[Y]/(Y^m - 1) and its conjugation structure.

Ring elements are tuples of m field indices, constant coefficient
first.  The conjugation sends Y to Y^(m-1) = Y^(-1) and fixes F_q; the
hermitian inner product of vectors over R is sum_j x_j * conj(y_j).

When m is a prime p and q is a primitive root mod p, Y^m - 1 has exactly
the two irreducible factors (Y - 1) and Phi_p = 1 + Y + ... + Y^(p-1),
and R splits as F_q x F_q[Y]/Phi_p.  The CRT maps (eval1 and mod_phi
one way, crt_combine back), the residue field F_q[Y]/Phi_p and the
standard forms downstream require that situation; the flag
`cyclotomic_ok` records it.  Units and inverses come from the split as
well: a is a unit exactly when eval1(a) and mod_phi(a) are both nonzero,
and its inverse combines their inverses.  So `is_unit` and `inv` also
need `cyclotomic_ok`, and raise UnsupportedCase without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import UnsupportedCase
from .gf import FieldSpec, field

RingElem = tuple  # m field indices, constant coefficient first


@dataclass(frozen=True)
class CrtPair:
    """Image of a ring element under R -> F_q x F_q[Y]/Phi_p."""

    eval1: int
    evalphi: tuple  # p-1 coefficients of the residue mod Phi_p


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
        self._norm_classes = None
        self._residue_field = None

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

    # -- units -----------------------------------------------------------

    def is_unit(self, a) -> bool:
        """a is a unit exactly when both CRT components are nonzero."""
        self._require_cyclotomic("units and inverses")
        return self.eval1(a) != 0 and any(self.mod_phi(a))

    def inv(self, a):
        """The inverse, combined from the inverses of the CRT components."""
        if not self.is_unit(a):
            raise ValueError(f"{self.poly_str(a)} is not a unit in {self}")
        return self.crt_combine(CrtPair(
            self.field.inv(self.eval1(a)), self.residue_field().inv(self.mod_phi(a))
        ))

    # -- CRT -------------------------------------------------------------

    def _require_cyclotomic(self, what: str):
        if not self.cyclotomic_ok:
            raise UnsupportedCase(
                f"{what} needs m prime with q primitive mod m; "
                f"Y^{self.m}-1 over F_{self.field.q} has a different factor pattern"
            )

    def mod_phi(self, a):
        """Residue of a mod Phi_p, as p-1 coefficients (Y^(p-1) = -(Phi_p - Y^(p-1)))."""
        # Phi_p = 1 + Y + ... + Y^(p-1), so Y^(p-1) = -(1 + Y + ... + Y^(p-2)).
        fld = self.field
        top = a[self.m - 1]
        if top == 0:
            return a[:-1]
        nt = fld.neg(top)
        return tuple(fld.add(a[i], nt) for i in range(self.m - 1))

    def crt_combine(self, pair: CrtPair):
        self._require_cyclotomic("crt_combine")
        fld = self.field
        g = tuple(pair.evalphi) + (0,)
        # g + lam*Phi_p evaluates to g(1) + lam*p at Y=1; solve for lam.
        g1 = self.eval1(g)
        lam = fld.mul(fld.sub(pair.eval1, g1), fld.inv(self.p_in_field))
        return tuple(fld.add(g[i], lam) for i in range(self.m))

    def residue_field(self) -> "ResidueField":
        """The field F_q[Y]/Phi_p, built on first use.  Cached."""
        if self._residue_field is None:
            self._require_cyclotomic("residue field arithmetic")
            self._residue_field = ResidueField(self)
        return self._residue_field

    # -- vectors ---------------------------------------------------------

    def hermitian_ip(self, xs, ys):
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, self.conj(y)))
        return acc

    def elements(self):
        """All q^m elements in lexicographic order of coefficient tuples."""
        for idx in range(self.field.q ** self.m):
            yield self.element_from_index(idx)

    def element_from_index(self, idx: int):
        q = self.field.q
        out = [0] * self.m
        for i in range(self.m - 1, -1, -1):
            out[i] = idx % q
            idx //= q
        return tuple(out)

    def norm_classes(self):
        """Map t -> sorted list of elements with a*conj(a) = t.  Cached."""
        if self._norm_classes is None:
            classes: dict = {}
            for a in self.elements():
                classes.setdefault(self.mul(a, self.conj(a)), []).append(a)
            self._norm_classes = classes
        return self._norm_classes

    # -- rendering -------------------------------------------------------

    def poly_str(self, a) -> str:
        fld = self.field
        terms = []
        for i in range(self.m - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(fld.element_str(c))
            else:
                ypow = "Y" if i == 1 else f"Y^{i}"
                terms.append(ypow if c == 1 else f"{fld.element_str(c)}*{ypow}")
        return " + ".join(terms) if terms else "0"

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


class ResidueField:
    """The residue field F_q[Y]/Phi_p of size q^(p-1), with FieldSpec's
    operation names.

    Elements are the (p-1)-coefficient tuples that `RingSpec.mod_phi`
    returns and `CrtPair.evalphi` holds.  Products go through the ring,
    so no table grows past the element list.  The Frobenius a -> a^q sends
    Y^i to Y^(iq mod p), so it permutes coefficients, and inverses follow
    Itoh and Tsujii: a^(-1) = a^(r-1) * N(a)^(-1) with r = (|K| - 1)/(q - 1),
    where a^(r-1) is the product of the Frobenius images a^(q^i), i = 1..p-2,
    and the norm N(a) = a^r lies in F_q.  Conjugation is the map induced by
    Y -> Y^(-1).
    """

    def __init__(self, sp: RingSpec):
        self.ring = sp
        self.q = sp.q ** (sp.m - 1)  # the field size, as in FieldSpec
        self.zero = (0,) * (sp.m - 1)
        self.one = (1,) + (0,) * (sp.m - 2)
        self._elements = None
        # a^q has at Y^j the coefficient of Y^(j/q mod p), before mod_phi
        q_inv = pow(sp.q, -1, sp.m)
        self._frobenius_from = tuple(j * q_inv % sp.m for j in range(sp.m))
        # coefficient-wise, exactly as on ring elements
        self.add, self.sub, self.neg = sp.add, sp.sub, sp.neg

    def elements(self):
        """All elements in lexicographic order of coefficient tuples."""
        if self._elements is None:
            self._elements = tuple(product(range(self.ring.q), repeat=self.ring.m - 1))
        return self._elements

    def mul(self, a, b):
        sp = self.ring
        return sp.mod_phi(sp.mul(a + (0,), b + (0,)))

    def _frobenius(self, a):
        """a^q: the coefficient of Y^i moves to Y^(iq mod p)."""
        a = a + (0,)
        return self.ring.mod_phi(tuple(a[i] for i in self._frobenius_from))

    def inv(self, a):
        """a^(r-1) * N(a)^(-1), from p - 3 products of Frobenius images."""
        if not any(a):
            raise ZeroDivisionError("zero has no inverse in F_q[Y]/Phi_p")
        part, image = self.one, a  # a^(r-1) = 1 when p = 2, where K = F_q
        for i in range(self.ring.m - 2):
            image = self._frobenius(image)
            part = self.mul(part, image) if i else image
        fld = self.ring.field
        return self.ring.scalar_mul(fld.inv(self.mul(a, part)[0]), part)

    def conj(self, a):
        sp = self.ring
        return sp.mod_phi(sp.conj(a + (0,)))

    def __repr__(self):
        return f"ResidueField(q={self.ring.q}, m={self.ring.m})"


@lru_cache(maxsize=None)
def ring(q: int, m: int) -> RingSpec:
    return RingSpec(field(q), m)

