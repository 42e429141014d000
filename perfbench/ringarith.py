"""Small, independent arithmetic over F_q and R = F_q[Y]/(Y^m - 1).

The benchmark builds its inputs (building-up witnesses, the length-2
codes over (5, 7), monomial maps) with this module instead of
``qcsd.RingSpec``, and hands them to ``qcsd`` as plain coefficient tuples.
A change to how ``qcsd`` represents ring elements internally therefore
cannot change what a workload feeds it.

Field elements are the integer indices ``qcsd`` documents as its input
format: the residue itself for prime q, and for q = 4 the index whose
bits are the coordinates over the basis {1, w} with w^2 = w + 1.
Ring elements are tuples of m field indices, constant coefficient first.
"""

from __future__ import annotations

import itertools


class Field:
    def __init__(self, q: int):
        if q == 4:
            def mul4(a, b):
                a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
                c0 = (a0 & b0) ^ (a1 & b1)
                c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
                return c0 | (c1 << 1)

            self.add = [[a ^ b for b in range(4)] for a in range(4)]
            self.mul = [[mul4(a, b) for b in range(4)] for a in range(4)]
        elif q in (2, 3, 5):
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            raise ValueError(f"unsupported field size {q}")
        self.q = q
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.minus_one = self.neg[1]


class Ring:
    """R = F_q[Y]/(Y^m - 1) with conjugation Y -> Y^(-1)."""

    def __init__(self, q: int, m: int):
        self.f = Field(q)
        self.q, self.m = q, m
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self.minus_one = (self.f.minus_one,) + (0,) * (m - 1)
        self._by_norm = None

    def add(self, a, b):
        add = self.f.add
        return tuple(add[x][y] for x, y in zip(a, b))

    def neg(self, a):
        neg = self.f.neg
        return tuple(neg[x] for x in a)

    def scale(self, c: int, a):
        row = self.f.mul[c]
        return tuple(row[x] for x in a)

    def mul(self, a, b):
        m, add, mul = self.m, self.f.add, self.f.mul
        out = [0] * m
        for i, ai in enumerate(a):
            if ai:
                row = mul[ai]
                for j, bj in enumerate(b):
                    if bj:
                        k = (i + j) % m
                        out[k] = add[out[k]][row[bj]]
        return tuple(out)

    def conj(self, a):
        return (a[0],) + tuple(reversed(a[1:]))

    def norm(self, a):
        return self.mul(a, self.conj(a))

    def hip(self, xs, ys):
        """Hermitian inner product sum_j x_j * conj(y_j)."""
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, self.conj(y)))
        return acc

    def elements(self):
        """All q^m elements in lexicographic order of coefficient tuples."""
        return itertools.product(range(self.q), repeat=self.m)

    def by_norm(self):
        """Map t -> elements a with a*conj(a) = t, in lexicographic order."""
        if self._by_norm is None:
            table: dict = {}
            for a in self.elements():
                table.setdefault(self.norm(a), []).append(a)
            self._by_norm = table
        return self._by_norm

    def vector_with_norm(self, length: int, target, rng):
        """Random x in R^length with <x, x> = target.

        All coordinates but the last are uniform; the last is drawn from the
        norm class that completes the sum.  Every norm class of a symmetric
        element is nonempty for the rings the benchmark uses, but the draw
        is retried rather than assumed.
        """
        table = self.by_norm()
        while True:
            head = [self.random_element(rng) for _ in range(length - 1)]
            rest = self.add(target, self.neg(self.hip(head, head)))
            pool = table.get(rest)
            if pool:
                return tuple(head) + (rng.choice(pool),)

    def random_element(self, rng):
        return tuple(rng.randrange(self.q) for _ in range(self.m))
