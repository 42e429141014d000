"""Shared helpers: random witnesses and random self-dual codes over R."""

import functools
import itertools
import random

from qcsd.buildup import extend_i, extend_ii, norm_minus_one_elements, seed
from qcsd.ring import RingSpec, ring


@functools.lru_cache(maxsize=None)
def seeds_for(q: int, m: int):
    return tuple(seed(ring(q, m)))


@functools.lru_cache(maxsize=None)
def pairs_for(q: int, m: int):
    return tuple(alpha_beta_pairs(ring(q, m)))


def random_element(sp: RingSpec, rng: random.Random):
    return sp.element_from_index(rng.randrange(sp.q**sp.m))


def random_norm_minus_one_vector(sp: RingSpec, ell: int, rng: random.Random):
    """Random x in R^ell with <x, x> = -1, by resampling the tail and
    solving the first coordinate through the norm-class table."""
    minus1 = sp.neg(sp.one)
    classes = sp.norm_classes()
    while True:
        tail = [random_element(sp, rng) for _ in range(ell - 1)]
        acc = sp.zero
        for e in tail:
            acc = sp.add(acc, sp.mul(e, sp.conj(e)))
        need = sp.sub(minus1, acc)
        heads = classes.get(need)
        if heads:
            return tuple([rng.choice(heads)] + tail)


def random_extension_i(base, rng: random.Random):
    """One random valid branch-i witness applied to base."""
    sp = base.spec
    c = rng.choice(norm_minus_one_elements(sp))
    x = random_norm_minus_one_vector(sp, base.ell, rng)
    return extend_i(base, c, x)


def alpha_beta_pairs(sp: RingSpec):
    """All (alpha, beta) with alpha*conj(alpha) + beta*conj(beta) = -1 and
    alpha*conj(beta) = conj(alpha)*beta."""
    minus1 = sp.neg(sp.one)
    classes = sp.norm_classes()
    pairs = []
    for i in range(sp.q**sp.m):
        alpha = sp.element_from_index(i)
        need = sp.sub(minus1, sp.mul(alpha, sp.conj(alpha)))
        for beta in classes.get(need, ()):
            if sp.mul(alpha, sp.conj(beta)) == sp.mul(sp.conj(alpha), beta):
                pairs.append((alpha, beta))
    return pairs


def random_extension_ii(base, pairs, rng: random.Random):
    """One random valid branch-ii witness applied to base."""
    sp = base.spec
    alpha, beta = rng.choice(pairs)
    x1 = random_norm_minus_one_vector(sp, base.ell, rng)
    while True:
        x2 = random_norm_minus_one_vector(sp, base.ell, rng)
        if sp.hermitian_ip(x1, x2) == sp.zero:
            return extend_ii(base, alpha, beta, x1, x2)


def reference_contains(code, word):
    """Whether `word` lies in the field code: reduce it against the RREF
    rows, one field operation per symbol."""
    fld = code.field
    w = list(word)
    for piv, row in zip(code.pivots, code.rows):
        c = w[piv]
        w = [fld.sub(a, fld.mul(c, b)) for a, b in zip(w, row)]
    return not any(w)


def mod_phi(sp: RingSpec, a):
    """The residue of a mod Phi_p = 1 + Y + ... + Y^(p-1), as p - 1
    coefficients: Y^(p-1) = -(1 + Y + ... + Y^(p-2))."""
    top = sp.field.neg(a[-1])
    return tuple(sp.field.add(c, top) for c in a[:-1])


def crt_combine(sp: RingSpec, u, g):
    """The r in R with eval1(r) = u and residue g mod Phi_p: g + lam*Phi_p,
    which evaluates to g(1) + lam*p at Y = 1."""
    fld = sp.field
    g = tuple(g) + (0,)
    lam = fld.mul(fld.sub(u, sp.eval1(g)), fld.inv(sp.p_in_field))
    return tuple(fld.add(c, lam) for c in g)


class ReferenceK:
    """The residue field K = F_q[Y]/Phi_p on its (p-1)-coefficient tuples,
    with FieldSpec's operation names: the oracle that the ideal e_phi*R,
    where qcsd computes K, is compared with through `lift`.  Products are
    taken in R and reduced mod Phi_p, and inverses are a^(|K| - 2) by
    square and multiply."""

    def __init__(self, sp: RingSpec):
        self.ring = sp
        self.q = sp.q ** (sp.m - 1)  # the field size, as in FieldSpec
        self.zero = (0,) * (sp.m - 1)
        self.one = (1,) + (0,) * (sp.m - 2)
        self.add, self.sub = sp.add, sp.sub

    def elements(self):
        """All elements in lexicographic order of coefficient tuples."""
        return list(itertools.product(range(self.ring.q), repeat=self.ring.m - 1))

    def mul(self, a, b):
        return mod_phi(self.ring, self.ring.mul(a + (0,), b + (0,)))

    def conj(self, a):
        return mod_phi(self.ring, self.ring.conj(a + (0,)))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("zero has no inverse in F_q[Y]/Phi_p")
        out, power, e = self.one, a, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, power)
            power = self.mul(power, power)
            e >>= 1
        return out

    def lift(self, t):
        """The residue t as the element e_phi * t of R."""
        return self.ring.mul(self.ring.ephi, t + (0,))


@functools.lru_cache(maxsize=None)
def reference_k(q: int, m: int):
    return ReferenceK(ring(q, m))


def naive_rref(fld, n, rows):
    """Textbook reduced row echelon form, written independently of qc.rref,
    one field operation per symbol, for any object with FieldSpec's
    operation names: over F_q, or over the reference K on its coefficient
    tuples."""
    zero = fld.zero
    work = [list(r) for r in rows]
    rank = 0
    pivots = []
    for col in range(n):
        src = next((i for i in range(rank, len(work)) if work[i][col] != zero), None)
        if src is None:
            continue
        work[rank], work[src] = work[src], work[rank]
        inv = fld.inv(work[rank][col])
        work[rank] = [fld.mul(inv, v) for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != zero:
                c = work[i][col]
                work[i] = [fld.sub(a, fld.mul(c, b)) for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in work[:rank]], pivots


def reference_component_forms(code, shared: bool = False):
    """`rcode.component_forms` by elimination over F_q and over the
    reference K, on the eval1 and mod_phi images of the rows; the K forms
    are lifted into e_phi*R."""
    sp = code.spec
    ell = code.ell
    kf = reference_k(sp.q, sp.m)
    forms = []
    lead = ()
    for fld, split, lift in (
        (sp.field, sp.eval1, lambda v: v),
        (kf, lambda e: mod_phi(sp, e), kf.lift),
    ):
        order = list(lead) + [j for j in range(ell) if j not in lead]
        rows = [[split(r[j]) for j in order] for r in code.rows]
        form = {}
        for row, p in zip(*naive_rref(fld, ell, rows)):
            full = [None] * ell
            for j, v in zip(order, row):
                full[j] = lift(v)
            form[order[p]] = full
        forms.append(form)
        if shared:
            lead = tuple(form)
    return forms


def random_self_dual(q: int, m: int, target_ell: int, rng: random.Random):
    """A random self-dual code over F_q[Y]/(Y^m - 1) of the target length,
    built by random extension steps from a random seed."""
    sp = ring(q, m)
    seeds = seeds_for(q, m)
    code = rng.choice(seeds)
    if sp.field.residue_class == "3-mod-4":
        pairs = pairs_for(q, m)
        while code.ell < target_ell:
            code = random_extension_ii(code, pairs, rng)
    else:
        while code.ell < target_ell:
            code = random_extension_i(code, rng)
    if code.ell != target_ell:
        raise ValueError(
            f"cannot reach length {target_ell} from the length-{code.ell} seed"
        )
    return code
