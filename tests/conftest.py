"""Shared helpers: random witnesses and random self-dual codes over R."""

import functools
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


def naive_rref(fld, n, rows):
    """Textbook reduced row echelon form, written independently of qc.rref,
    one field operation per symbol, for any object with FieldSpec's
    operation names: over F_q, or over the residue field K on its
    coefficient tuples."""
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
    """`rcode.component_forms` by elimination over F_q and over K itself,
    on the eval1 and mod_phi images of the rows."""
    sp = code.spec
    ell = code.ell
    forms = []
    lead = ()
    for fld, split in ((sp.field, sp.eval1), (sp.residue_field(), sp.mod_phi)):
        order = list(lead) + [j for j in range(ell) if j not in lead]
        rows = [[split(r[j]) for j in order] for r in code.rows]
        form = {}
        for row, p in zip(*naive_rref(fld, ell, rows)):
            full = [None] * ell
            for j, v in zip(order, row):
                full[j] = v
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
