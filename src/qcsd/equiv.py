"""Code equivalence, canonical fingerprints, and automorphism groups.

Equivalence here is monomial: a coordinate permutation combined with a
nonzero scaling of each coordinate (for binary codes this degenerates
to plain permutation equivalence).  The field automorphism of F_4 is
deliberately not part of the group.

The engine works on an incidence structure between "slots" and
low-weight codewords.  A slot is a pair (column, nonzero value); a
monomial map acts on slots by sending (j, v) to (sigma(j), lambda_j v),
so slot images within one column are tied together by value ratios.
Iterated partition refinement colors the slots; individualization and
backtracking resolve the remaining symmetry.  Every leaf candidate is
verified by remapping one code's basis into the other's row space, so
a positive answer is never wrong; negative answers are exact because
the search is exhaustive.

The structure has two halves.  What depends only on the shape (field,
length and, for block-restricted equivalence, the block layout) is the
slot set with one row of neighbors per slot (its ratio mates, then its
block successor and predecessor) and base colors; it is built once per
shape and shared by every code of that shape.  What depends on the code
is its refinement profile: the weight enumerator, the refinement strata
and the word-slot incidence of their codewords, kept as padded int32
matrices (a words-by-weight matrix of slots, with each word's stratum,
and a slots-by-degree matrix of words).
The enumerator and the strata words come from one walk, the enumerator's:
it walks one word per scalar class (first nonzero symbol 1; over F_2 the
words of S when C = S + <1>), and the lightest words are kept as it goes,
a weight being dropped once the running count of the words up to it passes
`DEFAULT_MAX_WORDS`, then scaled by every nonzero scalar (and
complemented) at the end.  The profile is built once and kept on the code
object itself (`FieldCode.cache`), so `fingerprint`, `are_equivalent` and
`automorphism_order` share it, in every shape, and it is freed with the
code.  The walk's budget (DEFAULT_WEIGHT_BUDGET) and the word cap
(DEFAULT_MAX_WORDS) are a profile's only bounds: the walk counts every
word but keeps at most the cap.  They and the search's node budget
(DEFAULT_NODE_BUDGET) are module constants, read when a profile is built
or a search starts.

A refinement round works on whole arrays, in the spirit of McKay &
Piperno's refinement (Practical graph isomorphism II, 2014).  Each
`are_equivalent`, `fingerprint` and `automorphism_group` call stacks its one
or two sides once (`_Stack`): index matrices into one value array that holds
the slot colors of both sides and, later in the round, the word ranks.  A
round then takes two gathers and two rankings.  The first gathers every
word's slot colors, sorts them, and ranks all words of all strata at once,
the stratum leading.  The second gathers every slot's row, its color, its
mates' colors and its sorted word ranks, and those ranks are the new colors.
A ranking packs each row into as few int64 keys as fit in 62 bits, by one
product with powers of two per key; colors are at most nslots and word ranks
at most the word count, so the widths are fixed per search, and only the
keys are sorted.  Words and slots meet different numbers of slots and words,
so their rows are padded with a sentinel.  A word's padding sorts after
every color.  A slot's padding reads 0, below every word rank plus one, so
a row that is a prefix of another ranks first.  The colors, and with them
fingerprints, witnesses and automorphism generators, are those a tuple sort
of the signatures gives.

`ClassStore` is the one place that sorts codes into classes: it buckets
codes by fingerprint and compares a new code first-fit against the
representatives in its bucket, optionally under the block restriction.

The automorphism group order comes from orbit-stabilizer along a base
that refinement alone picks.  The levels are searched deepest first:
every automorphism found fixes the base above the current level, so the
orbits of those found so far (a union-find over slots) already decide
many candidate images, as in McKay & Piperno's and Leon's searches.  A
candidate in the base point's orbit needs no search, nor does one in an
orbit where a search already failed.  The maps the search verifies generate
the group; `automorphism_group` returns them with the order, also under the
block restriction (qc_blocks), where they are block maps that `classify`
uses to prune a base's extension witnesses.

The root of an `are_equivalent` search is pruned by the target's
automorphisms, as in the same authors' searches.  An automorphism phi of
D2 in the query's shape keeps base colors, ratio mates and block
successors, so it carries the subtree under the root pin (a, b) onto the
one under (a, phi b): once (a, b) fails, so does every b' in its orbit, and
those are skipped.  Below the root only the stabiliser of the pins could
prune, so deeper nodes try every candidate.  The orbits come from the
group of D2 in the query's shape, computed when the first root candidate
fails; `automorphism_group` keeps the group, and the root pruning its
orbits, in `D2.cache` per shape, so a representative that `ClassStore` or
`seed` compares again and again pays for its group once, and `classify`'s
mass identity and `automorphism_order` read the same group.  Only
candidates that must fail are skipped, so answers and witnesses are those
of the unpruned search.  When the group's search runs out of nodes, every
slot is its own orbit and the root is searched in full.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import (
    DEFAULT_WEIGHT_BUDGET,
    _ScanLayout,
    _splits_off_ones,
    weight_enumerator,
)
from .errors import BudgetExceeded, UnsupportedCase
from .gf import FieldSpec
from .qc import FieldCode, rref

DEFAULT_NODE_BUDGET = 500000
DEFAULT_MAX_WORDS = 20000


# -- low-weight codewords ----------------------------------------------------


class _LowWords:
    """The codewords of the lightest weights, kept while `weight_enumerator`
    walks the code.

    The walk takes one word per scalar class, its first nonzero symbol 1;
    over F_2, when the code contains 1, it walks S with C = S + <1>, so each
    walked word also stands for its complement.  A weight is dropped, with
    every heavier one, once the running count of the nonzero words of it
    and all lighter weights exceeds `cap`.  Those counts only grow, so no
    word of a weight whose final count stays within the cap is ever
    dropped, and the words kept stand for at most `cap` codewords."""

    def __init__(self, code: FieldCode, cap: int):
        n = code.n
        self.layout = _ScanLayout(code.field, n)
        self.cap = cap
        self.kept = np.arange(n + 1) > 0  # by weight
        self.complements = _splits_off_ones(code)
        self.words = np.zeros((0, n), dtype=np.uint8)
        self.weights = np.zeros(0, dtype=np.uint16)

    def _keeps(self, weights):
        keep = self.kept[weights]
        if self.complements:
            keep |= self.kept[self.layout.n - weights]
        return keep

    def _settle(self, counts):
        """Drop the weights that the counts so far put past the cap."""
        kept = self.kept & (np.cumsum(counts) - counts[0] <= self.cap)
        if (kept != self.kept).any():
            self.kept = kept
            keep = self._keeps(self.weights)
            self.words, self.weights = self.words[keep], self.weights[keep]

    def __call__(self, words, weights, counts):
        self._settle(counts)
        hits = np.flatnonzero(self._keeps(weights))
        if len(hits):
            new = self.layout.symbols(words[:, hits])
            self.words = np.concatenate([self.words, new])
            self.weights = np.concatenate([self.weights, weights[hits]])

    def classes(self, counts):
        """The kept words, one per scalar class (first nonzero symbol 1),
        one symbol row each, and their weights; `counts` is the finished
        enumerator."""
        self._settle(np.array(counts))
        own = self.kept[self.weights]
        words, weights = [self.words[own]], [self.weights[own]]
        if self.complements:
            n = self.layout.n
            mates = self.kept[n - self.weights]
            words.append(self.words[mates] ^ 1)
            weights.append(n - self.weights[mates])
            if self.kept[n]:  # the complement of the zero word of S
                words.append(np.ones((1, n), dtype=np.uint8))
                weights.append(np.full(1, n, dtype=np.uint16))
        return np.concatenate(words), np.concatenate(weights)


def _select_strata(code: FieldCode, budget: int, max_words: int):
    """The weight enumerator, the weights of the strata used for
    refinement, smallest first, adding strata until they span the code (or
    words run out), and their words, one symbol row each, all from one walk.
    The span is tested on one word per scalar class, one stratum at a time,
    and on the pivot columns alone: a codeword is w = w[pivots]*G, so words
    and their pivot entries have the same rank."""
    low = _LowWords(code, max_words)
    w = weight_enumerator(code, budget, _visit=low)
    words, word_weights = low.classes(w.counts)
    chosen = [wt for wt in range(1, code.n + 1) if w.counts[wt] and low.kept[wt]]
    if not chosen:
        raise UnsupportedCase(
            f"more than {max_words} low-weight codewords; equivalence undecided"
        )
    pivots = list(code.pivots)
    basis = words[:0, pivots]
    for i, wt in enumerate(chosen):
        stratum = words[word_weights == wt][:, pivots]
        basis, _ = rref(code.field, code.k, np.concatenate([basis, stratum]))
        if len(basis) == code.k:
            chosen = chosen[: i + 1]
            break
    # each kept word times 1, .., q - 1, one symbol row each
    rows = low.layout.mul[1:, words[word_weights <= chosen[-1]]].reshape(-1, code.n)
    return w, chosen, rows


# -- incidence structure -----------------------------------------------------


class _Shape:
    """The slot structure fixed by (field, length, qc_blocks) alone: each
    slot's neighbors and base colors.  Built once per shape and shared by
    every code of that shape; it holds no reference to any code, so caching
    it pins none."""

    def __init__(self, fld: FieldSpec, n: int, qc_blocks):
        q = fld.q
        r = max(q - 1, 1)
        self.n = n
        self.r = r
        self.nslots = n * r
        # slot id for (col j, value v >= 1) is j*r + (v-1)
        col, value = np.divmod(np.arange(self.nslots), r)
        value += 1
        # each slot's row: the slot itself, its ratio mates (j, rho*v) for
        # rho = 2..q-1, then its block successor and predecessor; their
        # colors lead the slot's refinement row
        columns = list(col * r + fld.mul_table[1:, value] - 1)
        if qc_blocks is None:
            self.base_colors = [0] * self.nslots
        else:
            succ_cols = np.array(_succ_cols(n, qc_blocks))
            pred_cols = np.argsort(succ_cols)
            columns += [succ_cols[col] * r + value - 1, pred_cols[col] * r + value - 1]
            # block maps may scale a whole block only by a scalar that
            # preserves the inner product, i.e. with square one; color the
            # slots by the orbit of their value under those scalars
            square_one = [g for g in range(1, q) if fld.mul(g, g) == 1]
            self.base_colors = fld.mul_table[square_one][:, value].min(axis=0).tolist()
        self.neighbors = np.array(columns, dtype=np.int32).T
        # each slot's neighbors after itself, which a pin carries along
        self.links = [tuple(row[1:]) for row in self.neighbors.tolist()]


@lru_cache(maxsize=None)
def _shape(fld: FieldSpec, n: int, qc_blocks) -> _Shape:
    return _Shape(fld, n, qc_blocks)


def _incidence(code: FieldCode, strata_weights, words):
    """Word-slot incidence of the strata words, as padded int32 matrices:
    a (words x heaviest weight) matrix of each word's slots, words numbered
    stratum by stratum and padded with the sentinel slot nslots, and the
    stratum of each word; and an (nslots x max degree) matrix of each
    slot's words, padded with the sentinel word (the word count)."""
    r = max(code.field.q - 1, 1)
    nslots = code.n * r
    nonzero = words != 0
    weights = nonzero.sum(axis=1)
    slot_ids = np.arange(code.n, dtype=np.int32) * r + words.astype(np.int32) - 1
    slot_ids[~nonzero] = nslots
    strata = [np.flatnonzero(weights == wt) for wt in strata_weights]
    # slot ids grow with the column, so sorting moves the padding last
    word_slots = np.sort(slot_ids[np.concatenate(strata)], axis=1)
    word_slots = word_slots[:, : max(strata_weights)]
    stratum = np.repeat(np.arange(len(strata)), [len(st) for st in strata])
    nwords = len(word_slots)
    slots = word_slots.ravel()
    word_of = np.repeat(np.arange(nwords, dtype=np.int32), word_slots.shape[1])
    word_of = word_of[slots < nslots]
    slots = slots[slots < nslots]
    order = np.argsort(slots, kind="stable")
    slots = slots[order]
    degree = np.bincount(slots, minlength=nslots)
    first = np.cumsum(degree) - degree
    slot_words = np.full((nslots, degree.max()), nwords, dtype=np.int32)
    slot_words[slots, np.arange(len(slots)) - first[slots]] = word_of[order]
    return word_slots, stratum, slot_words


class _Profile:
    """What the engine derives from one code at one (budget, max_words):
    the weight enumerator, the strata weights, and the word-slot incidence
    of the strata words (see `_incidence`), which serves every shape the
    code is compared in."""

    def __init__(self, code: FieldCode, budget: int, max_words: int):
        self.enum, self.weights, words = _select_strata(code, budget, max_words)
        self.words, self.stratum, self.slot_words = _incidence(code, self.weights, words)
        self.stratum_sizes = dict(enumerate(np.bincount(self.stratum).tolist()))


def _profile(code: FieldCode) -> _Profile:
    """The code's profile at DEFAULT_WEIGHT_BUDGET and DEFAULT_MAX_WORDS,
    built on first use and kept in `code.cache`."""
    prof = code.cache.get("equiv")
    if prof is None:
        prof = code.cache["equiv"] = _Profile(
            code, DEFAULT_WEIGHT_BUDGET, DEFAULT_MAX_WORDS
        )
    return prof


def _packing(ncols: int, bits: int, lead_bits: int = 0):
    """How `ncols` columns of `bits` bits each pack, left to right, into as
    few int64 keys of at most 62 bits as fit, below `lead_bits` bits kept
    free at the top of the first key, every key as wide: the columns padded
    to a whole number of keys, and the powers of two that pack one key."""
    per = (62 - lead_bits) // bits
    keys = -(-ncols // per)
    per = -(-ncols // keys)
    return keys * per, np.left_shift(1, bits * np.arange(per - 1, -1, -1, dtype=np.int64))


def _rank(rows, powers, lead=None):
    """The rank of each row of a nonnegative int64 matrix among its
    distinct rows in lexicographic order, and the number of distinct rows.
    Each run of len(powers) columns packs into one key by a product with
    `powers`, and `lead`, when given, is added to the first key; only the
    keys are sorted.  Rows of several keys are sorted in one pass, as
    big-endian bytes, which compare as the nonnegative keys do, where
    `np.lexsort` would take one pass per key."""
    keys = rows.reshape(len(rows), -1, len(powers)) @ powers
    if lead is not None:
        keys[:, 0] += lead
    nkeys = keys.shape[1]
    if nkeys == 1:
        keys = keys[:, 0]
        order = keys.argsort()
    else:
        order = keys.astype(">i8").view(f"V{8 * nkeys}")[:, 0].argsort()
    ordered = keys[order]
    step = ordered[1:] != ordered[:-1]
    if nkeys > 1:
        step = step.any(axis=1)
    dense = np.zeros(len(rows), dtype=np.int64)
    step.cumsum(out=dense[1:])
    ranks = np.empty_like(dense)
    ranks[order] = dense
    return ranks, int(dense[-1]) + 1


class _Stack:
    """The one or two profiles of a search on its shape, stacked once for
    every refinement round of that search.

    One value array holds, in order: the slot colors of every side (slot s
    of side i at i*nslots + s), the sentinel slot's color nslots, which
    sorts after every color, the word ranks plus one of every side (from
    `words_at`), and the sentinel word's value `no_word`, which sorts after
    every rank.  `words` indexes each word's slots and `slots` each slot's
    row (the `lead` colors of the slot and its neighbors, then its words)
    in that array, each padded with its sentinel to whole keys; `strata` is
    each word's stratum, shifted to the top of its first key."""

    def __init__(self, shape: _Shape, profs):
        nslots, sides = shape.nslots, len(profs)
        nwords = sum(len(P.words) for P in profs)
        no_slot = sides * nslots
        self.shape = shape
        self.lead = shape.neighbors.shape[1]
        self.words_at = no_slot + 1
        self.no_word = nwords + 1
        no_word_at = self.words_at + nwords
        self.values = np.zeros(no_word_at + 1, dtype=np.int64)
        self.values[no_slot] = nslots
        self.values[no_word_at] = self.no_word
        bits = nslots.bit_length()
        strata_bits = (len(profs[0].weights) - 1).bit_length()
        width, self.word_powers = _packing(
            max(P.words.shape[1] for P in profs), bits, strata_bits
        )
        self.strata = np.concatenate([P.stratum for P in profs])
        self.strata <<= bits * len(self.word_powers)
        self.words = np.full((nwords, width), no_slot, dtype=np.int64)
        width, self.slot_powers = _packing(
            self.lead + max(P.slot_words.shape[1] for P in profs),
            max(nslots - 1, nwords).bit_length(),
        )
        self.slots = np.full((no_slot, width), no_word_at, dtype=np.int64)
        at = 0
        for i, P in enumerate(profs):
            self.words[at : at + len(P.words), : P.words.shape[1]] = np.where(
                P.words < nslots, P.words + i * nslots, no_slot
            )
            slots = self.slots[i * nslots : (i + 1) * nslots]
            slots[:, : self.lead] = shape.neighbors + i * nslots
            slots[:, self.lead : self.lead + P.slot_words.shape[1]] = np.where(
                P.slot_words < len(P.words), P.slot_words + self.words_at + at, no_word_at
            )
            at += len(P.words)


def _refine(stack: _Stack, colors):
    """Iterated joint recoloring of the one or two sides of a stack.

    `colors` holds one row of slot colors per side.  Each round ranks every
    word of both sides at once by its stratum and the sorted colors of its
    slots, then ranks every slot by the row of its color, its mate colors,
    its successor and predecessor colors and its sorted word ranks; the
    slot ranks are the new colors.  A slot row is padded after its words
    with a value below every rank, so a row that is a prefix of another
    ranks first, as in tuple order.  Returns the stable colors as an int64
    array, or None when the color class sizes of the two sides diverge."""
    colors = np.asarray(colors, dtype=np.int64)
    sides, nslots = colors.shape
    sizes = [np.bincount(c) for c in colors]
    if sides == 2 and not np.array_equal(*sizes):
        return None
    distinct = int(np.count_nonzero(sizes[0]))
    values, lead = stack.values, stack.lead
    while True:
        values[: sides * nslots] = colors.ravel()
        rows = values.take(stack.words)
        rows.sort(axis=1)
        ranks, _ = _rank(rows, stack.word_powers, stack.strata)
        np.add(ranks, 1, out=values[stack.words_at : stack.words_at + len(ranks)])
        rows = values.take(stack.slots)
        incident = rows[:, lead:]
        incident.sort(axis=1)
        # the sentinel word sorted last; it reads 0, below every rank + 1
        np.remainder(incident, stack.no_word, out=incident)
        new, count = _rank(rows, stack.slot_powers)
        new = new.reshape(sides, nslots)
        if sides == 2 and not np.array_equal(
            np.bincount(new[0], minlength=count), np.bincount(new[1], minlength=count)
        ):
            return None
        if count == distinct:
            return new
        colors, distinct = new, count


def _target_cell(colors):
    """The color of the smallest cell of more than one slot, the lowest
    such color on ties, or None when the coloring is discrete; `colors` are
    the ranks `_refine` returns, so every color below their count is used."""
    sizes = np.bincount(colors)
    if len(sizes) == len(colors):
        return None
    sizes[sizes == 1] = len(colors) + 1
    return int(sizes.argmin())


def _pin_closure(shape: _Shape, pins):
    """Expand pins through ratio mates and, in quasi-cyclic mode, along the
    cycle successor and predecessor; None on conflict or non-injectivity."""
    links = shape.links
    mapping: dict[int, int] = {}
    queue = list(pins)
    while queue:
        a, b = queue.pop()
        prev = mapping.get(a)
        if prev is not None:
            if prev != b:
                return None
            continue
        mapping[a] = b
        queue.extend(zip(links[a], links[b]))
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def _pinned_colors(shape: _Shape, mapping):
    """Initial colors of the two sides of a search node: the base colors,
    with each pinned pair split off in a color of its own."""
    base = shape.base_colors
    keysA = [(c, 0) for c in base]
    keysB = list(keysA)
    for i, (a, b) in enumerate(sorted(mapping.items())):
        keysA[a] = (base[a], i + 1)
        keysB[b] = (base[b], i + 1)
    rank = {t: i for i, t in enumerate(sorted(set(keysA) | set(keysB)))}
    return [rank[t] for t in keysA], [rank[t] for t in keysB]


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    perm: tuple | None = None  # one-line notation: column j of D1 lands on perm[j]
    scalars: tuple | None = None  # column j of D1 is scaled by scalars[j]

    def __bool__(self) -> bool:
        return self.equivalent


def apply_monomial(code: FieldCode, perm, scalars) -> FieldCode:
    """The image of `code` under the monomial map that scales column j by
    scalars[j] and moves it to column perm[j]."""
    mapped = np.empty_like(code.matrix)
    mapped[:, perm] = code.field.mul_table[scalars, code.matrix]
    return FieldCode(code.field, code.n, mapped)


def _leaf_witness(shape: _Shape, codes, cA, cB):
    """Read the unique candidate map off discrete colorings and verify it
    against the two codes.

    Both colorings give the slots the colors 0..nslots-1, one each, so slot
    s of A maps to the slot of B with its color.  The slots (j, 1) fix the
    map: column j goes to column perm[j] scaled by lam[j], and then every
    slot (j, v) of A must land on (perm[j], v*lam[j])."""
    n, r = shape.n, shape.r
    code_a, code_b = codes
    target = np.argsort(cB)[cA].reshape(n, r)
    perm, lam = np.divmod(target[:, 0], r)
    lam += 1
    mul = code_a.field.mul_table
    if (target != perm[:, None] * r + mul[1:, lam].T - 1).any():
        return None
    if np.bincount(perm, minlength=n).max() > 1:
        return None
    if apply_monomial(code_a, perm, lam) != code_b:
        return None
    return EquivalenceResult(True, tuple(perm.tolist()), tuple(lam.tolist()))


def _find_map(stack: _Stack, pins, state):
    state["nodes"] += 1
    if state["nodes"] > state["budget"]:
        raise BudgetExceeded(
            "equivalence search nodes (result undecided)",
            state["nodes"],
            state["budget"],
        )
    shape = stack.shape
    mapping = _pin_closure(shape, pins)
    if mapping is None:
        return None
    res = _refine(stack, _pinned_colors(shape, mapping))
    if res is None:
        return None
    cA, cB = res
    color = _target_cell(cA)
    if color is None:
        return _leaf_witness(shape, state["codes"], cA, cB)
    a = int(np.argmax(cA == color))
    roots, failed = None, set()
    for b in np.flatnonzero(cB == color).tolist():
        if roots is not None and roots[b] in failed:
            continue
        res = _find_map(stack, pins + [(a, b)], state)
        if res is not None:
            return res
        if not pins:  # the root of an are_equivalent search
            roots = roots or _target_orbits(state["codes"][1], state["blocks"])
            failed.add(roots[b])
    return None


def _succ_cols(n: int, qc_blocks) -> list:
    """Column successor for the cyclic block layout: position i*ell + j holds
    coefficient i of block j, so multiplying a block by the cycle generator
    sends it to position ((i+1) mod m)*ell + j."""
    m, ell = qc_blocks
    if m < 2 or m * ell != n:
        raise ValueError(f"block shape {qc_blocks} does not tile length {n}")
    return [((pos // ell + 1) % m) * ell + (pos % ell) for pos in range(n)]


def are_equivalent(
    d1: FieldCode,
    d2: FieldCode,
    qc_blocks: tuple | None = None,
) -> EquivalenceResult:
    """Exact monomial equivalence with a verified witness on success.

    With qc_blocks=(m, ell) the search is restricted to maps that permute
    the ell cyclic blocks, rotate within blocks, and scale whole blocks by
    square-one scalars; this is the structure-preserving equivalence used
    for deduplication of codes presented over the polynomial ring."""
    if d1.field.q != d2.field.q:
        raise ValueError("codes live over different fields")
    if d1.n != d2.n or d1.k != d2.k:
        return EquivalenceResult(False)
    if d1.k == 0:
        return EquivalenceResult(True, tuple(range(d1.n)), (1,) * d1.n)
    blocks = tuple(qc_blocks) if qc_blocks is not None else None
    shape = _shape(d1.field, d1.n, blocks)
    p1 = _profile(d1)
    p2 = _profile(d2)
    if p1.weights != p2.weights or p1.stratum_sizes != p2.stratum_sizes:
        return EquivalenceResult(False)
    state = {
        "nodes": 0,
        "budget": DEFAULT_NODE_BUDGET,
        "codes": (d1, d2),
        "blocks": blocks,
    }
    res = _find_map(_Stack(shape, (p1, p2)), [], state)
    return res if res is not None else EquivalenceResult(False)


# -- fingerprints ------------------------------------------------------------


@dataclass(frozen=True)
class CodeFingerprint:
    n: int
    k: int
    d: int
    enum_prefix: tuple  # ((i, A_i), ...) for the first few nonzero weights
    refinement_signature: str

    def key(self):
        return (self.n, self.k, self.d, self.enum_prefix, self.refinement_signature)


def fingerprint(code: FieldCode) -> CodeFingerprint:
    """Deterministic invariant under column permutation and scaling."""
    if code.k == 0:
        raise ValueError("fingerprint needs at least one nonzero codeword")
    prof = _profile(code)
    nz = [(i, a) for i, a in enumerate(prof.enum.counts) if i > 0 and a]
    d = nz[0][0]
    prefix = tuple(nz[:4])
    shape = _shape(code.field, code.n, None)
    start = np.zeros((1, shape.nslots), dtype=np.int64)
    (colors,) = _refine(_Stack(shape, (prof,)), start).tolist()
    trace = (
        code.n,
        code.k,
        code.field.q,
        tuple(prof.weights),
        tuple(sorted(prof.stratum_sizes.items())),
        tuple(sorted(Counter(colors).items())),
    )
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    return CodeFingerprint(code.n, code.k, d, prefix, digest)


# -- first-fit classes -------------------------------------------------------


class ClassStore:
    """Representatives of equivalence classes, kept first-fit.

    A code is compared only with the representatives whose fingerprint it
    shares, in the order they were added, and joins the first one it is
    equivalent to (under the block restriction when qc_blocks is given);
    otherwise it becomes a new representative.  `checks` counts the
    `are_equivalent` calls made."""

    def __init__(self, qc_blocks: tuple | None = None):
        self.qc_blocks = qc_blocks
        self.buckets: dict = {}
        self.checks = 0

    def add(self, code: FieldCode, fp: CodeFingerprint) -> bool:
        """True when `code` starts a new class; `fp` is its fingerprint."""
        bucket = self.buckets.setdefault(fp.key(), [])
        for known in bucket:
            self.checks += 1
            if are_equivalent(code, known, qc_blocks=self.qc_blocks):
                return False
        bucket.append(code)
        return True


# -- automorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismGroup:
    """The order of a code's automorphism group and verified generators,
    each a (perm, scalars) pair in `EquivalenceResult`'s notation that maps
    the code onto itself."""

    order: int
    generators: tuple


class _Orbits:
    """The orbits on slots of the group that the monomial maps joined so
    far generate, as a union-find."""

    def __init__(self, shape: _Shape, fld: FieldSpec):
        self.parent = list(range(shape.nslots))
        self.r, self.mul = shape.r, fld.mul

    def find(self, s):
        parent = self.parent
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def join(self, perm, scalars):
        find, r = self.find, self.r
        for s in range(len(self.parent)):
            j, vi = divmod(s, r)
            t = perm[j] * r + self.mul(scalars[j], vi + 1) - 1
            self.parent[find(s)] = find(t)


def _target_orbits(code: FieldCode, blocks):
    """The orbit root of each slot under the automorphisms of `code` in the
    shape `blocks`, computed on first use and kept in `code.cache` for that
    shape.  When the group's search runs out of nodes every slot is its own
    orbit, and that is kept too, so the search is not repeated."""
    key = ("equiv orbits", blocks)
    roots = code.cache.get(key)
    if roots is None:
        orbits = _Orbits(_shape(code.field, code.n, blocks), code.field)
        try:
            for perm, scalars in automorphism_group(code, blocks).generators:
                orbits.join(perm, scalars)
        except BudgetExceeded:
            pass
        roots = code.cache[key] = [orbits.find(s) for s in range(len(orbits.parent))]
    return roots


def automorphism_group(
    code: FieldCode,
    qc_blocks: tuple | None = None,
) -> AutomorphismGroup:
    """The monomial automorphism group (permutations for q=2), restricted
    to block maps when qc_blocks=(m, ell) as in `are_equivalent`, by
    orbit-stabilizer over the refinement structure.  The generators are
    the maps the search verified; together they generate the group.  It is
    computed on first use and kept in `code.cache` for that shape, so the
    pruning of `are_equivalent`, `classify`'s mass identity and
    `automorphism_order` share it; a search that runs out of nodes raises
    and keeps nothing."""
    if code.k == 0:
        raise ValueError("automorphism group of the zero code is everything")
    blocks = tuple(qc_blocks) if qc_blocks is not None else None
    key = ("equiv group", blocks)
    group = code.cache.get(key)
    if group is not None:
        return group
    prof = _profile(code)
    S = _shape(code.field, code.n, blocks)
    one, both = _Stack(S, (prof,)), _Stack(S, (prof, prof))
    state = {"nodes": 0, "budget": DEFAULT_NODE_BUDGET, "codes": (code, code)}
    # the base, and the cell each base point is taken from, by refinement alone
    levels = []
    base: list[int] = []
    while True:
        pins = [(b, b) for b in base]
        colors, _ = _pinned_colors(S, _pin_closure(S, pins))
        (colors,) = _refine(one, [colors])
        color = _target_cell(colors)
        if color is None:
            break
        cell = np.flatnonzero(colors == color).tolist()
        levels.append((pins, cell))
        base.append(cell[0])
    # orbits of the automorphisms found so far
    orbits = _Orbits(S, code.field)
    find = orbits.find
    order = 1
    generators = []
    for pins, cell in reversed(levels):
        b0 = cell[0]
        failed: list[int] = []
        for c in cell[1:]:
            # all automorphisms found so far fix the pins, so their orbits
            # lie within the orbits of this level's group
            root = find(c)
            if root == find(b0) or root in {find(f) for f in failed}:
                continue
            witness = _find_map(both, pins + [(b0, c)], state)
            if witness is None:
                failed.append(c)
                continue
            generators.append((witness.perm, witness.scalars))
            orbits.join(witness.perm, witness.scalars)
        order *= sum(1 for c in cell if find(c) == find(b0))
    group = code.cache[key] = AutomorphismGroup(order, tuple(generators))
    return group


def automorphism_order(code: FieldCode) -> int:
    """Order of the monomial automorphism group (permutations for q=2)."""
    return automorphism_group(code).order
