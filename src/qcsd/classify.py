"""Classification of self-dual codes presented over the cyclic polynomial
ring: an exhaustive building-up search with structure-preserving
deduplication, certified complete at every level by the mass identity.

How the search stays complete and affordable
--------------------------------------------
A self-dual code of length ell over the ring extends to length ell + 2 by
adjoining two columns and one row for a witness pair (c, x) with
c*conj(c) = -1 and <x, x> = -1, and conversely every self-dual code of the
longer length arises this way.  Iterating from the length-2 seeds therefore
visits every class, provided no reachable base class is lost at an
intermediate level.  Four exact reductions shrink the witness space; each
is realized by a map that only permutes blocks, rotates within blocks, or
scales blocks by square-one scalars on the expanded code, so it never
merges classes that the block-preserving equivalence keeps apart:

* scaling the second new column by a unit u with u*conj(u) = 1 replaces the
  witness (c, x) by (c*u, x); the units of shape (square-one scalar)*Y^s
  act on the expansion as block rotations, so c matters only up to that
  orbit;
* a base presented as g(C), for g block-preserving with square-one scalars,
  extends exactly as C does with witness g^{-1}(x), up to the same kind of
  map on the longer code; this is why intermediate levels are deduplicated
  by block-preserving equivalence and only by it;
* within a fixed coset x + C of the base code, the extension depends only
  on the value t = <r, x_0 + r> - <r, x_0> of the pairing functional, so x
  ranges over coset representatives and, per coset, over the finitely many
  functional offsets t compatible with <x, x> = -1;
* a block map g with g(C) = C gives extend_i(C, c, g(x)) =
  (id + g)(extend_i(C, c, x)), so the witnesses x of one base matter only
  up to the base's block automorphism group, whose generators come from
  one search per base class.  As extend_i(C, c, x) = extend_i(C, c, x')
  exactly when x' - x lies in C and <x' - x, x> = 0, x is fixed by its key
  (x0, t) (below).  A base's keys are listed on arrays in witness order,
  each generator permutes them in one pass, and min-label propagation
  labels each key by the least index in its orbit.  Only the witness of
  the first key of each orbit is extended, expanded and fingerprinted; it
  is the first of its class among the orbit, so representatives and
  trails are those of the unpruned search.

Level 2 is the seeds [1 | c], and `buildup.seed` returns its classes.
Multiplying the second column by a unit gamma*Y^s with gamma^2 = 1 rotates
and sign-flips that block of the expansion, a block map, so each orbit of c
under those units lies inside one class.  Level 2 therefore starts from one
c per orbit (`c_reps`, the lexicographically first of each), and the first
candidate of each class is still its lexicographically first c.

The same searches give |Aut_G(C)| for the block group G_ell of each ring
class, and every level of an exhaustive run is certified complete by the
mass identity: the sum of |G_ell| / |Aut_G(C)| over the classes is the
number of self-dual codes over R, a product of closed-form counts of
self-dual codes over the two idempotent components.  Exhaustive runs have
q = 2 or q = 5 (q = 4 is never primitive modulo an odd prime, and q = 3 is
3 mod 4), and both have closed forms.

Witnesses live in the two components of R = e_1*R + e_phi*R, copies of F_q
and of K = F_q[Y]/Phi (Ling and Sole; see `ring`): a self-dual base is a
Euclidean self-dual code over F_q, e_1 times its rows, times a Hermitian
self-dual code over K, e_phi times its rows, and <u, v> splits the same
way.  `rcode.component_forms` echelonises both; x0 is x reduced against
them, zero on their pivots, and t = <x - x0, x0>.  Keys, offsets, the
particular solution and the block maps (x_j goes to coordinate j' times
gamma*Y^s) are worked per component, on arrays of R's own elements, and x
is the sum of its two parts.  The standard form starts from the same
component forms.
"""

from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
import json
import math
import os
import random

import numpy as np

from . import __version__
from .errors import BudgetExceeded, UnsupportedCase
from .ring import RingSpec, digit_rows, ring
from .qc import FieldCode, _matmul
from .rcode import RingCode, _lift_matrix, _split_matrix, component_forms
from .buildup import extend_i, norm_minus_one_elements
from .equiv import (
    ClassStore,
    CodeFingerprint,
    automorphism_group,
    fingerprint,
)

DEFAULT_CANDIDATE_BUDGET = 5_000_000
CONSTRUCTIVE_SEED = 20260814  # seeds the witness sampling of constructive runs
CONSTRUCTIVE_SAMPLES = 400  # witnesses x sampled per base in constructive runs


# -- closed-form counts of self-dual codes ------------------------------------


def euclidean_self_dual_count(q: int, n: int) -> int:
    """Closed-form count of Euclidean self-dual codes of length n over F_q:
    prod_{i=1}^{n/2-1} (2^i + 1) for q = 2, and 2 * prod_{i=1}^{n/2-1}
    (q^i + 1) for q = 1 mod 4 (Pless 1968; MacWilliams-Sloane, ch. 19).
    Other fields raise UnsupportedCase."""
    if q == 2:
        out = 1
    elif q % 4 == 1:
        out = 2
    else:
        raise UnsupportedCase(
            f"no closed-form count of Euclidean self-dual codes over F_{q}"
        )
    if n % 2:
        return 0
    for i in range(1, n // 2):
        out *= q**i + 1
    return out


def hermitian_self_dual_count(r: int, n: int) -> int:
    """Closed-form count of Hermitian self-dual codes of even length n over
    F_{r^2} (conjugation x -> x^r)."""
    if n % 2:
        return 0
    out = 1
    for i in range(1, n // 2 + 1):
        out *= r ** (2 * i - 1) + 1
    return out


# -- the classification driver ------------------------------------------------


@dataclass(frozen=True)
class ClassifiedCode:
    """One class representative with everything needed to audit it."""

    code: RingCode
    expansion: FieldCode
    fingerprint: CodeFingerprint
    trail: tuple  # replayable witness steps, seed first

    def trail_lines(self):
        out = []
        for step in self.trail:
            if step["kind"] == "seed":
                out.append(f"seed; c = {list(step['c'])}")
            else:
                out.append(f"extend i; c = {list(step['c'])}; x = {step['x']}")
        return out


@dataclass
class RunStats:
    """Counters of one run.

    `candidates` counts every generated candidate, pruned or not: every
    witness (c, x) of every base, and at level 2 one seed [1 | c] per orbit
    representative c in `c_reps`, not every c with c*conj(c) = -1.
    `exact_duplicates` counts the witnesses pruned before their extension
    because the key of x lies in the orbit of an earlier witness's key under
    the block automorphisms of their base.  `mass_per_level` holds, per
    level, the mass sum of |G_ell| / |Aut_G(C)| over the ring classes,
    checked against the closed-form count of self-dual codes; it is recorded
    at every level of every exhaustive run."""

    candidates: int = 0
    exact_duplicates: int = 0
    equivalence_checks: int = 0
    ring_classes_per_level: dict = dc_field(default_factory=dict)
    mass_per_level: dict = dc_field(default_factory=dict)


@dataclass
class ClassificationRun:
    spec: RingSpec
    target_ell: int
    classes: tuple  # of ClassifiedCode, pairwise inequivalent expansions
    stats: RunStats
    complete: bool


def replay_trail(spec: RingSpec, trail) -> RingCode:
    """Rebuild a classified code from its witness trail."""
    code = None
    for step in trail:
        if step["kind"] == "seed":
            code = RingCode(spec, 2, [(spec.one, tuple(step["c"]))])
        elif step["kind"] == "extend_i":
            x = [tuple(e) for e in step["x"]]
            code = extend_i(code, tuple(step["c"]), x)
        else:
            raise ValueError(f"unknown trail step kind {step['kind']!r}")
    if code is None:
        raise ValueError("empty witness trail")
    return code


def _square_one_block_units(sp: RingSpec):
    """Units of shape gamma * Y^s with gamma^2 = 1; scaling a coordinate by
    one of these only rotates and sign-flips that block of the expansion."""
    fld = sp.field
    out = []
    for g in range(1, sp.q):
        if fld.mul(g, g) != 1:
            continue
        for s in range(sp.m):
            out.append(sp.scalar_mul(g, sp.shift(sp.one, s)))
    return out


def _norm_minus_one_orbit_reps(sp: RingSpec):
    """Representatives of {c : c*conj(c) = -1} up to multiplication by the
    block-rotation units; one representative per orbit, in lexicographic
    order of first appearance."""
    group = _square_one_block_units(sp)
    seen = set()
    reps = []
    for c in norm_minus_one_elements(sp):
        if c in seen:
            continue
        reps.append(c)
        for u in group:
            seen.add(sp.mul(c, u))
    return reps


def _ring_maps(sp: RingSpec, generators, ell: int):
    """Block automorphisms of a length-ell code, read as maps of R^ell: the
    pair (j', u) at j sends x_j to coordinate j' = perm[j] % ell times the
    unit u = scalars[j] * Y^(perm[j] // ell).  The expansion holds Y^i of
    coordinate j at i*ell + j, and a block map moves whole blocks."""
    return tuple(
        tuple(
            (p % ell, sp.scalar_mul(scalars[j], sp.shift(sp.one, p // ell)))
            for j, p in enumerate(perm[:ell])
        )
        for perm, scalars in generators
    )


class _Component:
    """One component e*R of R (e = e_1, a copy of F_q, or e_phi, K) as the
    witnesses of a base see it, on (..., m) uint8 arrays of R's elements;
    q is prime (no square is primitive modulo a prime), so sums are taken
    mod q.  `elements` lists them by the base-q value of their `split`
    digits (eval1, or the mod-Phi coefficients); `lift` maps digits back,
    and lift[0] is e.  x0 runs over `values`, the assignments of elements
    to the free columns of the base's component `form` in lexicographic
    order, and `admits[w, t]` says whether t is an offset of x0 number w:
    t + conj(t) = -1 - <x0, x0>, and t = 0 if x0 pairs to zero with every
    base row."""

    def __init__(self, base: RingCode, form, split, lift):
        sp = self.sp = base.spec
        q, self.split, self.unit = sp.q, split, lift[0]
        self.radix = q ** np.arange(split.shape[1] - 1, -1, -1)
        self.elements = _matmul(sp.field, digit_rows(q, len(self.radix)), lift)
        self.free = [j for j in range(base.ell) if j not in form]
        self.pivots, self.form = list(form), np.array(list(form.values()), np.uint8)
        self.rows = sp.mul_array(self.unit, base.coeffs)
        self.values = self.elements[digit_rows(len(self.elements), len(self.free))]
        conj = sp.conj_array(self.values)
        pair = sp.mul_array(self.rows[None, :, self.free], conj[:, None])
        self.pairings = _total(q, pair, 2)
        target = (q - 1) * self.unit + q - _total(q, sp.mul_array(self.values, conj), 1)
        fiber = self.index((self.elements + sp.conj_array(self.elements)) % q)
        self.admits = (fiber == self.index(target % q)[:, None]) & (
            self.pairings.any(axis=(1, 2))[:, None] | (np.arange(len(fiber)) == 0)
        )

    def index(self, a):
        return _matmul(self.sp.field, a, self.split) @ self.radix

    def act(self, ring_map):
        """A block map g on every x0: g(x0) = x0' + d with d in the component
        code and x0' zero on the pivots, so g takes the key (x0, t) to
        (x0', t + <d, g(x0)>), as it keeps the pairing and the code.  Returns
        the number of each x0' and each shift <d, g(x0)>."""
        sp, q = self.sp, self.sp.q
        y = np.zeros((len(self.values),) + self.form.shape[1:], dtype=np.uint8)
        for k, (to, unit) in enumerate(ring_map[j] for j in self.free):
            y[:, to] = sp.mul_array(np.array(unit, np.uint8), self.values[:, k])
        d = _total(q, sp.mul_array(y[:, self.pivots, None], self.form), 1)
        moved = self.index((y[:, self.free] + q - d[:, self.free]) % q)
        radix = len(self.elements) ** np.arange(len(self.free) - 1, -1, -1)
        return moved @ radix, _total(q, sp.mul_array(d, sp.conj_array(y)), 1)

    def witness_parts(self, w, t):
        """x0 + a*r for the keys (x0 number w, offset t): r is the first base
        row that pairs nonzero with x0, and a = t / <r, x0>, the inverse
        being the power N - 2 in the N-element component."""
        sp = self.sp
        x = np.zeros((len(w),) + self.form.shape[1:], dtype=np.uint8)
        x[:, self.free] = self.values[w]
        row = self.pairings[w].any(axis=2).argmax(axis=1)
        base, inverse = self.pairings[w, row], self.unit
        for bit in bin(len(self.elements) - 2)[2:]:
            inverse = sp.mul_array(inverse, inverse)
            inverse = sp.mul_array(inverse, base) if bit == "1" else inverse
        a = sp.mul_array(self.elements[t], inverse)
        return (x + sp.mul_array(a[:, None], self.rows[row])) % sp.q


def _total(q: int, a, axis: int):
    return (a.sum(axis=axis) % q).astype(np.uint8)


def _witness_keys(base: RingCode, maps):
    """The components of a self-dual base; its witness keys (x0, t) in
    witness order, as x0 numbers `ws` and offsets `ts` per component (the
    admitted cells of the grid of F_q's and K's x0, then F_q's and K's t);
    each map's permutation of the keys; and the least index in each key's
    orbit: each label takes the least of its own, its images' and its
    preimages' labels and its label's label, until none changes."""
    sp, forms = base.spec, component_forms(base)
    if any(len(form) != base.ell // 2 for form in forms):
        raise ValueError("base code components are not half-dimensional")
    split, e1 = _split_matrix(sp), np.array([sp.e1], dtype=np.uint8)
    lifted = {p: _matmul(sp.field, np.array([r]).T, e1) for p, r in forms[0].items()}
    comps = (
        _Component(base, lifted, split[:, sp.m - 1 :], e1),
        _Component(base, forms[1], split[:, : sp.m - 1], _lift_matrix(sp)),
    )
    grid = comps[0].admits[:, None, :, None] & comps[1].admits[None, :, None, :]
    cells = np.flatnonzero(grid)
    ws, ts = np.split(np.array(np.unravel_index(cells, grid.shape)), 2)
    perms = []
    for ring_map in maps:
        moved = [c.act(ring_map) for c in comps]
        image = [v[w] for (v, _), w in zip(moved, ws)] + [
            c.index((c.elements[t] + s[w]) % c.sp.q)
            for c, (_, s), w, t in zip(comps, moved, ws, ts)
        ]
        perms.append(np.searchsorted(cells, np.ravel_multi_index(image, grid.shape)))
    labels = np.arange(ws.shape[1])
    pulls = perms + [np.argsort(p) for p in perms]
    while True:
        least = labels
        for p in pulls:
            least = np.minimum(least, least[p])
        least = least[least]
        if np.array_equal(least, labels):
            return comps, ws, ts, perms, labels
        labels = least


def _iter_extension_witnesses(base: RingCode, c_reps, maps):
    """Extension witnesses (c, x) of the base, in witness order, with None
    in place of each pruned one.

    Complete per base class: x runs over one representative per coset of
    the base code, and within a coset over one x per attainable pairing
    offset t with <x, x> = -1.  A witness is pruned when its key (x0, t)
    lies in the orbit of an earlier key under the base's block
    automorphisms, given as `_ring_maps`: only a key that is its own label
    gets its witness, which `extend_i` checks."""
    comps, ws, ts, _, labels = _witness_keys(base, maps)
    first = labels == np.arange(len(labels))
    parts = (c.witness_parts(w[first], t[first]) for c, w, t in zip(comps, ws, ts))
    found = iter((sum(parts) % base.spec.q).tolist())
    for is_first in first.tolist():
        x = tuple(map(tuple, next(found))) if is_first else None
        for c in c_reps:
            yield None if x is None else (c, x)


def _trail_step(c, x) -> dict:
    return {"kind": "extend_i", "c": list(c), "x": [list(e) for e in x]}


def _seed_candidates(spec: RingSpec, c_reps):
    for c in c_reps:
        yield RingCode(spec, 2, [(spec.one, c)]), ({"kind": "seed", "c": list(c)},)


def _constructive_candidates(bases, c_reps, samples: int, rng):
    """Non-exhaustive witness sampling for rings outside the classification
    hypotheses that still support the two-column extension."""
    for base_cc in bases:
        base, sp = base_cc.code, base_cc.code.spec
        minus1 = sp.neg(sp.one)
        found = attempts = 0
        while found < samples and attempts < samples * 200:
            attempts += 1
            x = tuple(
                tuple(rng.randrange(sp.q) for _ in range(sp.m))
                for _ in range(base.ell)
            )
            if sp.hermitian_ip(x, x) != minus1:
                continue
            found += 1
            for c in c_reps:
                yield extend_i(base, c, x), base_cc.trail + (_trail_step(c, x),)


def _extend_base(args):
    """The extensions of one base by its witnesses, as (rows, trail) pairs
    and None for each pruned witness: plain data, so that a worker process
    can return them."""
    q, m, ell, base_rows, trail, c_reps, maps = args
    base = RingCode(ring(q, m), ell, base_rows)
    return [
        None if w is None else (extend_i(base, *w).rows, trail + (_trail_step(*w),))
        for w in _iter_extension_witnesses(base, c_reps, maps)
    ]


def _extension_candidates(spec: RingSpec, ell, bases, maps, c_reps, task_map):
    """Every extension to length ell of every base, in witness order, with
    None for each witness pruned by its base's automorphisms (`maps`, one
    tuple of `_ring_maps` per base).  `task_map` (the builtin map, or a
    process pool's) runs _extend_base once per base."""
    tasks = [
        (spec.q, spec.m, ell - 2, cc.code.rows, cc.trail, c_reps, gens)
        for cc, gens in zip(bases, maps)
    ]
    for results in task_map(_extend_base, tasks):
        for item in results:
            yield None if item is None else (RingCode(spec, ell, item[0]), item[1])


def _check_mass(spec: RingSpec, ell: int, aut_orders, stats: RunStats):
    """Completeness certificate of one level: the ring classes, each weighted
    by |G_ell| / |Aut_G(C)|, must add up to the number of self-dual codes
    over R.  G_ell permutes the ell blocks and acts on each by one of the
    m * s block-rotation units (s square-one scalars), so |G_ell| =
    ell! * (m * s)^ell.  The count is the product of the closed-form counts
    of the two idempotent components: Euclidean over F_q for the evaluation
    at one, and over the residue field Hermitian for m odd, Euclidean for
    m = 2, where conjugation is trivial on F_q[Y]/(Y + 1)."""
    group = math.factorial(ell) * len(_square_one_block_units(spec)) ** ell
    mass = sum(Fraction(group, order) for order in aut_orders)
    if spec.m == 2:
        residue = euclidean_self_dual_count(spec.q, ell)
    else:
        residue = hermitian_self_dual_count(spec.q ** ((spec.m - 1) // 2), ell)
    expected = euclidean_self_dual_count(spec.q, ell) * residue
    if mass != expected:
        raise RuntimeError(
            f"length {ell}: the ring classes have mass {mass}, but there are "
            f"{expected} self-dual codes; the classification is incomplete"
        )
    stats.mass_per_level[ell] = expected


class _Checkpoint:
    """Append-only witness log; completed levels can be replayed."""

    def __init__(self, path):
        self.path = path

    def start(self, header):
        """Begin a fresh log: a run that resumes no level keeps nothing."""
        open(self.path, "w").close()
        self.append(header)

    def append(self, record):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            fh.flush()

    def load(self):
        """All records.  A crash in the middle of a write leaves a partial
        last line, one without its newline or one that does not parse: it is
        ignored and cut from the file, so that appends start on a fresh line.
        A malformed line anywhere else raises."""
        records = []
        if not os.path.exists(self.path):
            return records
        with open(self.path, "rb+") as fh:
            lines = fh.readlines()
            end = 0
            for i, line in enumerate(lines):
                try:
                    if not line.endswith(b"\n"):  # only the last line can
                        raise ValueError("record without its newline")
                    if line.strip():
                        records.append(json.loads(line))
                except ValueError:  # JSONDecodeError, UnicodeDecodeError
                    if i < len(lines) - 1:
                        raise
                    fh.truncate(end)
                end += len(line)
        return records


def _resume_levels(spec, target_ell, ckpt: _Checkpoint, stats: RunStats):
    """Rebuild completed levels from a checkpoint by replaying trails.

    The checkpoint must come from the same ring and the same qcsd version;
    its candidate budget may differ, so that a run stopped by the budget
    resumes with a larger one."""
    records = ckpt.load()
    header = [r for r in records if r.get("event") == "run"]
    if header and (
        header[0]["q"] != spec.q
        or header[0]["m"] != spec.m
    ):
        raise ValueError("checkpoint belongs to a different ring")
    if header and header[0].get("version") != __version__:
        raise ValueError(
            f"checkpoint was written by qcsd version "
            f"{header[0].get('version')!r}, not {__version__!r}"
        )
    # a level's class records are written in one batch just before its
    # level record; class records before that batch were left by an
    # interrupted attempt at the same level
    trails: dict[int, list] = {}
    since_level: list = []
    for r in records:
        if r.get("event") == "class":
            since_level.append(r)
        elif r.get("event") == "level":
            own = since_level[len(since_level) - r["count"] :]
            if len(own) != r["count"] or any(c["ell"] != r["ell"] for c in own):
                raise ValueError(
                    f"checkpoint level {r['ell']} records {r['count']} classes, "
                    f"but the records before it are not that many class "
                    f"records of that level"
                )
            trails[r["ell"]] = [c["trail"] for c in own]
            since_level = []
    levels: dict[int, list] = {}
    for ell in sorted(trails):
        if ell > target_ell:
            continue
        reps = []
        for trail in trails[ell]:
            code = replay_trail(spec, tuple(trail))
            exp = code.expansion()
            reps.append(
                ClassifiedCode(code, exp, fingerprint(exp), tuple(trail))
            )
        levels[ell] = reps
        stats.ring_classes_per_level[ell] = len(reps)
    return levels


def classify(
    spec: RingSpec,
    target_ell: int,
    constructive: bool = False,
    candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
    checkpoint_path: str | None = None,
    resume: bool = False,
    workers: int = 1,
    progress=None,
) -> ClassificationRun:
    """All equivalence classes of self-dual codes over R of length
    target_ell, by extending every class at each intermediate length with
    every witness that can produce a new class, then deduplicating
    expansions.  Exhaustive when the ring satisfies the classification
    hypotheses (char 2 or q = 1 mod 4; m prime with q primitive mod m);
    pass constructive=True to run a sampled, non-exhaustive search instead
    of refusing when only the exhaustiveness hypotheses fail.

    With workers > 1, a pool of that many processes handles the exhaustive
    levels one base class per task: it generates and prunes the base's
    witnesses and applies the extensions, and nothing else.  Expansions,
    fingerprints and deduplication run in the calling process, in witness
    order, so the result does not depend on `workers`."""
    if target_ell < 2 or target_ell % 2:
        raise ValueError(f"classification targets positive even lengths, got {target_ell}")
    exhaustive = (
        spec.field.residue_class in ("char-2", "1-mod-4") and spec.cyclotomic_ok
    )
    if not exhaustive:
        if spec.field.residue_class == "3-mod-4":
            raise UnsupportedCase(
                f"classification by two-column extensions needs char 2 or "
                f"q = 1 mod 4; q = {spec.q} is 3 mod 4"
            )
        if not constructive:
            raise UnsupportedCase(
                "exhaustive classification needs m prime with q primitive "
                f"modulo m; (q, m) = ({spec.q}, {spec.m}) fails that, pass "
                "constructive=True for a non-exhaustive construction run"
            )
    rng = random.Random(CONSTRUCTIVE_SEED)
    stats = RunStats()
    ckpt = _Checkpoint(checkpoint_path) if checkpoint_path else None
    levels: dict[int, list] = {}
    if ckpt and resume:
        levels = _resume_levels(spec, target_ell, ckpt, stats)
    if ckpt and not levels:
        ckpt.start(
            {
                "event": "run",
                "q": spec.q,
                "m": spec.m,
                "target_ell": target_ell,
                "candidate_budget": candidate_budget,
                "version": __version__,
            }
        )
    c_reps = tuple(_norm_minus_one_orbit_reps(spec))
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    task_map = map if pool is None else pool.map
    try:
        maps: list = []
        for ell in range(2, target_ell + 1, 2):
            if ell not in levels:
                if ell == 2:
                    cands = _seed_candidates(spec, c_reps)
                elif exhaustive:
                    cands = _extension_candidates(
                        spec, ell, levels[ell - 2], maps, c_reps, task_map
                    )
                else:
                    cands = _constructive_candidates(
                        levels[ell - 2], c_reps, CONSTRUCTIVE_SAMPLES, rng
                    )
                reps = _dedup_level(
                    spec, ell, cands, stats, candidate_budget, progress
                )
                levels[ell] = reps
                stats.ring_classes_per_level[ell] = len(reps)
                if ckpt:
                    for cc in reps:
                        ckpt.append(
                            {
                                "event": "class",
                                "ell": ell,
                                "trail": list(cc.trail),
                                "fingerprint": cc.fingerprint.refinement_signature,
                            }
                        )
                    ckpt.append({"event": "level", "ell": ell, "count": len(reps)})
                if progress is not None:
                    progress(
                        f"length {ell}: {len(reps)} ring classes "
                        f"({stats.candidates} candidates so far, "
                        f"{stats.exact_duplicates} pruned as orbit images)"
                    )
            # the block automorphisms of each class: generators to prune the
            # next level's witnesses, orders for the mass identity
            if exhaustive:
                groups = [
                    automorphism_group(cc.expansion, qc_blocks=(spec.m, ell))
                    for cc in levels[ell]
                ]
                _check_mass(spec, ell, [g.order for g in groups], stats)
                maps = [_ring_maps(spec, g.generators, ell) for g in groups]
    finally:
        if pool is not None:
            pool.shutdown()
    # final pass: collapse the structure-preserving classes into classes of
    # the expanded codes, which is the equivalence the counts are stated in
    store = ClassStore()
    final = [cc for cc in levels[target_ell] if store.add(cc.expansion, cc.fingerprint)]
    stats.equivalence_checks += store.checks
    return ClassificationRun(
        spec=spec,
        target_ell=target_ell,
        classes=tuple(final),
        stats=stats,
        complete=exhaustive,
    )


def _dedup_level(spec, ell, cands, stats, candidate_budget, progress):
    """Stream (code, trail) candidates into structure-preserving
    equivalence classes; returns the representatives in order of first
    appearance.  A None candidate is a witness pruned as the orbit image of
    an earlier one of the same base: it counts, but adds no class."""
    store = ClassStore(qc_blocks=(spec.m, ell))
    reps: list[ClassifiedCode] = []
    for cand in cands:
        stats.candidates += 1
        if stats.candidates > candidate_budget:
            raise BudgetExceeded(
                "classification candidates", stats.candidates, candidate_budget
            )
        if cand is None:
            stats.exact_duplicates += 1
        else:
            code, trail = cand
            exp = code.expansion()
            fp = fingerprint(exp)
            if store.add(exp, fp):
                reps.append(ClassifiedCode(code, exp, fp, trail))
        if progress is not None and stats.candidates % 5000 == 0:
            progress(
                f"length {ell}: {stats.candidates} candidates, "
                f"{stats.exact_duplicates} pruned as orbit images, "
                f"{len(reps)} ring classes"
            )
    stats.equivalence_checks += store.checks
    return reps


# -- reporting ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    index: int
    n: int
    k: int
    d: int
    weight_family: str | None
    beta: int | None
    divisibility_ok: bool
    aut_order: int

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class FilterReport:
    rows: tuple
    by_distance: tuple  # sorted (d, class count)
    max_distance: int | None
    extremal_count: int

    def to_dict(self):
        return {
            "classes": [r.to_dict() for r in self.rows],
            "by_distance": [list(t) for t in self.by_distance],
            "max_distance": self.max_distance,
            "extremal_count": self.extremal_count,
        }

    def summary_lines(self):
        out = [
            f"{len(self.rows)} classes; distance profile: "
            + ", ".join(f"d={d}: {c}" for d, c in self.by_distance)
        ]
        if self.max_distance is not None:
            out.append(
                f"highest distance {self.max_distance} achieved by "
                f"{self.extremal_count} class(es)"
            )
        return out


def filter_report(run: ClassificationRun) -> FilterReport:
    """Per-class parameters, weight-family match, divisibility check, and the
    automorphism group order."""
    from .analysis import (
        divisibility_check,
        match_template,
        weight_enumerator,
    )
    from .equiv import automorphism_order

    rows = []
    dist: dict[int, int] = {}
    for i, cc in enumerate(run.classes):
        exp = cc.expansion
        w = weight_enumerator(exp)
        d = next(j for j, a in enumerate(w.counts) if j > 0 and a)
        matches = match_template(w)
        family = beta = None
        if matches:
            best = next((m for m in matches if m.in_listed_range), matches[0])
            family, beta = best.family, best.beta
        div_ok = divisibility_check(w, run.spec.m)
        aut = automorphism_order(exp)
        rows.append(
            ClassReport(i, exp.n, exp.k, d, family, beta, div_ok, aut)
        )
        dist[d] = dist.get(d, 0) + 1
    by_distance = tuple(sorted(dist.items()))
    max_d = max(dist) if dist else None
    extremal = dist.get(max_d, 0) if max_d is not None else 0
    return FilterReport(tuple(rows), by_distance, max_d, extremal)
