"""Classification driver: level build-up, mass identity, checkpoints."""

from dataclasses import asdict
import importlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from qcsd.buildup import extend_i, norm_minus_one_elements
from qcsd.classify import (
    ClassificationRun,
    ClassifiedCode,
    RunStats,
    _dedup_level,
    _ring_maps,
    classify,
    euclidean_self_dual_count,
    filter_report,
    hermitian_self_dual_count,
    replay_trail,
)
from qcsd.equiv import (
    AutomorphismGroup,
    apply_monomial,
    automorphism_group,
    fingerprint,
)
from qcsd.errors import BudgetExceeded, UnsupportedCase
from qcsd.gf import field
from qcsd.rcode import RingCode, component_forms
from qcsd.ring import ring

from conftest import (
    mod_phi,
    random_element,
    random_norm_minus_one_vector,
    random_self_dual,
    reference_k,
)


def test_self_dual_mass_formulas():
    # binary Euclidean counts 1, 3, 15, 135 for lengths 2, 4, 6, 8
    assert euclidean_self_dual_count(2, 2) == 1
    assert euclidean_self_dual_count(2, 4) == 3
    assert euclidean_self_dual_count(2, 6) == 15
    assert euclidean_self_dual_count(2, 8) == 135
    # Euclidean counts over F_5
    assert [euclidean_self_dual_count(5, n) for n in (2, 4, 6)] == [2, 12, 312]
    # Hermitian counts over F_4, F_16 and F_25
    assert hermitian_self_dual_count(2, 2) == 3
    assert hermitian_self_dual_count(2, 4) == 27
    assert hermitian_self_dual_count(4, 2) == 5
    assert [hermitian_self_dual_count(5, n) for n in (2, 4)] == [6, 756]
    for q in (3, 4):
        with pytest.raises(UnsupportedCase):
            euclidean_self_dual_count(q, 4)


def _brute_force_self_dual_count(fld, conj, n):
    """Self-dual codes of length n under sum u_i * conj(v_i), counted over
    every n/2-dimensional subspace of F^n in reduced row echelon form."""
    k = n // 2
    count = 0
    for pivots in itertools.combinations(range(n), k):
        slots = [
            (i, j)
            for i, p in enumerate(pivots)
            for j in range(p + 1, n)
            if j not in pivots
        ]
        for values in itertools.product(range(fld.q), repeat=len(slots)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(slots, values):
                rows[i][j] = v
            count += all(
                _form(fld, conj, u, w) == 0
                for u, w in itertools.combinations_with_replacement(rows, 2)
            )
    return count


def _form(fld, conj, u, w):
    acc = 0
    for a, b in zip(u, w):
        acc = fld.add(acc, fld.mul(a, conj(b)))
    return acc


def test_closed_form_counts_match_brute_force():
    f2, f4, f5 = field(2), field(4), field(5)
    for n in (2, 4, 6):
        assert _brute_force_self_dual_count(f2, lambda a: a, n) == (
            euclidean_self_dual_count(2, n)
        )
    for n in (2, 4):
        assert _brute_force_self_dual_count(f5, lambda a: a, n) == (
            euclidean_self_dual_count(5, n)
        )
        assert _brute_force_self_dual_count(f4, lambda a: f4.mul(a, a), n) == (
            hermitian_self_dual_count(2, n)
        )


def test_classify_small_counts():
    run = classify(ring(2, 3), 4)
    assert run.complete
    assert len(run.classes) == 2
    assert run.stats.ring_classes_per_level[2] == 1
    run5 = classify(ring(2, 5), 2)
    assert len(run5.classes) == 1
    for cc in list(run.classes) + list(run5.classes):
        assert cc.code.is_self_dual()
        assert cc.expansion.k * 2 == cc.expansion.n


def test_classify_is_deterministic():
    sp = ring(2, 3)
    a = classify(sp, 4)
    b = classify(sp, 4)
    assert [c.fingerprint for c in a.classes] == [c.fingerprint for c in b.classes]
    assert [c.trail for c in a.classes] == [c.trail for c in b.classes]


def test_trails_replay_to_the_stored_codes():
    sp = ring(2, 3)
    run = classify(sp, 6)
    assert len(run.classes) == 3
    for cc in run.classes:
        replayed = replay_trail(sp, cc.trail)
        assert replayed.rows == cc.code.rows
        lines = cc.trail_lines()
        assert lines[0].startswith("seed; c = ")
        assert all(line.startswith("extend i; c = ") for line in lines[1:])


def test_checkpoint_resume_completed_run(tmp_path):
    sp = ring(2, 3)
    ck = str(tmp_path / "checkpoint.jsonl")
    first = classify(sp, 4, checkpoint_path=ck)
    resumed = classify(sp, 4, checkpoint_path=ck, resume=True)
    assert len(resumed.classes) == len(first.classes)
    assert [c.fingerprint for c in resumed.classes] == [
        c.fingerprint for c in first.classes
    ]
    # a resumed completed run does not regenerate extension candidates
    assert resumed.stats.candidates == 0


def test_checkpoint_resume_extends_partial_run(tmp_path):
    sp = ring(2, 3)
    ck = str(tmp_path / "checkpoint.jsonl")
    classify(sp, 4, checkpoint_path=ck)
    extended = classify(sp, 6, checkpoint_path=ck, resume=True)
    fresh = classify(sp, 6)
    assert len(extended.classes) == len(fresh.classes) == 3
    assert extended.stats.candidates < fresh.stats.candidates


def test_fresh_run_restarts_the_checkpoint(tmp_path):
    # a second fresh run to the same path must not append to the first's log
    sp = ring(2, 3)
    ck = str(tmp_path / "checkpoint.jsonl")
    classify(sp, 2, checkpoint_path=ck)
    classify(sp, 2, checkpoint_path=ck)
    resumed = classify(sp, 4, checkpoint_path=ck, resume=True)
    fresh = classify(sp, 4)
    assert [c.trail for c in resumed.classes] == [c.trail for c in fresh.classes]


def test_checkpoint_resume_ignores_truncated_last_line(tmp_path):
    # a crash in the middle of a write leaves a partial last record
    sp = ring(2, 3)
    ck = tmp_path / "checkpoint.jsonl"
    classify(sp, 4, checkpoint_path=str(ck))
    with open(ck, "a") as fh:
        fh.write('{"event": "class", "ell": 6, "trai')
    resumed = classify(sp, 6, checkpoint_path=str(ck), resume=True)
    fresh = classify(sp, 6)
    assert [c.trail for c in resumed.classes] == [c.trail for c in fresh.classes]
    # the partial line was cut, so the appended records load again
    again = classify(sp, 6, checkpoint_path=str(ck), resume=True)
    assert again.stats.candidates == 0
    assert [c.trail for c in again.classes] == [c.trail for c in fresh.classes]
    # a malformed line that is not the last one still raises
    lines = ck.read_text().splitlines(keepends=True)
    ck.write_text(lines[0] + "{not json\n" + "".join(lines[1:]))
    with pytest.raises(ValueError):
        classify(sp, 6, checkpoint_path=str(ck), resume=True)


def test_checkpoint_resume_cuts_a_last_record_without_its_newline(tmp_path):
    # a crash between a record's closing brace and its newline
    sp = ring(2, 3)
    ck = tmp_path / "checkpoint.jsonl"
    classify(sp, 4, checkpoint_path=str(ck))
    ck.write_text(ck.read_text()[:-1])
    fresh = classify(sp, 6)
    for _ in range(2):
        resumed = classify(sp, 6, checkpoint_path=str(ck), resume=True)
        assert [c.trail for c in resumed.classes] == [c.trail for c in fresh.classes]
        assert [c.fingerprint for c in resumed.classes] == [
            c.fingerprint for c in fresh.classes
        ]
    for line in ck.read_text().splitlines():
        json.loads(line)


def test_checkpoint_resume_after_an_interrupted_level(tmp_path):
    # a run cut after some class records of a level, before its level record
    sp = ring(2, 3)
    ck = tmp_path / "checkpoint.jsonl"
    fresh = classify(sp, 4, checkpoint_path=str(ck))
    lines = ck.read_text().splitlines(keepends=True)
    assert json.loads(lines[-1]) == {"event": "level", "ell": 4, "count": 2}
    ck.write_text("".join(lines[:-1]))
    for _ in range(2):
        resumed = classify(sp, 4, checkpoint_path=str(ck), resume=True)
        assert [c.trail for c in resumed.classes] == [c.trail for c in fresh.classes]
    assert resumed.stats.candidates == 0
    # a level record claiming more classes than were written before it
    lines = ck.read_text().splitlines(keepends=True)
    ck.write_text("".join(lines[:-1]) + '{"event": "level", "ell": 4, "count": 5}\n')
    with pytest.raises(ValueError, match="records 5 classes"):
        classify(sp, 4, checkpoint_path=str(ck), resume=True)


def test_checkpoint_rejects_other_ring(tmp_path):
    ck = str(tmp_path / "checkpoint.jsonl")
    classify(ring(2, 3), 2, checkpoint_path=ck)
    with pytest.raises(ValueError, match="different ring"):
        classify(ring(2, 5), 2, checkpoint_path=ck, resume=True)


def test_checkpoint_records_budget_and_version_and_refuses_other_versions(
    tmp_path, monkeypatch
):
    module = importlib.import_module("qcsd.classify")
    ck = tmp_path / "checkpoint.jsonl"
    classify(ring(2, 3), 2, candidate_budget=1000, checkpoint_path=str(ck))
    header = json.loads(ck.read_text().splitlines()[0])
    assert header["candidate_budget"] == 1000
    assert header["version"] == module.__version__
    monkeypatch.setattr(module, "__version__", "0.0.0")
    with pytest.raises(ValueError, match="version '0.1.0', not '0.0.0'"):
        classify(ring(2, 3), 4, checkpoint_path=str(ck), resume=True)


def test_classify_refuses_out_of_scope_rings():
    with pytest.raises(UnsupportedCase, match="3 mod 4"):
        classify(ring(3, 5), 4)
    with pytest.raises(UnsupportedCase, match="constructive"):
        classify(ring(4, 3), 4)
    with pytest.raises(ValueError):
        classify(ring(2, 3), 3)
    with pytest.raises(ValueError):
        classify(ring(2, 3), 0)


def test_constructive_mode_builds_self_dual_codes(monkeypatch):
    module = importlib.import_module("qcsd.classify")
    monkeypatch.setattr(module, "CONSTRUCTIVE_SAMPLES", 40)
    run = classify(ring(4, 3), 4, constructive=True)
    assert not run.complete
    assert len(run.classes) >= 1
    for cc in run.classes:
        assert cc.code.is_self_dual()
        assert replay_trail(ring(4, 3), cc.trail).rows == cc.code.rows


def test_filter_report_structure():
    run = classify(ring(2, 3), 4)
    rep = filter_report(run)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row.n == 12 and row.k == 6
        assert row.divisibility_ok
        assert row.aut_order and row.aut_order > 0
        assert row.d % 2 == 0
    assert sum(c for _, c in rep.by_distance) == 2
    assert rep.max_distance == max(r.d for r in rep.rows)
    d = rep.to_dict()
    assert len(d["classes"]) == 2
    assert rep.summary_lines()[0].startswith("2 classes; distance profile: ")


def test_filter_report_names_the_weight_family():
    # a binary [30, 15, 6] code: n = 30 has weight-enumerator templates, and
    # the automorphism group is searched at every length
    sp = ring(2, 3)
    trail = (
        {"kind": "seed", "c": [0, 0, 1]},
        {"kind": "extend_i", "c": [0, 0, 1], "x": [[1, 1, 1], [1, 1, 0]]},
        {"kind": "extend_i", "c": [0, 1, 0],
         "x": [[0, 1, 0], [1, 0, 0], [1, 1, 1], [1, 1, 0]]},
        {"kind": "extend_i", "c": [1, 0, 0],
         "x": [[0, 0, 0], [1, 0, 1], [0, 1, 1], [0, 1, 0], [1, 0, 0], [0, 1, 0]]},
        {"kind": "extend_i", "c": [0, 0, 1],
         "x": [[1, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1],
               [1, 0, 1], [1, 1, 1]]},
    )
    code = replay_trail(sp, trail)
    exp = code.expansion()
    run = ClassificationRun(
        sp, 10, (ClassifiedCode(code, exp, fingerprint(exp), trail),), RunStats(),
        complete=False,
    )
    assert filter_report(run).to_dict() == {
        "classes": [
            {"index": 0, "n": 30, "k": 15, "d": 6, "weight_family": "W_1",
             "beta": None, "divisibility_ok": True, "aut_order": 576},
        ],
        "by_distance": [[6, 1]],
        "max_distance": 6,
        "extremal_count": 1,
    }


@pytest.mark.parametrize(
    "q, m, ell, orders",
    [
        (2, 3, 6, [185794560, 1105920, 82944]),
        (2, 5, 4, [3715891200, 122880, 1857945600]),
        (2, 11, 2, [81749606400, 887040]),
        (5, 2, 4, [98304, 768]),
        # n = 26: 2^13 * 13! for the code that is 13 copies of the repetition
        # code of length 2, up to the coordinate order
        (2, 13, 2, [51011754393600, 11232]),
    ],
)
def test_filter_report_automorphism_orders(q, m, ell, orders):
    rep = filter_report(classify(ring(q, m), ell))
    assert [row.aut_order for row in rep.rows] == orders


@pytest.mark.parametrize(
    "q, m, ell, masses",
    [
        (2, 3, 6, {2: 3, 4: 81, 6: 13365}),
        (2, 5, 4, {2: 5, 4: 975}),
        (2, 11, 2, {2: 33}),
        (5, 2, 4, {2: 4, 4: 144}),
        (5, 3, 2, {2: 12}),
    ],
)
def test_mass_identity_per_level(q, m, ell, masses):
    run = classify(ring(q, m), ell)
    assert run.stats.mass_per_level == masses


def test_mass_identity_mismatch_raises(monkeypatch):
    module = importlib.import_module("qcsd.classify")
    search = module.automorphism_group

    def doubled(code, **kwargs):
        group = search(code, **kwargs)
        return AutomorphismGroup(2 * group.order, group.generators)

    monkeypatch.setattr(module, "automorphism_group", doubled)
    for q, m in [(2, 3), (5, 2)]:
        with pytest.raises(RuntimeError, match="incomplete"):
            classify(ring(q, m), 2)


@pytest.mark.parametrize("q, m, ell", [(2, 3, 6), (2, 5, 4), (5, 2, 4), (5, 3, 4)])
def test_witness_pruning_changes_no_answer(monkeypatch, q, m, ell):
    sp = ring(q, m)
    messages = []
    pruned = classify(sp, ell, progress=messages.append)
    assert pruned.stats.exact_duplicates > 0
    assert f"{pruned.stats.exact_duplicates} pruned as orbit images" in messages[-1]
    module = importlib.import_module("qcsd.classify")
    search = module.automorphism_group

    def no_generators(code, **kwargs):
        return AutomorphismGroup(search(code, **kwargs).order, ())

    monkeypatch.setattr(module, "automorphism_group", no_generators)
    unpruned = classify(sp, ell)
    assert unpruned.stats.exact_duplicates == 0
    assert unpruned.stats.candidates == pruned.stats.candidates
    assert [c.trail for c in unpruned.classes] == [c.trail for c in pruned.classes]
    assert [c.fingerprint for c in unpruned.classes] == [
        c.fingerprint for c in pruned.classes
    ]
    assert (
        unpruned.stats.ring_classes_per_level == pruned.stats.ring_classes_per_level
    )
    assert filter_report(unpruned).to_dict() == filter_report(pruned).to_dict()


def _map_ring_vector(sp, x, perm, scalars):
    """The image of x in R^ell under a monomial map of its expansion."""
    ell = len(x)
    image = [0] * (sp.m * ell)
    for j, entry in enumerate(x):
        for i in range(sp.m):
            p = i * ell + j
            image[perm[p]] = sp.field.mul(scalars[p], entry[i])
    return tuple(tuple(image[i * ell + j] for i in range(sp.m)) for j in range(ell))


def _generated_order(fld, generators, n):
    """Order of the group of monomial maps the generators generate."""
    identity = (tuple(range(n)), (1,) * n)
    seen = {identity}
    frontier = [identity]
    while frontier:
        perm, scalars = frontier.pop()
        for gperm, gscalars in generators:
            # apply (perm, scalars), then the generator
            new = (
                tuple(gperm[perm[p]] for p in range(n)),
                tuple(fld.mul(scalars[p], gscalars[perm[p]]) for p in range(n)),
            )
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return len(seen)


def _lift(generators, m: int, ell: int):
    """Block maps of a length-ell code, as maps of length ell + 2 that fix
    the two new leading blocks: base position i*ell + j goes to
    i*(ell + 2) + j + 2."""

    def pos(p):
        i, j = divmod(p, ell)
        return i * (ell + 2) + j + 2

    n = m * (ell + 2)
    out = []
    for perm, scalars in generators:
        lifted_perm, lifted_scalars = list(range(n)), [1] * n
        for p in range(m * ell):
            lifted_perm[pos(p)] = pos(perm[p])
            lifted_scalars[pos(p)] = scalars[p]
        out.append((tuple(lifted_perm), tuple(lifted_scalars)))
    return tuple(out)


def _apply_ring_map(sp, ring_map, x):
    """x_j moves to coordinate j', multiplied by the unit u."""
    image = [None] * len(x)
    for entry, (target, unit) in zip(x, ring_map):
        image[target] = sp.mul(unit, entry)
    return tuple(image)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 3), (2, 5), (5, 2)]),
    st.sampled_from([2, 4]),
    st.randoms(use_true_random=False),
)
def test_block_automorphism_generators_lift_to_extensions(qm, ell, rng):
    q, m = qm
    sp = ring(q, m)
    code = random_self_dual(q, m, ell, rng)
    exp = code.expansion()
    group = automorphism_group(exp, qc_blocks=(m, ell))
    square_one = [g for g in range(1, q) if sp.field.mul(g, g) == 1]
    ring_maps = _ring_maps(sp, group.generators, ell)
    block_units = {
        sp.scalar_mul(g, sp.shift(sp.one, s)) for g in square_one for s in range(m)
    }
    assert len(ring_maps) == len(group.generators)
    for (perm, scalars), ring_map in zip(group.generators, ring_maps):
        assert apply_monomial(exp, perm, scalars) == exp
        # block j goes to block perm[j] % ell, rotated by perm[j] // ell and
        # scaled by one square-one scalar
        for j in range(ell):
            shift, block = divmod(perm[j], ell)
            for i in range(m):
                assert perm[i * ell + j] == ((i + shift) % m) * ell + block
                assert scalars[i * ell + j] == scalars[j]
        assert sorted(target for target, _ in ring_map) == list(range(ell))
        assert all(unit in block_units for _, unit in ring_map)
        (lifted,) = _lift([(perm, scalars)], m, ell)
        for _ in range(2):
            c = rng.choice(norm_minus_one_elements(sp))
            x = random_norm_minus_one_vector(sp, ell, rng)
            # the ring map is the monomial map, read on R^ell
            moved_x = _apply_ring_map(sp, ring_map, x)
            assert moved_x == _map_ring_vector(sp, x, perm, scalars)
            assert sp.hermitian_ip(moved_x, moved_x) == sp.hermitian_ip(x, x)
            assert extend_i(code, c, moved_x).expansion() == apply_monomial(
                extend_i(code, c, x).expansion(), *lifted
            )
    if group.order <= 2000:
        assert _generated_order(sp.field, group.generators, exp.n) == group.order


def _reference_key(base, x):
    """The witness key of x: per component, x reduced against the echelon
    form of the base's component code (zero on its pivots) and
    t = <x - x0, x0>.  K's part is worked in the reference K on residue
    tuples and lifted into e_phi*R."""
    sp = base.spec
    kf = reference_k(sp.q, sp.m)
    key = []
    components = (
        (sp.field, sp.eval1, lambda a: a, lambda a: a),
        (kf, lambda e: mod_phi(sp, e), kf.conj, kf.lift),
    )
    form1, form2 = component_forms(base)
    form2 = {p: [mod_phi(sp, e) for e in row] for p, row in form2.items()}
    for form, (fld, split, conj, lift) in zip((form1, form2), components):
        y = [split(e) for e in x]
        x0 = list(y)
        for p, row in form.items():
            a = x0[p]
            x0 = [fld.sub(v, fld.mul(a, r)) for v, r in zip(x0, row)]
        t = fld.zero
        for u, v in zip(y, x0):
            t = fld.add(t, fld.mul(fld.sub(u, v), conj(v)))
        key.append((tuple(map(lift, x0)), lift(t)))
    return tuple(key)


def _random_codeword(sp, base, rng):
    word = [sp.zero] * base.ell
    for row in base.rows:
        a = random_element(sp, rng)
        word = [sp.add(w, sp.mul(a, e)) for w, e in zip(word, row)]
    return word


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 3), (2, 5), (5, 2), (5, 3)]),
    st.sampled_from([2, 4]),
    st.randoms(use_true_random=False),
)
def test_extensions_agree_exactly_when_witness_keys_agree(qm, ell, rng):
    q, m = qm
    sp = ring(q, m)
    minus1 = sp.neg(sp.one)
    base = random_self_dual(q, m, ell, rng)
    c = rng.choice(norm_minus_one_elements(sp))
    x = random_norm_minus_one_vector(sp, ell, rng)
    others = [random_norm_minus_one_vector(sp, ell, rng)]
    for _ in range(12):
        # x + d for d in the base: same coset, and the same key exactly
        # when <d, x> = 0, which s2*d1 - s1*d2 with s_i = <d_i, x> forces
        d1 = _random_codeword(sp, base, rng)
        d2 = _random_codeword(sp, base, rng)
        s1, s2 = sp.hermitian_ip(d1, x), sp.hermitian_ip(d2, x)
        d0 = [sp.sub(sp.mul(s2, u), sp.mul(s1, v)) for u, v in zip(d1, d2)]
        for d in (d0, d1):
            others.append(tuple(sp.add(u, v) for u, v in zip(x, d)))
    key = _reference_key(base, x)
    expansion = extend_i(base, c, x).expansion()
    for other in others:
        if sp.hermitian_ip(other, other) != minus1:
            continue
        same = extend_i(base, c, other).expansion() == expansion
        assert same == (_reference_key(base, other) == key)


def _key_orbit(image, maps, key):
    """The orbit of a witness key under the block maps, searched
    breadth-first; `image(key, ring_map)` is the key of the map's image."""
    orbit = [key]
    found = {key}
    for current in orbit:
        for ring_map in maps:
            other = image(current, ring_map)
            if other not in found:
                found.add(other)
                orbit.append(other)
    return orbit


@pytest.mark.parametrize("q, m, ell", [(2, 3, 6), (2, 5, 4), (5, 3, 4)])
def test_witness_key_orbits_are_block_group_orbits(q, m, ell):
    """The witness keys of each base, labelled on arrays by the least index
    of their orbit, against the orbits searched breadth-first.  Every key
    is the key of its witness, which has <x, x> = -1.  Each map's
    permutation of the keys agrees with the ring map applied to the
    witness and keyed by the reference.  The orbits are the reference's,
    partition the keys and have sizes dividing the block group's order,
    and a witness is yielded exactly for the first key of each."""
    module = importlib.import_module("qcsd.classify")
    sp = ring(q, m)
    minus1 = sp.neg(sp.one)
    embed = (lambda u: sp.scalar_mul(u, sp.e1), lambda v: v)
    for cc in classify(sp, ell - 2).classes:
        base = cc.code
        group = automorphism_group(base.expansion(), qc_blocks=(m, ell - 2))
        maps = _ring_maps(sp, group.generators, ell - 2)
        comps, ws, ts, perms, labels = module._witness_keys(base, maps)
        parts = sum(c.witness_parts(w, t) for c, w, t in zip(comps, ws, ts)) % q
        xs = [tuple(map(tuple, x)) for x in parts.tolist()]
        keys = list(zip(*(
            zip(
                [tuple(map(tuple, v)) for v in comp.values[w].tolist()],
                map(tuple, comp.elements[t].tolist()),
            )
            for comp, w, t in zip(comps, ws, ts)
        )))

        def production_key(x):
            return tuple(
                (tuple(lift(x0[j]) for j in comp.free), lift(t))
                for comp, lift, (x0, t) in zip(comps, embed, _reference_key(base, x))
            )

        index = {key: i for i, key in enumerate(keys)}
        assert len(index) == len(keys) == len(labels)
        for x, key in zip(xs, keys):
            assert sp.hermitian_ip(x, x) == minus1
            assert production_key(x) == key

        def image(i, ring_map):
            return index[production_key(_apply_ring_map(sp, ring_map, xs[i]))]

        for perm, ring_map in zip(perms, maps):
            assert perm.tolist() == [image(i, ring_map) for i in range(len(keys))]
        orbits, seen = [], set()
        for i in range(len(keys)):
            if i not in seen:
                orbits.append(_key_orbit(image, maps, i))
                seen.update(orbits[-1])
        assert len(orbits) > 1
        labelled: dict = {}
        for i, label in enumerate(labels.tolist()):
            labelled.setdefault(label, set()).add(i)
        assert sorted(map(sorted, labelled.values())) == sorted(map(sorted, orbits))
        for orbit in orbits:
            assert group.order % len(orbit) == 0
            assert set(labels[orbit].tolist()) == {min(orbit)}
        out = list(module._iter_extension_witnesses(base, (sp.one,), maps))
        assert len(out) == len(keys)
        firsts = [orbit[0] for orbit in orbits]
        assert [i for i, w in enumerate(out) if w is not None] == firsts
        assert [w[1] for w in out if w is not None] == [xs[i] for i in firsts]


def test_progress_counts_pruned_candidates():
    # the line every 5,000 candidates counts pruned witnesses as well: here
    # the 5,000th candidate is pruned, and only the 5,001st is a code
    sp = ring(2, 3)
    c = norm_minus_one_elements(sp)[0]
    cands = [None] * 5000 + [(RingCode(sp, 2, [(sp.one, c)]), ())]
    stats = RunStats()
    messages = []
    reps = _dedup_level(sp, 2, iter(cands), stats, 10**6, messages.append)
    assert messages == [
        "length 2: 5000 candidates, 5000 pruned as orbit images, 0 ring classes"
    ]
    assert len(reps) == 1
    assert (stats.candidates, stats.exact_duplicates) == (5001, 5000)


@pytest.mark.parametrize("budget", [20, 100, 252])
def test_candidate_budget_counts_every_witness(budget):
    # (2, 3) to length 6 has 1 + 12 + 240 candidates, most of them pruned
    with pytest.raises(BudgetExceeded) as exc:
        classify(ring(2, 3), 6, candidate_budget=budget)
    assert exc.value.required == budget + 1
    assert exc.value.budget == budget
    assert classify(ring(2, 3), 6, candidate_budget=253).stats.candidates == 253


def test_workers_give_identical_results():
    sp = ring(2, 3)
    single = classify(sp, 6, workers=1)
    multi = classify(sp, 6, workers=2)
    assert len(single.classes) == 3
    assert [c.trail for c in multi.classes] == [c.trail for c in single.classes]
    assert [c.fingerprint for c in multi.classes] == [
        c.fingerprint for c in single.classes
    ]
    assert asdict(multi.stats) == asdict(single.stats)
