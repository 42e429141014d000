"""Bundled reference codes: integrity, derivations, verification checks."""

import pytest

from qcsd import corpus
from qcsd.buildup import extend_i
from qcsd.rcode import RingCode


def test_names_and_get():
    names = corpus.names()
    assert len(names) == 40
    assert "G_16" in names and "SSD_42_4" in names
    entry = corpus.get("G_16")
    assert entry.q == 2 and entry.m == 3 and entry.ell == 16
    with pytest.raises(KeyError):
        corpus.get("NOPE")


def test_every_entry_verifies_at_default_budget():
    failures = []
    for name in corpus.names():
        report = corpus.verify_entry(corpus.get(name))
        if not report.passed:
            failures.append((name, [c for c in report.checks if not c.ok]))
    assert failures == []


def test_summary_records_how_numbers_were_certified():
    for name in ["K_2", "G_20", "J_6", "N_4", "I_8"]:
        entry = corpus.get(name)
        s = corpus.verify_entry(entry).summary
        fc = corpus.field_form(entry)
        if fc.field.q ** fc.k <= corpus.DEFAULT_WEIGHT_BUDGET:
            assert s["method"] == "enumerate" and "bound" not in s, name
            continue
        w = entry.scan_weight
        assert s["method"] == "scan" and s["message_weight"] == w, name
        assert s["bound"] == sum(max(0, w + 1 - d) for d in s["deficits"]), name
        assert s["d_exact"] and s["d"] <= s["bound"], name


# full weight enumerators A_0..A_n of every corpus code over F_3, F_4 or F_5
# within the default budget, recorded from the all-messages walk
Q_ABOVE_2_ENUMERATORS = {
    "I_4": (1, 0, 0, 0, 0, 0, 120, 0, 0, 4360, 0, 0, 26280, 0, 0, 25728, 0, 0,
            2560, 0, 0),
    "J_2": (1, 0, 0, 0, 15, 60, 165, 240, 300, 180, 63),
    "J_4": (1, 0, 0, 0, 0, 0, 0, 0, 855, 4560, 10260, 21660, 70965, 123120,
            164160, 217512, 201780, 136800, 71820, 21660, 3423),
    "M_2": (1, 0, 0, 0, 0, 0, 168, 546, 1155, 2226, 3738, 3990, 2940, 1302,
            318),
    "M_4": (1, 0, 0, 0, 0, 0, 0, 0, 0, 630, 2877, 11760, 68271, 229320,
            645330, 2091516, 4995291, 9907548, 19212228, 30287460, 39715032,
            46310808, 44337006, 34230084, 21570780, 10368078, 3569727,
            796908, 84801),
    "N_2": (1, 0, 0, 0, 0, 0, 252, 392, 3472, 4872, 16324, 15848, 22708,
            10528, 3728),
}
Q_ABOVE_2_ENUMERATORS["SSD_28_4"] = Q_ABOVE_2_ENUMERATORS["M_4"]


def test_q_above_2_enumerators_are_pinned():
    from qcsd.analysis import weight_profile

    enumerated = set()
    for name in corpus.names():
        fc = corpus.field_form(corpus.get(name))
        if fc.field.q > 2 and fc.field.q ** fc.k <= corpus.DEFAULT_WEIGHT_BUDGET:
            enumerated.add(name)
    assert enumerated == set(Q_ABOVE_2_ENUMERATORS)
    for name, want in Q_ABOVE_2_ENUMERATORS.items():
        entry = corpus.get(name)
        fc = corpus.field_form(entry)
        prof = weight_profile(fc, corpus.DEFAULT_WEIGHT_BUDGET, entry.scan_weight)
        assert prof.certificate == {"method": "enumerate"}, name
        assert prof.enum.counts == want, name


def test_exact_mode_never_lowers_an_explicit_budget(monkeypatch):
    from qcsd.analysis import weight_profile

    caps = []

    def capture(fc, cap, message_weight, **kwargs):
        caps.append(cap)
        return weight_profile(fc, corpus.DEFAULT_WEIGHT_BUDGET, message_weight, **kwargs)

    monkeypatch.setattr(corpus, "weight_profile", capture)
    entry = corpus.get("K_2")
    corpus.verify_entry(entry, exact=True, budget=1 << 40)
    corpus.verify_entry(entry, exact=True)
    corpus.verify_entry(entry, budget=1 << 20)
    assert caps == [1 << 40, corpus.EXACT_WORD_CAP, 1 << 20]


def test_headline_format():
    report = corpus.verify_entry(corpus.get("G_16"))
    assert report.headline() == "PASS: [48,24,10], A_10=768, A_12=8592"


def test_ring_entries_load_self_dual_shift_invariant():
    from qcsd.qc import is_shift_invariant

    for name in corpus.names():
        entry = corpus.get(name)
        if entry.kind != "ring":
            continue
        rc = corpus.load(entry)
        assert rc.ell == entry.ell
        assert rc.is_self_dual(), name
        assert is_shift_invariant(rc.expansion(), rc.ell), name


def test_field_forms_match_ring_expansions():
    for name in corpus.names():
        entry = corpus.get(name)
        if entry.kind != "field":
            continue
        fc = corpus.field_form(entry)
        twin = corpus.get(entry.expected["same_as"])
        assert fc == corpus.load(twin).expansion(), name


def rebuild_from_derivation(entry):
    """Recompute an entry's matrix from its parent's.

    Deletions drop the rows and ring coordinates an extension step added;
    extensions replay the recorded step with the stored witness vector
    (the first row of the frozen matrix carries it); expansions map the
    parent to its field form.
    """
    d = entry.derivation
    parent = corpus.load(corpus.get(d["parent"]))
    if d["kind"] == "delete":
        rows = [r[d["cols"]:] for r in parent.rows[d["rows"]:]]
        return RingCode(parent.spec, parent.ell - d["cols"], rows)
    if d["kind"] == "expansion":
        return parent.expansion()
    if d["kind"] == "extend":
        if "pre_delete" in d:
            nr, nc = d["pre_delete"]
            parent = RingCode(parent.spec, parent.ell - nc,
                              [r[nc:] for r in parent.rows[nr:]])
        x = corpus.load(entry).rows[0][2:]
        return extend_i(parent, parent.spec.one, x)
    raise ValueError(f"unknown derivation kind {d['kind']!r}")


def test_derivations_rebuild_bit_exact():
    rebuilt = 0
    for name in corpus.names():
        entry = corpus.get(name)
        if not entry.derivation:
            continue
        got = rebuild_from_derivation(entry)
        if entry.kind == "ring":
            want = corpus.load(entry)
            assert got.rows == want.rows, name
        else:
            assert got == corpus.field_form(entry), name
        rebuilt += 1
    assert rebuilt >= 13


def test_exact_mode_on_small_entries():
    for name in ["G_14", "G_16", "K_2", "M_2", "N_2", "I_4", "J_2", "G_8"]:
        report = corpus.verify_entry(corpus.get(name), exact=True)
        assert report.passed, (name, [c for c in report.checks if not c.ok])
        assert report.summary["d_exact"], name


def test_corrupting_a_generator_fails_verification():
    entry = corpus.get("G_14")
    rc = corpus.load(entry)
    rows = [list(list(e) for e in r) for r in rc.rows]
    rows[0][0][0] ^= 1
    from qcsd.rcode import RingCode

    bad = RingCode(rc.spec, rc.ell, [tuple(tuple(e) for e in r) for r in rows])
    assert not bad.is_self_dual()
