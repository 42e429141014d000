"""Bundled reference codes: integrity, derivations, verification checks."""

import pytest

from qcsd import corpus


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


def test_derivations_rebuild_bit_exact():
    rebuilt = 0
    for name in corpus.names():
        entry = corpus.get(name)
        if not entry.derivation:
            continue
        got = corpus.rebuild_from_derivation(entry)
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


def test_verify_all_respects_filter():
    reports = corpus.verify_all(names_filter=["G_14", "K_2"])
    assert sorted(r.name for r in reports) == ["G_14", "K_2"]
    assert all(r.passed for r in reports)


def test_corrupting_a_generator_fails_verification():
    entry = corpus.get("G_14")
    rc = corpus.load(entry)
    rows = [list(list(e) for e in r) for r in rc.rows]
    rows[0][0][0] ^= 1
    from qcsd.rcode import RingCode

    bad = RingCode(rc.spec, rc.ell, [tuple(tuple(e) for e in r) for r in rows])
    assert not bad.is_self_dual()
