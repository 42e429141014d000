"""Command-line interface: outputs, artifacts, exit codes."""

import dataclasses
import json
import os

import pytest

from qcsd import corpus
from qcsd.cli import BAD_INPUT, BUDGET_EXCEEDED, MISMATCH, OK, main
from qcsd.formats import load_ring_code, parse_field_code, parse_ring_code


DATA = os.path.join(os.path.dirname(__file__), "..", "src", "qcsd", "corpus_data")


def data_file(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seed_lists_codes(capsys):
    code, out, err = run(capsys, "seed", "--q", "2", "--m", "3")
    assert code == OK
    assert out.startswith("# seed 0\n2 3 2 1\n1,0,0 | 0,0,1\n")


def test_seed_writes_files(capsys, tmp_path):
    out_dir = str(tmp_path / "seeds")
    code, out, err = run(capsys, "seed", "--q", "4", "--m", "5", "--out", out_dir)
    assert code == OK
    paths = out.strip().splitlines()
    assert len(paths) == 2
    for p in paths:
        rc = load_ring_code(p)
        assert rc.is_self_dual()


def test_extend_and_expand_pipeline(capsys, tmp_path):
    witness = tmp_path / "wit.txt"
    witness.write_text("branch i\nc 1,0,0\nx 1,0,0 | 0,0,0\n")
    base = tmp_path / "base.rc"
    base.write_text("2 3 2 1\n1,0,0 | 0,0,1\n")
    out_dir = str(tmp_path / "out")
    code, out, err = run(
        capsys, "extend", str(base), str(witness), "--out", out_dir
    )
    assert code == OK
    ext_path = out.strip()
    assert ext_path.endswith("base_ext4.rc")
    ext = load_ring_code(ext_path)
    assert ext.ell == 4 and ext.is_self_dual()

    code, out, err = run(capsys, "expand", ext_path, "--out", out_dir)
    assert code == OK
    fc_path = out.strip()
    assert fc_path.endswith("base_ext4.fc")
    with open(fc_path) as fh:
        fc = parse_field_code(fh.read())
    assert fc.n == 12 and fc.k == 6


def test_extend_rejects_invalid_witness(capsys, tmp_path):
    witness = tmp_path / "wit.txt"
    witness.write_text("branch i\nc 1,0,0\nx 1,0,0 | 1,0,0\n")
    base = tmp_path / "base.rc"
    base.write_text("2 3 2 1\n1,0,0 | 0,0,1\n")
    code, out, err = run(capsys, "extend", str(base), str(witness))
    assert code == BAD_INPUT
    assert "error: witness violates <x, x> = -1" in err


# ring elements of F_3[Y]/(Y^5 - 1): 0, 1 and -1
Z, O, T = "0,0,0,0,0", "1,0,0,0,0", "2,0,0,0,0"


def test_extend_branch_ii(capsys, tmp_path):
    base = tmp_path / "base.rc"
    base.write_text(f"3 5 4 2\n{O} | {Z} | {O} | {O}\n{Z} | {O} | {T} | {O}\n")
    witness = tmp_path / "wit.txt"
    witness.write_text(
        f"branch ii\nalpha {O}\nbeta {O}\n"
        f"x1 {O} | {O} | {Z} | {Z}\nx2 {Z} | {Z} | {O} | {O}\n"
    )
    code, out, err = run(capsys, "extend", str(base), str(witness))
    assert code == OK
    ext = parse_ring_code(out)
    assert ext.ell == 8 and ext.is_self_dual()
    sp = ext.spec
    one, zero = sp.one, sp.zero
    assert ext.rows[:2] == (
        (one, zero, zero, zero, one, one, zero, zero),
        (zero, one, zero, zero, zero, zero, one, one),
    )

    witness.write_text(f"branch ii\nalpha {O}\nbeta {O}\nx1 {O} | {O} | {Z} | {Z}\n")
    code, out, err = run(capsys, "extend", str(base), str(witness))
    assert code == BAD_INPUT
    assert "branch ii witness needs a 'x2' line" in err


def test_analyze_poly_output(capsys):
    code, out, err = run(capsys, "analyze", data_file("G_16.rc"))
    assert code == OK
    assert "[48,24]" in out or "n = 48" in out
    assert "d = 10" in out
    assert "768y^10" in out
    assert "divisib" in out.lower()
    assert "A_i congruent mod 3 to A_i of the shift-fixed subcode: yes" in out


def test_analyze_json_and_csv(capsys):
    code, out, err = run(
        capsys, "analyze", data_file("G_14.rc"), "--format", "json"
    )
    assert code == OK
    info = json.loads(out)
    assert info["n"] == 42 and info["k"] == 21 and info["d"] == 8
    assert info["self_dual"] is True
    assert info["divisibility_ok"] is True
    assert info["congruence_ok"] is True
    assert info["method"] == "enumerate" and "bound" not in info

    code, out, err = run(
        capsys, "analyze", data_file("G_14.rc"), "--format", "csv"
    )
    assert code == OK
    lines = out.strip().splitlines()
    assert lines[0] == "weight,count"
    assert "8," in lines[9] or any(line.startswith("8,") for line in lines)


def test_analyze_empty_file_is_bad_input(capsys, tmp_path):
    empty = tmp_path / "empty.rc"
    empty.write_text("")
    code, out, err = run(capsys, "analyze", str(empty))
    assert code == BAD_INPUT
    assert "error:" in err and "empty" in err


def test_analyze_missing_file_is_bad_input(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", str(tmp_path / "missing.rc"))
    assert code == BAD_INPUT


def test_verify_corpus_single_name(capsys):
    code, out, err = run(capsys, "verify-corpus", "--name", "G_16")
    assert code == OK
    assert out == "PASS: [48,24,10], A_10=768, A_12=8592\n"


def test_verify_corpus_lists_the_failing_checks(capsys, monkeypatch):
    failing = dataclasses.replace(
        corpus.get("K_2"), expected={"n": 14, "k": 7, "d": 6, "a": {4: 12}}
    )
    monkeypatch.setattr(corpus, "ENTRIES", [corpus.get("J_2"), failing])
    code, out, err = run(capsys, "verify-corpus")
    assert code == MISMATCH
    assert out == (
        "J_2 PASS: [10,5,4], A_4=15\n"
        "K_2 FAIL: [14,7,4], A_4=14\n"
        "  minimum distance: MISMATCH (got 4, want 6)\n"
        "  A_4: MISMATCH (got 14, want 12)\n"
    )


def test_verify_corpus_unknown_name(capsys):
    code, out, err = run(capsys, "verify-corpus", "--name", "NOPE")
    assert code == BAD_INPUT
    assert "no corpus entry named 'NOPE'" in err


def test_verify_corpus_json(capsys):
    code, out, err = run(
        capsys, "verify-corpus", "--name", "K_2", "--format", "json"
    )
    assert code == OK
    data = json.loads(out)
    assert data[0]["name"] == "K_2"
    assert data[0]["passed"] is True
    assert data[0]["seconds"] >= 0
    assert data[0]["summary"]["method"] == "enumerate"


def test_scan_certificates_in_json(capsys):
    # G_20 is a binary [60, 30] code, past the default enumeration budget
    code, out, err = run(
        capsys, "verify-corpus", "--name", "G_20", "--format", "json"
    )
    assert code == OK
    summary = json.loads(out)[0]["summary"]
    assert "seconds" not in summary
    assert summary["method"] == "scan" and summary["message_weight"] == 6
    assert summary["d"] == 10 and summary["d_exact"] is True
    assert summary["bound"] == sum(max(0, 7 - d) for d in summary["deficits"])

    code, out, err = run(capsys, "analyze", data_file("G_20.rc"), "--format", "json")
    assert code == OK
    info = json.loads(out)
    assert info["method"] == "scan" and info["d"] == 10
    assert len(info["counts"]) == min(info["bound"], info["n"] + 1)
    assert info["congruence_ok"] is True  # on the certified prefix

    # a field code has no quasi-cyclic index to check against
    code, out, err = run(capsys, "analyze", data_file("SSD_28_4.fc"), "--format", "json")
    assert code == OK
    assert "congruence_ok" not in json.loads(out)


def test_classify_text_output_and_artifacts(capsys, tmp_path):
    out_dir = str(tmp_path / "cls")
    code, out, err = run(
        capsys,
        "classify", "--q", "2", "--m", "3", "--ell", "4", "--out", out_dir,
    )
    assert code == OK
    assert out.splitlines()[0] == "2 classes"
    with open(os.path.join(out_dir, "run.json")) as fh:
        run_manifest = json.load(fh)
    assert run_manifest["q"] == 2 and run_manifest["ell"] == 4
    assert run_manifest["class_count"] == 2
    assert run_manifest["complete"] is True
    assert run_manifest["stats"]["mass_per_level"] == {"2": 3, "4": 81}
    with open(os.path.join(out_dir, "summary.csv")) as fh:
        csv_lines = fh.read().splitlines()
    assert csv_lines[0] == "index,n,k,d,weight_family,beta,divisibility_ok,aut_order,file"
    assert len(csv_lines) == 3
    assert os.path.exists(os.path.join(out_dir, "checkpoint.jsonl"))
    for entry in run_manifest["classes"]:
        with open(os.path.join(out_dir, entry["file"])) as fh:
            rc = parse_ring_code(fh.read())
        assert rc.is_self_dual()


def test_classify_resume_flag(capsys, tmp_path):
    out_dir = str(tmp_path / "cls")
    code, out, err = run(
        capsys, "classify", "--q", "2", "--m", "3", "--ell", "4", "--out", out_dir
    )
    assert code == OK
    ck = os.path.join(out_dir, "checkpoint.jsonl")
    code, out, err = run(
        capsys,
        "classify", "--q", "2", "--m", "3", "--ell", "6", "--resume", ck,
    )
    assert code == OK
    assert out.splitlines()[0] == "3 classes"


def test_classify_rejects_3_mod_4(capsys):
    code, out, err = run(capsys, "classify", "--q", "3", "--m", "5", "--ell", "4")
    assert code == BAD_INPUT
    assert "3 mod 4" in err


def test_classify_budget_exceeded(capsys):
    code, out, err = run(
        capsys,
        "classify", "--q", "2", "--m", "3", "--ell", "6", "--budget", "5",
    )
    assert code == BUDGET_EXCEEDED


def test_classify_resumes_with_a_larger_budget(capsys, tmp_path):
    out_dir = str(tmp_path / "cls")
    args = ["classify", "--q", "2", "--m", "3", "--ell", "6", "--out", out_dir]
    code, out, err = run(capsys, *args, "--budget", "20")
    assert code == BUDGET_EXCEEDED  # levels 2 and 4 take 13 candidates
    ck = os.path.join(out_dir, "checkpoint.jsonl")
    code, out, err = run(capsys, *args, "--resume", ck, "--budget", "1000")
    assert code == OK
    assert out.splitlines()[0] == "3 classes"
    with open(os.path.join(out_dir, "run.json")) as fh:
        assert json.load(fh)["stats"]["candidates"] == 240  # level 6 only


def test_equiv_exit_codes(capsys, tmp_path):
    a = tmp_path / "a.rc"
    a.write_text("2 3 2 1\n1,0,0 | 0,0,1\n")
    code, out, err = run(capsys, "equiv", str(a), str(a))
    assert code == OK
    assert out.strip() == "equivalent"

    b = tmp_path / "b.fc"
    b.write_text("2 6 1\n1 1 1 1 1 1\n")
    c = tmp_path / "c.fc"
    c.write_text("2 6 1\n1 1 0 0 0 0\n")
    code, out, err = run(capsys, "equiv", str(b), str(c))
    assert code == MISMATCH
    assert out.strip() == "not equivalent"

    d = tmp_path / "d.fc"
    d.write_text("3 2 1\n1 2\n")
    code, out, err = run(capsys, "equiv", str(a), str(d))
    assert code == BAD_INPUT


def test_equiv_compares_codes_of_2_to_the_27_words(capsys):
    # the [54, 27, 10] codes C_54_1 and C_54_5 (A_10 = 207 and 351) are
    # told apart by their profiles, which keep only the lightest of their
    # 2^27 words
    path = os.path.join(os.path.dirname(corpus.__file__), "corpus_data")
    a, b = (os.path.join(path, f"C_54_{i}.rc") for i in (1, 5))
    code, out, err = run(capsys, "equiv", a, b)
    assert code == MISMATCH
    assert out.strip() == "not equivalent"


def test_usage_errors(capsys):
    for argv in [
        ["classify", "--q", "2", "--m", "3"],  # missing --ell
        ["no-such-command"],
        # options that did nothing are gone
        ["classify", "--q", "2", "--m", "3", "--ell", "2", "--format", "json"],
        ["equiv", "a.rc", "b.rc", "--budget", "10"],
        ["equiv", "a.rc", "b.rc", "--format", "json"],
        ["equiv", "a.rc", "b.rc", "--out", "dir"],
        ["verify-corpus", "--out", "dir"],
        ["verify-corpus", "--format", "csv"],
        ["analyze", "a.rc", "--out", "dir"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()
