"""Text formats for ring codes and field codes."""

import random

import pytest

from qcsd.formats import (
    load_field_code,
    load_ring_code,
    parse_field_code,
    parse_ring_code,
    save_field_code,
    save_ring_code,
    serialize_field_code,
    serialize_ring_code,
)
from qcsd.gf import field
from qcsd.qc import FieldCode
from qcsd.rcode import RingCode
from qcsd.ring import ring


def test_ring_code_roundtrip_is_bit_exact():
    rng = random.Random(21)
    for q, m in [(2, 3), (3, 5), (4, 3), (5, 7)]:
        sp = ring(q, m)
        for _ in range(6):
            ell = rng.choice([1, 2, 4])
            rows = []
            for _ in range(rng.randrange(1, 4)):
                rows.append(
                    tuple(
                        tuple(rng.randrange(q) for _ in range(m)) for _ in range(ell)
                    )
                )
            if not any(any(any(e) for e in r) for r in rows):
                continue
            rc = RingCode(sp, ell, rows)
            text = serialize_ring_code(rc)
            back = parse_ring_code(text)
            assert back.rows == rc.rows
            assert back.ell == rc.ell
            assert serialize_ring_code(back) == text


def test_ring_code_literal_text():
    sp = ring(2, 3)
    rc = RingCode(sp, 2, [((1, 0, 0), (0, 0, 1))])
    assert serialize_ring_code(rc) == "2 3 2 1\n1,0,0 | 0,0,1\n"


def test_field_code_serialization_uses_rref_rows():
    f = field(3)
    code = FieldCode(f, 3, [(2, 1, 0), (0, 1, 1)])
    text = serialize_field_code(code)
    lines = text.splitlines()
    assert lines[0] == "3 3 2"
    assert parse_field_code(text) == code


def test_f4_symbols_in_both_directions():
    sp = ring(4, 3)
    rc = RingCode(sp, 1, [((1, 2, 3),)])
    text = serialize_ring_code(rc)
    assert "1,w,w2" in text
    assert parse_ring_code(text).rows == rc.rows
    # the parser also accepts the caret form
    alt = text.replace("w2", "w^2")
    assert parse_ring_code(alt).rows == rc.rows

    fc = FieldCode(field(4), 2, [(2, 3)])
    ftext = serialize_field_code(fc)
    assert ftext == "4 2 1\n1 w\n"  # RREF scales the row by w^2
    assert parse_field_code(ftext) == fc


def test_comments_and_blank_lines_are_ignored():
    text = "# generated file\n\n2 3 2 1   # header\n# a comment line\n1,0,0 | 0,0,1\n"
    rc = parse_ring_code(text)
    assert rc.rows == (((1, 0, 0), (0, 0, 1)),)


def test_parse_errors():
    with pytest.raises(ValueError, match="empty ring-code file"):
        parse_ring_code("# nothing here\n")
    with pytest.raises(ValueError, match="empty field-code file"):
        parse_field_code("")
    with pytest.raises(ValueError, match="header needs 4 integers"):
        parse_ring_code("2 3 2\n1,0,0 | 0,0,1\n")
    with pytest.raises(ValueError, match="header must be integers"):
        parse_ring_code("a b c d\n")
    with pytest.raises(ValueError, match="expected 2 generator rows, found 1"):
        parse_ring_code("2 3 2 2\n1,0,0 | 0,0,1\n")
    with pytest.raises(ValueError, match="expected 2 entries, found 1"):
        parse_ring_code("2 3 2 1\n1,0,0\n")
    with pytest.raises(ValueError, match="needs 3 coefficients"):
        parse_ring_code("2 3 2 1\n1,0 | 0,0,1\n")
    with pytest.raises(ValueError, match="expected 3 symbols, found 2"):
        parse_field_code("2 3 1\n1 0\n")


def test_file_helpers(tmp_path):
    sp = ring(5, 7)
    rc = RingCode(sp, 2, [((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 4))])
    path = tmp_path / "code.rc"
    save_ring_code(rc, str(path))
    back = load_ring_code(str(path))
    assert back.rows == rc.rows
    fc = rc.expansion()
    path = tmp_path / "code.fc"
    save_field_code(fc, str(path))
    back = load_field_code(str(path))
    assert (back.field.q, back.n, back.rows) == (5, 14, fc.rows)


def test_corpus_files_parse_and_reserialize():
    from qcsd import corpus

    for name in corpus.names():
        entry = corpus.get(name)
        text = corpus.read_text(entry)
        if entry.kind == "ring":
            rc = corpus.load(entry)
            stripped = "\n".join(
                line.split("#", 1)[0].rstrip()
                for line in text.splitlines()
                if line.split("#", 1)[0].strip()
            )
            assert serialize_ring_code(rc).strip() == stripped.strip()
        else:
            assert parse_field_code(text).n == entry.expected["n"]
