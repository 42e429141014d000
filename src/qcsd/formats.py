"""Plain-text file formats for ring codes and field codes.

Ring-code format, one generator matrix per file:

    # comments run to end of line
    q m ell k
    entry | entry | ... | entry        (k lines of ell entries)

where each entry is the m coefficients of one ring element, constant term
first, separated by commas.  Field-code format:

    q n k
    sym sym ... sym                    (k rows of n symbols)

Symbols are the digits 0..q-1, except over F_4 where they are 0, 1, w, w2.
Both formats are bit-exact and human-diffable.
"""

from .gf import FieldSpec, field
from .qc import FieldCode
from .rcode import RingCode
from .ring import ring


def _sym(fld: FieldSpec, v: int) -> str:
    if fld.q == 4:
        return ("0", "1", "w", "w2")[v]
    return str(v)


def _strip_comments(text: str):
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _header(line: str, count: int, what: str):
    parts = line.split()
    if len(parts) != count:
        raise ValueError(
            f"{what} header needs {count} integers, got {line!r}"
        )
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what} header must be integers, got {line!r}") from None


def serialize_ring_code(rc: RingCode) -> str:
    sp = rc.spec
    fld = sp.field
    out = [f"{sp.q} {sp.m} {rc.ell} {len(rc.rows)}"]
    for row in rc.rows:
        entries = [",".join(_sym(fld, c) for c in elem) for elem in row]
        out.append(" | ".join(entries))
    return "\n".join(out) + "\n"


def parse_ring_elem(sp, text: str, what: str = "element"):
    """A ring element from comma-separated coefficients, constant first."""
    coeffs = [c.strip() for c in text.split(",")]
    if len(coeffs) != sp.m:
        raise ValueError(f"{what} {text!r} needs {sp.m} coefficients")
    return tuple(sp.field.parse_element(c) for c in coeffs)


def parse_ring_code(text: str) -> RingCode:
    lines = _strip_comments(text)
    if not lines:
        raise ValueError("empty ring-code file")
    q, m, ell, k = _header(lines[0], 4, "ring-code")
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} generator rows, found {len(lines) - 1}")
    sp = ring(q, m)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        entries = [e.strip() for e in line.split("|")]
        if len(entries) != ell:
            raise ValueError(
                f"row {lineno}: expected {ell} entries, found {len(entries)}"
            )
        rows.append(tuple(
            parse_ring_elem(sp, entry, f"row {lineno}: entry") for entry in entries
        ))
    return RingCode(sp, ell, rows)


def serialize_field_code(code: FieldCode) -> str:
    fld = code.field
    out = [f"{fld.q} {code.n} {code.k}"]
    for row in code.matrix.tolist():
        out.append(" ".join(_sym(fld, v) for v in row))
    return "\n".join(out) + "\n"


def parse_field_code(text: str) -> FieldCode:
    lines = _strip_comments(text)
    if not lines:
        raise ValueError("empty field-code file")
    q, n, k = _header(lines[0], 3, "field-code")
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} generator rows, found {len(lines) - 1}")
    fld = field(q)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        syms = line.split()
        if len(syms) != n:
            raise ValueError(
                f"row {lineno}: expected {n} symbols, found {len(syms)}"
            )
        rows.append(tuple(fld.parse_element(s) for s in syms))
    return FieldCode(fld, n, rows)


def load_ring_code(path: str) -> RingCode:
    with open(path, encoding="utf-8") as fh:
        return parse_ring_code(fh.read())


def save_ring_code(rc: RingCode, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_ring_code(rc))


def load_field_code(path: str) -> FieldCode:
    with open(path, encoding="utf-8") as fh:
        return parse_field_code(fh.read())


def save_field_code(code: FieldCode, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_field_code(code))
