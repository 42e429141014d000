"""Bundled verification corpus.

Each entry names a generator matrix shipped under corpus_data/ together
with the values it must reproduce: parameters [n, k, d], exact low-weight
counts, an enumerator template with its beta where one applies, type II
flags, Gray-image distance, and automorphism-group orders.  Entries marked
with a derivation are recomputable from their parent matrix (deletion of
the extension rows/coordinates, a recorded extension step, or expansion to
the field form); tests replay those derivations.

Verification runs in two modes.  The default mode enumerates the full
weight distribution when q^k fits the budget and otherwise certifies the
minimum distance and exact low-weight prefix counts by information-set
scanning.  Exact mode raises the enumeration cap to at least 2^31 words
and deepens the scans for codes beyond it.
"""

from dataclasses import dataclass
from importlib import resources

from .analysis import (
    DEFAULT_WEIGHT_BUDGET,
    divisibility_check,
    is_type_ii_binary,
    is_type_ii_f4,
    min_distance_prefix,
    shift_congruence_check,
    weight_profile,
)
from .formats import parse_field_code, parse_ring_code
from .qc import FieldCode, gray_image, is_euclidean_self_dual, is_shift_invariant
from .ring import ring

EXACT_WORD_CAP = 1 << 31


def word_cap(exact: bool, budget: int) -> int:
    """The enumeration cap: exact mode raises the budget to EXACT_WORD_CAP,
    and never lowers it."""
    return max(budget, EXACT_WORD_CAP) if exact else budget


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # "ring" or "field"
    q: int
    m: int
    ell: int
    filename: str
    expected: dict
    derivation: dict | None = None
    scan_weight: int = 5
    scan_weight_exact: int | None = None


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CorpusReport:
    name: str
    checks: tuple
    summary: dict  # computed values: n, k, d, d_exact, a {exponent: count},
    # and how they were certified (WeightProfile.certificate)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def headline(self) -> str:
        s = self.summary
        status = "PASS" if self.passed else "FAIL"
        if "n" not in s:
            return f"{status}: unreadable"
        if s.get("d") is None:
            params = f"[{s['n']},{s['k']}]"
        elif s.get("d_exact"):
            params = f"[{s['n']},{s['k']},{s['d']}]"
        else:
            params = f"[{s['n']},{s['k']},d>={s['d']}]"
        parts = [params] + [f"A_{i}={v}" for i, v in sorted(s.get("a", {}).items())]
        return f"{status}: " + ", ".join(parts)

    def lines(self):
        out = [f"{self.name} {self.headline()}"]
        for c in self.checks:
            mark = "ok" if c.ok else "MISMATCH"
            out.append(f"  {c.label}: {mark} ({c.detail})")
        return out


def _e(name, kind, q, m, ell, expected, derivation=None, scan_weight=5,
       scan_weight_exact=None):
    fn = f"{name}.rc" if kind == "ring" else f"{name}.fc"
    return CorpusEntry(name, kind, q, m, ell, fn, expected, derivation,
                       scan_weight, scan_weight_exact)


_W48 = {10: 768, 12: 8592}

ENTRIES = [
    # binary codes invariant under the shift by one third of the length
    _e("G_14", "ring", 2, 3, 14,
       {"n": 42, "k": 21, "d": 8, "a": {8: 84, 10: 1449},
        "template": ("W_2", 0)}),
    _e("G_16", "ring", 2, 3, 16,
       {"n": 48, "k": 24, "d": 10, "a": _W48, "template": ("W_2", None)}),
    _e("G_20", "ring", 2, 3, 20,
       {"n": 60, "k": 30, "d": 10, "a": {10: 114, 12: 2555}},
       scan_weight=6),
    _e("C_48_1", "ring", 2, 3, 16,
       {"n": 48, "k": 24, "d": 10, "a": _W48, "template": ("W_2", None),
        "aut": 3},
       derivation={"kind": "extend", "parent": "G_16", "pre_delete": (1, 2)}),
    _e("C_48_2", "ring", 2, 3, 16,
       {"n": 48, "k": 24, "d": 10, "a": _W48, "template": ("W_2", None),
        "aut": 24},
       derivation={"kind": "extend", "parent": "G_16", "pre_delete": (1, 2)}),
    _e("C_48_3", "ring", 2, 3, 16,
       {"n": 48, "k": 24, "d": 10, "a": _W48, "template": ("W_2", None),
        "aut": 12},
       derivation={"kind": "extend", "parent": "G_16", "pre_delete": (1, 2)}),
    _e("C_48_4", "ring", 2, 3, 16,
       {"n": 48, "k": 24, "d": 10, "a": _W48, "template": ("W_2", None),
        "aut": 6},
       derivation={"kind": "extend", "parent": "G_16", "pre_delete": (1, 2)}),
    _e("C_54_1", "ring", 2, 3, 18,
       {"n": 54, "k": 27, "d": 10, "a": {10: 207, 12: 5975},
        "template": ("W_2", 18), "aut": 3},
       derivation={"kind": "extend", "parent": "G_16"}),
    _e("C_54_2", "ring", 2, 3, 18,
       {"n": 54, "k": 27, "d": 10, "a": {10: 279, 12: 5247},
        "template": ("W_1", 9), "aut": 3},
       derivation={"kind": "extend", "parent": "G_16"}),
    _e("C_54_3", "ring", 2, 3, 18,
       {"n": 54, "k": 27, "d": 10, "a": {10: 231, 12: 5903},
        "template": ("W_2", 15), "aut": 3},
       derivation={"kind": "extend", "parent": "G_16"}),
    _e("C_54_4", "ring", 2, 3, 18,
       {"n": 54, "k": 27, "d": 10, "a": {10: 327, 12: 5103},
        "template": ("W_1", 3), "aut": 3},
       derivation={"kind": "extend", "parent": "G_16"}),
    _e("C_54_5", "ring", 2, 3, 18,
       {"n": 54, "k": 27, "d": 10, "a": {10: 351, 12: 5031},
        "template": ("W_1", 0), "aut": 3},
       derivation={"kind": "extend", "parent": "G_16"}),
    _e("C_54_6", "ring", 2, 3, 18,
       {"n": 54, "k": 27, "d": 10, "a": {10: 255, 12: 5831},
        "template": ("W_2", 12), "aut": 3},
       derivation={"kind": "extend", "parent": "G_16"}),
    _e("C_54_7", "ring", 2, 3, 18,
       {"n": 54, "k": 27, "d": 10, "a": {10: 303, 12: 5175},
        "template": ("W_1", 6), "aut": 3},
       derivation={"kind": "extend", "parent": "G_16"}),
    _e("C_66_1", "ring", 2, 3, 22,
       {"n": 66, "k": 33, "d": 12, "a": {12: 1226, 14: 17574},
        "template": ("W_2", 46), "aut": 3},
       derivation={"kind": "extend", "parent": "G_20"},
       scan_weight=7, scan_weight_exact=7),
    _e("C_66_2", "ring", 2, 3, 22,
       {"n": 66, "k": 33, "d": 12, "a": {12: 994, 14: 18270},
        "template": ("W_2", 17), "aut": 3},
       derivation={"kind": "extend", "parent": "G_20"},
       scan_weight=7, scan_weight_exact=7),
    _e("C_66_3", "ring", 2, 3, 22,
       {"n": 66, "k": 33, "d": 12, "a": {12: 1042, 14: 18126},
        "template": ("W_2", 23), "aut": 3},
       derivation={"kind": "extend", "parent": "G_20"},
       scan_weight=7, scan_weight_exact=7),
    _e("C_66_4", "ring", 2, 3, 22,
       {"n": 66, "k": 33, "d": 12, "a": {12: 1066, 14: 18054},
        "template": ("W_2", 26), "aut": 3},
       derivation={"kind": "extend", "parent": "G_20"},
       scan_weight=7, scan_weight_exact=7),
    _e("C_66_5", "ring", 2, 3, 22,
       {"n": 66, "k": 33, "d": 12, "a": {12: 1202, 14: 17646},
        "template": ("W_2", 43), "aut": 3},
       derivation={"kind": "extend", "parent": "G_20"},
       scan_weight=7, scan_weight_exact=7),
    # binary codes invariant under the shift by one fifth of the length
    _e("G_12", "ring", 2, 5, 12,
       {"n": 60, "k": 30, "d": 12, "a": {12: 3195, 14: 29760},
        "template": ("W_2", 10), "aut": 20},
       scan_weight=7),
    _e("G_10", "ring", 2, 5, 10,
       {"n": 50, "k": 25, "d": 10, "a": {10: 516, 12: 7720}, "aut": 5},
       derivation={"kind": "delete", "parent": "G_12", "rows": 1, "cols": 2}),
    _e("G_8", "ring", 2, 5, 8,
       {"n": 40, "k": 20, "d": 8, "a": {8: 285, 12: 21280},
        "type_ii": True, "aut": 10, "aut_check": True},
       derivation={"kind": "delete", "parent": "G_10", "rows": 1, "cols": 2}),
    # ternary
    _e("I_8", "ring", 3, 5, 8,
       {"n": 40, "k": 20, "d": 12, "a": {12: 19760}, "aut": 10},
       scan_weight=5, scan_weight_exact=6),
    _e("I_4", "ring", 3, 5, 4,
       {"n": 20, "k": 10, "d": 6, "a": {6: 120},
        "aut": 3840, "aut_check": True},
       derivation={"kind": "delete", "parent": "I_8", "rows": 2, "cols": 4}),
    # quaternary, fifth-length shift
    _e("J_6", "ring", 4, 5, 6,
       {"n": 30, "k": 15, "d": 10, "a": {10: 1893}, "aut": 30},
       scan_weight=5),
    _e("J_4", "ring", 4, 5, 4,
       {"n": 20, "k": 10, "d": 8, "a": {8: 855}},
       derivation={"kind": "delete", "parent": "J_6", "rows": 1, "cols": 2}),
    _e("J_2", "ring", 4, 5, 2,
       {"n": 10, "k": 5, "d": 4, "a": {4: 15}},
       derivation={"kind": "delete", "parent": "J_4", "rows": 1, "cols": 2}),
    # binary, seventh-length shift
    _e("K_8", "ring", 2, 7, 8,
       {"n": 56, "k": 28, "d": 12, "a": {12: 8190}, "type_ii": True}),
    _e("K_6", "ring", 2, 7, 6,
       {"n": 42, "k": 21, "d": 8, "a": {8: 84, 10: 1449},
        "template": ("W_2", 0)},
       derivation={"kind": "delete", "parent": "K_8", "rows": 1, "cols": 2}),
    _e("K_4", "ring", 2, 7, 4,
       {"n": 28, "k": 14, "d": 6, "a": {6: 42}},
       derivation={"kind": "delete", "parent": "K_6", "rows": 1, "cols": 2}),
    _e("K_2", "ring", 2, 7, 2,
       {"n": 14, "k": 7, "d": 4, "a": {4: 14}},
       derivation={"kind": "delete", "parent": "K_4", "rows": 1, "cols": 2}),
    # quaternary, seventh-length shift
    _e("M_6", "ring", 4, 7, 6,
       {"n": 42, "k": 21, "d": 12, "a": {12: 1323}},
       scan_weight=5, scan_weight_exact=6),
    _e("M_4", "ring", 4, 7, 4,
       {"n": 28, "k": 14, "d": 9, "a": {9: 630},
        "type_ii_f4": True, "gray_d": 12},
       derivation={"kind": "delete", "parent": "M_6", "rows": 1, "cols": 2},
       scan_weight=4),
    _e("M_2", "ring", 4, 7, 2,
       {"n": 14, "k": 7, "d": 6, "a": {6: 168}},
       derivation={"kind": "delete", "parent": "M_4", "rows": 1, "cols": 2}),
    # quinary, seventh-length shift
    _e("N_4", "ring", 5, 7, 4,
       {"n": 28, "k": 14, "d": 10, "a": {10: 2520}},
       scan_weight=4, scan_weight_exact=5),
    _e("N_2", "ring", 5, 7, 2,
       {"n": 14, "k": 7, "d": 6, "a": {6: 252}},
       derivation={"kind": "delete", "parent": "N_4", "rows": 1, "cols": 2}),
    # field-form matrices, each the expansion of a ring entry
    _e("QSD_40_3", "field", 3, 5, 8,
       {"n": 40, "k": 20, "d": 12, "a": {12: 19760}, "aut": 10,
        "same_as": "I_8"},
       derivation={"kind": "expansion", "parent": "I_8"},
       scan_weight=5, scan_weight_exact=6),
    _e("QSD_30_4", "field", 4, 5, 6,
       {"n": 30, "k": 15, "d": 10, "a": {10: 1893}, "aut": 30,
        "same_as": "J_6"},
       derivation={"kind": "expansion", "parent": "J_6"},
       scan_weight=5),
    _e("SSD_28_4", "field", 4, 7, 4,
       {"n": 28, "k": 14, "d": 9, "a": {9: 630},
        "type_ii_f4": True, "gray_d": 12, "same_as": "M_4"},
       derivation={"kind": "expansion", "parent": "M_4"},
       scan_weight=4),
    _e("SSD_42_4", "field", 4, 7, 6,
       {"n": 42, "k": 21, "d": 12, "a": {12: 1323}, "same_as": "M_6"},
       derivation={"kind": "expansion", "parent": "M_6"},
       scan_weight=5, scan_weight_exact=6),
]

BY_NAME = {e.name: e for e in ENTRIES}


def names():
    return [e.name for e in ENTRIES]


def get(name: str) -> CorpusEntry:
    if name not in BY_NAME:
        raise KeyError(f"no corpus entry named {name!r}")
    return BY_NAME[name]


def read_text(entry: CorpusEntry) -> str:
    return (resources.files("qcsd") / "corpus_data" / entry.filename).read_text()


def load(entry: CorpusEntry):
    text = read_text(entry)
    if entry.kind == "ring":
        return parse_ring_code(text)
    return parse_field_code(text)


def field_form(entry: CorpusEntry) -> FieldCode:
    code = load(entry)
    return code.expansion() if entry.kind == "ring" else code


def _check(checks, label, ok, detail):
    checks.append(CheckResult(label, bool(ok), detail))


def verify_entry(entry: CorpusEntry, exact: bool = False,
                 budget: int = DEFAULT_WEIGHT_BUDGET) -> CorpusReport:
    checks = []
    code = load(entry)
    if entry.kind == "ring":
        fc = code.expansion()
        sd = code.is_self_dual()
    else:
        fc = code
        sd = is_euclidean_self_dual(fc)
    summary = {"n": fc.n, "k": fc.k, "d": None, "d_exact": False, "a": {}}
    _check(checks, "self-dual", sd, f"[{fc.n},{fc.k}] over F_{entry.q}")
    qc = is_shift_invariant(fc, entry.ell)
    _check(checks, f"invariant under shift by {entry.ell}", qc,
           f"m={entry.m}")
    if not (sd and qc):
        return CorpusReport(entry.name, tuple(checks), summary)

    exp = entry.expected
    _check(checks, "parameters", (fc.n, fc.k) == (exp["n"], exp["k"]),
           f"got [{fc.n},{fc.k}], want [{exp['n']},{exp['k']}]")

    cap = word_cap(exact, budget)
    mw = entry.scan_weight_exact if exact and entry.scan_weight_exact \
        else entry.scan_weight
    prof = weight_profile(fc, cap, mw, ell=entry.ell)
    counts, cut = prof.enum.counts, prof.cut
    summary["d"] = prof.d
    summary["d_exact"] = prof.d_exact
    summary.update(prof.certificate)
    if prof.d_exact:
        _check(checks, "minimum distance", prof.d == exp["d"],
               f"got {prof.d}, want {exp['d']}")
    else:
        _check(checks, f"d >= {exp['d']}", prof.d >= exp["d"],
               f"certified lower bound {prof.d}")

    for i in sorted(exp.get("a", {})):
        want = exp["a"][i]
        if i <= cut:
            summary["a"][i] = counts[i]
            _check(checks, f"A_{i}", counts[i] == want,
                   f"got {counts[i]}, want {want}")
        else:
            _check(checks, f"A_{i}", True,
                   f"want {want}; not computed at this budget")

    if "template" in exp:
        fam, beta = exp["template"]
        if prof.templates is not None:
            hit = any(t.family == fam and (beta is None or t.beta == beta)
                      for t in prof.templates)
            got = ", ".join(f"{t.family} beta={t.beta}"
                            for t in prof.templates) or "none"
            _check(checks, "enumerator template",
                   hit, f"got {got}, want {fam} beta={beta}")
        else:
            _check(checks, "enumerator template", True,
                   "not computed at this budget")

    _check(checks, f"A_i divisible by {entry.m} when {entry.m} does not divide i",
           divisibility_check(prof.enum, entry.m), f"checked i <= {cut}")
    if prof.fixed is not None:
        _check(checks, f"A_i congruent mod {entry.m} to A_i of the shift-fixed subcode",
               shift_congruence_check(prof.enum, prof.fixed, entry.m),
               f"checked i <= {cut}")

    if exp.get("type_ii"):
        _check(checks, "type II", is_type_ii_binary(fc), "doubly even basis")
    if exp.get("type_ii_f4"):
        _check(checks, "type II Gray image", is_type_ii_f4(fc),
               "binary image self-dual, doubly even")
    if "gray_d" in exp:
        g = gray_image(fc)
        gscan = min_distance_prefix(g, message_weight=6)
        ok = gscan.exact and gscan.found == exp["gray_d"]
        _check(checks, "Gray image distance", ok,
               f"got {gscan.found if gscan.exact else f'>={gscan.lower}'}, "
               f"want {exp['gray_d']}")
    if exp.get("aut_check"):
        from .equiv import automorphism_order

        a = automorphism_order(fc)
        _check(checks, "automorphism group order", a == exp["aut"],
               f"got {a}, want {exp['aut']}")
    if "same_as" in exp:
        mate = field_form(get(exp["same_as"]))
        _check(checks, f"same code as {exp['same_as']}", fc == mate,
               "row space equality")
    return CorpusReport(entry.name, tuple(checks), summary)

