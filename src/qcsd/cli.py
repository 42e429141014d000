"""Command-line front end.

Subcommands: seed, extend, classify, analyze, expand, verify-corpus, equiv.
Exit codes: 0 success, 1 verification mismatch (including "not equivalent"),
2 bad input, 3 budget exceeded.
"""

import argparse
import csv
import json
import math
import os
import sys
import time

from . import corpus
from .analysis import DEFAULT_WEIGHT_BUDGET, divisibility_check, weight_profile
from .buildup import extend_i, extend_ii, seed as make_seeds
from .classify import classify as run_classify, filter_report
from .equiv import are_equivalent
from .errors import BudgetExceeded, ConstructionError, UnsupportedCase
from .formats import (
    parse_field_code,
    parse_ring_code,
    serialize_field_code,
    serialize_ring_code,
)
from .qc import is_euclidean_self_dual, is_shift_invariant
from .ring import ring

OK = 0
MISMATCH = 1
BAD_INPUT = 2
BUDGET_EXCEEDED = 3

EXACT_WORD_CAP = corpus.EXACT_WORD_CAP


def _read_text(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def _load_any(path: str):
    """Parse a code file; the header arity says which format it is.

    Returns ("ring", RingCode) or ("field", FieldCode).
    """
    text = _read_text(path)
    first = next(
        (ln.split("#", 1)[0].strip() for ln in text.splitlines()
         if ln.split("#", 1)[0].strip()),
        "",
    )
    if not first:
        raise ValueError(f"{path}: empty code file")
    arity = len(first.split())
    if arity == 4:
        return "ring", parse_ring_code(text)
    if arity == 3:
        return "field", parse_field_code(text)
    raise ValueError(
        f"{path}: header must be 'q m ell k' (ring) or 'q n k' (field)"
    )


def _field_form(kind, code):
    return code.expansion() if kind == "ring" else code


def _parse_elem(sp, text: str):
    coeffs = [c.strip() for c in text.split(",")]
    if len(coeffs) != sp.m:
        raise ValueError(f"element {text!r} needs {sp.m} coefficients")
    return tuple(sp.field.parse_element(c) for c in coeffs)


def _parse_ring_row(sp, text: str):
    return [_parse_elem(sp, e) for e in text.split("|")]


# -- analyze ----------------------------------------------------------------


def _scan_weight_for(code, work_cap: int) -> int:
    """Largest message weight whose two-set scan stays under work_cap."""
    k, q = code.k, code.field.q
    w = 2
    while w < k:
        cost = 2 * sum(
            math.comb(k, i) * (q - 1) ** i for i in range(w + 2)
        )
        if cost > work_cap:
            break
        w += 1
    return w


def _analyze_code(fc, ell: int | None, m: int | None, exact: bool,
                  budget: int):
    cap = max(budget, EXACT_WORD_CAP) if exact else budget
    prof = weight_profile(fc, cap, _scan_weight_for(fc, max(1 << 22, cap >> 4)))
    info = {
        "q": fc.field.q,
        "n": fc.n,
        "k": fc.k,
        "self_dual": is_euclidean_self_dual(fc),
    }
    if ell is not None:
        info["ell"] = ell
        info["shift_invariant"] = is_shift_invariant(fc, ell)
    info["d"] = prof.d
    info["d_exact"] = prof.d_exact
    info.update(prof.certificate())
    info["counts"] = list(prof.enum.counts)
    info["complete"] = prof.enum.complete
    if prof.templates is not None:
        info["templates"] = [
            {"family": t.family, "beta": t.beta, "in_listed_range": t.in_listed_range}
            for t in prof.templates
        ]
    if m is not None:
        info["divisibility_ok"] = divisibility_check(prof.enum, m)
        info["m"] = m
    return info


def _print_analysis(info, fmt: str, out):
    if fmt == "json":
        json.dump(info, out, indent=2)
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["weight", "count"])
        for i, a in enumerate(info["counts"]):
            writer.writerow([i, a])
        return
    print(f"[{info['n']},{info['k']}] over F_{info['q']}", file=out)
    print(f"self-dual: {'yes' if info['self_dual'] else 'no'}", file=out)
    if "shift_invariant" in info:
        print(
            f"invariant under shift by {info['ell']}: "
            f"{'yes' if info['shift_invariant'] else 'no'}",
            file=out,
        )
    if info["d"] is not None:
        rel = "=" if info["d_exact"] else ">="
        print(f"d {rel} {info['d']}", file=out)
    terms = ["1"] if info["counts"] and info["counts"][0] else []
    for i, a in enumerate(info["counts"]):
        if i and a:
            terms.append(f"{a}y^{i}" if a != 1 else f"y^{i}")
    poly = " + ".join(terms) if terms else "0"
    if not info["complete"]:
        poly += " + ..."
    print(f"W(y) = {poly}", file=out)
    for t in info.get("templates", []):
        beta = "" if t["beta"] is None else f", beta={t['beta']}"
        note = "" if t["in_listed_range"] else " (beta outside listed range)"
        print(f"matches template {t['family']}{beta}{note}", file=out)
    if "divisibility_ok" in info:
        print(
            f"A_i divisible by {info['m']} for i not divisible by "
            f"{info['m']}: {'yes' if info['divisibility_ok'] else 'NO'}",
            file=out,
        )


def cmd_analyze(args) -> int:
    kind, code = _load_any(args.file)
    ell = code.ell if kind == "ring" else None
    m = code.spec.m if kind == "ring" else None
    fc = _field_form(kind, code)
    info = _analyze_code(fc, ell, m, args.exact, args.budget)
    info["source"] = args.file
    _print_analysis(info, args.format, sys.stdout)
    return OK


# -- seed / extend / expand ---------------------------------------------------


def cmd_seed(args) -> int:
    sp = ring(args.q, args.m)
    seeds = make_seeds(sp)
    for i, rc in enumerate(seeds):
        text = serialize_ring_code(rc)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"seed_{i:02d}.rc")
            with open(path, "w") as fh:
                fh.write(f"# seed {i}\n{text}")
            print(path)
        else:
            print(f"# seed {i}")
            sys.stdout.write(text)
    return OK


def _parse_witness(sp, text: str) -> dict:
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        fields[key.strip()] = value.strip()
    if "branch" not in fields:
        raise ValueError("witness file needs a 'branch i' or 'branch ii' line")
    branch = fields["branch"]
    if branch == "i":
        for need in ("c", "x"):
            if need not in fields:
                raise ValueError(f"branch i witness needs a '{need}' line")
        return {
            "branch": "i",
            "c": _parse_elem(sp, fields["c"]),
            "x": _parse_ring_row(sp, fields["x"]),
        }
    if branch == "ii":
        for need in ("alpha", "beta", "x1", "x2"):
            if need not in fields:
                raise ValueError(f"branch ii witness needs a '{need}' line")
        return {
            "branch": "ii",
            "alpha": _parse_elem(sp, fields["alpha"]),
            "beta": _parse_elem(sp, fields["beta"]),
            "x1": _parse_ring_row(sp, fields["x1"]),
            "x2": _parse_ring_row(sp, fields["x2"]),
        }
    raise ValueError(f"unknown branch {branch!r}; use 'i' or 'ii'")


def cmd_extend(args) -> int:
    kind, base = _load_any(args.base)
    if kind != "ring":
        raise ValueError("extend needs a ring-code file as its base")
    wit = _parse_witness(base.spec, _read_text(args.witness))
    if wit["branch"] == "i":
        ext = extend_i(base, wit["c"], wit["x"])
    else:
        ext = extend_ii(base, wit["alpha"], wit["beta"], wit["x1"], wit["x2"])
    text = serialize_ring_code(ext)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.base))[0]
        path = os.path.join(args.out, f"{stem}_ext{ext.ell}.rc")
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)
    return OK


def cmd_expand(args) -> int:
    kind, code = _load_any(args.file)
    if kind != "ring":
        raise ValueError("expand needs a ring-code file")
    text = serialize_field_code(code.expansion())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.file))[0]
        path = os.path.join(args.out, f"{stem}.fc")
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)
    return OK


# -- classify -----------------------------------------------------------------


def cmd_classify(args) -> int:
    sp = ring(args.q, args.m)
    checkpoint = args.resume
    resume = bool(args.resume) and os.path.exists(args.resume)
    if checkpoint is None and args.out:
        os.makedirs(args.out, exist_ok=True)
        checkpoint = os.path.join(args.out, "checkpoint.jsonl")
    progress = (lambda msg: print(f".. {msg}", file=sys.stderr)) if args.verbose else None
    run = run_classify(
        sp,
        args.ell,
        constructive=args.constructive,
        candidate_budget=args.budget,
        checkpoint_path=checkpoint,
        resume=resume,
        workers=args.workers,
        progress=progress,
    )
    report = filter_report(run)
    print(f"{len(run.classes)} classes")
    for line in report.summary_lines():
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        class_files = []
        for i, cc in enumerate(run.classes):
            fn = f"class_{i:03d}.rc"
            with open(os.path.join(args.out, fn), "w") as fh:
                for tl in cc.trail_lines():
                    fh.write(f"# {tl}\n")
                fh.write(serialize_ring_code(cc.code))
            class_files.append(fn)
        manifest = {
            "q": sp.q,
            "m": sp.m,
            "ell": args.ell,
            "candidate_budget": args.budget,
            "workers": args.workers,
            "complete": run.complete,
            "class_count": len(run.classes),
            "stats": {
                "candidates": run.stats.candidates,
                "exact_duplicates": run.stats.exact_duplicates,
                "equivalence_checks": run.stats.equivalence_checks,
                "ring_classes_per_level": run.stats.ring_classes_per_level,
            },
            "classes": [
                dict(row.to_dict(), file=class_files[row.index], trail=list(cc.trail))
                for row, cc in zip(report.rows, run.classes)
            ],
        }
        with open(os.path.join(args.out, "run.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(args.out, "summary.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["index", "n", "k", "d", "weight_family", "beta",
                 "divisibility_ok", "aut_order", "file"]
            )
            for row in report.rows:
                writer.writerow(
                    [row.index, row.n, row.k, row.d, row.weight_family,
                     row.beta, row.divisibility_ok, row.aut_order,
                     class_files[row.index]]
                )
        print(f"wrote {args.out}/run.json, summary.csv, {len(class_files)} class files")
    return OK


# -- verify-corpus ------------------------------------------------------------


def cmd_verify_corpus(args) -> int:
    if args.name:
        try:
            entries = [corpus.get(args.name)]
        except KeyError as exc:
            raise ValueError(exc.args[0]) from exc
    else:
        entries = list(corpus.ENTRIES)
    budget = args.budget
    reports = []
    all_ok = True
    seconds = []
    for entry in entries:
        start = time.perf_counter()
        rep = corpus.verify_entry(entry, exact=args.exact, budget=budget)
        seconds.append(round(time.perf_counter() - start, 3))
        reports.append(rep)
        all_ok = all_ok and rep.passed
        if args.format == "json":
            continue
        if args.name:
            print(rep.headline())
            if not rep.passed:
                for line in rep.lines()[1:]:
                    print(line)
        else:
            print(f"{rep.name} {rep.headline()}")
            if not rep.passed:
                for c in rep.checks:
                    if not c.ok:
                        print(f"  {c.label}: MISMATCH ({c.detail})")
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "seconds": secs,
                "summary": r.summary,
                "checks": [
                    {"label": c.label, "ok": c.ok, "detail": c.detail}
                    for c in r.checks
                ],
            }
            for r, secs in zip(reports, seconds)
        ]
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return OK if all_ok else MISMATCH


# -- equiv --------------------------------------------------------------------


def cmd_equiv(args) -> int:
    kind1, code1 = _load_any(args.file1)
    kind2, code2 = _load_any(args.file2)
    fc1 = _field_form(kind1, code1)
    fc2 = _field_form(kind2, code2)
    if fc1.field.q != fc2.field.q:
        raise ValueError(
            f"codes live over different fields (F_{fc1.field.q} vs F_{fc2.field.q})"
        )
    res = are_equivalent(fc1, fc2)
    if res:
        print("equivalent")
        return OK
    print("not equivalent")
    return MISMATCH


# -- parser -------------------------------------------------------------------


def _add_budget(p):
    p.add_argument("--budget", type=int, default=DEFAULT_WEIGHT_BUDGET,
                   help="enumeration budget (words)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcsd",
        description=(
            "Construct, analyze, and classify self-dual quasi-cyclic codes "
            "presented over F_q[Y]/(Y^m - 1)."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seed", help="list the shortest self-dual codes over the ring")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", metavar="DIR", default=None)
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("extend", help="apply an extension witness to a ring code")
    p.add_argument("base", help="ring-code file")
    p.add_argument("witness", help="witness file (branch/c/x lines)")
    p.add_argument("--out", metavar="DIR", default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("classify", help="classify self-dual codes over the ring")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--budget", type=int, default=5_000_000,
                   help="candidate budget")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", metavar="CHECKPOINT", default=None,
                   help="checkpoint file to resume from (and keep writing)")
    p.add_argument("--out", metavar="DIR", default=None)
    p.add_argument("--constructive", action="store_true",
                   help="sampled non-exhaustive search when the "
                        "classification hypotheses fail")
    p.add_argument("--verbose", action="store_true",
                   help="progress lines on stderr")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze", help="weight data for a code file")
    p.add_argument("file", help="ring-code or field-code file")
    p.add_argument("--exact", action="store_true",
                   help="raise the enumeration cap to 2^31 words")
    _add_budget(p)
    p.add_argument("--format", choices=["csv", "json", "poly"], default="poly",
                   help="output format")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("expand", help="convert a ring-code file to a field-code file")
    p.add_argument("file", help="ring-code file")
    p.add_argument("--out", metavar="DIR", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify-corpus", help="check bundled matrices against expected values")
    p.add_argument("--name", default=None, help="verify one entry")
    p.add_argument("--exact", action="store_true",
                   help="raise budgets so more values are certified exactly")
    _add_budget(p)
    p.add_argument("--format", choices=["json", "poly"], default="poly",
                   help="output format")
    p.set_defaults(func=cmd_verify_corpus)

    p = sub.add_parser("equiv", help="decide monomial equivalence of two code files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equiv)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except (ValueError, ConstructionError, UnsupportedCase, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
