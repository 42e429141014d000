"""Regenerate perfbench/data/equiv_5_7_labels.json.

The equiv workload compares length-2 codes [1 | c] over (q, m) = (5, 7),
one for each of the 252 elements c with c*conj(c) = -1.  Its expected
answers come from class labels computed here once, by the same first-fit
deduplication that ``qcsd.seed`` performs.  That takes about 190 s on a
2-core VM, too long to repeat in every benchmark run, so the labels are
committed.

Run from the repository root:

    python3 perfbench/make_equiv_labels.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ringarith import Ring  # noqa: E402

OUT = os.path.join(HERE, "data", "equiv_5_7_labels.json")
Q, M = 5, 7
EXPECTED_CLASSES = 6  # len(qcsd.seed(qcsd.ring(5, 7)))


def main() -> int:
    from qcsd.equiv import are_equivalent
    from qcsd.rcode import RingCode
    from qcsd.ring import ring

    t0 = time.perf_counter()
    r = Ring(Q, M)
    cs = r.by_norm()[r.minus_one]
    sp = ring(Q, M)
    exps = [RingCode(sp, 2, [(sp.one, c)]).expansion() for c in cs]
    reps: list[int] = []
    labels = []
    for i, exp in enumerate(exps):
        hit = next(
            (
                lab
                for lab, k in enumerate(reps)
                if exp == exps[k] or are_equivalent(exp, exps[k])
            ),
            None,
        )
        if hit is None:
            hit = len(reps)
            reps.append(i)
        labels.append(hit)
    if len(reps) != EXPECTED_CLASSES:
        print(f"expected {EXPECTED_CLASSES} classes, found {len(reps)}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(
            {
                "q": Q,
                "m": M,
                "note": "codes[i] is c in [1 | c]; labels[i] is its class under "
                "monomial equivalence of the expansions (first-fit order)",
                "codes": [list(c) for c in cs],
                "labels": labels,
            },
            fh,
        )
        fh.write("\n")
    print(f"{len(cs)} codes, {len(reps)} classes, {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
