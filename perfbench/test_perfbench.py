"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run test takes about two minutes: it runs every workload once
with tracing on and fails when a function the layer table assigns to that
workload records no call, so a refactor that moves a call site out of the
wrappers' reach fails loudly instead of zeroing a layer.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from ringarith import Ring  # noqa: E402
from workloads import WORKLOADS, Buildup, Equiv  # noqa: E402


@pytest.mark.parametrize("qm", sorted(set(Buildup.CHAINS) | {(5, 7), (2, 11), (5, 2)}))
def test_ringarith_agrees_with_qcsd(qm):
    from qcsd.ring import ring

    r, sp = Ring(*qm), ring(*qm)
    rng = random.Random(0)
    for _ in range(50):
        a, b = r.random_element(rng), r.random_element(rng)
        assert r.mul(a, b) == sp.mul(a, b)
        assert r.conj(a) == sp.conj(a)


def test_equiv_labels_match_seed_representatives():
    from qcsd.buildup import norm_minus_one_elements
    from qcsd.ring import ring

    w = Equiv(0)
    assert w.codes == list(norm_minus_one_elements(ring(5, 7)))
    assert len(w.reps) == Equiv.CLASSES == 6
    assert sum(len(m) for m in w.members) + len(w.reps) == 252


def test_tail_percentile_keeps_ten_ops_beyond():
    lat = list(range(100))
    value, pct = run.tail(lat)
    assert value == 89 and sum(x > value for x in lat) == 10 and pct == 90.0
    assert run.tail([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reaches_every_assigned_layer(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "7", "--seconds", "4", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    quiet = [s for s in run.EXERCISED[name] if metrics[f"{s}.calls"]["value"] == 0]
    assert not quiet, f"{name}: no calls recorded for {quiet}"
