"""Benchmark for qcsd: end-to-end and per-layer metrics of four workloads.

One run, as a fresh process, from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 18 --trace 0

prints the run's metrics by name and unit, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run executes its rounds untraced, then the same rounds traced, and reports
the per-layer ones (spans from ``spans.py``) and the tracing overhead.

Without ``--workload`` it runs every workload untraced, then every
workload traced, each in its own process and one after the other, and
prints a table.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# One numpy thread: the set-up below must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
MODULES = ("ring", "rcode", "qc", "buildup", "analysis", "equiv", "classify", "corpus", "formats")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


class SetupError(RuntimeError):
    pass


def import_qcsd():
    """Import qcsd afresh from this checkout's src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "qcsd", "__init__.py")):
        raise SetupError(f"no qcsd package under {SRC}")
    for key in [k for k in sys.modules if k == "qcsd" or k.startswith("qcsd.")]:
        del sys.modules[key]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("qcsd")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "qcsd"):
        raise SetupError(f"imported qcsd from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"qcsd.{name}") for name in MODULES}
    )


def timed_setup(workload):
    """Set up SETUP_REPEATS times, each from a fresh import of qcsd; returns
    the median time and the last set-up's modules and state."""
    import numpy  # noqa: F401  (imported once, outside the timed set-up)

    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        qc = import_qcsd()
        state = workload.setup(qc)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), qc, state


def run_ops(ops, round_ops, seconds, rounds=None):
    """Run whole rounds of ``round_ops`` operations: ``rounds`` of them when
    given, else as many as fit in ``seconds`` going by the last round's
    time, and at least one.
    Returns (latencies, failed, wall time of each round)."""
    lat, failed, walls = [], 0, []
    clock = time.perf_counter
    t0 = round_start = clock()
    for i, op in enumerate(ops):
        start = clock()
        try:
            ok = op()
        except Exception as exc:  # any error fails the op; the run goes on
            ok = False
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        end = clock()
        lat.append(end - start)
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"op {i} failed its output check", file=sys.stderr)
        if (i + 1) % round_ops == 0:
            walls.append(end - round_start)
            round_start = end
            # stop before a round that would end past ``seconds``
            if len(walls) == rounds or (rounds is None and end - t0 + walls[-1] > seconds):
                break
    return lat, failed, walls


def tail(lat):
    """(value, percentile): the highest percentile of the sorted latencies
    with TAIL_BEYOND ops beyond it, or the maximum when there are fewer."""
    xs = sorted(lat)
    i = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


# Functions each workload must call (the layer table in README.md); a traced
# run warns, and test_perfbench.py fails, when one of them records no call.
EXERCISED = {
    "buildup": {s for s in SPAN_NAMES if s.split(".")[0] in ("ring", "rcode", "qc", "buildup")},
    "corpus": {s for s in SPAN_NAMES if s.split(".")[0] in ("analysis", "corpus", "formats")}
    | {"equiv.automorphism_order"},
    "classify": {s for s in SPAN_NAMES if s.split(".")[0] in ("equiv", "classify")},
    "equiv": {"equiv.are_equivalent"},
}


def single_run(name, seed, seconds, traced):
    workload = WORKLOADS[name](seed)
    gc.collect()
    setup_s, qc, state = timed_setup(workload)
    # traced runs split their time between an untraced and a traced copy
    budget = seconds / 2 if traced else seconds
    ops = workload.ops(qc, state)
    lat, failed, walls = run_ops(ops, workload.round_ops, budget)
    ops.close()
    n = len(lat)
    lines = [f"workload {name}  seed {seed}  trace {int(traced)}  ops {n}  failed {failed}"]
    if not traced:
        tail_ms, pct = tail(lat)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_tail_ms": 1000.0 * tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "wall_s": f"median of {len(walls)} rounds of {workload.round_ops} ops",
            "op_p50_ms": f"median of {n} ops",
            "op_tail_ms": f"p{pct:.1f} of {n} ops",
            "peak_rss_mb": "ru_maxrss",
        }
        for key, value in metrics.items():
            lines.append(f"  {key:<14} {value:14.4f} {END_TO_END_UNITS[key]:<4} ({notes[key]})")
        lines.append(f"  {'fail_ratio':<14} {failed / n:14.4f} 1    ({failed} of {n} ops)")
        result = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        # repeat the same rounds traced, with fresh inputs from the same seed;
        # the difference in wall time is the tracing overhead
        workload = WORKLOADS[name](seed)
        state = workload.setup(qc)
        tracer = Tracer()
        tracer.install()
        try:
            ops = workload.ops(qc, state)
            tlat, tfailed, twalls = run_ops(ops, workload.round_ops, None, len(walls))
            ops.close()
        finally:
            tracer.uninstall()
        failed += tfailed
        n += len(tlat)
        result = layer_metrics(tracer, workload, sum(twalls) - sum(walls))
        lines[0] = f"workload {name}  seed {seed}  trace 1  ops {n}  failed {failed}"
        for key, m in result.items():
            lines.append(f"  {key:<40} {m['value']:16.6f} {m['unit']}")
        quiet = [s for s in SPAN_NAMES if s in EXERCISED[name] and not tracer.calls[s]]
        if quiet:
            lines.append(f"  WARNING: no calls recorded for {', '.join(quiet)}")
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": result}


def layer_metrics(tracer, workload, overhead):
    out = {}
    for s in SPAN_NAMES:
        out[f"{s}.calls"] = {"value": tracer.calls[s], "unit": "count"}
        out[f"{s}.self_s"] = {"value": tracer.self_s[s], "unit": "s"}
    we = tracer.self_s["analysis.weight_enumerator"]
    calls = tracer.calls["equiv.are_equivalent"]
    out["analysis.weight_enumerator.words"] = {"value": tracer.words, "unit": "count"}
    out["analysis.weight_enumerator.words_per_s"] = {
        "value": tracer.words / we if we else 0.0,
        "unit": "1/s",
    }
    out["equiv.are_equivalent.true_ratio"] = {
        "value": tracer.equivalent / calls if calls else 0.0,
        "unit": "1",
    }
    counts = {
        "classify.candidates": 0,
        "classify.equiv_checks": 0,
        "classify.exact_duplicates": 0,
        "classify.checks_per_candidate": 0.0,
    }
    counts.update(workload.layer_counts())
    for key, value in counts.items():
        out[key] = {"value": value, "unit": "1" if key.endswith("per_candidate") else "count"}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def run_all(seed, seconds):
    """Each workload untraced, then each traced, in fresh processes."""
    rows = {}
    for traced in (0, 1):
        for name in WORKLOADS:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(traced),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            rows[(name, traced)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    units = dict(END_TO_END_UNITS, fail_ratio="1")
    print(f"{'workload':<10} {'correct':<8} " + " ".join(f"{k:>14}" for k in units))
    for name in WORKLOADS:
        res = rows[(name, 0)]
        vals = [res["metrics"][k]["value"] for k in END_TO_END_UNITS]
        vals.append(res["failed"] / res["attempted"])
        correct = res["correct"] and rows[(name, 1)]["correct"]
        print(f"{name:<10} {str(correct):<8} " + " ".join(f"{v:14.4f}" for v in vals))
    print("units: " + ", ".join(f"{k} {u}" for k, u in units.items()))
    print(
        "trace.overhead_s: "
        + ", ".join(f"{n} {rows[(n, 1)]['metrics']['trace.overhead_s']['value']:.3f}" for n in WORKLOADS)
    )
    ok = all(r["correct"] for r in rows.values())
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    try:
        result = single_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
