"""Benchmark of the CFDlang flow: a design-space sweep and solver steps.

Run from the repository root:

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 45 --trace 0

One process, one caller, one op at a time (a closed loop).  The run sets
the workload up several times (``setup_s`` is the median), then issues
ops until ``--seconds`` have passed, checking every op's outputs outside
the timed region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  A traced run spends the first half of its time with no
wrappers and the second half with every layer entry point wrapped, so
it reports the tracing overhead; its spans go to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.

``--list`` prints every metric with its unit and what it should move.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from catalog import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    ROOT_SPAN,
    SELF_METRIC_PREFIX,
    SPANS,
    STAGES,
    WORKLOAD_NAMES,
    WORKLOADS,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: set up at least SETUP_MIN times and for at least SETUP_SECONDS
SETUP_MIN = 3
SETUP_SECONDS = 6.0
MIN_OPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true",
                   help="print the workloads and metrics, then exit")
    args = p.parse_args(argv)
    if not args.list and args.workload is None:
        p.error("--workload is required")
    return args


def print_catalog() -> None:
    for name, why in WORKLOADS:
        print(f"workload {name}: {why}")
    for m in END_TO_END:
        print(f"end-to-end {m.name} [{m.unit}, {m.better} is better, "
              f"bound {m.bound:.0%}]: {m.meaning}")
    for m in PER_LAYER:
        print(f"per-layer {m.name} [{m.unit}, {m.better} is better]: "
              f"should move {m.moves}")


def measure(workload, seconds, tracer=None, first_op=0):
    """Issue ops until ``seconds`` of wall time have passed.

    Returns one record per op; its time excludes the gc pass and the
    output check, both of which run between ops.
    """
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < MIN_OPS or time.perf_counter() < deadline:
        op_id = first_op + len(records)
        gc.collect()
        scope = tracer.op(op_id) if tracer is not None else nullcontext()
        error = None
        out = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with scope:
                out = workload.op()
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if error is None:
            try:
                workload.check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            print(f"op {op_id} failed: {type(error).__name__}: {error}",
                  file=sys.stderr)
        records.append({
            "op": op_id,
            "wall": wall,
            "cpu": cpu,
            "ok": error is None,
            "work": workload.work(out) if error is None else 0,
            "model": (_model_values(out) if error is None else None),
            "stages": _stage_tally(out.events) if error is None else None,
        })
    return records


def _model_values(out):
    from workloads import model_cycles, model_speedup

    if not out.designs:
        return None
    values = model_cycles(out.designs)
    values["model_speedup_vs_arm"] = model_speedup(out.designs)
    return values


def _stage_tally(events):
    runs, hits = {}, {}
    for e in events:
        tally = hits if e.cached else runs
        tally[e.stage] = tally.get(e.stage, 0) + 1
    return runs, hits


def _timed(records):
    ok = [r for r in records if r["ok"]]
    return ok or records


def _tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def _median_count(values):
    return statistics.median_low(values) if values else 0


def end_to_end_metrics(records, setup_times):
    timed = _timed(records)
    walls = [r["wall"] for r in timed]
    best = min(walls)
    work = statistics.median(r["work"] for r in timed)
    attempted = len(records)
    ok = sum(r["ok"] for r in records)
    models = [r["model"] for r in timed if r["model"] is not None]
    values = {
        "op_s.min": best,
        "work_per_s": work / best,
        "ops_ok_ratio": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "model_speedup_vs_arm": (
            models[-1]["model_speedup_vs_arm"] if models else float("nan")
        ),
        "setup_s": statistics.median(setup_times),
    }
    return {
        m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END
    }


def per_layer_metrics(untraced, traced, tracer):
    selfs = tracer.self_times()
    op_seconds = tracer.op_seconds()
    ops = [r["op"] for r in _timed(traced)]
    span_by_prefix = {
        SELF_METRIC_PREFIX.get(span, span): span for span, _ in SPANS
    }
    span_by_prefix[ROOT_SPAN] = ROOT_SPAN
    values = {}
    for prefix, span in span_by_prefix.items():
        values[f"{prefix}.self_s"] = statistics.median(
            selfs[op].get(span, 0.0) for op in ops
        )
    counters = {m.name for m in PER_LAYER if m.unit == "count"
                and not m.name.startswith("flow.")}
    for name in counters:
        values[name] = _median_count([tracer.counts[op][name] for op in ops])
    tallies = [r["stages"] for r in _timed(traced) if r["stages"] is not None]
    all_runs = all_hits = 0
    for stage in STAGES:
        runs = _median_count([t[0].get(stage, 0) for t in tallies])
        hits = _median_count([t[1].get(stage, 0) for t in tallies])
        values[f"flow.stage_runs.{stage}"] = runs
        values[f"flow.stage_hits.{stage}"] = hits
        values[f"flow.hit_ratio.{stage}"] = hits / (runs + hits) if runs + hits else 0.0
    for t in tallies:
        all_runs += sum(t[0].values())
        all_hits += sum(t[1].values())
    values["flow.hit_ratio"] = (
        all_hits / (all_runs + all_hits) if all_runs + all_hits else 0.0
    )
    models = [r["model"] for r in _timed(traced) if r["model"] is not None]
    for part in ("compute", "transfer", "control"):
        name = f"sim.model_{part}_cycles"
        values[name] = _median_count([m[name] for m in models])
    untraced_best = min(r["wall"] for r in _timed(untraced))
    traced_best = min(r["wall"] for r in _timed(traced))
    layer_self = [op_seconds[op] - selfs[op][ROOT_SPAN] for op in ops]
    values["trace.untraced_op_s.min"] = untraced_best
    values["trace.op_s.min"] = traced_best
    values["trace.overhead_s"] = traced_best - untraced_best
    values["trace.layer_self_s"] = statistics.median(layer_self)
    values["trace.coverage"] = statistics.median(
        s / op_seconds[op] for s, op in zip(layer_self, ops)
    )
    return {
        m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER
    }


def report(workload, seed, records, metrics) -> None:
    """Human-readable diagnostics, printed before the JSON line."""
    timed = _timed(records)
    walls = [r["wall"] for r in timed]
    failed = sum(not r["ok"] for r in records)
    print(f"workload {workload.name} seed {seed}: {len(records)} ops, "
          f"{failed} failed, {statistics.median(r['work'] for r in timed):g} "
          f"{workload.work_unit} per op")
    q1, q2, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls * 3)
    print(f"  op_s min/p25/p50/p75: {min(walls):.6f} / {q1:.6f} / "
          f"{q2:.6f} / {q3:.6f}")
    tail = _tail(walls)
    if tail is None:
        print(f"  op_s tail: none ({len(walls)} ops; a percentile with ten "
              "samples beyond it needs at least 20)")
    else:
        print(f"  op_s.p{tail[0]}: {tail[1]:.6f} (from {len(walls)} ops)")
    print(f"  cpu_s per op p50: {statistics.median(r['cpu'] for r in timed):.6f}")
    print(f"  ops_failed_ratio: {failed / len(records):g} "
          f"({failed}/{len(records)})")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list:
        print_catalog()
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}/repro; run from a full "
              "checkout", file=sys.stderr)
        return 2
    # the cnative backend and the C compiler write temporaries: keep them
    # inside the checkout
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS as BENCH

    workload = BENCH[args.workload](args.seed)
    setup_times = []
    setup_end = time.perf_counter() + SETUP_SECONDS
    while len(setup_times) < SETUP_MIN or time.perf_counter() < setup_end:
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        workload.check(workload.op())  # warm-up op, discarded
        setup_times.append(time.perf_counter() - t0)

    if args.trace:
        from tracing import Tracer

        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2, tracer,
                             first_op=len(untraced))
        finally:
            tracer.uninstall()
        tracer.write_jsonl(
            os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        )
        records = untraced + traced
        metrics = per_layer_metrics(untraced, traced, tracer)
    else:
        records = measure(workload, args.seconds)
        metrics = end_to_end_metrics(records, setup_times)

    report(workload, args.seed, records, metrics)
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
