#!/usr/bin/env python3
"""Design-space exploration: "our DSL-based flow simplifies the exploration
of parameters and constraints such as on-chip memory usage" (abstract).

Sweeps polynomial degree x sharing strategy with the staged batch API
(:func:`repro.compile_many`) on four worker threads: all points share one
lock-protected stage cache with single-flight keying, so the
parse/lower/schedule/codegen front end runs once per degree while the
memory stage runs once per (degree, sharing) point — the flow trace at
the end shows exactly what was reused.  System assembly and simulation
are registry stages too, so every result already carries its
maximum-parallelism system and a 50,000-element simulation.

Pass a directory as the first argument to persist the stage cache there
(:class:`repro.DiskStageCache`): a second run of this script then reuses
every artifact across processes — the trace reports the disk hits.
``--executor process`` (a second name for ``distributed``) submits the
grid's job specs as one job to a broker the sweep starts on loopback and
runs the CPU-bound front ends on ``--jobs`` spawned worker processes
(one per degree, deduplicated across workers by lock-file single
flight), which is where a cold multi-program sweep actually scales with
cores.  With ``--executor distributed --listen HOST:PORT`` the broker
binds a reachable address so ``cfdlang-flow worker --connect`` processes
join from anywhere on the network — any fleet of workers drains the
grid, which is how the sweep scales past one machine.

With a standing ``cfdlang-flow broker`` running the job service,
``--submit`` sends the whole grid off as one durable job and exits
immediately — the broker owns it from there.  Reconnect whenever (and
from wherever) with ``--job-id`` to wait for and render the results,
bit-identical to running the sweep locally.

    python examples/design_space_exploration.py [cache-dir] \\
        [--executor serial|thread|process|distributed] [--jobs N] \\
        [--listen HOST:PORT --token SECRET [--external-workers]]
    python examples/design_space_exploration.py \\
        --broker HOST:PORT --token SECRET --submit
    python examples/design_space_exploration.py \\
        --broker HOST:PORT --token SECRET --job-id JOB_ID
"""

import argparse
import sys

from repro.apps.helmholtz import inverse_helmholtz_program
from repro.flow import (
    DiskStageCache,
    FlowOptions,
    FlowTrace,
    StageCache,
    compile_many,
    executor_names,
)
from repro.mnemosyne import SharingMode
from repro.utils import ascii_table

NE = 50_000
DEGREES = (7, 9, 11, 13)
MODES = (SharingMode.NONE, SharingMode.MATCHING, SharingMode.CLIQUE)


def build_grid():
    points = [(n, mode) for n in DEGREES for mode in MODES]
    grid = [
        (inverse_helmholtz_program(n), FlowOptions(sharing=mode))
        for n, mode in points
    ]
    return points, grid


def explore(trace=None, cache=None, jobs=4, executor="thread"):
    points, grid = build_grid()
    results = compile_many(
        grid, jobs=jobs, cache=cache, trace=trace, executor=executor
    )
    return result_rows(points, results)


def result_rows(points, results):
    rows = []
    for (n, mode), res in zip(points, results):
        if res.system is not None:
            rows.append(
                (
                    n,
                    mode.value,
                    res.memory.brams,
                    res.system.k,
                    f"{res.system.utilization()['bram'] * 100:.0f}%",
                    res.sim.total_seconds,
                )
            )
        else:  # no feasible configuration on the board
            rows.append((n, mode.value, res.memory.brams, 0, "-", None))
    return rows


def _fmt_seconds(t):
    return f"{t:.3f}s" if t is not None else "does not fit"


def report(rows, trace) -> None:
    print(
        ascii_table(
            ["extent n", "sharing", "BRAM/kernel", "max k", "BRAM util", "50k elements"],
            [r[:5] + (_fmt_seconds(r[5]),) for r in rows],
            title="Inverse Helmholtz design space on the ZCU106",
        )
    )
    print()
    best = min((r for r in rows if r[3] > 0 and r[0] == 11), key=lambda r: r[5])
    print(f"best p=11 configuration: sharing={best[1]}, k={best[3]} "
          f"-> {_fmt_seconds(best[5])}")
    print()
    print(trace.summary())
    counts = trace.executed_counts()
    print(
        f"\ncache reuse: front end ran {counts.get('parse', 0)}x for "
        f"{len(rows)} design points ({counts.get('memory', 0)} memory builds)"
    )


def _service_flow(args) -> None:
    """The detach/reattach loop against a standing broker's job service:
    --submit prints a durable id and exits; --job-id picks it back up."""
    from repro.flow import ServiceExecutor, attach_job

    if args.submit:
        points, grid = build_grid()
        job = compile_many(
            grid,
            executor=ServiceExecutor(
                broker=args.broker, token=args.token, detach=True
            ),
        )
        print(f"submitted job {job.job_id} ({len(grid)} points) "
              f"to {args.broker}")
        print("fetch the results later, from any host, with:")
        print(f"  python {sys.argv[0]} --broker {args.broker} "
              f"--job-id {job.job_id}")
        job.client.close()
        return
    job = attach_job(args.broker, args.token, args.job_id)
    try:
        status = job.wait()
        print(f"job {job.job_id}: {status['state']}, "
              f"{status['done_points']}/{status['total']} points done")
        trace = FlowTrace()
        results = []
        for payload in job.fetch_payloads():
            if payload is None:
                raise SystemExit(f"job {job.job_id} was cancelled")
            outcome = payload["outcome"]
            if isinstance(outcome, Exception):
                raise outcome
            for stage, seconds, cached, origin in payload.get("events") or []:
                trace.record(stage, seconds, cached, origin)
            results.append(outcome)
    finally:
        job.client.close()
    points, _ = build_grid()
    report(result_rows(points, results), trace)


def main() -> None:
    parser = argparse.ArgumentParser(description="helmholtz DSE sweep")
    parser.add_argument("cache_dir", nargs="?", default=None,
                        help="persist the stage cache here (reused across runs)")
    parser.add_argument("--executor", choices=executor_names(),
                        default="thread", help="compile_many backend")
    parser.add_argument("--jobs", type=int, default=4,
                        help="parallel workers (default 4)")
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="with --executor distributed: serve the sweep "
                             "over TCP; workers join with 'cfdlang-flow "
                             "worker --connect' and need no shared mount")
    parser.add_argument("--token", default=None, metavar="SECRET",
                        help="shared-secret token for --listen "
                             "(or set CFDLANG_FLOW_TOKEN)")
    parser.add_argument("--external-workers", action="store_true",
                        help="with --listen: spawn no local workers; the "
                             "attached fleet does all the work")
    parser.add_argument("--broker", default=None, metavar="HOST:PORT",
                        help="a standing 'cfdlang-flow broker' whose job "
                             "service runs the sweep (--submit/--job-id)")
    parser.add_argument("--submit", action="store_true",
                        help="with --broker: submit the sweep as a durable "
                             "job, print its id, and exit")
    parser.add_argument("--job-id", default=None, metavar="JOB_ID",
                        help="with --broker: reattach to a submitted job, "
                             "wait for it, and render the results")
    args = parser.parse_args()
    if args.submit or args.job_id:
        if not args.broker:
            parser.error("--submit and --job-id need --broker HOST:PORT")
        _service_flow(args)
        return
    if args.cache_dir:
        cache = DiskStageCache(args.cache_dir)
    elif args.executor in ("process", "distributed"):
        cache = None  # the executor provisions a temporary disk cache
    else:
        cache = StageCache()
    executor = args.executor
    if args.executor == "distributed" and args.listen:
        from repro.flow import DistributedExecutor
        from repro.flow.nettransport import parse_hostport

        executor = DistributedExecutor(
            listen=parse_hostport(args.listen, listening=True),
            token=args.token,
            spawn_workers=not args.external_workers,
        )
    trace = FlowTrace()
    rows = explore(trace, cache, jobs=args.jobs, executor=executor)
    report(rows, trace)


if __name__ == "__main__":
    main()
