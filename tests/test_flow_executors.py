"""Execution backends: serial/thread/process equivalence, cross-process
single flight, option-spec round-trips, and executor selection."""

import dataclasses
import os
import time

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import SystemGenerationError
from repro.flow import (
    DiskStageCache,
    FileSingleFlight,
    FlowOptions,
    FlowTrace,
    StageCache,
    SystemOptions,
    compile_many,
    executor_names,
    get_executor,
)
from repro.flow.executors import DEFAULT_EXECUTOR, resolve_executor
from repro.flow.stages import FRONT_END_STAGES
from repro.mnemosyne import SharingMode
from repro.system.board import ALVEO_U280

#: the acceptance sweep: 5 helmholtz points over k = m
SWEEP = [
    (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=k)))
    for k in (1, 2, 4, 8, 16)
]


def result_signature(results):
    """Everything that must be bit-identical across backends."""
    return [
        (
            r.kernel.source,
            r.hls.summary(),
            r.memory.brams,
            (r.system.k, r.system.m),
            r.system.resources,
            r.sim.total_cycles,
        )
        for r in results
    ]


class TestExecutorRegistry:
    def test_names(self):
        assert executor_names() == [
            "distributed", "process", "serial", "service", "thread"
        ]
        assert DEFAULT_EXECUTOR == "thread"

    def test_get_unknown_executor(self):
        with pytest.raises(SystemGenerationError, match="known executors are"):
            get_executor("mpi")

    def test_distributed_resolves_lazily(self):
        from repro.flow.distributed import DistributedExecutor

        assert isinstance(get_executor("distributed"), DistributedExecutor)

    def test_resolve_accepts_instance_and_none(self):
        from repro.flow.distributed import DistributedExecutor

        backend = get_executor("serial")
        assert resolve_executor(backend) is backend
        assert resolve_executor(None).name == DEFAULT_EXECUTOR
        # 'process' is a second name for the broker path
        assert isinstance(resolve_executor("process"), DistributedExecutor)

    def test_compile_many_rejects_unknown_executor(self):
        with pytest.raises(SystemGenerationError, match="unknown executor"):
            compile_many([HELMHOLTZ_DSL], executor="gpu")


class TestOptionSpecs:
    def test_default_round_trip(self):
        opts = FlowOptions()
        assert FlowOptions.from_spec(opts.to_spec()) == opts

    def test_non_default_round_trip(self):
        from repro.codegen.hlsdirectives import HlsDirectives

        opts = FlowOptions(
            kernel_name="k2",
            factorize=False,
            directives=HlsDirectives(pipeline="inner", unroll_factor=2,
                                     array_partition={"u": 4}),
            sharing=SharingMode.CLIQUE,
            temporaries_internal=True,
            board=ALVEO_U280,
            clock_mhz=300.0,
            layout_overrides={"u": "column_major"},
            partition_merges={"buf": ("t", "r")},
            reduction_placement="free",
            fuse_init=False,
            system=SystemOptions(k=4, m=8, board=ALVEO_U280,
                                 n_elements=123, overlap_transfers=True),
        )
        restored = FlowOptions.from_spec(opts.to_spec())
        assert restored == opts
        # cache keys hash option reprs: equality must extend to repr
        assert repr(restored) == repr(opts)

    def test_bad_reduction_placement_rejected_early(self):
        # a job spec is decoded before any stage runs, so a bad placement
        # fails there, naming the allowed values
        with pytest.raises(SystemGenerationError, match="'innermost', 'outside'"):
            FlowOptions(reduction_placement="sideways")
        spec = FlowOptions().to_spec()
        spec["reduction_placement"] = "sideways"
        with pytest.raises(SystemGenerationError, match="'free'"):
            FlowOptions.from_spec(spec)

    def test_spec_is_primitives_only(self):
        spec = FlowOptions().to_spec()

        def assert_plain(value):
            if isinstance(value, dict):
                for v in value.values():
                    assert_plain(v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    assert_plain(v)
            else:
                assert value is None or isinstance(value, (str, int, float, bool))

        assert_plain(spec)


class TestProcessExecutor:
    def test_process_matches_serial_bit_identical(self):
        """Acceptance: executor='process', jobs=4 equals the serial run
        on the 5-point helmholtz sweep."""
        serial = compile_many(SWEEP, executor="serial")
        proc = compile_many(SWEEP, jobs=4, executor="process")
        assert result_signature(serial) == result_signature(proc)

    def test_cross_process_single_flight_runs_front_end_once(self):
        trace = FlowTrace()
        compile_many(SWEEP, jobs=4, executor="process", trace=trace)
        executed = trace.executed_counts()
        for name in FRONT_END_STAGES:
            assert executed[name] == 1, name
        assert executed["build-system"] == len(SWEEP)

    def test_shared_disk_cache_reused_on_second_batch(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        compile_many(SWEEP, jobs=2, executor="process", cache=cache)
        assert cache.stats()["disk_entries"] > 0
        t2 = FlowTrace()
        compile_many(SWEEP, jobs=2, executor="process",
                     cache=DiskStageCache(tmp_path), trace=t2)
        assert t2.executed_counts() == {}

    def test_worker_stats_merge_into_parent_cache(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        compile_many(SWEEP[:2], jobs=2, executor="process", cache=cache)
        stats = cache.stats()
        # the parent process never ran a stage itself, yet it sees the
        # workers' traffic
        assert stats["misses"] > 0
        assert stats["disk_entries"] > 0

    def test_memory_cache_is_rejected(self):
        with pytest.raises(TypeError, match="DiskStageCache"):
            compile_many(SWEEP[:1], jobs=2, executor="process",
                         cache=StageCache())

    def test_per_point_error_capture_across_processes(self):
        jobs = SWEEP[:2] + [
            (HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE,
                                        system=SystemOptions(k=16, m=16))),
        ]
        results = compile_many(jobs, jobs=2, executor="process",
                               return_exceptions=True)
        assert results[0].system.k == 1 and results[1].system.k == 2
        assert isinstance(results[2], SystemGenerationError)
        with pytest.raises(SystemGenerationError):
            compile_many(jobs, jobs=2, executor="process")

    def test_gc_policy_applied_on_sweep_completion(self, tmp_path):
        cache = DiskStageCache(tmp_path, max_age_seconds=0.0)
        compile_many(SWEEP[:2], jobs=2, executor="process", cache=cache)
        # every entry is "too old" the moment the sweep finishes, so the
        # completion hook must have emptied the disk layer
        assert cache.stats()["disk_entries"] == 0

    def test_empty_batch(self):
        assert compile_many([], jobs=4, executor="process") == []


class TestSerialAndThreadExecutors:
    def test_thread_matches_serial(self):
        grid = [
            (HELMHOLTZ_DSL, FlowOptions(sharing=mode,
                                        system=SystemOptions(k=k, m=k)))
            for mode in (SharingMode.NONE, SharingMode.MATCHING)
            for k in (1, 2, 4)
        ]
        serial = compile_many(grid, executor="serial")
        threaded = compile_many(grid, jobs=4, executor="thread")
        assert result_signature(serial) == result_signature(threaded)

    def test_serial_raises_on_first_failure(self):
        jobs = [
            (HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE,
                                        system=SystemOptions(k=16, m=16))),
            SWEEP[0],
        ]
        with pytest.raises(SystemGenerationError):
            compile_many(jobs, executor="serial")

    def test_serial_return_exceptions(self):
        jobs = [
            (HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE,
                                        system=SystemOptions(k=16, m=16))),
            SWEEP[0],
        ]
        results = compile_many(jobs, executor="serial", return_exceptions=True)
        assert isinstance(results[0], SystemGenerationError)
        assert results[1].system.k == 1


class TestFileSingleFlight:
    def test_one_leader_per_key(self, tmp_path):
        flight = FileSingleFlight(tmp_path)
        assert flight.begin("k")
        assert not flight.begin("k")
        flight.finish("k")
        assert flight.begin("k")
        flight.finish("k")

    def test_two_instances_share_the_lock_dir(self, tmp_path):
        a = FileSingleFlight(tmp_path)
        b = FileSingleFlight(tmp_path)
        assert a.begin("k")
        assert not b.begin("k")
        a.finish("k")
        assert b.begin("k")
        b.finish("k")

    def test_wait_returns_after_finish(self, tmp_path):
        import threading

        flight = FileSingleFlight(tmp_path)
        flight.begin("k")
        woke = threading.Event()

        def waiter():
            flight.wait("k")
            woke.set()

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        flight.finish("k")
        t.join(timeout=5)
        assert woke.is_set()

    def test_stale_lock_is_stolen(self, tmp_path):
        flight = FileSingleFlight(tmp_path, stale_seconds=5.0)
        assert flight.begin("k")
        lock = tmp_path / "k.lock"
        past = time.time() - 60
        os.utime(lock, (past, past))
        # a fresh leader steals the abandoned lock...
        assert flight.begin("k")
        flight.finish("k")

    def test_wait_returns_on_stale_lock(self, tmp_path):
        flight = FileSingleFlight(tmp_path, stale_seconds=5.0)
        flight.begin("k")
        lock = tmp_path / "k.lock"
        past = time.time() - 60
        os.utime(lock, (past, past))
        t0 = time.monotonic()
        flight.wait("k")  # must not block for the full stale window
        assert time.monotonic() - t0 < 2.0
        flight.finish("k")

    def test_wait_on_unknown_key_returns(self, tmp_path):
        FileSingleFlight(tmp_path).wait("never-started", timeout=0.1)

    def test_wait_timeout(self, tmp_path):
        flight = FileSingleFlight(tmp_path, stale_seconds=60.0)
        flight.begin("k")
        t0 = time.monotonic()
        flight.wait("k", timeout=0.1)
        assert 0.05 < time.monotonic() - t0 < 2.0
        flight.finish("k")

    def test_flow_session_accepts_file_flight(self, tmp_path):
        """A Flow can use lock-file coordination directly (what the
        process workers do)."""
        from repro.flow import Flow

        cache = DiskStageCache(tmp_path / "cache")
        flight = FileSingleFlight(cache.lock_dir)
        res = Flow(HELMHOLTZ_DSL, cache=cache, flight=flight).run()
        assert res.memory.brams == 18
        assert not list(cache.lock_dir.glob("*.lock"))  # all released


#: parses instantly and fails instantly — the cheapest failing point
BAD_SOURCE = "this is not CFDlang"

#: infeasible system point: fails late (build-system), after a full
#: front-end run
INFEASIBLE = (
    HELMHOLTZ_DSL,
    FlowOptions(sharing=SharingMode.NONE, system=SystemOptions(k=16, m=16)),
)


class TestProcessWorkerCrash:
    """A worker killed mid-task (OOM, signal) must never cost the whole
    sweep: its dropped connection re-leases its point at once (no lease
    window to wait out), and only a point that keeps killing its
    workers ends as a WorkerCrashError in its own slot."""

    def test_crash_does_not_abort_batch(self, monkeypatch):
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        jobs = [(crashing, None)] + SWEEP[:3]
        trace = FlowTrace()
        t0 = time.monotonic()
        results = compile_many(jobs, jobs=2, executor="process",
                               trace=trace, return_exceptions=True)
        # the crash-once point was re-leased and completed...
        assert results[0].system is not None
        # ...every other point completed too...
        assert [r.system.k for r in results[1:]] == [1, 2, 4]
        # ...and all four traces/counters were merged
        assert trace.executed_counts()["build-system"] == 4
        # the default 30 s lease was never waited out
        assert time.monotonic() - t0 < 25.0

    def test_crash_slot_is_worker_crash_error(self, monkeypatch):
        from repro.flow.distributed import DistributedExecutor, WorkerCrashError

        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        results = compile_many([(crashing, None)], jobs=1,
                               executor=DistributedExecutor(max_attempts=1),
                               return_exceptions=True)
        assert isinstance(results[0], WorkerCrashError)
        assert "connection dropped" in str(results[0])

    def test_sweep_script_needs_no_main_guard(self, tmp_path):
        """Workers are `cfdlang-flow worker` processes, not re-imports of
        the caller's script, so a script without an
        ``if __name__ == "__main__"`` guard still gets results."""
        import subprocess
        import sys

        import repro

        script = tmp_path / "sweep.py"
        script.write_text(
            "from repro.apps.helmholtz import HELMHOLTZ_DSL\n"
            "from repro.flow import FlowOptions, SystemOptions, compile_many\n"
            "jobs = [(HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=k)))\n"
            "        for k in (1, 2)]\n"
            "results = compile_many(jobs, executor='process', jobs=2)\n"
            "print('k =', [r.system.k for r in results])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(repro.__file__)),
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "k = [1, 2]" in proc.stdout
        assert "Traceback" not in proc.stderr


class TestDeterministicTraceMerge:
    def test_process_trace_is_point_ordered(self):
        """Worker events merge in point order, not as_completed order, so
        identical sweeps produce identical --trace output.  The failing
        middle point emits fewer events (no build-system/simulate), which
        makes any completion-order interleaving visible."""
        jobs = [SWEEP[0], INFEASIBLE, SWEEP[1]]
        serial_trace = FlowTrace()
        compile_many(jobs, executor="serial", trace=serial_trace,
                     return_exceptions=True)
        for _ in range(2):
            proc_trace = FlowTrace()
            compile_many(jobs, jobs=3, executor="process", trace=proc_trace,
                         return_exceptions=True)
            assert [e.stage for e in proc_trace.events] == [
                e.stage for e in serial_trace.events
            ]

    def test_process_events_carry_worker_tags(self):
        from repro.flow.session import origin_kind

        trace = FlowTrace()
        compile_many(SWEEP[:2], jobs=2, executor="process", trace=trace)
        assert trace.events
        for e in trace.events:
            assert "@" in e.origin  # worker identity tag
            assert origin_kind(e.origin) in ("", "memory", "disk")
        # tags must not leak into the memory/disk aggregation
        mem = trace.cached_counts_by_origin("memory")
        disk = trace.cached_counts_by_origin("disk")
        assert sum(mem.values()) + sum(disk.values()) == sum(
            1 for e in trace.events if e.cached
        )


class TestFailFastContract:
    """The shared early-exit semantics: once a point fails, no backend
    starts new points; running points finish; never-started points keep
    their None slot.  (The thread backend used to ignore fail_fast, and
    the service backend never read it.)"""

    @pytest.fixture
    def service_broker(self, tmp_path):
        """A standing broker drained by one in-process thread worker."""
        import threading

        from repro.flow.nettransport import run_tcp_worker
        from repro.flow.service import start_service_broker

        server = start_service_broker(
            "127.0.0.1", 0, "fail-fast-secret",
            DiskStageCache(tmp_path / "cache"), tmp_path / "service",
            poll_seconds=0.01,
        )
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(server.address, "fail-fast-secret", tmp_path / "worker"),
            kwargs={"poll_seconds": 0.005},
        )
        worker.start()
        try:
            yield server.address
        finally:
            server.close()  # the worker exits on the closed connection
            worker.join(timeout=30.0)

    def _service(self, address):
        from repro.flow.service import ServiceExecutor

        return ServiceExecutor(
            broker=address, token="fail-fast-secret", poll_seconds=0.02
        )

    def _run(self, name, jobs, workers, fail_fast=True):
        from repro.flow.executors import ExecutorContext

        backend = resolve_executor(name)
        cache = backend.prepare_cache(None)
        try:
            return backend.run(ExecutorContext(
                jobs=jobs, workers=workers, cache=cache, trace=None,
                fail_fast=fail_fast,
            ))
        finally:
            backend.cleanup()

    def test_serial_stops_after_first_failure(self):
        outcomes = self._run("serial", [SWEEP[0], (BAD_SOURCE, None), SWEEP[1]],
                             workers=1)
        assert outcomes[0].system.k == 1
        assert isinstance(outcomes[1], Exception)
        assert outcomes[2] is None  # never started

    def test_thread_skips_unstarted_points_after_failure(self):
        jobs = [(BAD_SOURCE, None)] + SWEEP[:4]
        outcomes = self._run("thread", jobs, workers=2)
        assert isinstance(outcomes[0], Exception)
        # the failing worker set the stop flag before claiming its next
        # job, so at least the tail of the batch was never started
        assert outcomes[-1] is None
        for out in outcomes[1:]:
            assert out is None or out.system.k in (1, 2, 4, 8)

    def test_process_cancels_unstarted_points_after_failure(self):
        jobs = [(BAD_SOURCE, None)] + SWEEP[:3]
        outcomes = self._run("process", jobs, workers=1)
        assert isinstance(outcomes[0], Exception)
        for out in outcomes[1:]:
            assert out is None or out.system.k in (1, 2, 4)

    def test_process_fail_fast_crash_records_single_failure(self, monkeypatch):
        """A worker's death is not a point failure: under fail_fast the
        crash-once point is re-leased like any other, so no failure is
        recorded and every point completes."""
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        jobs = [SWEEP[0], (crashing, None), SWEEP[1]]
        outcomes = self._run("process", jobs, workers=2)
        assert not any(isinstance(o, Exception) for o in outcomes)
        for out in outcomes:
            assert out.system is not None

    def test_distributed_stops_starting_points_after_failure(self):
        jobs = [(BAD_SOURCE, None)] + SWEEP[:4]
        outcomes = self._run("distributed", jobs, workers=1)
        assert isinstance(outcomes[0], Exception)
        # the worker may already hold the next point when the failure
        # lands (it finishes and is recorded), but the job service drops
        # every unclaimed one
        assert outcomes[-1] is None
        for out in outcomes[1:]:
            assert out is None or out.system.k in (1, 2, 4, 8)

    def test_service_stops_starting_points_after_failure(
        self, service_broker
    ):
        jobs = [(BAD_SOURCE, None)] + SWEEP[:4]
        outcomes = self._run(self._service(service_broker), jobs, workers=1)
        assert isinstance(outcomes[0], Exception)
        assert outcomes[-1] is None
        for out in outcomes[1:]:
            assert out is None or out.system.k in (1, 2, 4, 8)

    def test_all_backends_complete_batch_without_fail_fast(
        self, service_broker
    ):
        jobs = [(BAD_SOURCE, None), SWEEP[0]]
        for name in ("serial", "thread", "process", "distributed",
                     self._service(service_broker)):
            outcomes = self._run(name, jobs, workers=2, fail_fast=False)
            assert isinstance(outcomes[0], Exception), name
            assert outcomes[1].system.k == 1, name

    def test_thread_compile_many_raises_on_failure(self):
        with pytest.raises(Exception):
            compile_many([(BAD_SOURCE, None), SWEEP[0]], jobs=2,
                         executor="thread")


class TestSweepOptionVariants:
    def test_process_sweep_with_distinct_options(self):
        """Options survive the spec round-trip per point, not just the
        defaults: sharing mode and board vary across the batch."""
        jobs = [
            (HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE)),
            (HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.MATCHING)),
            (HELMHOLTZ_DSL, dataclasses.replace(
                FlowOptions(), system=SystemOptions(board=ALVEO_U280))),
        ]
        serial = compile_many(jobs, executor="serial")
        proc = compile_many(jobs, jobs=3, executor="process")
        assert result_signature(serial) == result_signature(proc)
        assert proc[2].system.board.name == "Alveo U280"
