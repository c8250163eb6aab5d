"""Distributed executor: the worker loop, the sweep client on the job
service (worker death, retries, stall detection), external
``worker --connect`` fleets, and serial-equivalence of fleet-run
sweeps."""

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL, inverse_helmholtz_program
from repro.errors import SystemGenerationError
from repro.flow import (
    DiskStageCache,
    FlowOptions,
    FlowTrace,
    StageCache,
    SystemOptions,
    compile_many,
)
from repro.flow.distributed import (
    DistributedExecutor,
    WorkerCrashError,
    run_worker,
)
from repro.flow.nettransport import TOKEN_ENV
from repro.flow.service import TERMINAL_STATES, JobService, start_service_broker
from repro.mnemosyne import SharingMode

TOKEN = "distributed-secret"


def worker_env():
    """Environment for a `cfdlang-flow worker` subprocess: this source
    tree importable, the token off argv."""
    import pathlib

    import repro

    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, **{TOKEN_ENV: TOKEN})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def standing_broker(tmp_path):
    server = start_service_broker(
        "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "broker"),
        tmp_path / "service", poll_seconds=0.01,
    )
    try:
        yield server
    finally:
        server.close()


def wait_terminal(service, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while (service.status(job_id)["state"] not in TERMINAL_STATES
           and time.monotonic() < deadline):
        time.sleep(0.02)
    return service.status(job_id)


class RecordingService(JobService):
    """A job service that also keeps every message posted to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.posts = {}

    def complete(self, point_id, message):
        self.posts[point_id] = message
        super().complete(point_id, message)


class TestWorkerLoop:
    def test_worker_drains_queue_and_posts_results(self, tmp_path):
        t = RecordingService(tmp_path / "service")
        opts = FlowOptions(system=SystemOptions(k=2, m=2))
        job_id = t.submit(
            [(HELMHOLTZ_DSL, None), (HELMHOLTZ_DSL, opts.to_spec())]
        )
        handled = run_worker(t, DiskStageCache(tmp_path / "cache"),
                             max_jobs=2, worker_id="w-test")
        assert handled == 2
        posted = t.posts[f"{job_id}-00000"]
        assert posted["failed"] is False
        assert posted["deltas"]["misses"] > 0
        # the payload is pickled once by the worker, for the broker to
        # store unread
        r0 = pickle.loads(posted["result"])
        r1 = pickle.loads(t.posts[f"{job_id}-00001"]["result"])
        assert r0["worker"] == "w-test"
        assert r0["outcome"].system.k == 16  # default: maximize k
        assert r1["outcome"].system.k == 2
        assert r0["deltas"]["misses"] > 0
        assert all("@w-test" in e[3] for e in r0["events"])

    def test_worker_idle_timeout_exits_empty(self, tmp_path):
        t0 = time.monotonic()
        handled = run_worker(JobService(tmp_path / "service"),
                             DiskStageCache(tmp_path / "cache"),
                             idle_timeout=0.2, poll_seconds=0.02)
        assert handled == 0
        assert time.monotonic() - t0 < 5.0

    def test_worker_ships_job_errors_by_value(self, tmp_path):
        t = RecordingService(tmp_path / "service")
        job_id = t.submit([("not CFDlang at all", None)])
        run_worker(t, DiskStageCache(tmp_path / "cache"), max_jobs=1)
        posted = t.posts[f"{job_id}-00000"]
        assert posted["failed"] is True
        assert isinstance(pickle.loads(posted["result"])["outcome"], Exception)


#: the DSE example's grid: degree x sharing strategy (the acceptance
#: sweep), trimmed to two degrees to keep the suite fast
DSE_GRID = [
    (inverse_helmholtz_program(n), FlowOptions(sharing=mode))
    for n in (7, 11)
    for mode in (SharingMode.NONE, SharingMode.MATCHING, SharingMode.CLIQUE)
]


def result_signature(results):
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


class TestDistributedExecutor:
    def test_matches_serial_bit_identical(self):
        """Acceptance: executor='distributed', jobs=4 equals the serial
        run on the DSE example grid."""
        serial = compile_many(DSE_GRID, executor="serial")
        dist = compile_many(DSE_GRID, jobs=4, executor="distributed")
        assert result_signature(serial) == result_signature(dist)

    def test_trace_is_point_ordered_with_worker_tags(self):
        from repro.flow.session import origin_kind

        jobs = DSE_GRID[:3]
        serial_trace = FlowTrace()
        compile_many(jobs, executor="serial", trace=serial_trace)
        trace = FlowTrace()
        cache = compile_many(jobs, jobs=2, executor="distributed", trace=trace)
        assert [e.stage for e in trace.events] == [
            e.stage for e in serial_trace.events
        ]
        for e in trace.events:
            assert "@" in e.origin
            assert origin_kind(e.origin) in ("", "memory", "disk")
        # cross-process single flight: the shared front end ran once
        assert trace.executed_counts()["parse"] == 1

    def test_worker_stats_merge_into_parent_cache(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        compile_many(DSE_GRID[:2], jobs=2, executor="distributed", cache=cache)
        stats = cache.stats()
        assert stats["misses"] > 0  # the parent itself ran nothing
        assert stats["disk_entries"] > 0

    def test_memory_cache_is_rejected(self):
        with pytest.raises(TypeError, match="DiskStageCache"):
            compile_many(DSE_GRID[:1], jobs=2, executor="distributed",
                         cache=StageCache())

    def test_empty_batch(self):
        assert compile_many([], jobs=2, executor="distributed") == []

    def test_sweep_leaves_no_temporary_directories(self, tmp_path,
                                                   monkeypatch):
        """The default cache, the sweep broker's service directory, and
        the spawned workers' cache tier and logs all live under one
        executor-owned root that is gone once the sweep returns."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        compile_many(DSE_GRID[:1], jobs=1, executor="distributed")
        assert list(tmp_path.iterdir()) == []

    def test_per_point_error_capture(self):
        jobs = [DSE_GRID[0], ("not CFDlang", None), DSE_GRID[1]]
        results = compile_many(jobs, jobs=2, executor="distributed",
                               return_exceptions=True)
        assert isinstance(results[1], Exception)
        assert results[0].system is not None
        assert results[2].system is not None
        with pytest.raises(Exception):
            compile_many(jobs, jobs=2, executor="distributed")


class TestWorkerDeathRecovery:
    def test_killed_worker_job_is_released_and_completes(self, monkeypatch):
        """Acceptance: killing a worker mid-sweep neither aborts the
        batch nor loses a point — its job is re-leased (attempt 1) and
        completes on a surviving/respawned worker."""
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        sweep = [
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=1, m=1))),
            (crashing, FlowOptions(system=SystemOptions(k=2, m=2))),
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=4, m=4))),
        ]
        executor = DistributedExecutor(lease_seconds=1.0,
                                       worker_grace_seconds=30.0)
        results = compile_many(sweep, jobs=2, executor=executor)
        assert [r.system.k for r in results] == [1, 2, 4]

    def test_retries_exhausted_yields_worker_crash_error(self, monkeypatch):
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        sweep = [
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=1, m=1))),
            (crashing, None),
        ]
        # max_attempts=1: the first lease expiry exhausts the budget
        executor = DistributedExecutor(lease_seconds=1.0, max_attempts=1,
                                       worker_grace_seconds=30.0)
        results = compile_many(sweep, jobs=2, executor=executor,
                               return_exceptions=True)
        assert results[0].system.k == 1
        assert isinstance(results[1], WorkerCrashError)

    def test_fail_fast_raises_when_retry_budget_exhausted(self, monkeypatch):
        """Worker death is retried even under fail_fast (it is infra
        churn, not a point failure) — but once the budget is spent it
        becomes the point's failure and the sweep raises."""
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        executor = DistributedExecutor(lease_seconds=1.0, max_attempts=1,
                                       worker_grace_seconds=30.0)
        with pytest.raises(WorkerCrashError):
            compile_many([(crashing, None)], jobs=1, executor=executor)

    def test_stalled_sweep_fails_loudly_without_workers(self, tmp_path,
                                                       monkeypatch):
        from repro.flow import service

        servers = []
        start = service.start_service_broker

        def recording_start(*args, **kwargs):
            servers.append(start(*args, **kwargs))
            return servers[-1]

        monkeypatch.setattr(service, "start_service_broker", recording_start)
        executor = DistributedExecutor(
            listen=("127.0.0.1", 0),
            token=TOKEN,
            spawn_workers=False,
            worker_grace_seconds=0.5,
            poll_seconds=0.02,
        )
        cache_dir = tmp_path / "cache"
        t0 = time.monotonic()
        with pytest.raises(SystemGenerationError, match="no worker") as err:
            compile_many(DSE_GRID[:1], jobs=1, executor=executor,
                         cache=DiskStageCache(cache_dir))
        assert time.monotonic() - t0 < 10.0
        # the sweep gave its job up before closing its broker: nothing
        # stays queued for a worker that attaches late
        (server,) = servers
        assert server.service.claim_job() is None
        assert server.service.stats()["jobs"]["cancelled"] == 1
        assert "job j" in str(err.value)
        # the sweep's broker kept its job files out of the user's cache
        assert not (cache_dir / ".service").exists()


class TestExternalWorkers:
    def test_external_worker_drains_broker_batch(self, standing_broker,
                                                 tmp_path):
        """A `worker --connect` process attached to a standing broker
        (what another host would run) serves a sweep that spawns none
        itself."""
        host, port = standing_broker.address
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.flow.cli", "worker",
             "--connect", f"{host}:{port}",
             "--cache-dir", str(tmp_path / "worker"),
             "--idle-timeout", "30", "--poll", "0.02"],
            env=worker_env(),
        )
        try:
            executor = DistributedExecutor(
                broker=standing_broker.address, token=TOKEN,
                spawn_workers=False,
            )
            results = compile_many(
                [(HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=2, m=2)))],
                executor=executor,
            )
            assert results[0].system.k == 2
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestStandingBroker:
    def test_broker_sweep_counts_against_max_jobs(self, tmp_path):
        """A `--broker` sweep is one job on the standing broker's
        service, so its admission limit applies."""
        from repro.flow import BrokerBusyError

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "broker"),
            tmp_path / "service", max_jobs=0,
        )
        try:
            with pytest.raises(BrokerBusyError, match="limit"):
                compile_many(
                    DSE_GRID[:1],
                    executor=DistributedExecutor(
                        broker=server.address, token=TOKEN,
                        spawn_workers=False,
                    ),
                )
        finally:
            server.close()

    def test_string_broker_address_spawns_workers(self, standing_broker):
        """``broker='HOST:PORT'`` (the form the CLI and the errors show)
        drives spawned workers like a tuple does."""
        host, port = standing_broker.address
        results = compile_many(
            DSE_GRID[:2], jobs=2,
            executor=DistributedExecutor(broker=f"{host}:{port}", token=TOKEN),
        )
        assert result_signature(results) == result_signature(
            compile_many(DSE_GRID[:2], executor="serial")
        )
        assert standing_broker.service.stats()["jobs"]["done"] == 1

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, RuntimeError])
    def test_interrupted_sweep_cancels_its_job(self, standing_broker,
                                               monkeypatch, interrupt):
        """Only a stalled job stays queued on a standing broker; a sweep
        interrupted any other way gives its job (and its --max-jobs
        slot) back."""
        def interrupted_wait(self, job):
            raise interrupt("interrupted after submit")

        monkeypatch.setattr(DistributedExecutor, "_wait", interrupted_wait)
        with pytest.raises(interrupt):
            compile_many(
                DSE_GRID[:2],
                executor=DistributedExecutor(
                    broker=standing_broker.address, token=TOKEN,
                    spawn_workers=False,
                ),
            )
        jobs = standing_broker.service.stats()["jobs"]
        assert jobs["cancelled"] == 1
        assert jobs["queued"] == jobs["running"] == 0
        assert standing_broker.service.claim_job() is None

    @pytest.mark.parametrize("setting", [
        {"lease_seconds": 5.0}, {"max_attempts": 1},
    ])
    def test_lease_settings_belong_to_the_standing_broker(self, setting):
        with pytest.raises(SystemGenerationError, match="standing broker"):
            DistributedExecutor(broker="127.0.0.1:1", token=TOKEN, **setting)


class TestFrameCap:
    """A sweep's results are never shipped as one frame, so no sweep is
    too large for the wire's frame cap (each single result still is)."""

    CAP = 80_000  # > one DSE_GRID payload (~33 KB), < the whole grid

    def test_owned_broker_hands_results_over_in_process(self, monkeypatch):
        from repro.flow import nettransport

        monkeypatch.setattr(nettransport, "MAX_FRAME_BYTES", self.CAP)
        results = compile_many(DSE_GRID, jobs=2, executor="distributed")
        assert result_signature(results) == result_signature(
            compile_many(DSE_GRID, executor="serial")
        )

    @pytest.mark.parametrize("backend", ["distributed", "service"])
    def test_standing_broker_fetches_in_chunks(self, standing_broker,
                                               tmp_path, monkeypatch,
                                               backend):
        import threading

        from repro.flow import ServiceExecutor, nettransport

        monkeypatch.setattr(nettransport, "MAX_FRAME_BYTES", self.CAP)
        worker = threading.Thread(
            target=nettransport.run_tcp_worker,
            args=(standing_broker.address, TOKEN, tmp_path / "worker"),
            kwargs={"idle_timeout": 2.0, "poll_seconds": 0.01},
        )
        worker.start()
        try:
            executor = (
                ServiceExecutor(broker=standing_broker.address, token=TOKEN,
                                poll_seconds=0.02)
                if backend == "service" else
                DistributedExecutor(broker=standing_broker.address,
                                    token=TOKEN, spawn_workers=False,
                                    poll_seconds=0.02)
            )
            results = compile_many(DSE_GRID, executor=executor)
        finally:
            worker.join()
        assert result_signature(results) == result_signature(
            compile_many(DSE_GRID, executor="serial")
        )
        stored = sum(
            path.stat().st_size
            for path in (tmp_path / "service" / "results").rglob("*.pkl")
        )
        assert stored > self.CAP  # one reply frame could not have held it


class TestSweepCliFlags:
    @pytest.mark.parametrize("argv, error", [
        (["--listen", "127.0.0.1:0"], "need --executor distributed"),
        (["--executor", "distributed", "--external-workers"],
         "needs --listen or --broker"),
        (["--executor", "service"], "needs --broker"),
    ])
    def test_inconsistent_remote_flags_are_one_line_errors(
        self, argv, error, capsys
    ):
        from repro.flow.cli import main

        rc = main(["--app", "helmholtz", "--sweep", "1x1", *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert error in err and err.count("\n") == 1


class TestWorkerCli:
    def test_parser_requires_connect(self):
        from repro.flow.cli import build_worker_parser

        with pytest.raises(SystemExit):
            build_worker_parser().parse_args([])
        args = build_worker_parser().parse_args(
            ["--connect", "h:1", "--cache-dir", "c", "--max-jobs", "3"]
        )
        assert args.connect == "h:1" and args.max_jobs == 3

    def test_worker_subcommand_runs(self, standing_broker, tmp_path, capsys):
        from repro.flow.cli import main

        job_id = standing_broker.service.submit([(HELMHOLTZ_DSL, None)])
        host, port = standing_broker.address
        rc = main(["worker", "--connect", f"{host}:{port}", "--token", TOKEN,
                   "--cache-dir", str(tmp_path / "worker"),
                   "--max-jobs", "1"])
        assert rc == 0
        assert "1 job" in capsys.readouterr().out
        assert wait_terminal(standing_broker.service, job_id)["state"] == "done"
        (payload,) = standing_broker.service.fetch(job_id)
        assert payload["outcome"].memory.brams == 18
