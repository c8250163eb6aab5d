"""Compile-as-a-service: the job-lifecycle conformance contract (run
against the in-process JobService and over TCP through a real broker),
restart durability, admission control, tenant cache namespaces, the
service executor, and the submit/status/fetch/cancel CLI verbs."""

import os
import pickle
import subprocess
import sys
import tempfile
import threading
import time
import types

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import SystemGenerationError
from repro.flow import (
    BrokerBusyError,
    DiskStageCache,
    FlowOptions,
    FlowTrace,
    JobService,
    NamespacedStageCache,
    ServiceClient,
    ServiceExecutor,
    SweepJob,
    SystemOptions,
    attach_job,
    compile_many,
    namespaced_key,
)
from repro.flow.distributed import (
    DistributedExecutor,
    WorkerCrashError,
    encode_result,
    run_worker,
)
from repro.flow.nettransport import (
    BrokerAuthError,
    TcpTransport,
    run_tcp_worker,
)
from repro.flow.service import (
    TERMINAL_STATES,
    mint_job_id,
    start_service_broker,
)
from repro.flow.stages import FRONT_END_STAGES
from repro.flow.store import StageCache

TOKEN = "conformance-secret"

GRID = [
    (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=m)))
    for k, m in ((1, 1), (2, 2), (4, 4))
]


def spec_points(pairs):
    """(source, FlowOptions) pairs -> the primitives-only submit shape."""
    return [(source, options.to_spec()) for source, options in pairs]


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


def payload_signature(payloads):
    return result_signature([p["outcome"] for p in payloads])


def posted(outcome):
    """The message a worker posts for a point that ended in ``outcome``."""
    return encode_result({"outcome": outcome, "events": [], "deltas": {}})


@pytest.fixture(scope="module")
def serial_results():
    """The reference sweep every service path must match bit-identically."""
    return compile_many(GRID, executor="serial")


def wait_state(rig, job_id, states=TERMINAL_STATES, timeout=120.0):
    deadline = time.monotonic() + timeout
    status = rig.status(job_id)
    while time.monotonic() < deadline:
        if status["state"] in states:
            return status
        time.sleep(0.02)
        status = rig.status(job_id)
    pytest.fail(f"job {job_id} stuck in {status['state']!r}")


# -- the job-lifecycle contract -----------------------------------------------
class _LocalRig:
    """JobService driven directly: an in-process worker drains it."""

    def __init__(self, root, **limits):
        self.cache = DiskStageCache(root / "cache")
        self.service = JobService(
            root / "service", self.cache, poll_seconds=0.01, **limits,
        ).start()
        self._drained = 0

    def submit(self, points):
        return self.service.submit(points)

    def status(self, job_id):
        return self.service.status(job_id)

    def fetch(self, job_id):
        return self.service.fetch(job_id)

    def cancel(self, job_id):
        return self.service.cancel(job_id)

    def stats(self):
        return self.service.stats()

    def drain(self, n):
        self._drained += 1
        run_worker(
            transport=self.service, cache=self.cache,
            max_jobs=n, poll_seconds=0.005,
            worker_id=f"w-local-{self._drained}",
        )

    def close(self):
        self.service.stop()


class _TcpRig:
    """The same contract over the wire: ServiceClient RPCs against a
    live broker, drained by real TCP workers."""

    def __init__(self, root, **limits):
        self.root = root
        self.server = start_service_broker(
            "127.0.0.1", 0, TOKEN,
            DiskStageCache(root / "broker-cache"), root / "service",
            poll_seconds=0.01, **limits,
        )
        self.client = ServiceClient(self.server.address, TOKEN).connect()
        self._drained = 0

    def submit(self, points):
        return self.client.submit(points).job_id

    def status(self, job_id):
        return self.client.status(job_id)

    def fetch(self, job_id):
        return self.client.fetch(job_id)

    def cancel(self, job_id):
        return self.client.cancel(job_id)

    def stats(self):
        return self.client.stats()

    def drain(self, n):
        self._drained += 1
        run_tcp_worker(
            self.server.address, TOKEN,
            self.root / f"worker-{self._drained}",
            max_jobs=n, poll_seconds=0.005,
            worker_id=f"w-tcp-{self._drained}",
        )

    def close(self):
        try:
            self.client.close()
        finally:
            self.server.close()


class ServiceConformance:
    """The semantics every job-service deployment shape must provide,
    pinned once and run against the in-process service and the TCP
    broker: durable ids, lifecycle states, per-point progress, fetch
    gating, cancel, admission backpressure, and bit-identical results.
    """

    rig_class = None

    @pytest.fixture
    def make_rig(self, tmp_path):
        rigs = []

        def factory(**limits):
            root = tmp_path / f"rig{len(rigs)}"
            root.mkdir()
            rig = self.rig_class(root, **limits)
            rigs.append(rig)
            return rig

        yield factory
        for rig in rigs:
            rig.close()

    @pytest.fixture
    def rig(self, make_rig):
        return make_rig()

    def test_job_ids_are_durable_handles(self, rig):
        job_id = rig.submit([])
        assert job_id.startswith("j")
        assert "-" not in job_id  # point ids are <job>-<idx>: no dashes

    def test_empty_job_is_immediately_done(self, rig):
        job_id = rig.submit([])
        assert rig.status(job_id)["state"] == "done"
        assert rig.fetch(job_id) == []

    def test_submit_reports_progress_counters(self, rig):
        job_id = rig.submit(spec_points(GRID[:2]))
        status = rig.status(job_id)
        assert status["state"] in ("queued", "running")
        assert status["total"] == 2
        assert status["done_points"] == 0  # no worker has run yet
        assert rig.stats()["queue_depth"] == 2

    def test_lifecycle_to_done_with_bit_identical_results(
        self, rig, serial_results
    ):
        job_id = rig.submit(spec_points(GRID[:2]))
        rig.drain(2)
        status = wait_state(rig, job_id)
        assert status["state"] == "done"
        assert status["done_points"] == 2
        assert status["failed_points"] == 0
        payloads = rig.fetch(job_id)
        assert payload_signature(payloads) == result_signature(
            serial_results[:2]
        )
        # non-destructive: a fetched job stays fetchable
        assert payload_signature(rig.fetch(job_id)) == payload_signature(
            payloads
        )

    def test_fetch_before_terminal_is_refused(self, rig):
        job_id = rig.submit(spec_points(GRID[:1]))
        with pytest.raises(SystemGenerationError, match="poll status"):
            rig.fetch(job_id)

    def test_cancel_then_purge(self, rig):
        job_id = rig.submit(spec_points(GRID[:2]))
        outcome = rig.cancel(job_id)
        assert outcome["state"] == "cancelled" and not outcome["purged"]
        assert rig.status(job_id)["state"] == "cancelled"
        assert rig.fetch(job_id) == [None, None]  # points never ran
        assert rig.cancel(job_id)["purged"]  # second cancel purges
        with pytest.raises(SystemGenerationError, match="no job"):
            rig.status(job_id)

    def test_unknown_job_is_a_clean_error(self, rig):
        with pytest.raises(SystemGenerationError, match="no job"):
            rig.status("j0000000000000deadbeef")

    def test_over_limit_submit_is_busy_not_a_stall(self, make_rig):
        """Acceptance: the admission path refuses with BrokerBusyError
        instead of growing the backlog, and frees up on cancel."""
        rig = make_rig(max_jobs=1)
        job_id = rig.submit(spec_points(GRID[:1]))
        t0 = time.monotonic()
        with pytest.raises(BrokerBusyError, match="limit"):
            rig.submit(spec_points(GRID[:1]))
        assert time.monotonic() - t0 < 5.0  # refused, never queued
        rig.cancel(job_id)
        assert rig.submit([]) != job_id  # capacity freed

    def test_failing_point_fails_the_job(self, rig):
        job_id = rig.submit(
            spec_points(GRID[:1]) + [("this is not a program", None)]
        )
        rig.drain(2)
        status = wait_state(rig, job_id)
        assert status["state"] == "failed"
        assert status["failed_points"] == 1
        payloads = rig.fetch(job_id)
        assert not isinstance(payloads[0]["outcome"], Exception)
        assert isinstance(payloads[1]["outcome"], Exception)


class TestLocalServiceConformance(ServiceConformance):
    rig_class = _LocalRig


class TestTcpServiceConformance(ServiceConformance):
    rig_class = _TcpRig


# -- service internals (no compiles, no sockets) ------------------------------
class TestJobServiceUnit:
    def test_job_ids_sort_by_submit_time(self):
        first = mint_job_id()
        time.sleep(0.002)  # the id's clock field is millisecond-grained
        assert first < mint_job_id()

    def test_per_tenant_limit_is_independent(self, tmp_path):
        service = JobService(tmp_path, max_jobs=16, max_tenant_jobs=1)
        service.submit([(HELMHOLTZ_DSL, None)], tenant="alice")
        with pytest.raises(BrokerBusyError, match="token"):
            service.submit([(HELMHOLTZ_DSL, None)], tenant="alice")
        service.submit([(HELMHOLTZ_DSL, None)], tenant="bob")  # unaffected

    def test_tenants_cannot_see_each_others_jobs(self, tmp_path):
        service = JobService(tmp_path)
        job_id = service.submit([(HELMHOLTZ_DSL, None)], tenant="alice")
        assert service.status(job_id, tenant="alice")["total"] == 1
        for other in ("bob", ""):
            with pytest.raises(SystemGenerationError, match="no job"):
                service.status(job_id, tenant=other)
            with pytest.raises(SystemGenerationError, match="no job"):
                service.cancel(job_id, tenant=other)

    def test_repeatedly_lost_worker_fails_the_point(self, tmp_path):
        """A point whose lease keeps expiring burns its retry budget and
        resolves to WorkerCrashError — the job goes terminal instead of
        requeueing forever."""
        with JobService(
            tmp_path, lease_seconds=0.05, max_attempts=2, poll_seconds=0.01,
        ) as service:
            job_id = service.submit([(HELMHOLTZ_DSL, None)])
            deadline = time.monotonic() + 30.0
            while (service.status(job_id)["state"] not in TERMINAL_STATES
                   and time.monotonic() < deadline):
                message = service.claim_job()
                if message is None:
                    time.sleep(0.01)
                    continue
                # claim like a worker, then die: age the lease stale
                service._age_lease(message["id"], 3600.0)
            status = service.status(job_id)
            assert status["state"] == "failed"
            assert status["retries"] >= 2
            (payload,) = service.fetch(job_id)
            assert isinstance(payload["outcome"], WorkerCrashError)

    def test_malformed_submit_is_replied_not_raised(self, tmp_path):
        """handle_rpc's contract: a bad request is an ok:False reply,
        never an exception that would tear the connection down."""
        service = JobService(tmp_path)
        for bad in (None, "text", 7, [HELMHOLTZ_DSL],
                    [["source-only"]], [[HELMHOLTZ_DSL, None, "extra"]]):
            reply, pickled = service.handle_rpc(
                "submit", {"points": bad}, ""
            )
            assert reply["ok"] is False and not pickled
            assert "malformed" in reply["error"]
        # right shape, wrong leaf type (an options spec must be a
        # mapping): still an in-band reply, not a torn connection
        reply, _ = service.handle_rpc(
            "submit", {"points": [[HELMHOLTZ_DSL, 5]]}, ""
        )
        assert reply["ok"] is False
        assert not service._jobs  # nothing half-admitted

    def test_terminal_jobs_expire_after_retention(self, tmp_path):
        service = JobService(tmp_path / "gc", terminal_ttl_seconds=0.0)
        job_id = service.submit([])  # no points: immediately done
        assert service.status(job_id)["state"] == "done"
        service._expire_terminal()
        with pytest.raises(SystemGenerationError, match="no job"):
            service.status(job_id)
        assert not list(service.jobs_dir.glob("*.json"))
        assert not list(service.state_dir.glob("*.json"))
        # inside the retention window nothing is touched
        keeper = JobService(tmp_path / "keep", terminal_ttl_seconds=3600.0)
        job_id = keeper.submit([])
        keeper._expire_terminal()
        assert keeper.status(job_id)["state"] == "done"

    def test_cancel_blocks_requeue_and_orphan_results(self, tmp_path):
        """A heal/collect racing a cancel must neither put a dead job's
        point back in the queue nor write a result file for it."""
        service = JobService(tmp_path)
        job_id = service.submit([(HELMHOLTZ_DSL, None)])
        service.cancel(job_id)
        assert service.claim_job() is None  # cancel drained the queue
        job = service._jobs[job_id]
        service._enqueue_point(job, 0, attempt=1)  # a racing heal
        assert service.claim_job() is None
        service._resolve(job, 0, posted(None))  # a racing straggler collect
        assert not (service.results_dir / job_id).exists()

    def test_fail_fast_job_drops_unclaimed_points(self, tmp_path):
        """After a fail_fast job's first failed point, unclaimed points
        never start (slots stay None), claimed ones finish and are
        recorded, and the job goes terminal."""
        service = JobService(tmp_path)
        job_id = service.submit(
            [(HELMHOLTZ_DSL, None)] * 3, fail_fast=True
        )
        first, second = service.claim_job(), service.claim_job()
        service.complete(first["id"], posted(ValueError("boom")))
        service._tick()
        assert service.claim_job() is None  # point 2 was dropped
        service.complete(second["id"], posted("ran"))
        service._tick()
        status = service.status(job_id)
        assert status["state"] == "failed" and status["failed_points"] == 1
        outcomes = [p and p["outcome"] for p in service.fetch(job_id)]
        assert isinstance(outcomes[0], ValueError)
        assert outcomes[1:] == ["ran", None]

    def test_fail_fast_abandons_a_lost_point_after_a_failure(self, tmp_path):
        """Worker death is requeued even under fail_fast — but once a
        point has failed, a point whose lease expires is abandoned."""
        service = JobService(tmp_path, lease_seconds=30.0)
        job_id = service.submit([(HELMHOLTZ_DSL, None)] * 2, fail_fast=True)
        first, second = service.claim_job(), service.claim_job()
        service.complete(first["id"], posted(ValueError("boom")))
        service._age_lease(second["id"], 3600.0)  # its worker died
        service._tick()
        service._tick()
        assert service.claim_job() is None  # not requeued
        assert service.status(job_id)["state"] == "failed"
        assert service.fetch(job_id)[1] is None

    def test_fail_fast_drops_a_late_post_of_an_abandoned_point(self,
                                                               tmp_path):
        """A point abandoned after a failure keeps its None slot even if
        its worker lived after all, and the job still waits for the
        point that is running."""
        service = JobService(tmp_path)
        job_id = service.submit([(HELMHOLTZ_DSL, None)] * 3, fail_fast=True)
        first, second, third = (service.claim_job() for _ in range(3))
        service.complete(first["id"], posted(ValueError("boom")))
        service._age_lease(second["id"], 3600.0)  # its heartbeat stalled
        service._tick()
        service.complete(second["id"], posted("late"))  # ...but it lived
        service._tick()
        assert service.status(job_id)["state"] == "running"
        service.complete(third["id"], posted("ran"))
        service._tick()
        assert service.status(job_id)["state"] == "failed"
        outcomes = [p and p["outcome"] for p in service.fetch(job_id)]
        assert outcomes[1:] == [None, "ran"]

    def test_restart_keeps_a_fail_fast_abort(self, tmp_path):
        """A broker restarted over an aborted fail_fast job re-enqueues
        nothing: the points it dropped stay dropped."""
        service = JobService(tmp_path)
        job_id = service.submit([(HELMHOLTZ_DSL, None)] * 3, fail_fast=True)
        first, _ = service.claim_job(), service.claim_job()
        service.complete(first["id"], posted(ValueError("boom")))
        service._tick()  # point 1 still running when the broker dies

        revived = JobService(tmp_path)
        assert revived.claim_job() is None
        revived._tick()
        assert revived.status(job_id)["state"] == "failed"
        assert revived.fetch(job_id)[1:] == [None, None]

    def test_tick_work_follows_the_leases_not_the_queue(self, tmp_path,
                                                        monkeypatch):
        """A scheduler tick over 8 jobs x 2,000 queued points, none of
        them leased, makes no per-point call."""
        from repro.flow.service import _JobRecord

        service = JobService(tmp_path)
        for _ in range(8):  # the per-token limit of unfinished jobs
            service.submit([("src", None)] * 2000)
        calls = []
        for name in ("point_id", "unresolved"):
            def counted(self, *args, _original=getattr(_JobRecord, name)):
                calls.append(_original)
                return _original(self, *args)

            monkeypatch.setattr(_JobRecord, name, counted)
        service._tick()
        assert calls == []
        assert service.stats()["queue_depth"] == 16000  # still queued

    def test_claims_drain_jobs_first_come_first_served(self, tmp_path):
        """Points go out by job id (submit time), then point index; a
        requeued point goes back ahead of a later job's points."""
        service = JobService(tmp_path)
        first = service.submit([("src", None)] * 3)
        time.sleep(0.002)  # the id's clock field is millisecond-grained
        second = service.submit([("src", None)] * 2)
        lost = service.claim_job()
        assert lost["id"] == f"{first}-00000"
        service._age_lease(lost["id"], 3600.0)  # its worker died
        service._tick()
        claimed = [service.claim_job()["id"] for _ in range(5)]
        assert claimed == [
            f"{first}-00000", f"{first}-00001", f"{first}-00002",
            f"{second}-00000", f"{second}-00001",
        ]
        assert service.claim_job() is None

    def test_claims_follow_the_numeric_point_index(self, tmp_path):
        """Point ids pad the index to five digits, so past 99,999 the id
        string no longer sorts by index; the claim order still does."""
        from repro.flow.service import _JobRecord

        service = JobService(tmp_path)
        job = _JobRecord(mint_job_id(), "", [("src", None)] * 100_001,
                         "queued", time.time())
        service._jobs[job.job_id] = job
        for index in (100_000, 10_001, 99_999):
            service._enqueue_point(job, index, attempt=0)
        claimed = [service.claim_job()["index"] for _ in range(3)]
        assert claimed == [10_001, 99_999, 100_000]

    def test_dropped_points_are_never_claimed(self, tmp_path):
        """A cancelled job's points, and a requeued copy of a point
        whose first worker posted after all, leave the queue."""
        service = JobService(tmp_path)
        cancelled = service.submit([("src", None)] * 2)
        time.sleep(0.002)
        live = service.submit([("src", None)] * 2)
        service.cancel(cancelled)
        slow = service.claim_job()
        assert slow["id"] == f"{live}-00000"
        service._age_lease(slow["id"], 3600.0)
        service._tick()  # requeued behind the live worker's back ...
        service.complete(slow["id"], posted("ran"))  # ... which posts
        assert service.claim_job()["id"] == f"{live}-00001"
        assert service.claim_job() is None

    def test_stray_posts_leave_no_trace(self, tmp_path):
        """A post for no point of a live job — an unknown id, or a
        straggler's after a cancel — leaves no result file and no lease,
        and changes no job's status."""
        service = JobService(tmp_path)
        cancelled = service.submit([("src", None)])
        straggler = service.claim_job()
        service.cancel(cancelled)
        live = service.submit([("src", None)] * 2)
        before = service.status(cancelled), service.status(live)
        service.complete(straggler["id"], posted("late"))
        for stray in ("j000000000000deadbeef-00000", f"{live}-00002",
                      f"{live}-x", "no-dash-in-the-job"):
            service.complete(stray, posted("stray"))
        assert (service.status(cancelled), service.status(live)) == before
        assert not list(service.results_dir.rglob("*.pkl"))
        assert not service._leases

    def test_namespaced_key_partitions_without_changing_shape(self):
        key = "a" * 64
        assert namespaced_key("", key) == key  # primary token: identity
        alice, bob = namespaced_key("alice", key), namespaced_key("bob", key)
        assert alice != bob != key
        # still a sha256 hex name: disk fan-out and locks keep working
        assert len(alice) == 64 and int(alice, 16) >= 0

    def test_namespaced_cache_views_one_backend(self):
        backend = StageCache()
        alice = NamespacedStageCache(backend, "alice")
        bob = NamespacedStageCache(backend, "bob")
        alice.put("k", {"v": 1})
        assert alice.fetch("k") == ({"v": 1}, "memory")
        assert bob.fetch("k") is None  # partitioned
        assert namespaced_key("alice", "k") in backend  # shared store


class TestBrokerResolvesPosts:
    """The broker resolves a result posted over TCP before it replies,
    with no scheduler tick in between (this service polls once a
    minute)."""

    @pytest.fixture
    def rig(self, tmp_path):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, None, tmp_path / "service",
            poll_seconds=60.0,
        )
        worker = TcpTransport(
            server.address, TOKEN, role="worker", worker_id="w1"
        ).connect()
        try:
            yield server.service, worker
        finally:
            worker.close()
            server.close()

    def test_fail_fast_lands_before_the_next_claim(self, rig):
        service, worker = rig
        service.submit([(HELMHOLTZ_DSL, None)] * 3, fail_fast=True)
        worker.complete(worker.claim_job()["id"], posted(ValueError("boom")))
        assert worker.claim_job() is None  # the post itself aborted the job

    def test_result_file_holds_the_posted_bytes(self, rig):
        service, worker = rig
        job_id = service.submit([(HELMHOLTZ_DSL, None)])
        message = posted("ran")
        worker.complete(worker.claim_job()["id"], message)
        stored = service.results_dir / job_id / "00000.pkl"
        assert stored.read_bytes() == message["result"]
        assert service.status(job_id)["done_points"] == 1


# -- restart durability (the tentpole's acceptance path) ----------------------
class TestBrokerRestart:
    def test_fetch_by_id_across_restart_is_bit_identical(
        self, tmp_path, serial_results
    ):
        """Acceptance: submit, disconnect, kill the broker before any
        point ran; a new broker over the same dirs recovers the job,
        fresh workers re-register and drain it, and a fetch by nothing
        but the id matches the serial backend bit-for-bit."""
        cache_dir, service_dir = tmp_path / "cache", tmp_path / "service"
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        with ServiceClient(server.address, TOKEN) as client:
            job_id = client.submit(spec_points(GRID)).job_id
        server.close()  # no worker ever ran: zero progress persisted

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        try:
            worker = threading.Thread(
                target=run_tcp_worker,
                args=(server.address, TOKEN, tmp_path / "worker"),
                kwargs={"max_jobs": len(GRID), "poll_seconds": 0.005,
                        "worker_id": "w-revived"},
            )
            worker.start()
            deadline = time.monotonic() + 30.0  # the worker re-registered
            while (not server.service.alive_workers(60.0)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert server.service.alive_workers(60.0) == ["w-revived"]
            job = attach_job(server.address, TOKEN, job_id)
            job.wait(timeout=300.0, poll_seconds=0.05)
            assert result_signature(job.fetch()) == result_signature(
                serial_results
            )
            job.client.close()
            worker.join(timeout=30.0)
        finally:
            server.close()

    def test_restart_keeps_resolved_points_and_requeues_the_rest(
        self, tmp_path, serial_results
    ):
        cache_dir, service_dir = tmp_path / "cache", tmp_path / "service"
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        with ServiceClient(server.address, TOKEN) as client:
            job = client.submit(spec_points(GRID[:2]))
            run_tcp_worker(  # resolve exactly the first point
                server.address, TOKEN, tmp_path / "w1",
                max_jobs=1, poll_seconds=0.005,
            )
            deadline = time.monotonic() + 30.0
            while (job.status()["done_points"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            job_id = job.job_id
        server.close()

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        try:
            status = server.service.status(job_id)
            assert status["done_points"] == 1  # survived the restart
            run_tcp_worker(  # only the unresolved point was re-enqueued
                server.address, TOKEN, tmp_path / "w2",
                max_jobs=1, poll_seconds=0.005,
            )
            job = attach_job(server.address, TOKEN, job_id)
            job.wait(timeout=300.0, poll_seconds=0.05)
            assert result_signature(job.fetch()) == result_signature(
                serial_results[:2]
            )
            job.client.close()
        finally:
            server.close()


class TestDamagedResults:
    """A resolved point whose stored result does not load reads as an
    error naming the file, never as a point that never ran (None); an
    unfinished job recovered over such a file runs the point again."""

    @staticmethod
    def damage(path, how):
        if how == "truncated":
            path.write_bytes(path.read_bytes()[:10])
            return
        # a payload whose class no longer imports (moved by an upgrade)
        module = types.ModuleType("repro_moved_away")

        class Moved:
            pass

        Moved.__module__, Moved.__qualname__ = module.__name__, "Moved"
        module.Moved = Moved
        sys.modules[module.__name__] = module
        try:
            data = pickle.dumps({"outcome": Moved(), "events": [],
                                 "deltas": {}})
        finally:
            del sys.modules[module.__name__]
        path.write_bytes(data)

    @pytest.mark.parametrize("how", ["truncated", "moved_class"])
    @pytest.mark.parametrize("over", ["in_process", "tcp"])
    def test_fetch_names_the_damaged_file(self, tmp_path, how, over):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, None, tmp_path / "service",
            poll_seconds=0.01,
        )
        try:
            service = server.service
            job_id = service.submit([("src", None)] * 2)
            for _ in range(2):
                service.complete(service.claim_job()["id"], posted("ran"))
            assert wait_state(service, job_id)["state"] == "done"
            self.damage(service.results_dir / job_id / "00001.pkl", how)
            if over == "tcp":
                with ServiceClient(server.address, TOKEN) as client:
                    payloads = client.fetch(job_id)
            else:
                payloads = service.fetch(job_id)
        finally:
            server.close()
        assert payloads[0]["outcome"] == "ran"
        error = payloads[1]["outcome"]
        assert isinstance(error, SystemGenerationError)
        assert job_id in str(error) and "point 1" in str(error)
        assert "00001.pkl" in str(error)

    def test_restart_reruns_a_damaged_point(self, tmp_path):
        service = JobService(tmp_path)
        job_id = service.submit([("src", None)] * 3)
        for _ in range(2):
            service.complete(service.claim_job()["id"], posted("ran"))
        damaged = service.results_dir / job_id / "00001.pkl"
        self.damage(damaged, "truncated")
        revived = JobService(tmp_path)
        assert not damaged.exists()
        assert revived.status(job_id)["done_points"] == 1
        assert sorted(revived.claim_job()["index"] for _ in range(2)) == [1, 2]

    def test_restart_counts_a_damaged_point_of_a_finished_job(self, tmp_path):
        """After a restart, status agrees with fetch: the point fetch
        returns as an error counts as failed, and the job reads failed."""
        service = JobService(tmp_path)
        job_id = service.submit([("src", None)] * 2)
        for _ in range(2):
            service.complete(service.claim_job()["id"], posted("ran"))
        service._tick()
        assert service.status(job_id)["state"] == "done"
        self.damage(service.results_dir / job_id / "00001.pkl", "truncated")
        revived = JobService(tmp_path)
        status = revived.status(job_id)
        assert (status["state"], status["done_points"],
                status["failed_points"]) == ("failed", 2, 1)
        payloads = revived.fetch(job_id)
        assert payloads[0]["outcome"] == "ran"
        assert isinstance(payloads[1]["outcome"], SystemGenerationError)


# -- tenant cache namespaces over the wire ------------------------------------
class TestTenantNamespaces:
    def test_tenant_partition_recomputes_anothers_front_end(self, tmp_path):
        """Alice's second run is served from her cache partition; Bob's
        first run of the same program must recompute the front end —
        tenants share the store but never each other's entries."""
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
            tenants={"alice": "alice-secret", "bob": "bob-secret"},
        )

        def run_as(token, tag):
            with ServiceClient(server.address, token) as client:
                job = client.submit(spec_points(GRID[:1]))
                run_tcp_worker(
                    server.address, TOKEN, tmp_path / tag,
                    max_jobs=1, poll_seconds=0.005,
                )
                job.wait(timeout=300.0, poll_seconds=0.05)
                (payload,) = job.fetch_payloads()
            front_end = [
                cached for stage, _, cached, _ in payload["events"]
                if stage in FRONT_END_STAGES
            ]
            assert front_end
            return all(front_end)

        try:
            assert not run_as("alice-secret", "w1")  # cold: computed
            assert run_as("alice-secret", "w2")  # warm in her namespace
            assert not run_as("bob-secret", "w3")  # his namespace is cold
        finally:
            server.close()

    def test_tenant_token_cannot_drive_the_transport(self, tmp_path):
        """The worker surface is primary-token only: a tenant token must
        not claim another tenant's queued points (leaking its source),
        forge a completion, or keep a lease alive."""
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
            tenants={"alice": "alice-secret", "mallory": "mallory-secret"},
        )
        try:
            with ServiceClient(server.address, "alice-secret") as alice:
                job = alice.submit(spec_points(GRID[:1]))
                pid = f"{job.job_id}-00000"
                mallory = TcpTransport(
                    server.address, "mallory-secret"
                ).connect()
                try:
                    for blocked in (
                        lambda: mallory.claim_job(),
                        lambda: mallory.complete(pid, {"forged": True}),
                        lambda: mallory.heartbeat_job(pid),
                        lambda: mallory.heartbeat_worker("w-mallory"),
                    ):
                        with pytest.raises(
                            SystemGenerationError,
                            match="primary broker token",
                        ):
                            blocked()
                finally:
                    mallory.close()
                # alice's point survived every probe, queued for a real
                # (primary-token) worker, stamped with her namespace
                primary = TcpTransport(server.address, TOKEN).connect()
                try:
                    message = primary.claim_job()
                    assert message is not None and message["id"] == pid
                    assert message["namespace"] == "alice"
                finally:
                    primary.close()
                alice.cancel(job.job_id)
        finally:
            server.close()

    def test_tenant_distributed_sweep_runs_in_its_namespace(
        self, tmp_path, serial_results
    ):
        """A tenant token drives `--executor distributed --broker`: the
        sweep goes through the tenant surface (submit/status/fetch), so
        it returns the serial result, and the entries the primary-token
        worker computed for it land in the tenant's cache namespace."""
        cache_dir = tmp_path / "cache"
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir),
            tmp_path / "service", poll_seconds=0.01,
            tenants={"alice": "alice-secret"},
        )
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(server.address, TOKEN, tmp_path / "worker"),
            kwargs={"poll_seconds": 0.005},
        )
        worker.start()
        try:
            results = compile_many(
                GRID[:1],
                executor=DistributedExecutor(
                    broker=server.address, token="alice-secret",
                    spawn_workers=False, poll_seconds=0.02,
                ),
            )
        finally:
            server.close()
            worker.join(timeout=30.0)
        assert result_signature(results) == result_signature(
            serial_results[:1]
        )

        def front_end_cached(cache):
            trace = FlowTrace()
            compile_many(GRID[:1], executor="serial", cache=cache,
                         trace=trace)
            return not any(
                trace.executed_counts().get(s) for s in FRONT_END_STAGES
            )

        assert front_end_cached(
            NamespacedStageCache(DiskStageCache(cache_dir), "alice")
        )
        assert not front_end_cached(DiskStageCache(cache_dir))

    def test_worker_hello_with_tenant_token_is_rejected(self, tmp_path):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
            tenants={"alice": "alice-secret"},
        )
        try:
            with pytest.raises(BrokerAuthError, match="primary"):
                TcpTransport(
                    server.address, "alice-secret",
                    role="worker", worker_id="w-alice",
                ).connect()
        finally:
            server.close()


# -- the executor backend ------------------------------------------------------
class TestServiceExecutor:
    def test_matches_serial_bit_identical(self, tmp_path, serial_results):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(server.address, TOKEN, tmp_path / "worker"),
            kwargs={"max_jobs": 2, "poll_seconds": 0.005},
        )
        worker.start()
        try:
            results = compile_many(
                GRID[:2],
                executor=ServiceExecutor(
                    broker=server.address, token=TOKEN, poll_seconds=0.02
                ),
            )
            assert result_signature(results) == result_signature(
                serial_results[:2]
            )
            worker.join(timeout=30.0)
        finally:
            server.close()

    def test_detach_returns_the_durable_handle(self, tmp_path, serial_results):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        try:
            job = compile_many(
                GRID[:1],
                executor=ServiceExecutor(
                    broker=server.address, token=TOKEN, detach=True
                ),
            )
            assert isinstance(job, SweepJob)  # not outcomes: a handle
            # the handle owns a live connection: no reattach needed to poll
            assert job.status()["state"] == "queued"
            job.client.close()
            run_tcp_worker(
                server.address, TOKEN, tmp_path / "worker",
                max_jobs=1, poll_seconds=0.005,
            )
            # ...and any later connection fetches by id alone
            revived = attach_job(server.address, TOKEN, job.job_id)
            revived.wait(timeout=300.0, poll_seconds=0.05)
            assert result_signature(revived.fetch()) == result_signature(
                serial_results[:1]
            )
            revived.client.close()
        finally:
            server.close()

    def test_blocking_sweep_without_workers_stalls_and_stays_fetchable(
        self, tmp_path, serial_results
    ):
        """A blocking service sweep on a broker with no live worker must
        raise instead of waiting forever; the error names the job, which
        stays queued on the broker and is fetched once a worker shows
        up."""
        import re

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        try:
            t0 = time.monotonic()
            with pytest.raises(SystemGenerationError,
                               match="no worker") as err:
                compile_many(
                    GRID[:1],
                    executor=ServiceExecutor(
                        broker=server.address, token=TOKEN,
                        worker_grace_seconds=0.5, poll_seconds=0.02,
                    ),
                )
            assert time.monotonic() - t0 < 10.0
            (job_id,) = re.findall(r"job (j[0-9a-f]+)", str(err.value))
            run_tcp_worker(server.address, TOKEN, tmp_path / "worker",
                           max_jobs=1, poll_seconds=0.005)
            job = attach_job(server.address, TOKEN, job_id)
            job.wait(timeout=300.0, poll_seconds=0.05)
            assert result_signature(job.fetch()) == result_signature(
                serial_results[:1]
            )
            job.client.close()
        finally:
            server.close()

    def test_bare_service_executor_is_an_actionable_error(self):
        with pytest.raises(SystemGenerationError, match="broker"):
            compile_many(GRID[:1], executor="service")


# -- CLI verbs -----------------------------------------------------------------
class TestServiceCli:
    @pytest.fixture
    def broker(self, tmp_path):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        host, port = server.address
        try:
            yield server, f"{host}:{port}"
        finally:
            server.close()

    def test_submit_status_fetch_cancel_roundtrip(self, broker, tmp_path,
                                                  capsys):
        from repro.flow.cli import main

        server, address = broker
        rc = main(["submit", "--broker", address, "--token", TOKEN,
                   "--app", "helmholtz", "--sweep", "1x1"])
        out = capsys.readouterr().out
        assert rc == 0 and "submitted job" in out
        job_id = out.strip().splitlines()[-1]  # bare id on its own line

        rc = main(["status", "--broker", address, "--token", TOKEN, job_id])
        assert rc == 0
        assert f"job {job_id}: queued, 0/1 points done" in \
            capsys.readouterr().out

        run_tcp_worker(server.address, TOKEN, tmp_path / "worker",
                       max_jobs=1, poll_seconds=0.005)
        rc = main(["fetch", "--broker", address, "--token", TOKEN,
                   job_id, "--wait", "--poll", "0.05", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"job {job_id}" in out and "BRAM" in out

        rc = main(["cancel", "--broker", address, "--token", TOKEN, job_id])
        assert rc == 0
        assert f"job {job_id}: purged" in capsys.readouterr().out
        rc = main(["status", "--broker", address, "--token", TOKEN, job_id])
        assert rc == 2
        assert "no job" in capsys.readouterr().err

    def test_fetch_reports_a_point_that_fits_no_system(self, broker,
                                                       tmp_path, capsys):
        """n = 32: the memory subsystem alone needs more BRAM than the
        ZCU106 has, so auto-sizing yields no system."""
        from repro.apps.helmholtz import inverse_helmholtz_source
        from repro.flow.cli import main

        server, address = broker
        job_id = server.service.submit([(inverse_helmholtz_source(32), None)])
        run_tcp_worker(server.address, TOKEN, tmp_path / "worker",
                       max_jobs=1, poll_seconds=0.005)
        rc = main(["fetch", "--broker", address, "--token", TOKEN,
                   job_id, "--wait", "--poll", "0.05"])
        output = capsys.readouterr()
        assert rc == 1
        assert ("error: no feasible configuration: a single kernel + "
                "memory exceeds the ZCU106") in output.out
        assert "Traceback" not in output.err

    def test_second_submit_is_front_end_cached(self, broker, tmp_path,
                                               capsys):
        """The CI smoke shape: a repeat submit of the same program must
        pass --expect-front-end-cached."""
        from repro.flow.cli import main

        server, address = broker
        for tag in ("w1", "w2"):
            rc = main(["submit", "--broker", address, "--token", TOKEN,
                       "--app", "helmholtz", "--sweep", "1x1"])
            assert rc == 0
            job_id = capsys.readouterr().out.strip().splitlines()[-1]
            run_tcp_worker(server.address, TOKEN, tmp_path / tag,
                           max_jobs=1, poll_seconds=0.005)
            rc = main(["fetch", "--broker", address, "--token", TOKEN,
                       job_id, "--wait", "--poll", "0.05",
                       "--expect-front-end-cached"])
            output = capsys.readouterr()
            assert rc == (1 if tag == "w1" else 0), output.err
        assert "front-end" not in output.err

    def test_busy_submit_exits_3(self, tmp_path, capsys):
        from repro.flow.cli import main

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", max_jobs=0,  # everything is over-limit
        )
        host, port = server.address
        try:
            rc = main(["submit", "--broker", f"{host}:{port}",
                       "--token", TOKEN, "--app", "helmholtz",
                       "--sweep", "1x1"])
        finally:
            server.close()
        assert rc == 3
        assert "busy:" in capsys.readouterr().err

    def test_broker_status_flag_prints_stats(self, broker, tmp_path, capsys):
        from repro.flow.cli import main

        _, address = broker
        rc = main(["broker", "--listen", address, "--token", TOKEN,
                   "--cache-dir", str(tmp_path / "unused"), "--status"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "jobs:" in out and "queue depth:" in out
        assert "workers: 0 alive" in out

    def test_broker_status_without_broker_is_one_line(self, tmp_path,
                                                      capsys):
        import socket

        from repro.flow.cli import main

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            host, port = s.getsockname()[:2]
        rc = main(["broker", "--listen", f"{host}:{port}", "--token", TOKEN,
                   "--cache-dir", str(tmp_path), "--status"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err and "Traceback" not in err


class TestEphemeralPortBroker:
    def test_listen_zero_prints_the_bound_address(self, tmp_path):
        """`--listen :0` must report the real port on stdout — the line
        scripts (and the CI smoke test) parse to find the broker."""
        import pathlib

        import repro

        pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.flow.cli", "broker",
             "--listen", "127.0.0.1:0", "--token", TOKEN,
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "broker listening on " in line
            address = line.split("broker listening on ", 1)[1].split()[0]
            host, port = address.split(":")
            assert host == "127.0.0.1" and 0 < int(port) < 65536
            with ServiceClient((host, int(port)), TOKEN) as client:
                assert client.stats()["queue_depth"] == 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestWorkerTempTierCleanup:
    def test_temp_cache_removed_when_broker_vanishes(self, tmp_path,
                                                     monkeypatch):
        """A worker with no --cache-dir mkdtemps its local tier; losing
        the broker (TransportClosedError, not SIGTERM) must still remove
        it — the long-lived fleet would otherwise leak a directory per
        broker restart."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, None, tmp_path / "service"
        )
        threading.Timer(0.5, server.close).start()
        handled = run_tcp_worker(server.address, TOKEN, None,
                                 poll_seconds=0.02)
        assert handled == 0
        assert list(tmp_path.glob("cfdlang-flow-worker-cache-*")) == []
