"""TCP transport: transport-conformance contract (the job service in
process, and over TCP for the worker side), broker server auth, remote
cache tiering, TCP worker/executor end-to-end equivalence, and the
worker CLI failure paths."""

import os
import socket
import time

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import SystemGenerationError
from repro.flow import (
    DiskStageCache,
    FlowOptions,
    FlowTrace,
    SystemOptions,
    compile_many,
)
from repro.flow.distributed import (
    BrokerUnreachableError,
    DistributedExecutor,
    Transport,
    TransportClosedError,
    encode_result,
)
from repro.flow.nettransport import (
    BrokerAuthError,
    RemoteStageCache,
    TcpTransport,
    parse_hostport,
    recv_frame,
    run_tcp_worker,
    send_frame,
)
from repro.flow.service import (
    TERMINAL_STATES,
    JobService,
    start_service_broker,
)

TOKEN = "conformance-secret"


def serve(tmp_path, cache=None, token=TOKEN):
    """A broker (every broker carries a job service) on an ephemeral
    loopback port."""
    return start_service_broker(
        "127.0.0.1", 0, token, cache, tmp_path / "service"
    )


# -- the Transport contract ---------------------------------------------------
def posted(outcome):
    """The message a worker posts for a point that ended in ``outcome``."""
    return encode_result({"outcome": outcome, "events": [], "deltas": {}})


def wait_terminal(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while (service.status(job_id)["state"] not in TERMINAL_STATES
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return service.status(job_id)


class TransportConformance:
    """The queue semantics a worker relies on, pinned once and run
    against each way of reaching the broker's job service: exactly-once
    claiming in sorted-id order, lease heartbeat/expiry/requeue, cancel,
    dropped straggler posts, and worker liveness.  ``rig`` yields
    ``(worker, service)``: the :class:`Transport` under test, and the
    started :class:`JobService` whose points it claims.
    """

    @pytest.fixture
    def rig(self, tmp_path):
        raise NotImplementedError  # pragma: no cover

    def test_satisfies_transport_protocol(self, rig):
        worker, _ = rig
        assert isinstance(worker, Transport)

    def test_put_claim_complete_roundtrip(self, rig):
        worker, service = rig
        job_id = service.submit([("src", None)] * 2)
        claimed = worker.claim_job()
        assert claimed["id"] == f"{job_id}-00000" and claimed["index"] == 0
        assert worker.claim_job()["index"] == 1
        assert worker.claim_job() is None  # leased, not re-claimable
        worker.complete(claimed["id"], posted(42))
        assert service.status(job_id)["done_points"] == 1  # recorded
        worker.complete(f"{job_id}-00001", posted(43))
        assert wait_terminal(service, job_id)["state"] == "done"
        assert [p["outcome"] for p in service.fetch(job_id)] == [42, 43]
        assert not service._leases  # leases dropped

    def test_claims_in_sorted_id_order(self, rig):
        worker, service = rig
        service.stop()  # tick by hand: the test must not race the scheduler
        first = service.submit([("src", None)] * 2)
        time.sleep(0.002)  # the id's clock field is millisecond-grained
        second = service.submit([("src", None)])
        assert worker.claim_job()["id"] == f"{first}-00000"
        service._age_lease(f"{first}-00000", 3600.0)
        service._tick()  # requeued behind the other two points
        claimed = [worker.claim_job()["id"] for _ in range(3)]
        assert claimed == [f"{first}-00000", f"{first}-00001",
                           f"{second}-00000"]

    def test_lease_expiry_heartbeat_and_requeue(self, rig):
        worker, service = rig
        service.stop()  # tick by hand: the test must not race the scheduler
        job_id = service.submit([("src", None)])
        job = worker.claim_job()
        service._tick()
        assert worker.claim_job() is None  # a fresh lease holds
        service._age_lease(job["id"], 3600.0)
        worker.heartbeat_job(job["id"])  # a live worker touched it
        service._tick()
        assert worker.claim_job() is None
        assert service.status(job_id)["retries"] == 0
        service._age_lease(job["id"], 3600.0)  # its worker died
        service._tick()
        assert service.status(job_id)["retries"] == 1
        reclaimed = worker.claim_job()
        assert reclaimed["id"] == job["id"] and reclaimed["attempt"] == 1

    def test_heartbeat_of_unclaimed_job_is_harmless(self, rig):
        worker, service = rig
        job_id = service.submit([("src", None)])
        worker.heartbeat_job("never-claimed-00000")
        worker.heartbeat_job(f"{job_id}-00000")  # queued, not claimed
        assert not service._leases
        assert worker.claim_job()["id"] == f"{job_id}-00000"

    def test_cancel_drops_unclaimed_points(self, rig):
        worker, service = rig
        job_id = service.submit([("src", None)] * 2)
        worker.claim_job()  # point 0 leased
        service.cancel(job_id)
        assert worker.claim_job() is None  # point 1 left the queue
        assert service.status(job_id)["state"] == "cancelled"
        assert service.fetch(job_id) == [None, None]

    def test_post_for_a_finished_job_is_dropped(self, rig):
        worker, service = rig
        # a straggler posting after its job was cancelled
        cancelled = service.submit([("src", None)])
        straggler = worker.claim_job()
        service.cancel(cancelled)
        worker.complete(straggler["id"], posted("late"))
        assert service.status(cancelled)["done_points"] == 0
        assert service.fetch(cancelled) == [None]
        # a second post of a done job's point (a slow worker whose
        # lease was re-leased) keeps the first result
        done = service.submit([("src", None)])
        point = worker.claim_job()["id"]
        worker.complete(point, posted(1))
        assert wait_terminal(service, done)["state"] == "done"
        worker.complete(point, posted(2))
        assert [p["outcome"] for p in service.fetch(done)] == [1]
        assert not list((service.results_dir / cancelled).glob("*.pkl"))
        assert not service._leases

    def test_worker_liveness(self, rig):
        worker, service = rig
        assert service.alive_workers(60.0) == []
        worker.heartbeat_worker("w1")
        assert service.alive_workers(60.0) == ["w1"]
        service._age_worker("w1", 3600.0)
        assert service.alive_workers(60.0) == []
        worker.heartbeat_worker("w1")
        worker.unregister_worker("w1")
        assert service.alive_workers(60.0) == []


class TestMemoryConformance(TransportConformance):
    """The worker side in the broker's own memory: a started
    :class:`JobService` is its own transport."""

    @pytest.fixture
    def rig(self, tmp_path):
        with JobService(tmp_path / "service", poll_seconds=0.01) as service:
            yield service, service


class TestTcpConformance(TransportConformance):
    """The worker side over the wire: a TcpTransport client proxy
    against a live broker, whose job service the tests inspect and age
    directly."""

    @pytest.fixture
    def rig(self, tmp_path):
        server = serve(tmp_path)
        client = TcpTransport(server.address, TOKEN).connect()
        try:
            yield client, server.service
        finally:
            client.close()
            server.close()


# -- broker server specifics --------------------------------------------------
class TestBrokerServer:
    def test_rejects_bad_token(self, tmp_path):
        with serve(tmp_path) as server:
            with pytest.raises(BrokerAuthError, match="rejected"):
                TcpTransport(
                    server.address, "wrong-token", connect_retries=1
                ).connect()

    def test_requires_a_token(self, tmp_path):
        with pytest.raises(SystemGenerationError, match="token"):
            serve(tmp_path, token="")

    def test_rejects_protocol_version_mismatch(self, tmp_path):
        # a future client must get a clear error at hello time, not an
        # authenticated connection that dies on the first frame
        with serve(tmp_path) as server:
            with socket.create_connection(server.address, timeout=5.0) as s:
                send_frame(s, {"op": "hello", "token": TOKEN,
                               "role": "client", "version": 999})
                reply = recv_frame(s, allow_pickle=False)
        assert not reply["ok"]
        assert "version mismatch" in reply["error"]

    def test_rejects_pickle_frame_before_auth(self, tmp_path):
        # an unauthenticated peer must never reach the unpickler
        with serve(tmp_path) as server:
            with socket.create_connection(server.address, timeout=5.0) as s:
                send_frame(s, {"evil": True}, pickled=True)
                with pytest.raises(TransportClosedError):
                    recv_frame(s, allow_pickle=False)

    def test_dropped_connection_unregisters_worker(self, tmp_path):
        with serve(tmp_path) as server:
            worker = TcpTransport(
                server.address, TOKEN, role="worker", worker_id="w1"
            ).connect()
            worker.heartbeat_worker("w1")
            assert server.service.alive_workers(60.0) == ["w1"]
            worker.close()
            deadline = time.monotonic() + 5.0
            while (server.service.alive_workers(60.0)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert server.service.alive_workers(60.0) == []

    def test_dropped_connection_expires_its_leases_at_once(self, tmp_path):
        """A TcpTransport never reconnects, so a point its dropped
        connection claimed can never be completed: the point is
        re-leased at once instead of after the 30 s lease window."""
        with serve(tmp_path) as server:
            job_id = server.service.submit([("src", None)])
            worker = TcpTransport(
                server.address, TOKEN, role="worker", worker_id="w1"
            ).connect()
            assert worker.claim_job()["id"] == f"{job_id}-00000"
            assert server.service.status(job_id)["retries"] == 0
            worker._sock.close()  # the worker dies: no goodbye
            deadline = time.monotonic() + 5.0
            while (server.service.status(job_id)["retries"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert server.service.status(job_id)["retries"] == 1

    def test_lost_connection_stays_lost(self, tmp_path):
        """Once connected, a dropped broker reads as TransportClosedError
        on every later call — never a reconnect-retry stall ending in
        BrokerUnreachableError.  This is what lets a worker whose pulse
        thread noticed the drop first still exit cleanly."""
        server = serve(tmp_path)
        client = TcpTransport(server.address, TOKEN).connect()
        server.close()
        with pytest.raises(TransportClosedError):
            client.claim_job()
        t0 = time.monotonic()
        with pytest.raises(TransportClosedError):  # and again, instantly
            client.claim_job()
        assert time.monotonic() - t0 < 1.0

    def test_listen_on_taken_port_is_a_clean_error(self, tmp_path):
        with serve(tmp_path) as server:
            with pytest.raises(SystemGenerationError, match="cannot serve"):
                start_service_broker(
                    *server.address, TOKEN, None, tmp_path / "second"
                )

    def test_remote_supervisor_ops_are_gone(self, tmp_path):
        """The job service is the only scheduler: the wire carries no
        ops for collecting results, healing leases, or closing batches
        from outside the broker, not even for the primary token."""
        with serve(tmp_path) as server:
            client = TcpTransport(server.address, TOKEN).connect()
            try:
                for op in ("put_job", "take_result", "expired_leases",
                           "release", "cancel_pending", "batch_done",
                           "mark_batch_done", "alive_workers"):
                    with pytest.raises(SystemGenerationError,
                                       match="unknown op"):
                        client._call({"op": op})
            finally:
                client.close()

    def test_unreachable_broker_fails_bounded(self):
        with socket.socket() as s:  # grab a port nobody is serving
            s.bind(("127.0.0.1", 0))
            address = s.getsockname()[:2]
        t0 = time.monotonic()
        with pytest.raises(BrokerUnreachableError, match="cannot reach"):
            TcpTransport(
                address, TOKEN, connect_retries=3, retry_delay=0.05
            ).connect()
        assert time.monotonic() - t0 < 10.0

    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert parse_hostport("[::1]:1") == ("[::1]", 1)
        # an empty host is the every-interface shorthand on the
        # *listening* side only; as a connect destination 0.0.0.0 is
        # platform-dependent, so connect paths demand an explicit host
        assert parse_hostport(":123", listening=True) == ("0.0.0.0", 123)
        assert parse_hostport(":0", listening=True) == ("0.0.0.0", 0)
        for empty in (":123", ":0"):
            with pytest.raises(SystemGenerationError, match="explicit host"):
                parse_hostport(empty)
        for bad in ("nope", "host:", "host:abc"):
            with pytest.raises(SystemGenerationError, match="HOST:PORT"):
                parse_hostport(bad)
            with pytest.raises(SystemGenerationError, match="HOST:PORT"):
                parse_hostport(bad, listening=True)

    def test_cache_rpcs_roundtrip_entries(self, tmp_path):
        cache = DiskStageCache(tmp_path / "broker-cache")
        cache.put("key1", {"artifact": [1, 2, 3]})
        with serve(tmp_path, cache) as server:
            client = TcpTransport(server.address, TOKEN).connect()
            try:
                data = client.cache_fetch("key1")
                assert data is not None
                assert client.cache_fetch("missing") is None
                client.cache_put("key2", data)
            finally:
                client.close()
        assert cache.peek("key2")[0] == {"artifact": [1, 2, 3]}


# -- worker-side remote cache -------------------------------------------------
class _BrokerGoneTransport:
    def cache_fetch(self, key):
        raise TransportClosedError("broker gone")

    def cache_put(self, key, data):
        raise TransportClosedError("broker gone")


class TestRemoteStageCache:
    @pytest.fixture
    def rig(self, tmp_path):
        broker_cache = DiskStageCache(tmp_path / "broker")
        server = serve(tmp_path, broker_cache)
        transport = TcpTransport(server.address, TOKEN).connect()
        cache = RemoteStageCache(
            DiskStageCache(tmp_path / "worker"), transport
        )
        try:
            yield broker_cache, cache
        finally:
            transport.close()
            server.close()

    def test_remote_hit_imports_locally(self, rig):
        broker_cache, cache = rig
        broker_cache.put("k", {"v": 1})
        entry, origin = cache.fetch("k")
        assert entry == {"v": 1} and origin == "remote"
        assert cache.counters()["remote_hits"] == 1
        # imported: the re-fetch is a local memory hit, no wire trip
        entry, origin = cache.fetch("k")
        assert origin == "memory"
        assert cache.counters()["remote_hits"] == 1

    def test_miss_counts_once(self, rig):
        _, cache = rig
        assert cache.fetch("absent") is None
        assert cache.counters()["misses"] == 1
        assert cache.peek("absent") is None  # peek never counts
        assert cache.counters()["misses"] == 1

    def test_put_ships_to_broker(self, rig):
        broker_cache, cache = rig
        cache.put("k", {"v": 2})
        assert broker_cache.peek("k")[0] == {"v": 2}

    def test_degrades_to_local_when_broker_gone(self, tmp_path):
        cache = RemoteStageCache(
            DiskStageCache(tmp_path), _BrokerGoneTransport()
        )
        cache.put("k", {"v": 3})  # the failed ship must not raise
        assert cache.fetch("k")[0] == {"v": 3}
        assert cache.fetch("absent") is None  # fetch degrades to a miss


# -- end-to-end: TCP worker + executor ---------------------------------------
GRID = [
    (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=m)))
    for k, m in ((1, 1), (2, 2), (4, 4))
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


class TestTcpWorkerLoop:
    def test_worker_drains_broker_queue(self, tmp_path):
        broker_cache = DiskStageCache(tmp_path / "broker")
        with serve(tmp_path, broker_cache) as server:
            opts = FlowOptions(system=SystemOptions(k=2, m=2))
            job_id = server.service.submit(
                [(HELMHOLTZ_DSL, None), (HELMHOLTZ_DSL, opts.to_spec())]
            )
            handled = run_tcp_worker(
                server.address, TOKEN, tmp_path / "local",
                max_jobs=2, worker_id="w-tcp",
            )
            assert handled == 2
            assert wait_terminal(server.service, job_id)["state"] == "done"
            r0, r1 = server.service.fetch(job_id)
        assert r0["worker"] == "w-tcp"
        assert r0["outcome"].system.k == 16  # default: maximize k
        assert r1["outcome"].system.k == 2
        assert all("@w-tcp" in e[3] for e in r0["events"])
        # the entries the worker computed landed in the broker's cache
        assert broker_cache.stats()["disk_entries"] > 0

    def test_worker_on_the_brokers_cache_dir_skips_the_wire(
        self, tmp_path, monkeypatch
    ):
        """A worker whose --cache-dir is the broker's own cache directory
        (how a sweep's spawned workers run) reads and writes it directly:
        no cache RPC, and the broker still sees every entry."""
        def no_wire(self, *args):
            raise AssertionError("cache RPC on a shared cache directory")

        monkeypatch.setattr(TcpTransport, "cache_fetch", no_wire)
        monkeypatch.setattr(TcpTransport, "cache_put", no_wire)
        broker_cache = DiskStageCache(tmp_path / "broker")
        with serve(tmp_path, broker_cache) as server:
            job_id = server.service.submit([(HELMHOLTZ_DSL, None)])
            handled = run_tcp_worker(
                server.address, TOKEN, tmp_path / "broker", max_jobs=1,
            )
            assert handled == 1
            assert wait_terminal(server.service, job_id)["state"] == "done"
            (r0,) = server.service.fetch(job_id)
        assert r0["outcome"].system.k == 16
        assert r0["deltas"]["misses"] > 0
        assert broker_cache.stats()["disk_entries"] > 0

    def test_worker_exits_cleanly_when_broker_vanishes(self, tmp_path):
        server = serve(tmp_path)
        import threading

        threading.Timer(0.5, server.close).start()
        handled = run_tcp_worker(
            server.address, TOKEN, tmp_path / "local",
            poll_seconds=0.02,
        )
        assert handled == 0  # no traceback, no hang: a clean exit


class TestTcpExecutor:
    def test_matches_serial_bit_identical(self, tmp_path):
        """Acceptance: broker + 2 TCP workers with no shared directory
        produce results bit-identical to the serial backend."""
        serial = compile_many(GRID, executor="serial")
        executor = DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN)
        tcp = compile_many(
            GRID, jobs=2, executor=executor,
            cache=DiskStageCache(tmp_path / "cache"),
        )
        assert result_signature(serial) == result_signature(tcp)

    def test_warm_broker_cache_serves_front_end_remotely(self, tmp_path):
        """Second run against the same broker cache dir: fresh workers
        with no shared mount must serve the whole front end as remote
        hits (this is what the CI smoke test asserts via
        --expect-front-end-cached)."""
        from repro.flow.stages import FRONT_END_STAGES

        cache_dir = tmp_path / "cache"
        compile_many(
            GRID[:2], jobs=2, cache=DiskStageCache(cache_dir),
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        trace = FlowTrace()
        compile_many(
            GRID[:2], jobs=2, cache=DiskStageCache(cache_dir), trace=trace,
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        executed = trace.executed_counts()
        assert not any(executed.get(s) for s in FRONT_END_STAGES)
        assert sum(trace.cached_counts_by_origin("remote").values()) > 0

    def test_remote_hits_merge_into_parent_cache_stats(self, tmp_path):
        cache_dir = tmp_path / "cache"
        compile_many(
            GRID[:1], jobs=1, cache=DiskStageCache(cache_dir),
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        cache = DiskStageCache(cache_dir)
        compile_many(
            GRID[:1], jobs=1, cache=cache,
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        assert cache.stats()["remote_hits"] > 0

    def test_submitter_attaches_to_standing_broker(self, tmp_path):
        """The `cfdlang-flow broker` deployment shape: a standing broker
        owns queue + cache; the sweep attaches as a remote submitter and
        its spawned workers connect to the same address."""
        broker_cache = DiskStageCache(tmp_path / "broker")
        with serve(tmp_path, broker_cache) as server:
            executor = DistributedExecutor(broker=server.address, token=TOKEN)
            results = compile_many(
                GRID[:2], jobs=2, executor=executor,
                cache=DiskStageCache(tmp_path / "submitter"),
            )
            assert [r.system.k for r in results] == [1, 2]
            # the standing broker's cache is the one that warmed
            assert broker_cache.stats()["disk_entries"] > 0

    def test_spawned_workers_get_an_executor_owned_cache_tier(self):
        """Spawned TCP workers must be handed a --cache-dir under the
        executor's temp root: reaping sends SIGTERM, so a worker-side
        mkdtemp would leak its directory on every sweep."""
        executor = DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN)
        try:
            argv = executor._worker_argv(("127.0.0.1", 1))
            cache_dir = argv[argv.index("--cache-dir") + 1]
            assert cache_dir.startswith(executor._tmp_root)
        finally:
            executor.cleanup()
        assert not os.path.exists(os.path.dirname(cache_dir))

    def test_mode_flags_are_mutually_exclusive(self):
        with pytest.raises(SystemGenerationError, match="one broker mode"):
            DistributedExecutor(
                listen=("127.0.0.1", 0), broker=("127.0.0.1", 1), token=TOKEN
            )


class TestWorkerCliFailurePaths:
    def test_unreachable_broker_is_a_one_line_error(self, monkeypatch,
                                                    capsys):
        from repro.flow import nettransport
        from repro.flow.cli import main

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            host, port = s.getsockname()[:2]
        original = nettransport.TcpTransport

        def fast_transport(*args, **kwargs):
            kwargs.update(connect_retries=2, retry_delay=0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(nettransport, "TcpTransport", fast_transport)
        rc = main(["worker", "--connect", f"{host}:{port}",
                   "--token", TOKEN])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot reach broker" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_connect_without_token_is_a_one_line_error(self, monkeypatch,
                                                       capsys):
        from repro.flow.cli import main
        from repro.flow.nettransport import TOKEN_ENV

        monkeypatch.delenv(TOKEN_ENV, raising=False)
        rc = main(["worker", "--connect", "127.0.0.1:1"])
        assert rc == 2
        assert "token" in capsys.readouterr().err


class TestBrokerCli:
    def test_parser_requires_listen_and_cache(self):
        from repro.flow.cli import build_broker_parser

        with pytest.raises(SystemExit):
            build_broker_parser().parse_args([])
        args = build_broker_parser().parse_args(
            ["--listen", "127.0.0.1:0", "--token", "t", "--cache-dir", "c"]
        )
        assert args.listen == "127.0.0.1:0"

    def test_broker_without_token_is_a_one_line_error(self, tmp_path,
                                                      monkeypatch, capsys):
        from repro.flow.cli import main
        from repro.flow.nettransport import TOKEN_ENV

        monkeypatch.delenv(TOKEN_ENV, raising=False)
        rc = main(["broker", "--listen", "127.0.0.1:0",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "token" in capsys.readouterr().err
