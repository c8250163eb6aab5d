"""Out-of-process sweep execution: the worker loop and the sweep client.

Every sweep that leaves the calling process runs here, on top of the
compile service (:mod:`repro.flow.service`): the ``process`` and
``distributed`` executors are one backend, :class:`DistributedExecutor`.
It submits the whole batch as one job to a
:class:`~repro.flow.service.JobService` — on a broker it starts for the
sweep, or on a standing ``cfdlang-flow broker`` — and any number of
worker processes pull design points from that broker over TCP
(``cfdlang-flow worker --connect HOST:PORT``, see
:mod:`repro.flow.nettransport`), run them through the exact same
:class:`~repro.flow.session.Flow` machinery, and post the results back.
Workers need nothing from the broker but a network: the broker serves
its stage cache over the same socket (workers a sweep spawns share the
caller's cache directory instead).  Results are bit-identical to the
serial backend.

The job service is the one scheduler.  It leases each point to one
worker and requeues a point whose worker died — at once when the
worker's connection drops, else when its lease stops heartbeating —
with bounded retries: a point that reproducibly kills its worker ends
as a :class:`WorkerCrashError` in its own slot instead of looping
forever.  It also applies the ``fail_fast`` rule and records results.
This module holds what runs outside it: the worker loop
(:func:`run_worker`, which heartbeats the running point's lease from a
background :class:`WorkerPulse`) and the executor, which spawns and
respawns local workers and waits for the job.  A worker that was merely
slow, not dead, may complete a requeued point a second time; results are
deterministic and the service keeps the first, so the duplicate is
harmless.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import secrets
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Protocol, runtime_checkable

from repro.errors import SystemGenerationError
from repro.flow.options import FlowOptions
from repro.flow.program import compile_any
from repro.flow.session import FlowTrace
from repro.flow.stages import source_fingerprint
from repro.flow.store import (
    DEFAULT_LOCK_STALE_SECONDS,
    CacheBackend,
    DiskStageCache,
    FileSingleFlight,
    NamespacedStageCache,
    StageCache,
)

#: test-only fault injection: when this environment variable holds a
#: non-empty marker that occurs in a job's source text, the worker about
#: to run that job hard-exits instead — how the test suite simulates a
#: worker killed mid-task (OOM, SIGKILL) without racing real signals.
#: Unset in production; never set it outside a test.
FAULT_MARKER_ENV = "CFDLANG_FLOW_TEST_FAULT"

#: cache counters whose per-point deltas are merged back into the caller
_COUNTER_KEYS = (
    "hits", "memory_hits", "disk_hits", "remote_hits", "misses", "put_errors"
)


class WorkerCrashError(SystemGenerationError):
    """A point's workers died (connection dropped or lease expired) more
    times than the retry budget allows; the point's outcome slot holds
    this instead of a result."""


class TransportClosedError(SystemGenerationError):
    """The transport's far side went away mid-conversation (broker
    connection lost).  Workers treat it as "the sweep is over" and exit
    cleanly."""


class BrokerUnreachableError(SystemGenerationError):
    """No broker answered at the given address within the bounded
    connect-retry budget."""


@runtime_checkable
class Transport(Protocol):
    """What the worker loop requires of a work queue.

    Job messages are primitives-only dicts (JSON-safe); results travel
    as :func:`encode_result` dicts, which the transport ships by pickle
    without looking inside.  ``claim_job`` must hand
    each pending job to exactly one concurrent claimer and start its
    lease; ``heartbeat_job`` keeps a claimed job's lease alive;
    ``complete`` posts the result and drops the lease.
    ``heartbeat_worker`` / ``unregister_worker`` are the fleet-liveness
    side: how a worker proves it exists.  The broker's
    :class:`~repro.flow.service.JobService` holds the queue and is the
    in-process transport; :class:`~repro.flow.nettransport.TcpTransport`
    is its remote proxy.

    The contract is pinned by the transport-conformance suite in
    ``tests/test_flow_nettransport.py``.
    """

    def claim_job(self) -> Optional[Dict[str, object]]: ...

    def heartbeat_job(self, job_id: str) -> None: ...

    def complete(self, job_id: str, payload: Dict[str, object]) -> None: ...

    def heartbeat_worker(self, worker_id: str) -> None: ...

    def unregister_worker(self, worker_id: str) -> None: ...


# -- worker ------------------------------------------------------------------
def default_worker_id() -> str:
    return f"{socket.gethostname()}-pid{os.getpid()}"


def maybe_crash_for_test(source_text: str, attempt: int = 0) -> None:
    """Hard-exit the current process if the fault marker matches — on a
    job's first attempt only (a crash-once fault), so a requeued job
    succeeds and a test can assert recovery, not mere error capture."""
    marker = os.environ.get(FAULT_MARKER_ENV)
    if marker and attempt == 0 and marker in source_text:
        os._exit(3)


def run_job_spec(spec, cache, flight, worker_tag: str):
    """Run one design point from its picklable spec against shared state.

    Returns ``(outcome, trace events, cache counter deltas)``; the
    outcome is the FlowResult (ProgramResult for program text) or the
    exception the point raised.  Trace events carry ``worker_tag`` after
    an ``@`` in their origin, so a merged sweep trace records which
    worker served each stage (:func:`repro.flow.session.origin_kind`
    strips the tag for aggregation).
    """
    source_text, options_spec = spec
    options = (
        None if options_spec is None else FlowOptions.from_spec(options_spec)
    )
    before = cache.counters()
    trace = FlowTrace()
    try:
        outcome = compile_any(
            source_text, options, cache=cache, trace=trace, flight=flight
        )
    except Exception as exc:  # noqa: BLE001 — captured per job
        outcome = exc
    after = cache.counters()
    deltas = {k: after[k] - before[k] for k in _COUNTER_KEYS}
    events = [
        (e.stage, e.seconds, e.cached, f"{e.origin}@{worker_tag}")
        for e in trace.events
    ]
    return outcome, events, deltas


def encode_result(payload: Dict[str, object]) -> Dict[str, object]:
    """The message a point's result travels in: the payload dict pickled
    once, which the broker stores as the result file unread, plus the
    ``failed`` flag (fail_fast) and ``deltas`` (cache counters) it reads."""
    return {
        "failed": isinstance(payload.get("outcome"), BaseException),
        "deltas": payload.get("deltas") or {},
        "result": pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
    }


class WorkerPulse:
    """Background thread beating a worker's liveness — and its current
    job's lease — through whatever transport is in use.

    A worker spends its time inside long single-threaded stage
    computations, so the beating has to happen off-thread.  Set
    :attr:`job` when a job starts and clear it when the job ends; every
    interval the pulse calls ``transport.heartbeat_worker`` plus (with a
    job active) ``transport.heartbeat_job``.  Transport hiccups are
    swallowed: a missed beat costs at worst a spurious requeue, which
    the duplicate-result path already tolerates, while an exception here
    would kill liveness for good.
    """

    def __init__(
        self, transport: Transport, worker_id: str,
        interval_seconds: float = 1.0,
    ) -> None:
        self.transport = transport
        self.worker_id = worker_id
        self.interval_seconds = interval_seconds
        self.job: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "WorkerPulse":
        self._beat()
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _beat(self) -> None:
        try:
            self.transport.heartbeat_worker(self.worker_id)
            job = self.job
            if job is not None:
                self.transport.heartbeat_job(job)
        except Exception:  # noqa: BLE001 — see class docstring
            pass

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self._beat()


def run_worker(
    transport: Transport,
    cache,
    *,
    poll_seconds: float = 0.05,
    heartbeat_seconds: float = 1.0,
    idle_timeout: Optional[float] = None,
    max_jobs: Optional[int] = None,
    worker_id: Optional[str] = None,
) -> int:
    """Pull and run queued jobs until told (or timed) out.

    The body of ``cfdlang-flow worker``, for any transport: claim a job,
    run it through the standard :class:`~repro.flow.session.Flow`
    against ``cache`` (with :class:`FileSingleFlight` dedup on the
    cache's lock directory, so co-hosted workers never duplicate stage
    work), post the result, repeat.  A background :class:`WorkerPulse`
    keeps the worker's liveness and the running job's lease fresh — if
    this process dies mid-job, its broker connection drops (or a hung
    worker's lease goes stale) and the broker requeues the job
    elsewhere.

    :func:`repro.flow.nettransport.run_tcp_worker` builds the TCP
    transport and broker-backed cache; tests drive a
    :class:`~repro.flow.service.JobService` directly.  A
    transport that reports :class:`TransportClosedError` (its broker
    hung up) ends the loop cleanly rather than erroring: a vanished
    broker means the sweep is over.

    ``idle_timeout`` bounds how long an empty queue is polled before the
    worker exits (None = poll forever, the long-lived fleet-member
    mode); ``max_jobs`` exits after that many jobs (handy for tests and
    drain-then-recycle deployments).  Returns the number of jobs
    handled.
    """
    worker = worker_id or default_worker_id()
    flight = FileSingleFlight(cache.lock_dir)
    pulse = WorkerPulse(transport, worker, heartbeat_seconds).start()
    handled = 0
    idle_since = time.monotonic()
    try:
        while True:
            try:
                message = transport.claim_job()
            except TransportClosedError:
                break  # broker gone: the sweep is over
            if message is None:
                if max_jobs is not None and handled >= max_jobs:
                    break
                if (idle_timeout is not None
                        and time.monotonic() - idle_since >= idle_timeout):
                    break
                time.sleep(poll_seconds)
                continue
            idle_since = time.monotonic()
            job_id = str(message["id"])
            maybe_crash_for_test(
                str(message["source"]), int(message.get("attempt", 0))
            )
            # a job stamped with a tenant namespace (submitted with a
            # tenant token) computes into that tenant's partition of the
            # shared cache
            namespace = str(message.get("namespace") or "")
            job_cache = (
                NamespacedStageCache(cache, namespace) if namespace else cache
            )
            pulse.job = job_id
            try:
                outcome, events, deltas = run_job_spec(
                    (message["source"], message["options"]),
                    job_cache,
                    flight,
                    worker,
                )
            finally:
                pulse.job = None
            try:
                transport.complete(job_id, encode_result({
                    "id": job_id,
                    "index": message.get("index"),
                    "attempt": message.get("attempt", 0),
                    "worker": worker,
                    "outcome": outcome,
                    "events": events,
                    "deltas": deltas,
                }))
            except TransportClosedError:
                break  # broker gone mid-post: its lease machinery mops up
            handled += 1
            if max_jobs is not None and handled >= max_jobs:
                break
    finally:
        pulse.stop()
        try:
            transport.unregister_worker(worker)
        except Exception:  # noqa: BLE001 — best-effort on a dying transport
            pass
    return handled


# -- sweep client ------------------------------------------------------------
class DistributedExecutor:
    """Broker-and-workers backend: sweep throughput bounded by fleet size.

    ``compile_many(..., executor="distributed", jobs=N)`` — or
    ``executor="process"``, a second name for the default mode — submits
    every design point as one job to a compile service and spawns N
    local ``cfdlang-flow worker --connect`` processes that drain it, plus
    any number of external workers attached to the same broker.  Two
    broker modes:

    * default, or ``listen=(host, port)`` — this process starts a broker
      (:func:`~repro.flow.service.start_service_broker`) for the sweep.
      It serves the caller's :class:`~repro.flow.store.DiskStageCache`
      and keeps its job files in a service directory the executor owns
      and removes.  By default it binds ``127.0.0.1:0`` with a minted
      token, so only the spawned workers can reach it; ``listen=`` binds
      a known address (port 0 picks an ephemeral one) secured by
      ``token``, so external workers can join from any host.
    * ``broker=(host, port)`` or ``'HOST:PORT'`` — submit to a
      *standing* ``cfdlang-flow broker``.  The job counts against that
      broker's ``--max-jobs`` and runs in the token's cache namespace;
      the broker's own lease and retry settings apply, so
      ``lease_seconds`` and ``max_attempts`` are refused here.

    ``token`` is the shared secret of ``listen=``/``broker=`` (falls back
    to the ``CFDLANG_FLOW_TOKEN`` environment variable);
    ``spawn_workers=False`` relies purely on external workers.

    The job service does all scheduling: leases, up to ``max_attempts``
    attempts per point, and the ``fail_fast`` rule.  This client spawns
    its workers, respawns crashed ones while the job runs, and fails
    loudly — rather than hanging — if the job makes no progress and no
    worker anywhere has heartbeat for ``worker_grace_seconds``.  The
    error names the job id: a stalled job on a standing broker stays
    queued and can be fetched by id later; on the sweep's own broker,
    and on any other error or interrupt, the job is cancelled.  Worker
    traces merge back in point order with each worker's identity tagged
    in the event origins, and cache counter deltas merge into the
    caller's cache exactly once.

    ``lease_seconds`` must comfortably exceed the workers' heartbeat
    interval or live jobs get requeued spuriously: spawned workers are
    configured automatically (a quarter of the lease window), but
    externally attached workers choose their own ``--heartbeat`` — keep
    it at most a quarter of every broker's lease window.
    """

    name = "distributed"
    #: return the :class:`~repro.flow.service.SweepJob` handle instead of
    #: outcomes (only :class:`~repro.flow.service.ServiceExecutor` sets it)
    detach = False

    def __init__(
        self,
        *,
        spawn_workers: bool = True,
        listen=None,
        broker=None,
        token: Optional[str] = None,
        lease_seconds: Optional[float] = None,
        poll_seconds: float = 0.05,
        max_attempts: Optional[int] = None,
        worker_grace_seconds: float = DEFAULT_LOCK_STALE_SECONDS,
        worker_idle_timeout: float = 300.0,
    ) -> None:
        if listen is not None and broker is not None:
            raise SystemGenerationError(
                "pick one broker mode: listen (run a broker here) or "
                "broker (submit to a standing one)"
            )
        if broker is not None and (
            lease_seconds is not None or max_attempts is not None
        ):
            raise SystemGenerationError(
                "lease_seconds/max_attempts configure the broker a sweep "
                "starts; a standing broker (broker=...) applies its own "
                "lease and retry settings"
            )
        self.spawn_workers = spawn_workers
        self.listen = listen
        self.broker = broker
        self.token = token
        self.lease_seconds = 30.0 if lease_seconds is None else lease_seconds
        self.poll_seconds = poll_seconds
        self.max_attempts = 3 if max_attempts is None else max_attempts
        self.worker_grace_seconds = worker_grace_seconds
        self.worker_idle_timeout = worker_idle_timeout
        self._tmp_root: Optional[str] = None
        self._procs: List[subprocess.Popen] = []
        #: (argv, env) that spawns one worker; set by run()
        self._spawn_plan = None
        #: the spawned workers' --cache-dir when not a scratch tier
        self._worker_tier = None

    # -- Executor protocol ---------------------------------------------------
    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend:
        if self.broker is None and self.listen is None and not self.spawn_workers:
            raise SystemGenerationError(
                f"executor {self.name!r} has nowhere to run: pass "
                "broker='HOST:PORT' to submit to a standing broker (the "
                "distributed executor also takes listen= so external "
                "workers can attach, or spawn_workers=True)"
            )
        if self.broker is not None:
            # the standing broker owns the authoritative cache; the local
            # one only collects the workers' counter deltas
            return cache if cache is not None else StageCache()
        if cache is None:
            return DiskStageCache(self._scratch("cache"))
        if not isinstance(cache, DiskStageCache):
            raise TypeError(
                "the process/distributed executor serves its stage cache to "
                "workers from the sweep's broker, which needs a DiskStageCache; pass "
                "cache=DiskStageCache(dir) or cache=None for a temporary "
                f"one, not {type(cache).__name__}"
            )
        return cache

    def run(self, context):
        from repro.flow.nettransport import resolve_token
        from repro.flow.service import ServiceClient, start_service_broker

        if not context.jobs and not self.detach:
            return []
        points = [
            (
                source_fingerprint(source),
                None if options is None else options.to_spec(),
            )
            for source, options in context.jobs
        ]
        server = client = None
        try:
            if self.broker is None:
                token = (
                    resolve_token(self.token) if self.listen is not None
                    else self.token or secrets.token_hex(16)
                )
                host, port = self.listen or ("127.0.0.1", 0)
                server = start_service_broker(
                    host, port, token or "", context.cache,
                    self._scratch("service"),
                    lease_seconds=self.lease_seconds,
                    max_attempts=self.max_attempts,
                    poll_seconds=self.poll_seconds,
                )
                address = server.address
            else:
                address, token = self.broker, resolve_token(self.token)
            client = ServiceClient(address, token).connect()
            job = client.submit(points, fail_fast=context.fail_fast)
            if self.detach:
                client = None  # the returned handle owns the connection
                return job
            try:
                if self.spawn_workers:
                    if server is not None and self.listen is None:
                        # a private loopback broker's workers run on this
                        # host, so they share the caller's cache directory
                        # (run_tcp_worker then skips the wire for entries)
                        self._worker_tier = context.cache.cache_dir
                    self._start_workers(
                        client.transport.address, token,
                        min(max(1, context.workers), len(points)),
                    )
                stall = self._wait(job)
            except BaseException:
                self._cancel(job, server)
                raise
            if stall is not None:
                if server is not None:
                    # nothing of this sweep may start after it gave up
                    self._cancel(job, server)
                raise SystemGenerationError(stall)
            # the sweep's own broker hands results over in-process: no
            # frame, so no frame-size cap on the batch
            payloads = (
                job.fetch_payloads() if server is None
                else server.service.fetch(job.job_id)
            )
        finally:
            self._reap_workers()
            if client is not None:
                client.close()
            if server is not None:
                server.close()
        # the sweep's own broker merged the deltas into this very cache
        merge_stats = (
            getattr(context.cache, "merge_stats", None)
            if server is None else None
        )
        for payload in payloads:  # point order: deterministic --trace
            if payload is None:
                continue
            if context.trace is not None:
                for stage, seconds, cached, origin in payload["events"]:
                    context.trace.record(stage, seconds, cached, origin)
            if merge_stats is not None and payload["deltas"]:
                merge_stats(payload["deltas"])
        return [None if p is None else p["outcome"] for p in payloads]

    def cleanup(self) -> None:
        self._reap_workers()
        if self._tmp_root is not None:
            shutil.rmtree(self._tmp_root, ignore_errors=True)
            self._tmp_root = None

    def _scratch(self, name: str) -> pathlib.Path:
        """A path under this executor's temporary root (cleanup removes
        it): the default cache, the sweep broker's service directory, and
        the spawned workers' cache tier and logs."""
        if self._tmp_root is None:
            self._tmp_root = tempfile.mkdtemp(prefix="cfdlang-flow-")
        return pathlib.Path(self._tmp_root) / name

    # -- waiting -------------------------------------------------------------
    def _wait(self, job) -> Optional[str]:
        """Poll ``job`` until it is terminal, respawning crashed local
        workers.  Returns None, or the stall error's message if the job
        made no progress with no live worker anywhere."""
        from repro.flow.service import TERMINAL_STATES

        # respawn budget: tolerate as many worker deaths as the per-job
        # retry budget allows across the whole batch, with a floor so a
        # single flaky worker can't exhaust it instantly
        budget = max(2 * len(self._procs), self.max_attempts) + 2
        progress = None
        last_progress = time.monotonic()
        while True:
            status = job.status()
            if status["state"] in TERMINAL_STATES:
                return None
            now = time.monotonic()
            if (status["done_points"], status["retries"]) != progress:
                progress = (status["done_points"], status["retries"])
                last_progress = now
            elif (now - last_progress >= self.worker_grace_seconds
                    and not any(p.poll() is None for p in self._procs)
                    and not job.client.stats(
                        stale_seconds=self.worker_grace_seconds
                    )["workers"]):
                return (
                    f"{self.name} sweep stalled: job {job.job_id} has "
                    f"{status['total'] - status['done_points']} point(s) "
                    "pending but no worker has heartbeat for "
                    f"{self.worker_grace_seconds:.1f}s — start workers with "
                    "'cfdlang-flow worker --connect HOST:PORT' (a job on a "
                    "standing broker stays queued; fetch it by id later)"
                )
            for proc in [p for p in self._procs if p.poll() is not None]:
                self._procs.remove(proc)
                if budget > 0:
                    budget -= 1
                    self._spawn_worker()
            time.sleep(self.poll_seconds)

    @staticmethod
    def _cancel(job, server) -> None:
        """Cancel a job this sweep gave up on, so it neither holds a
        broker slot nor starts another point.  Best effort: a broker that
        is gone (or refuses) must not mask the error being raised."""
        try:
            if server is not None:
                server.service.cancel(job.job_id)
            else:
                job.cancel()
        except Exception:  # noqa: BLE001 — see docstring
            pass

    # -- worker lifecycle ----------------------------------------------------
    def _start_workers(self, address, token: Optional[str], count: int) -> None:
        from repro.flow.nettransport import TOKEN_ENV

        env = dict(os.environ, **{TOKEN_ENV: token or ""})
        # workers must import this package even when it is not installed
        # (tests run from a source tree via PYTHONPATH)
        pkg_root = str(pathlib.Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        self._spawn_plan = (self._worker_argv(address), env)
        for _ in range(count):
            self._spawn_worker()

    def _worker_argv(self, address) -> List[str]:
        """The command line of one spawned ``cfdlang-flow worker``.

        Spawned workers share one cache tier: the caller's cache
        directory behind a private loopback broker, else a local tier
        under this executor's temporary root, which the broker's cache
        reaches over the wire — passing no ``--cache-dir`` would have
        each worker mkdtemp a tier that leaks when _reap_workers
        SIGTERMs it.  Sharing the tier between same-host spawns is a
        feature (lock-file single flight dedups them).
        """
        host, port = address
        # a lease only stays alive if it is touched faster than the broker
        # expires it: heartbeat at a quarter of the lease window, so a
        # short-lease configuration cannot spuriously requeue live jobs
        heartbeat = min(1.0, max(0.05, self.lease_seconds / 4.0))
        return [
            sys.executable, "-m", "repro.flow.cli", "worker",
            "--connect", f"{host}:{port}",
            "--cache-dir",
            str(self._worker_tier or self._scratch("worker-cache")),
            "--idle-timeout", str(self.worker_idle_timeout),
            "--poll", str(self.poll_seconds),
            "--heartbeat", str(heartbeat),
        ]

    def _spawn_worker(self) -> None:
        argv, env = self._spawn_plan  # the token travels by env, not argv
        log_path = self._scratch("logs") / f"worker-{len(self._procs)}.log"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        self._procs.append(proc)

    def _reap_workers(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        self._procs = []
