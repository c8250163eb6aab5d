"""Compile-as-a-service: durable jobs on a broker, and the one scheduler.

A client submits an entire DSE grid in one RPC and gets back a durable
job id; the broker owns the job from there — queued → running → done /
failed / cancelled — persisting the spec and every per-point result
under a service directory, so the client can disconnect immediately and
any later connection (the same host or another) can ``poll``/``fetch``/
``cancel`` by id.  A broker restarted over the same service directory
recovers its jobs and re-enqueues the unfinished points; fetched
results are bit-identical to the serial backend because workers run the
exact same specs through the exact same :class:`~repro.flow.session.
Flow` machinery.  Every remote sweep runs on this service: the
``distributed`` executor starts a broker for the sweep (or submits to a
standing one) and waits for its job like any other client.

Pieces, broker side:

* :class:`JobService` — the job registry, the queue workers drain, and
  the only scheduler: one object under one lock owns each point from
  submit to result.  ``submit`` persists a spec and queues one message
  per design point; workers claim them (the worker side of the
  :class:`~repro.flow.distributed.Transport` protocol, in process or
  through the broker) and each posted result is recorded at once.  A
  background scheduler thread heals expired leases with bounded
  retries (a point whose workers keep dying resolves to
  :class:`~repro.flow.distributed.WorkerCrashError`) and finalizes a
  job when every point is resolved; a ``fail_fast`` job's first failed
  point drops its queued points.  Admission control bounds the queue: over
  ``max_jobs`` unfinished jobs (or ``max_tenant_jobs`` for one token) a
  submit is refused with :class:`BrokerBusyError` instead of growing the
  backlog — clients degrade gracefully, they never stall.  Retention
  keeps the standing broker bounded too: a terminal job is purged
  ``terminal_ttl_seconds`` after it finishes (CLI ``--retention-hours``),
  so unfetched results cannot accumulate disk and recovery time forever.
* Multi-tenancy — the broker's extra ``--tenant NAME=TOKEN`` secrets
  each map to a cache namespace (:func:`~repro.flow.store.
  namespaced_key`): a tenant's jobs are computed into, and served from,
  its own partition of the shared store, and its jobs cannot be fetched
  or cancelled with another tenant's token.  Tenant tokens are confined
  to this service surface (plus their cache namespace): the worker ops —
  claiming queued points, posting completions — require the primary
  token (see :data:`~repro.flow.nettransport.TENANT_OPS`).

Pieces, client side:

* :class:`ServiceClient` — the RPC proxy (submit / status / fetch /
  cancel / stats) over the same authenticated framed-socket protocol
  workers use.
* :class:`SweepJob` — the durable handle: ``status()``, ``wait()``,
  ``fetch()``, ``cancel()``.  Constructable from nothing but an address
  and a job id, which is the whole point.
* :class:`ServiceExecutor` — ``compile_many(..., executor="service")``:
  the :class:`~repro.flow.distributed.DistributedExecutor` client
  against a standing broker, spawning no workers of its own; with
  ``detach=True`` it returns the :class:`SweepJob` immediately.

Service directory layout (all writes atomic)::

    service/
      jobs/     <job-id>.json        immutable spec: points, tenant, limits
      results/  <job-id>/<idx>.pkl   per-point pickled payloads, as posted
      state/    <job-id>.json        terminal state marker

A job id sorts by submit time (``j<hex-ms><nonce>``), so the service's
claim order (job id, then point index) drains jobs first-come-first-served.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

from repro.errors import SystemGenerationError
from repro.flow.distributed import DistributedExecutor, WorkerCrashError, encode_result
from repro.flow.store import DEFAULT_LOCK_STALE_SECONDS, atomic_write_bytes

#: job lifecycle states; the last three are terminal
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


class BrokerBusyError(SystemGenerationError):
    """The broker refused a submit: its queue (or this tenant's
    in-flight allowance) is full.  Back off and resubmit later."""


class UnknownJobError(SystemGenerationError):
    """No job with that id (or not one this tenant may touch)."""


def mint_job_id() -> str:
    """A fresh job id that sorts by submit time.

    Milliseconds since the epoch in fixed-width hex, plus a nonce:
    workers claim pending points in job-id order, so time-sortable ids
    make the whole service drain first-come-first-served.  No ``-``
    may appear — point ids are ``<job>-<idx>``, split on the last dash.
    """
    return f"j{int(time.time() * 1000):012x}{uuid.uuid4().hex[:8]}"


class _JobRecord:
    """Broker-side in-memory state of one job (the durable truth lives
    in the service directory; this is the scheduler's working copy)."""

    __slots__ = (
        "job_id", "tenant", "points", "state", "created", "finished",
        "resolved", "failed_points", "attempts", "fail_fast", "abandoned",
    )

    def __init__(
        self, job_id, tenant, points, state, created, fail_fast=False
    ) -> None:
        self.job_id = str(job_id)
        self.tenant = str(tenant)
        #: [(source text, options spec or None), ...] in point order
        self.points = points
        self.state = state
        self.created = float(created)
        #: stop starting points once one has failed (the executors'
        #: shared fail_fast contract)
        self.fail_fast = bool(fail_fast)
        #: wall-clock time the job went terminal (retention clock);
        #: None while unfinished
        self.finished: Optional[float] = None
        #: point indexes whose result payload is persisted
        self.resolved: set = set()
        self.failed_points = 0
        #: point index -> attempts burned (dead workers)
        self.attempts: Dict[int, int] = {}
        #: point indexes a fail_fast abort kept from ever (re)starting;
        #: their fetched slots stay None
        self.abandoned: set = set()

    def point_id(self, index: int) -> str:
        return f"{self.job_id}-{index:05d}"

    def aborted(self) -> bool:
        return self.fail_fast and self.failed_points > 0

    def unresolved(self) -> List[int]:
        return [
            i for i in range(len(self.points))
            if i not in self.resolved and i not in self.abandoned
        ]


class JobService:
    """Durable job lifecycle for a broker, the queue its workers drain,
    and the only scheduler of remote sweeps.

    Owns a service directory and, under one lock, every point's state:
    queued (a worker message by point id), leased (the message and its
    last heartbeat, ``time.monotonic``), resolved (a result file).  It
    is the in-process :class:`~repro.flow.distributed.Transport`:
    workers claim queued points by job id, then point index, so
    time-sortable job ids drain first-come first-served, and
    ``complete`` records a result at once.
    :class:`~repro.flow.nettransport.BrokerServer` hands it the worker
    ops of its connections.  ``start()`` launches
    the scheduler thread (lease healing, finalization, retention) and
    ``stop()`` joins it; the broker calls ``stop()`` from its own
    ``close()``.  Construction recovers state from the service
    directory: jobs already terminal stay terminal, everything else has
    its unfinished points re-enqueued — the restart-durability contract.

    All public methods are thread-safe (the broker serves each
    connection on its own thread) and keyed by tenant: a job submitted
    with one token is invisible to every other token.  The empty tenant
    is the primary token's namespace.
    """

    def __init__(
        self,
        service_dir,
        cache=None,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        max_jobs: int = 16,
        max_tenant_jobs: int = 8,
        poll_seconds: float = 0.05,
        terminal_ttl_seconds: float = 86400.0,
    ) -> None:
        self.service_dir = pathlib.Path(service_dir)
        self.jobs_dir = self.service_dir / "jobs"
        self.results_dir = self.service_dir / "results"
        self.state_dir = self.service_dir / "state"
        for sub in (self.jobs_dir, self.results_dir, self.state_dir):
            sub.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.max_jobs = max_jobs
        self.max_tenant_jobs = max_tenant_jobs
        self.poll_seconds = poll_seconds
        #: a standing broker must not hoard finished jobs forever: a
        #: terminal job older than this is purged (spec, results, and
        #: the in-memory record) by the scheduler.  Clients get a full
        #: window to fetch.
        self.terminal_ttl_seconds = terminal_ttl_seconds
        self._lock = threading.Lock()
        self._jobs: Dict[str, _JobRecord] = {}
        #: point id -> worker message, not yet claimed
        self._pending: Dict[str, Dict[str, object]] = {}
        #: point id -> [message, last heartbeat (monotonic)]
        self._leases: Dict[str, List[object]] = {}
        #: worker id -> last heartbeat (monotonic)
        self._workers: Dict[str, float] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._recover()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "JobService":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- durability ----------------------------------------------------------
    def _spec_path(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / (job_id + ".json")

    def _state_path(self, job_id: str) -> pathlib.Path:
        return self.state_dir / (job_id + ".json")

    def _result_path(self, job_id: str, index: int) -> pathlib.Path:
        return self.results_dir / job_id / f"{index:05d}.pkl"

    def _persist_state(self, job: _JobRecord) -> None:
        atomic_write_bytes(
            self._state_path(job.job_id),
            json.dumps({"state": job.state}).encode(),
        )

    def _recover(self) -> None:
        """Rebuild the job table from the service directory.

        Results already on disk stay resolved; everything else in a
        non-terminal job is re-enqueued from the persisted spec — the
        queue lives in memory, so the spec files are the only queue that
        survives.  A result file of a non-terminal job that does not
        load is deleted and its point runs again; in a finished job it
        counts as a failed point (``fetch`` returns it as an error), so
        a ``done`` job with such a point reads ``failed``.
        """
        for spec_path in sorted(self.jobs_dir.glob("*.json")):
            try:
                spec = json.loads(spec_path.read_bytes())
            except (OSError, ValueError):
                continue  # damaged spec: unrecoverable, skip loudly-absent
            job = _JobRecord(
                spec["id"], spec.get("tenant", ""),
                [tuple(p) for p in spec["points"]],
                "queued", spec.get("created", 0.0), spec.get("fail_fast"),
            )
            try:
                state = json.loads(
                    self._state_path(job.job_id).read_bytes()
                )["state"]
            except (OSError, ValueError, KeyError):
                state = None
            for path in sorted(
                self.results_dir.glob(job.job_id + "/*.pkl")
            ):
                try:
                    index = int(path.stem)
                except ValueError:
                    continue
                payload = self._load_result(path)
                if payload is None and state not in TERMINAL_STATES:
                    try:
                        path.unlink()  # damaged: the point runs again
                    except OSError:
                        pass
                    continue
                job.resolved.add(index)
                if payload is None or isinstance(
                    payload.get("outcome"), BaseException
                ):
                    job.failed_points += 1
            if state in TERMINAL_STATES:
                job.state = "failed" if job.failed_points and state == "done" else state
                # the original finish time is gone with the old broker;
                # restarting the retention clock keeps an unfetched job
                # available for a full window after the restart
                job.finished = time.time()
            elif job.aborted():
                job.abandoned.update(job.unresolved())  # finalized next tick
            else:
                job.state = "running" if job.resolved else "queued"
                for index in job.unresolved():
                    self._enqueue_point(job, index, attempt=0)
            self._jobs[job.job_id] = job

    def _enqueue_point(self, job: _JobRecord, index: int, attempt: int) -> None:
        """Queue a point for the workers (the lock is held)."""
        if job.state in TERMINAL_STATES:
            # a cancel raced us: its result would be dropped anyway, so
            # don't burn a worker on a dead job's point
            return
        source, options_spec = job.points[index]
        message = {
            "id": job.point_id(index),
            "index": index,
            "source": source,
            "options": options_spec,
            "attempt": attempt,
        }
        if job.tenant:
            # workers compute this point inside the submitting tenant's
            # cache namespace (see run_worker)
            message["namespace"] = job.tenant
        self._pending[message["id"]] = message

    @staticmethod
    def _load_result(path: pathlib.Path):
        """A stored payload dict, or None if the file is missing or does
        not load (truncated, or naming a class that no longer imports)."""
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except Exception:  # noqa: BLE001 — any unpickling failure is damage
            return None
        return payload if isinstance(payload, dict) else None

    # -- client API (also reachable as RPCs via handle_rpc) ------------------
    def submit(self, points, tenant: str = "", fail_fast: bool = False) -> str:
        """Persist and enqueue a job; returns its durable id.

        ``points`` is a list of ``(source text, options spec or None)``
        pairs — the primitives-only shape worker messages use.  With
        ``fail_fast`` the first failed point stops the job from starting
        any other: unclaimed points are dropped (their slots stay None),
        claimed ones finish and are recorded.  Raises
        :class:`BrokerBusyError` when admission limits are hit.
        """
        tenant = str(tenant)
        points = [
            (str(source), None if spec is None else dict(spec))
            for source, spec in points
        ]
        with self._lock:
            active = [
                j for j in self._jobs.values()
                if j.state not in TERMINAL_STATES
            ]
            if len(active) >= self.max_jobs:
                raise BrokerBusyError(
                    f"broker is at its limit of {self.max_jobs} unfinished "
                    "job(s); fetch or cancel completed work, or resubmit "
                    "later"
                )
            if sum(1 for j in active if j.tenant == tenant) >= \
                    self.max_tenant_jobs:
                raise BrokerBusyError(
                    f"this token already has {self.max_tenant_jobs} "
                    "unfinished job(s) in flight; fetch or cancel one, or "
                    "resubmit later"
                )
            job = _JobRecord(
                mint_job_id(), tenant, points, "queued", time.time(),
                fail_fast,
            )
            atomic_write_bytes(
                self._spec_path(job.job_id),
                json.dumps({
                    "id": job.job_id,
                    "tenant": job.tenant,
                    "points": [list(p) for p in job.points],
                    "created": job.created,
                    "fail_fast": job.fail_fast,
                }).encode(),
            )
            self._jobs[job.job_id] = job
            if not points:
                job.state = "done"
                job.finished = time.time()
                self._persist_state(job)
                return job.job_id
            # enqueue before releasing the lock: a cancel racing this
            # submit must either see no job yet or find every point in
            # the queue, never a half-enqueued job whose remaining
            # points it cannot drop
            for index in range(len(points)):
                self._enqueue_point(job, index, attempt=0)
        return job.job_id

    def _get(self, job_id: str, tenant: str) -> _JobRecord:
        job = self._jobs.get(str(job_id))
        if job is None or job.tenant != str(tenant):
            # a wrong-tenant probe reads exactly like a nonexistent job:
            # ids must not leak across tokens
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def status(self, job_id: str, tenant: str = "") -> Dict[str, object]:
        """Per-point progress counters and lifecycle state."""
        with self._lock:
            job = self._get(job_id, tenant)
            return {
                "job": job.job_id,
                "state": job.state,
                "total": len(job.points),
                "done_points": len(job.resolved),
                "failed_points": job.failed_points,
                "retries": sum(job.attempts.values()),
                "created": job.created,
            }

    def fetch(
        self, job_id: str, tenant: str = "", start: int = 0,
        max_bytes: Optional[int] = None,
    ) -> List[object]:
        """The per-point result payloads of a terminal job, in point
        order from point ``start`` on.

        Slots a cancelled job never ran hold None.  A resolved point
        whose stored file does not load gets a payload whose outcome is
        a :class:`~repro.errors.SystemGenerationError` naming the file.
        With ``max_bytes`` the list stops before the stored payloads
        would exceed that many bytes (it always holds at least one
        slot), so a fetch reply stays within a frame.  Non-destructive:
        a fetched job stays fetchable until cancelled (which purges it).
        """
        with self._lock:
            job = self._get(job_id, tenant)
            if job.state not in TERMINAL_STATES:
                raise SystemGenerationError(
                    f"job {job.job_id} is {job.state}: poll status until it "
                    "is done/failed/cancelled before fetching"
                )
            payloads: List[object] = []
            size = 0
            for index in range(max(0, start), len(job.points)):
                if index not in job.resolved:
                    payloads.append(None)
                    continue
                path = self._result_path(job.job_id, index)
                if max_bytes is not None:
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
                    if payloads and size > max_bytes:
                        break
                payload = self._load_result(path)
                if payload is None:
                    payload = {"outcome": SystemGenerationError(
                        f"job {job.job_id}: the stored result of point "
                        f"{index} ({path}) does not load"
                    ), "events": [], "deltas": {}}
                payloads.append(payload)
            return payloads

    def cancel(self, job_id: str, tenant: str = "") -> Dict[str, object]:
        """Cancel a job: unclaimed points are dropped, running ones are
        discarded when they post, and the job becomes terminal.  A
        second cancel purges the (already terminal) job's files."""
        with self._lock:
            job = self._get(job_id, tenant)
            if job.state in TERMINAL_STATES:
                self._purge(job)
                return {"job": job.job_id, "state": job.state,
                        "purged": True}
            job.state = "cancelled"
            job.finished = time.time()
            self._persist_state(job)
            self._drop_pending(job)
        return {"job": job.job_id, "state": "cancelled", "purged": False}

    def _drop_pending(self, job: _JobRecord) -> List[int]:
        """Drop ``job``'s unclaimed points from the queue (the lock is
        held); returns their indexes."""
        return [
            index for index in job.unresolved()
            if self._pending.pop(job.point_id(index), None) is not None
        ]

    def _purge(self, job: _JobRecord) -> None:
        for index in range(len(job.points)):
            try:
                self._result_path(job.job_id, index).unlink()
            except OSError:
                pass
        try:
            (self.results_dir / job.job_id).rmdir()
        except OSError:
            pass
        for path in (self._spec_path(job.job_id),
                     self._state_path(job.job_id)):
            try:
                path.unlink()
            except OSError:
                pass
        self._jobs.pop(job.job_id, None)

    def stats(self) -> Dict[str, object]:
        """Queue depth, jobs by state, per-tenant activity."""
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            depth = 0
            tenants: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] += 1
                if job.state not in TERMINAL_STATES:
                    depth += len(job.unresolved())
                    name = job.tenant or "(default)"
                    tenants[name] = tenants.get(name, 0) + 1
            return {
                "jobs": by_state,
                "queue_depth": depth,
                "active_tenants": tenants,
                "limits": {
                    "max_jobs": self.max_jobs,
                    "max_tenant_jobs": self.max_tenant_jobs,
                    "terminal_ttl_seconds": self.terminal_ttl_seconds,
                },
            }

    # -- RPC bridge ----------------------------------------------------------
    def handle_rpc(self, op: str, request, tenant: str):
        """One service request from the broker's dispatch loop ->
        ``(reply, pickled?)``.  Errors travel as ``ok: False`` replies —
        a bad request must never tear the connection down — and a
        refused submit is additionally flagged ``busy`` so clients can
        distinguish backpressure from failure."""
        try:
            if op == "submit":
                raw_points = request.get("points")
                if not isinstance(raw_points, (list, tuple)) or not all(
                    isinstance(p, (list, tuple)) and len(p) == 2
                    for p in raw_points
                ):
                    return {
                        "ok": False,
                        "error": "malformed submit: 'points' must be a "
                                 "list of [source, options] pairs",
                    }, False
                points = [(p[0], p[1]) for p in raw_points]
                job_id = self.submit(
                    points, tenant, bool(request.get("fail_fast"))
                )
                return {"ok": True, "job": job_id}, False
            if op == "job_status":
                return {
                    "ok": True,
                    "status": self.status(str(request.get("job")), tenant),
                }, False
            if op == "job_fetch":
                from repro.flow.nettransport import MAX_FRAME_BYTES

                # one frame-sized chunk per request: a reply over the
                # frame cap would be refused after the whole job ran
                job_id = str(request.get("job"))
                payloads = self.fetch(
                    job_id, tenant, int(request.get("start") or 0),
                    max_bytes=MAX_FRAME_BYTES // 2,
                )
                return {
                    "ok": True,
                    "payloads": payloads,
                    "total": self.status(job_id, tenant)["total"],
                }, True
            if op == "job_cancel":
                return {
                    "ok": True,
                    **self.cancel(str(request.get("job")), tenant),
                }, False
        except BrokerBusyError as exc:
            return {"ok": False, "busy": True, "error": str(exc)}, False
        except SystemGenerationError as exc:
            return {"ok": False, "error": str(exc)}, False
        except (TypeError, ValueError, KeyError) as exc:
            # a structurally-bad request (options spec that is not a
            # mapping, say) is the client's problem, reported in-band
            return {
                "ok": False,
                "error": f"malformed {op} request: {exc!r}",
            }, False
        return {"ok": False, "error": f"unknown service op {op!r}"}, False

    # -- worker side: the Transport protocol ---------------------------------
    def claim_job(self) -> Optional[Dict[str, object]]:
        """Lease the first queued point, by job id then point index, or
        None."""
        with self._lock:
            if not self._pending:
                return None
            # the index, not the id string: ids pad it to five digits,
            # so "-100000" would sort before "-10001"
            point_id = min(
                self._pending.values(),
                key=lambda m: (m["id"].rpartition("-")[0], m["index"]),
            )["id"]
            message = self._pending.pop(point_id)
            self._leases[point_id] = [message, time.monotonic()]
            return dict(message)

    def heartbeat_job(self, point_id: str) -> None:
        with self._lock:
            lease = self._leases.get(point_id)
            if lease is not None:
                lease[1] = time.monotonic()

    def complete(self, point_id: str, message: Dict[str, object]) -> None:
        """Record a point's :func:`~repro.flow.distributed.encode_result`
        message at once; a post for no unresolved point of a live job
        (an unknown id, a finished or cancelled job, a duplicate) is
        dropped.  The lease goes only after that: a post that fails to
        record (a full disk) leaves it to expire and be re-leased."""
        job_id, _, index = str(point_id).rpartition("-")
        with self._lock:
            job = self._jobs.get(job_id)
        if (job is not None and index.isdigit()
                and int(index) < len(job.points)):
            self._resolve(job, int(index), message)
        with self._lock:
            self._leases.pop(str(point_id), None)

    def heartbeat_worker(self, worker_id: str) -> None:
        with self._lock:
            self._workers[worker_id] = time.monotonic()

    def unregister_worker(self, worker_id: str) -> None:
        with self._lock:
            self._workers.pop(worker_id, None)

    def alive_workers(self, stale_seconds: float) -> List[str]:
        now = time.monotonic()
        with self._lock:
            return sorted(
                w for w, ts in self._workers.items()
                if now - ts < stale_seconds
            )

    def expire_leases(self, claims: Dict[str, object]) -> None:
        """Expire at once the leases of ``claims`` (point id -> the
        attempt claimed), whose holder is gone for good; a lease since
        re-claimed under a later attempt is left alone."""
        with self._lock:
            for point_id, attempt in claims.items():
                lease = self._leases.get(point_id)
                if lease is not None and lease[0].get("attempt") == attempt:
                    lease[1] = float("-inf")

    def _age_lease(self, point_id: str, seconds: float) -> None:
        """Rewind a lease's heartbeat (tests simulate a dead worker
        without waiting out a real lease window)."""
        with self._lock:
            lease = self._leases.get(point_id)
            if lease is not None:
                lease[1] -= seconds

    def _age_worker(self, worker_id: str, seconds: float) -> None:
        with self._lock:
            if worker_id in self._workers:
                self._workers[worker_id] -= seconds

    # -- scheduler -----------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            try:
                self._tick()
            except Exception:  # noqa: BLE001 — the scheduler must survive
                # transient trouble (a full disk); jobs heal next tick
                pass

    def _tick(self) -> None:
        """Heal the leases, finalize finished jobs, purge expired ones.
        The work follows the leases and the jobs, never the queue."""
        now = time.monotonic()
        lost: List[Tuple[_JobRecord, int]] = []
        with self._lock:
            for point_id, (message, beat) in list(self._leases.items()):
                job = self._jobs.get(point_id.rpartition("-")[0])
                if job is None or job.state in TERMINAL_STATES:
                    del self._leases[point_id]  # a finished job's straggler
                elif now - beat >= self.lease_seconds:
                    del self._leases[point_id]
                    lost.append((job, int(message["index"])))
            live = [
                j for j in self._jobs.values()
                if j.state not in TERMINAL_STATES
            ]
        for job, index in lost:
            self._burn_attempt(job, index)
        for job in live:
            self._maybe_finalize(job)
        self._expire_terminal()

    def _expire_terminal(self) -> None:
        """Retention: purge terminal jobs whose fetch window has passed,
        so a standing broker's disk and recovery time stay bounded."""
        now = time.time()
        with self._lock:
            expired = [
                j for j in self._jobs.values()
                if j.state in TERMINAL_STATES and j.finished is not None
                and now - j.finished >= self.terminal_ttl_seconds
            ]
            for job in expired:
                self._purge(job)

    def _resolve(self, job: _JobRecord, index: int, message) -> None:
        """Record a point's :func:`~repro.flow.distributed.encode_result`
        message: its pickled payload becomes the result file unread."""
        with self._lock:
            if (index in job.resolved or index in job.abandoned
                    or job.state in TERMINAL_STATES):
                return  # duplicate post, or a cancel/purge won the race
        path = self._result_path(job.job_id, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, message["result"])
        with self._lock:
            if index in job.resolved or index in job.abandoned:
                return  # duplicate post of a re-leased point
            if job.state in TERMINAL_STATES:
                # cancelled (maybe purged) while the payload was being
                # written: take the file back out rather than leaving an
                # orphan under results/
                try:
                    path.unlink()
                except OSError:
                    pass
                try:
                    path.parent.rmdir()
                except OSError:
                    pass  # other results remain; purge removes them
                return
            job.resolved.add(index)
            # a requeued copy of the point need not run again
            self._pending.pop(job.point_id(index), None)
            if message.get("failed"):
                job.failed_points += 1
                if job.fail_fast:
                    # nothing unclaimed may start after a failure (the
                    # scheduler thread is the only requeuer, and it
                    # abandons instead of requeueing from here on)
                    job.abandoned.update(self._drop_pending(job))
            if job.state == "queued":
                job.state = "running"
            deltas = message.get("deltas")
        if deltas and self.cache is not None:
            self.cache.merge_stats(deltas)

    def _burn_attempt(self, job: _JobRecord, index: int) -> None:
        """A point's worker died: requeue within the retry budget, else
        fail the point.  Worker death is infrastructure churn, not a
        point failure, so a fail_fast job requeues too — until one of its
        points has failed, after which a lost point is abandoned."""
        with self._lock:
            if job.state in TERMINAL_STATES or index in job.resolved:
                return  # a cancel or a slow worker's post won the race
            attempts = job.attempts.get(index, 0) + 1
            job.attempts[index] = attempts
            if job.aborted():
                job.abandoned.add(index)
                return
            if attempts < self.max_attempts:
                self._enqueue_point(job, index, attempt=attempts)
                return
        self._resolve(job, index, encode_result({
            "id": job.point_id(index),
            "index": index,
            "outcome": WorkerCrashError(
                f"point {index} of job {job.job_id} lost its worker "
                f"{self.max_attempts} times (each time its connection "
                f"dropped or its lease went {self.lease_seconds:.1f}s "
                "without a heartbeat); giving up"
            ),
            "events": [],
            "deltas": {},
        }))

    def _maybe_finalize(self, job: _JobRecord) -> None:
        with self._lock:
            if job.state in TERMINAL_STATES:
                return
            if len(job.resolved) + len(job.abandoned) < len(job.points):
                return
            job.state = "failed" if job.failed_points else "done"
            job.finished = time.time()
            self._persist_state(job)


def start_service_broker(
    host: str,
    port: int,
    token: str,
    cache,
    service_dir=None,
    *,
    tenants: Optional[Dict[str, str]] = None,
    lease_seconds: float = 30.0,
    max_attempts: int = 3,
    max_jobs: int = 16,
    max_tenant_jobs: int = 8,
    poll_seconds: float = 0.05,
    terminal_ttl_seconds: float = 86400.0,
):
    """A listening :class:`~repro.flow.nettransport.BrokerServer` with a
    running :class:`JobService` attached — the body of ``cfdlang-flow
    broker``.

    ``cache`` is the broker's :class:`~repro.flow.store.DiskStageCache`
    (None serves no cache); ``service_dir`` defaults to
    ``<cache-dir>/.service`` (outside the ``??/`` entry fan-out, so cache
    gc/clear/verify never touch job state).  Recovery happens here: jobs persisted by a previous broker
    over the same directory are re-enqueued before the first connection
    lands.  ``server.close()`` stops the service too.
    """
    from repro.flow.nettransport import BrokerServer

    if service_dir is None:
        service_dir = pathlib.Path(cache.cache_dir) / ".service"
    service = JobService(
        service_dir,
        cache,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        max_jobs=max_jobs,
        max_tenant_jobs=max_tenant_jobs,
        poll_seconds=poll_seconds,
        terminal_ttl_seconds=terminal_ttl_seconds,
    )
    server = BrokerServer(host, port, token, service, tenants=tenants)
    service.start()
    return server


# -- client side --------------------------------------------------------------
class ServiceClient:
    """RPC proxy for the broker's job service.

    One authenticated connection, one request/reply round trip per
    call — the same framed protocol workers speak, so a service client
    needs nothing but the broker address and a token.  Refused submits
    raise :class:`BrokerBusyError`; other ``ok: False`` replies raise
    :class:`~repro.errors.SystemGenerationError` with the broker's
    message.
    """

    def __init__(
        self,
        broker,
        token: Optional[str] = None,
        *,
        connect_retries: int = 20,
        retry_delay: float = 0.25,
    ) -> None:
        from repro.flow.nettransport import TcpTransport

        self.transport = TcpTransport(
            broker,
            token,
            connect_retries=connect_retries,
            retry_delay=retry_delay,
        )

    def connect(self) -> "ServiceClient":
        self.transport.connect()
        return self

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _rpc(self, request: Dict[str, object], *, pickled: bool = False):
        reply = self.transport._call(request, pickled=pickled, raw=True)
        if not isinstance(reply, dict) or not reply.get("ok"):
            error = (reply or {}).get("error", f"{request.get('op')} failed")
            if (reply or {}).get("busy"):
                raise BrokerBusyError(str(error))
            raise SystemGenerationError(str(error))
        return reply

    def submit(self, points, fail_fast: bool = False) -> "SweepJob":
        """Submit ``[(source text, options spec or None), ...]``; returns
        the durable :class:`SweepJob` handle (``fail_fast``: see
        :meth:`JobService.submit`)."""
        reply = self._rpc({
            "op": "submit",
            "points": [[source, spec] for source, spec in points],
            "fail_fast": bool(fail_fast),
        })
        return SweepJob(self, str(reply["job"]))

    def status(self, job_id: str) -> Dict[str, object]:
        return self._rpc({"op": "job_status", "job": job_id})["status"]

    def fetch(self, job_id: str) -> List[object]:
        """All result payloads of a terminal job (see
        :meth:`JobService.fetch`), pulled in frame-sized chunks."""
        payloads: List[object] = []
        while True:
            reply = self._rpc(
                {"op": "job_fetch", "job": job_id, "start": len(payloads)}
            )
            payloads.extend(reply["payloads"])
            if len(payloads) >= reply["total"]:
                return payloads

    def cancel(self, job_id: str) -> Dict[str, object]:
        reply = self._rpc({"op": "job_cancel", "job": job_id})
        return {k: v for k, v in reply.items() if k != "ok"}

    def stats(self, stale_seconds: float = 60.0) -> Dict[str, object]:
        """Broker-wide counters; ``workers`` lists those that heartbeat
        within ``stale_seconds``."""
        return self._rpc(
            {"op": "service_stats", "stale_seconds": stale_seconds}
        )["stats"]


class SweepJob:
    """Durable handle on a submitted job.

    Carries nothing but a client and the job id — reconstruct one after
    a disconnect (or on a different host) with
    ``SweepJob(ServiceClient(addr, token).connect(), job_id)``, or via
    :func:`attach_job`.
    """

    def __init__(self, client: ServiceClient, job_id: str) -> None:
        self.client = client
        self.job_id = str(job_id)

    def status(self) -> Dict[str, object]:
        return self.client.status(self.job_id)

    def done(self) -> bool:
        return self.status()["state"] in TERMINAL_STATES

    def wait(
        self,
        timeout: Optional[float] = None,
        poll_seconds: float = 0.2,
    ) -> Dict[str, object]:
        """Poll until the job is terminal; returns the final status.

        Raises :class:`~repro.errors.SystemGenerationError` if
        ``timeout`` (seconds) elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status()
            if status["state"] in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise SystemGenerationError(
                    f"job {self.job_id} still {status['state']} "
                    f"({status['done_points']}/{status['total']} points) "
                    f"after {timeout:.1f}s"
                )
            time.sleep(poll_seconds)

    def fetch_payloads(self) -> List[object]:
        """The raw per-point result payloads (outcome/events/deltas)."""
        return self.client.fetch(self.job_id)

    def fetch(self) -> List[object]:
        """Per-point outcomes in point order: each slot a
        :class:`~repro.flow.pipeline.FlowResult`, the exception the
        point raised, or None for a point a cancel kept from running."""
        return [
            None if payload is None else payload.get("outcome")
            for payload in self.fetch_payloads()
        ]

    def cancel(self) -> Dict[str, object]:
        return self.client.cancel(self.job_id)


def attach_job(broker, token: Optional[str], job_id: str) -> SweepJob:
    """Reconnect to a standing broker and hold an existing job by id."""
    return SweepJob(ServiceClient(broker, token).connect(), job_id)


# -- executor backend ---------------------------------------------------------
class ServiceExecutor(DistributedExecutor):
    """``compile_many(..., executor="service")``: the whole batch becomes
    one job on the standing broker at ``broker=``, run by that broker's
    worker fleet — the executor spawns no workers.

    The executor shares :class:`~repro.flow.distributed.
    DistributedExecutor`'s submit → wait → unpack path, so results,
    traces, exceptions, ``fail_fast`` and the no-live-worker stall error
    (after ``worker_grace_seconds``) read exactly like every other
    backend.  With ``detach=True``, ``run`` returns the :class:`SweepJob`
    handle immediately instead of outcomes — ``compile_many`` passes it
    through, and the caller fetches whenever (and wherever) it likes.
    """

    name = "service"

    def __init__(
        self,
        *,
        broker=None,
        token: Optional[str] = None,
        detach: bool = False,
        poll_seconds: float = 0.2,
        worker_grace_seconds: float = DEFAULT_LOCK_STALE_SECONDS,
    ) -> None:
        super().__init__(
            spawn_workers=False, broker=broker, token=token,
            poll_seconds=poll_seconds,
            worker_grace_seconds=worker_grace_seconds,
        )
        self.detach = detach
