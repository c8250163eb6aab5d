"""TCP transport for remote sweeps: broker server, worker proxy.

The broker owns the job queue and the stage cache in one process and
serves both over a length-prefixed socket protocol, so a worker anywhere
on the network joins the fleet with nothing but an address and a
shared-secret token.

Two pieces:

* :class:`BrokerServer` — a threaded TCP server in front of a
  :class:`~repro.flow.service.JobService`, which holds the queue, the
  leases and every result, and the broker's
  :class:`~repro.flow.store.DiskStageCache`.  Every request is a framed
  message; the first must be a JSON ``hello`` carrying the
  shared-secret token (compared constant-time), and only authenticated
  connections may send or receive pickle frames.  A worker's requests
  double as its heartbeat.  A dropped connection unregisters the worker
  and expires the leases it held at once: a :class:`TcpTransport`
  never reconnects, so nothing it claimed can still be completed.
* :class:`TcpTransport` — the client proxy: the worker side of the
  :class:`~repro.flow.distributed.Transport` protocol by RPC (what
  ``cfdlang-flow worker --connect HOST:PORT`` drives), plus the
  connection that :class:`~repro.flow.service.ServiceClient` sends
  job-service requests over.

Workers share no filesystem with the broker yet still reuse cache
artifacts: :class:`RemoteStageCache` layers a worker-local
:class:`~repro.flow.store.DiskStageCache` over ``cache_fetch`` /
``cache_put`` RPCs against the broker's cache (the serializable
entry export/import of :mod:`repro.flow.store`), so a warm broker
serves the whole front end to a cold worker as ``"remote"`` hits and
every entry a worker computes lands back in the broker's store.  A
worker whose tier is the broker's own cache directory (the ``hello``
reply names it by :func:`dir_identity`) uses it directly instead.

Security model: the token authenticates, the wire does not encrypt, and
authenticated peers exchange pickles — run brokers and workers on a
trusted network only (an SSH tunnel covers the untrusted case).

Frame layout (all integers big-endian)::

    4 bytes  payload length N
    1 byte   tag: 0 = JSON, 1 = pickle (authenticated connections only)
    N bytes  payload
"""

from __future__ import annotations

import hmac
import json
import os
import pickle
import socket
import struct
import tempfile
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SystemGenerationError
from repro.flow.distributed import (
    BrokerUnreachableError,
    TransportClosedError,
    default_worker_id,
    run_worker,
)
from repro.flow.store import DiskStageCache, Entry, namespaced_key

#: bump when the message schema changes incompatibly; hello replies
#: carry it so mismatched peers fail with a clear error, not a hang
PROTOCOL_VERSION = 3

#: refuse frames bigger than this (a corrupt length prefix must not
#: trigger a multi-gigabyte allocation)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">IB")
_TAG_JSON = 0
_TAG_PICKLE = 1

#: environment fallback for the shared secret, so process listings
#: never show ``--token`` values
TOKEN_ENV = "CFDLANG_FLOW_TOKEN"


class BrokerAuthError(SystemGenerationError):
    """The broker rejected this client's token."""


#: the request surface a tenant-token connection may use: service RPCs
#: (its jobs are namespace-stamped) and its cache partition.  Everything
#: else is the worker surface — claiming queued points, posting results,
#: heartbeating leases — which would let one tenant read or forge
#: another tenant's work, so it is reserved for primary-token
#: connections.
TENANT_OPS = frozenset({
    "submit", "job_status", "job_fetch", "job_cancel", "service_stats",
    "cache_fetch", "cache_put",
})


def parse_hostport(text: str, *, listening: bool = False) -> Tuple[str, int]:
    """``'127.0.0.1:8765'`` -> ``('127.0.0.1', 8765)``.

    With ``listening=True`` an empty host (``':8765'``, or just ``':0'``)
    means every interface — the bind-side shorthand for ``0.0.0.0:PORT``.
    Connect paths keep requiring an explicit host: connecting *to*
    0.0.0.0 is platform-dependent, so an empty host there is an error,
    not a guess.
    """
    host, sep, port = str(text).rpartition(":")
    try:
        if not sep:
            raise ValueError
        port_number = int(port)
    except ValueError:
        raise SystemGenerationError(
            f"bad address {text!r}: expected HOST:PORT, e.g. 127.0.0.1:8765"
        ) from None
    if not host:
        if not listening:
            raise SystemGenerationError(
                f"bad address {text!r}: a broker to connect to needs an "
                "explicit host, e.g. 127.0.0.1:8765"
            )
        host = "0.0.0.0"
    return host, port_number


def dir_identity(path) -> Optional[List[object]]:
    """Host and inode of a directory (None for no directory): equal only
    for the same directory seen from the same host."""
    try:
        st = os.stat(path)
    except (OSError, TypeError):
        return None
    return [socket.gethostname(), st.st_dev, st.st_ino]


def resolve_token(token: Optional[str]) -> Optional[str]:
    """An explicit token, or the ``CFDLANG_FLOW_TOKEN`` environment
    fallback; None if neither is set."""
    return token if token else os.environ.get(TOKEN_ENV) or None


# -- framing ------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        try:
            chunk = sock.recv(min(n, 1 << 20))
        except OSError as exc:
            raise TransportClosedError(f"connection lost: {exc}") from None
        if not chunk:
            if chunks:
                raise TransportClosedError("connection closed mid-frame")
            raise TransportClosedError("connection closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, obj, *, pickled: bool = False) -> None:
    """Serialize ``obj`` and send it as one framed message."""
    if pickled:
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        tag = _TAG_PICKLE
    else:
        body = json.dumps(obj).encode()
        tag = _TAG_JSON
    try:
        sock.sendall(_HEADER.pack(len(body), tag) + body)
    except OSError as exc:
        raise TransportClosedError(f"connection lost: {exc}") from None


def recv_frame(sock: socket.socket, *, allow_pickle: bool):
    """Receive one framed message; refuses pickle frames pre-auth."""
    length, tag = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise TransportClosedError(
            f"oversized frame ({length} bytes); refusing"
        )
    body = _recv_exact(sock, length)
    if tag == _TAG_JSON:
        try:
            return json.loads(body)
        except ValueError:
            raise TransportClosedError("malformed JSON frame") from None
    if tag == _TAG_PICKLE:
        if not allow_pickle:
            # unpickling attacker bytes is arbitrary code execution; an
            # unauthenticated peer never gets that far
            raise TransportClosedError(
                "pickle frame before authentication; refusing"
            )
        return pickle.loads(body)
    raise TransportClosedError(f"unknown frame tag {tag}")


# -- broker server ------------------------------------------------------------
class BrokerServer:
    """Threaded TCP front end over a job service and its cache: the
    worker ops of each connection go straight to the service.

    One accept thread plus one thread per connection — fleets here are
    tens of workers, not thousands.  ``address`` is the bound (host,
    port) pair, so listening on port 0 yields a usable ephemeral port.
    ``close()`` stops the service, then shuts the listener and every
    live connection down.  Build one with
    :func:`~repro.flow.service.start_service_broker`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: str,
        service,
        *,
        tenants: Optional[Dict[str, str]] = None,
    ) -> None:
        if not token:
            raise SystemGenerationError(
                "a broker needs a shared-secret token: pass token=... "
                f"(CLI --token) or set {TOKEN_ENV}"
            )
        self.token = token
        #: the :class:`~repro.flow.service.JobService` (duck-typed: this
        #: module never imports service, which imports it) — serves the
        #: worker ops and the submit/status/fetch/cancel RPCs, and is
        #: stopped by close()
        self.service = service
        self.cache: Optional[DiskStageCache] = service.cache
        #: extra shared secrets: tenant name -> token.  A tenant
        #: connection's cache RPCs and submitted jobs are confined to
        #: that tenant's namespace of the shared store; the primary
        #: token is the "" tenant (identity namespace) and is what
        #: workers authenticate with.
        self.tenants = dict(tenants) if tenants else {}
        if any(not tok for tok in self.tenants.values()):
            raise SystemGenerationError(
                "every tenant needs a non-empty token (NAME=TOKEN)"
            )
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            # port in use, privileged port, bad interface: an operator
            # mistake deserving a one-line error, not a traceback
            raise SystemGenerationError(
                f"cannot serve a broker on {host}:{port}: {exc}"
            ) from None
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._closing = threading.Event()
        self._conns: Set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._closing.set()
        self.service.stop()  # scheduler first: no requeues mid-teardown
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the join below returns at once
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "BrokerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conns_lock:
                self._conns.add(conn)
            # a standing broker accepts connections for its lifetime:
            # drop finished handler threads or the list grows forever
            self._threads = [t for t in self._threads if t.is_alive()]
            thread = threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    # -- per-connection protocol ---------------------------------------------
    def _authenticate(self, presented: str) -> Optional[str]:
        """The tenant a presented token authenticates as: ``""`` for the
        primary token, the tenant name for a tenant token, None for a
        reject.  Every registered secret is compared (constant-time per
        comparison) so response timing never reveals which tenants
        exist."""
        tenant: Optional[str] = None
        if hmac.compare_digest(presented, self.token):
            tenant = ""
        for name in sorted(self.tenants):
            if hmac.compare_digest(presented, self.tenants[name]):
                tenant = name
        return tenant

    def _serve(self, conn: socket.socket) -> None:
        worker_id: Optional[str] = None
        tenant: Optional[str] = None
        # point id -> attempt, claimed on this connection, not completed
        claimed: Dict[str, object] = {}
        try:
            hello = recv_frame(conn, allow_pickle=False)
            if isinstance(hello, dict) and hello.get("op") == "hello":
                tenant = self._authenticate(str(hello.get("token", "")))
            if tenant is None:
                send_frame(conn, {"ok": False, "error": "bad token"})
                return
            if hello.get("version") != PROTOCOL_VERSION:
                send_frame(conn, {
                    "ok": False,
                    "error": (
                        f"protocol version mismatch: broker speaks "
                        f"v{PROTOCOL_VERSION}, client spoke "
                        f"v{hello.get('version')}"
                    ),
                })
                return
            if hello.get("role") == "worker":
                if tenant:
                    # a worker claims and completes *any* tenant's
                    # points, so it must hold the primary secret
                    send_frame(conn, {
                        "ok": False,
                        "error": "workers must authenticate with the "
                                 "primary broker token, not a tenant "
                                 "token",
                    })
                    return
                worker_id = str(hello.get("worker") or "")
                if worker_id:
                    self.service.heartbeat_worker(worker_id)
            send_frame(conn, {
                "ok": True,
                "version": PROTOCOL_VERSION,
                "cache": dir_identity(getattr(self.cache, "cache_dir", None))
                if hello.get("role") == "worker" else None,
            })
            while True:
                request = recv_frame(conn, allow_pickle=True)
                if not isinstance(request, dict):
                    return
                if request.get("op") == "bye":
                    send_frame(conn, {"ok": True})
                    return
                reply, pickled = self._dispatch(request, worker_id, tenant)
                if request.get("op") == "claim" and reply.get("job"):
                    claimed[reply["job"]["id"]] = reply["job"].get("attempt")
                elif request.get("op") == "complete":
                    claimed.pop(str(request.get("id")), None)
                send_frame(conn, reply, pickled=pickled)
        except TransportClosedError:
            pass
        except Exception:  # noqa: BLE001 — one bad peer must not kill the broker
            pass
        finally:
            if worker_id:
                self.service.unregister_worker(worker_id)
            # no point this connection claimed can still be completed:
            # the job service re-leases them on its next tick
            self.service.expire_leases(claimed)
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, request, worker_id, tenant: str = ""):
        """One request -> (reply, pickled?).  Requests from workers count
        as liveness: any op refreshes the connection's worker heartbeat.
        ``tenant`` is the connection's authenticated tenant: its cache
        RPCs are confined to that namespace of the shared store, and the
        service stamps its jobs so workers compute into it too."""
        service = self.service
        op = request.get("op")
        if worker_id:
            service.heartbeat_worker(worker_id)
        if tenant and op not in TENANT_OPS:
            # tenant isolation: the worker surface could pop another
            # tenant's queued point (leaking its source) or post a forged
            # result for it
            return {
                "ok": False,
                "error": f"op {op!r} requires the primary broker token; "
                         "tenant tokens may only submit jobs, poll/fetch/"
                         "cancel their own, and use their cache namespace",
            }, False
        if op in ("submit", "job_status", "job_fetch", "job_cancel"):
            return service.handle_rpc(op, request, tenant)
        if op == "service_stats":
            stats: Dict[str, object] = {
                "workers": service.alive_workers(
                    float(request.get("stale_seconds", 60.0))
                ),
            }
            if self.cache is not None:
                stats["cache"] = self.cache.counters()
            stats.update(service.stats())
            return {"ok": True, "stats": stats}, False
        if op == "claim":
            return {"job": service.claim_job()}, False
        if op == "heartbeat":
            worker = request.get("worker") or worker_id
            if worker:
                service.heartbeat_worker(str(worker))
            if request.get("job"):
                service.heartbeat_job(str(request["job"]))
            return {"ok": True}, False
        if op == "complete":
            # recorded before the reply: a fail_fast abort must land
            # before this worker can claim its next point
            service.complete(str(request["id"]), request["payload"])
            return {"ok": True}, False
        if op == "unregister_worker":
            worker = request.get("worker") or worker_id
            if worker:
                service.unregister_worker(str(worker))
            return {"ok": True}, False
        if op == "cache_fetch":
            key = namespaced_key(tenant, str(request["key"]))
            data = (
                self.cache.export_entry(key)
                if self.cache is not None else None
            )
            return {"data": data}, True
        if op == "cache_put":
            if self.cache is not None:
                self.cache.import_entry(
                    namespaced_key(tenant, str(request["key"])),
                    request["data"],
                )
            return {"ok": True}, False
        return {"ok": False, "error": f"unknown op {op!r}"}, False


# -- client proxy -------------------------------------------------------------
class TcpTransport:
    """Worker-side :class:`~repro.flow.distributed.Transport` over a
    broker connection (and the connection a service client rides).

    Every protocol method is one request/reply round trip on a single
    persistent socket, serialized by a lock so the worker's heartbeat
    thread and its job loop share the connection safely.  ``connect()``
    retries a refused connection ``connect_retries`` times
    (``retry_delay`` apart) before failing with
    :class:`~repro.flow.distributed.BrokerUnreachableError` — a worker
    started moments before its broker still attaches, and one pointed at
    a dead address fails cleanly instead of spinning forever.  A wrong
    token raises :class:`BrokerAuthError` immediately (no retry: the
    secret will not become right by waiting).
    """

    def __init__(
        self,
        address,
        token: Optional[str],
        *,
        role: str = "client",
        worker_id: Optional[str] = None,
        connect_retries: int = 20,
        retry_delay: float = 0.25,
        call_timeout: float = 120.0,
    ) -> None:
        self.address = (
            parse_hostport(address) if isinstance(address, str)
            else (str(address[0]), int(address[1]))
        )
        self.token = resolve_token(token)
        self.role = role
        self.worker_id = worker_id
        self.connect_retries = connect_retries
        self.retry_delay = retry_delay
        self.call_timeout = call_timeout
        self._sock: Optional[socket.socket] = None
        self._was_connected = False
        #: the broker's cache directory, as :func:`dir_identity` sees it
        self.broker_cache: Optional[List[object]] = None
        self._lock = threading.Lock()

    # -- connection lifecycle ------------------------------------------------
    def connect(self) -> "TcpTransport":
        with self._lock:
            self._ensure_connected()
        return self

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        if self._was_connected:
            # a lost connection stays lost: whichever thread noticed the
            # drop first (the heartbeat pulse, likely) already cleared
            # the socket, and every later caller must see the same
            # "broker gone" outcome — not a connect-retry stall ending
            # in BrokerUnreachableError.  Reconnecting would also need
            # re-registration; the sweep being over is the common case.
            raise TransportClosedError(
                f"broker connection to {self.address[0]}:{self.address[1]} "
                "was lost"
            )
        if not self.token:
            raise BrokerAuthError(
                "a broker connection needs the shared-secret token: pass "
                f"token=... (CLI --token) or set {TOKEN_ENV}"
            )
        host, port = self.address
        last_error: Optional[Exception] = None
        for attempt in range(max(1, self.connect_retries)):
            if attempt:
                time.sleep(self.retry_delay)
            try:
                sock = socket.create_connection((host, port), timeout=10.0)
            except OSError as exc:
                last_error = exc
                continue
            sock.settimeout(self.call_timeout)
            try:
                send_frame(sock, {
                    "op": "hello",
                    "token": self.token,
                    "role": self.role,
                    "worker": self.worker_id,
                    "version": PROTOCOL_VERSION,
                })
                reply = recv_frame(sock, allow_pickle=False)
            except TransportClosedError as exc:
                sock.close()
                last_error = exc
                continue
            if not (isinstance(reply, dict) and reply.get("ok")):
                sock.close()
                raise BrokerAuthError(
                    f"broker at {host}:{port} rejected this client: "
                    f"{(reply or {}).get('error', 'bad token')}"
                )
            if reply.get("version") != PROTOCOL_VERSION:
                sock.close()
                raise SystemGenerationError(
                    f"broker at {host}:{port} speaks protocol "
                    f"v{reply.get('version')}, this client "
                    f"v{PROTOCOL_VERSION}; upgrade the older side"
                )
            self._sock = sock
            self._was_connected = True
            self.broker_cache = reply.get("cache")
            return
        raise BrokerUnreachableError(
            f"cannot reach broker at {host}:{port} after "
            f"{max(1, self.connect_retries)} attempt(s): {last_error}"
        )

    def close(self) -> None:
        with self._lock:
            if self._sock is None:
                return
            try:
                send_frame(self._sock, {"op": "bye"})
                recv_frame(self._sock, allow_pickle=True)
            except TransportClosedError:
                pass
            finally:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def _call(
        self,
        request: Dict[str, object],
        *,
        pickled: bool = False,
        raw: bool = False,
    ):
        with self._lock:
            self._ensure_connected()
            assert self._sock is not None
            try:
                send_frame(self._sock, request, pickled=pickled)
                reply = recv_frame(self._sock, allow_pickle=True)
            except (TransportClosedError, OSError) as exc:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
                raise TransportClosedError(
                    f"broker connection lost during {request.get('op')!r}: "
                    f"{exc}"
                ) from None
        if (not raw and isinstance(reply, dict)
                and reply.get("ok") is False):
            # a refusal (unknown op, or a tenant token on the
            # primary-only surface) must surface as the broker's
            # message, not as a KeyError on the missing reply field;
            # service RPCs pass raw=True and interpret ok/busy flags
            # themselves
            raise SystemGenerationError(
                f"broker refused {request.get('op')!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply

    # -- Transport protocol --------------------------------------------------
    def claim_job(self) -> Optional[Dict[str, object]]:
        return self._call({"op": "claim"})["job"]

    def heartbeat_job(self, job_id: str) -> None:
        self._call({"op": "heartbeat", "job": job_id})

    def complete(self, job_id: str, payload: Dict[str, object]) -> None:
        self._call(
            {"op": "complete", "id": job_id, "payload": payload},
            pickled=True,
        )

    def heartbeat_worker(self, worker_id: str) -> None:
        self._call({"op": "heartbeat", "worker": worker_id})

    def unregister_worker(self, worker_id: str) -> None:
        try:
            self._call({"op": "unregister_worker", "worker": worker_id})
        except TransportClosedError:
            pass  # the dropped connection already unregistered us

    # -- broker cache access -------------------------------------------------
    def cache_fetch(self, key: str) -> Optional[bytes]:
        """The broker's serialized cache entry for ``key``, or None."""
        return self._call({"op": "cache_fetch", "key": key})["data"]

    def cache_put(self, key: str, data: bytes) -> None:
        """Ship a serialized cache entry into the broker's store."""
        self._call({"op": "cache_put", "key": key, "data": data},
                   pickled=True)


# -- worker-side cache tiering ------------------------------------------------
class RemoteStageCache:
    """Two-tier worker cache: a local store fronting the broker's cache.

    Lookups try the worker-local :class:`DiskStageCache` first (its
    memory layer, then its disk), then fall back to a ``cache_fetch``
    RPC; a broker hit is imported into the local store and reported with
    origin ``"remote"``, so the trace distinguishes all three tiers.
    Writes land locally *and* ship to the broker, which is how a fleet
    with no shared filesystem still warms one authoritative cache.
    Entries the local store cannot pickle never reach the wire (they
    stay in the local memory layer, counted in ``put_errors``).

    Workers on different hosts get no cross-worker single-flight —
    two cold workers may both compute a shared stage.  The remote
    read-before-compute keeps the common case deduplicated, and the
    duplicate write is byte-identical and atomic, so correctness never
    depends on it.
    """

    def __init__(self, local: DiskStageCache, transport: TcpTransport) -> None:
        self.local = local
        self.transport = transport
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.remote_hits = 0

    @property
    def lock_dir(self):
        """Single-flight lock directory of the local tier (per-host
        dedup between workers sharing one ``--cache-dir``)."""
        return self.local.lock_dir

    @property
    def put_errors(self) -> int:
        return self.local.put_errors

    def _load(self, key: str, count: bool):
        hit = self.local.peek(key)
        if hit is not None:
            entry, origin = hit
            if count:
                with self._lock:
                    self.hits += 1
                    if origin == "memory":
                        self.memory_hits += 1
                    else:
                        self.disk_hits += 1
            return hit
        try:
            data = self.transport.cache_fetch(key)
        except TransportClosedError:
            data = None  # broker gone: degrade to a local miss
        entry = (
            self.local.import_entry(key, data) if data is not None else None
        )
        if entry is not None:
            if count:
                with self._lock:
                    self.hits += 1
                    self.remote_hits += 1
            return entry, "remote"
        if count:
            with self._lock:
                self.misses += 1
        return None

    def fetch(self, key: str):
        return self._load(key, count=True)

    def peek(self, key: str):
        return self._load(key, count=False)

    def put(self, key: str, outputs: Entry) -> None:
        self.local.put(key, outputs)
        data = self.local.export_entry(key)
        if data is None:
            return  # unpicklable: local-memory-only, never on the wire
        try:
            self.transport.cache_put(key, data)
        except TransportClosedError:
            pass  # broker gone: the local tier still has the entry

    def clear(self) -> None:
        self.local.clear()
        with self._lock:
            self.hits = self.misses = 0
            self.memory_hits = self.disk_hits = self.remote_hits = 0

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "remote_hits": self.remote_hits,
                "misses": self.misses,
                "put_errors": self.local.put_errors,
            }

    def stats(self) -> Dict[str, int]:
        out = self.counters()
        out["entries"] = len(self.local)
        return out

    def __len__(self) -> int:
        return len(self.local)

    def __contains__(self, key: str) -> bool:
        return key in self.local


# -- worker entry point -------------------------------------------------------
def run_tcp_worker(
    address,
    token: Optional[str],
    cache_dir=None,
    *,
    poll_seconds: float = 0.05,
    heartbeat_seconds: float = 1.0,
    idle_timeout: Optional[float] = None,
    max_jobs: Optional[int] = None,
    worker_id: Optional[str] = None,
    connect_retries: int = 20,
    retry_delay: float = 0.25,
) -> int:
    """The body of ``cfdlang-flow worker --connect HOST:PORT``.

    Connects (with bounded retries), layers a worker-local cache over
    the broker's via :class:`RemoteStageCache`, and hands off to the
    transport-agnostic :func:`~repro.flow.distributed.run_worker` loop.
    With no ``cache_dir`` the local tier is a temporary directory,
    removed on exit — the broker's store is the durable one.
    """
    import shutil

    worker = worker_id or default_worker_id()
    transport = TcpTransport(
        address,
        token,
        role="worker",
        worker_id=worker,
        connect_retries=connect_retries,
        retry_delay=retry_delay,
    ).connect()
    tmp_dir = None
    if cache_dir is None:
        tmp_dir = tempfile.mkdtemp(prefix="cfdlang-flow-worker-cache-")
        cache_dir = tmp_dir
    try:
        local = DiskStageCache(cache_dir)
        # a tier that *is* the broker's cache directory (a sweep's spawned
        # workers get the caller's) is read and written directly: the
        # wire would only echo entries both sides already see on disk
        cache = (
            local if transport.broker_cache == dir_identity(local.cache_dir)
            else RemoteStageCache(local, transport)
        )
        return run_worker(
            transport,
            cache,
            poll_seconds=poll_seconds,
            heartbeat_seconds=heartbeat_seconds,
            idle_timeout=idle_timeout,
            max_jobs=max_jobs,
            worker_id=worker,
        )
    finally:
        # close() can itself raise on a broker that vanished mid-goodbye
        # (TransportClosedError, or a garbage frame from a dying socket);
        # the temporary tier must be removed on *every* exit path, not
        # just SIGTERM, so the rmtree gets its own finally
        try:
            transport.close()
        except Exception:  # noqa: BLE001 — a failed goodbye is still goodbye
            pass
        finally:
            if tmp_dir is not None:
                shutil.rmtree(tmp_dir, ignore_errors=True)
