"""Pluggable artifact stores for the staged flow.

The :class:`~repro.flow.session.Flow` session treats its cache as an
opaque :class:`CacheBackend`: a content-keyed map from stage keys (sha256
hex digests chaining the whole upstream computation) to the stage's
output dict.  Two implementations ship here:

* :class:`StageCache` — the in-memory store, shared between sessions of
  one process.  This is what ``compile_many`` uses by default.
* :class:`DiskStageCache` — a content-addressed pickle store under a
  cache directory, so design-space sweeps reuse front-end work *across
  processes*.  Writes are atomic (tempfile + ``os.replace``), corrupted
  or unreadable entries are treated as misses, and ``gc(max_bytes)``
  evicts least-recently-used entries.

Both are safe to share between the worker threads of a parallel
``compile_many``; :class:`SingleFlight` provides the per-key
"first caller computes, everyone else waits" coordination that keeps
concurrent design points from duplicating stage work, and
:class:`FileSingleFlight` extends the same protocol across *processes*
(lock files next to the disk cache) for a sweep's worker processes.
:class:`DiskStageCache` also carries the cache lifecycle machinery
behind ``cfdlang-flow cache``: ``gc`` by size and age, ``verify`` for
corrupt-entry detection, and ``apply_gc_policy`` as the automatic
sweep-completion hook.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import tempfile
import threading
import time
from typing import Dict, List, Mapping, Optional, Protocol, Tuple, runtime_checkable

#: outputs of one stage, as stored/returned by a backend
Entry = Dict[str, object]


def content_key(*parts: str) -> str:
    """The cache key scheme: a sha256 over NUL-separated string parts.

    Every key in a stage cache is built this way — stage keys chain
    their input keys and the stage's option slice; kernel-level keys
    hash the kernel's canonical source or TeIL fingerprint.  Keeping the
    digest here, next to the stores, pins the one invariant all
    backends rely on: identical parts produce identical keys on every
    host, process, and Python version.  ``tests/data/stage_keys.json``
    pins the digests.
    """
    return hashlib.sha256(("\0".join(parts) + "\0").encode()).hexdigest()

#: how long an untouched lock file may sit before it counts as abandoned
#: by a dead process — shared by :class:`FileSingleFlight` and the cache
#: lifecycle commands; also the distributed executor's default grace for
#: a sweep with no live worker
DEFAULT_LOCK_STALE_SECONDS = 60.0


def file_age_seconds(path) -> Optional[float]:
    """Seconds since ``path`` was last touched, or None if it is gone.

    The staleness primitive behind single-flight lock theft and stale
    lock cleanup: both compare this against a stale threshold.
    """
    try:
        return max(0.0, time.time() - os.stat(path).st_mtime)
    except OSError:
        return None


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` with no torn-read window.

    The shared durability primitive of the disk cache and the job
    service directory: a tempfile in the target directory plus ``os.replace``,
    so concurrent readers on any host of a shared filesystem see either
    the old content or the new, never a partial write.
    """
    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: a cache hit: the entry plus where it came from ("memory" or "disk")
Hit = Tuple[Entry, str]


@runtime_checkable
class CacheBackend(Protocol):
    """What a flow session requires of its artifact store.

    ``fetch`` returns ``(entry, origin)`` on a hit — ``origin`` is
    ``"memory"`` or ``"disk"`` and feeds the trace's hit breakdown —
    or ``None`` on a miss.  Implementations must be thread-safe: a
    parallel ``compile_many`` calls them from worker threads.
    """

    hits: int
    misses: int

    def fetch(self, key: str) -> Optional[Hit]: ...

    def peek(self, key: str) -> Optional[Hit]: ...

    def put(self, key: str, outputs: Entry) -> None: ...

    def clear(self) -> None: ...

    def stats(self) -> Dict[str, int]: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: str) -> bool: ...


class StageCache:
    """In-memory content-keyed store of stage outputs.

    Keys chain structurally: a stage's key hashes its producers' keys and
    its own option fingerprint, so equality of keys implies equality of
    the whole upstream computation.  Cached artifacts are returned by
    reference — treat them as immutable.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Entry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def fetch(self, key: str) -> Optional[Hit]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry, "memory"

    def peek(self, key: str) -> Optional[Hit]:
        """Like :meth:`fetch` but without touching the hit/miss stats —
        for race-closing re-checks that are not real lookups."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else (entry, "memory")

    def put(self, key: str, outputs: Entry) -> None:
        with self._lock:
            self._entries[key] = outputs

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "memory_hits": self.hits,
                "disk_hits": 0,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class DiskStageCache:
    """Content-addressed pickle store: stage outputs persisted to disk.

    An in-memory layer fronts the directory, so within one process a
    re-fetch is a ``"memory"`` hit and only the first fetch of an entry
    written by *another* process reads a pickle (a ``"disk"`` hit).

    Entries live at ``<cache_dir>/<key[:2]>/<key>.pkl``; the two-level
    fan-out keeps directories small on big sweeps.  Writes go through a
    tempfile in the same directory plus ``os.replace``, so concurrent
    writers (threads or processes) can never expose a torn entry.
    Anything that fails to unpickle — truncated file, corrupted bytes,
    an artifact class that moved — is treated as a miss and the stale
    file is dropped.  Artifacts that cannot be pickled are kept only in
    the memory layer and counted in ``put_errors``.

    ``max_bytes`` (or an explicit :meth:`gc` call) bounds the on-disk
    footprint by evicting least-recently-used entries; reads touch the
    file mtime so hot entries survive.  ``max_age_seconds`` additionally
    expires entries that have not been touched for that long.  Together
    they form the cache's *gc policy*: ``apply_gc_policy()`` (called by
    ``compile_many`` when a sweep completes) enforces both bounds, so a
    long-running sweep server never needs manual cache maintenance.
    """

    _SUFFIX = ".pkl"

    def __init__(
        self,
        cache_dir,
        *,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_age_seconds = max_age_seconds
        self._mem: Dict[str, Entry] = {}
        self._lock = threading.Lock()
        #: running upper bound on the disk footprint: bumped per write,
        #: resynced by gc — so puts don't re-scan the directory each time
        self._disk_bytes_estimate = self.disk_bytes() if max_bytes else 0
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        #: always 0 locally — a disk cache has no remote tier — but
        #: present so deltas merged from TCP workers (whose
        #: RemoteStageCache fetches entries over the wire) fold in
        self.remote_hits = 0
        self.put_errors = 0

    # -- paths ---------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.cache_dir / key[:2] / (key + self._SUFFIX)

    def _entry_files(self):
        return self.cache_dir.glob("??/*" + self._SUFFIX)

    @property
    def lock_dir(self) -> pathlib.Path:
        """Where cross-process coordination lock files live (see
        :class:`FileSingleFlight`); outside the ``??/`` entry fan-out so
        gc/clear/verify never mistake a lock for an entry."""
        return self.cache_dir / ".locks"

    # -- backend protocol ----------------------------------------------------
    def _load(self, key: str, count: bool) -> Optional[Hit]:
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                if count:
                    self.hits += 1
                    self.memory_hits += 1
                return entry, "memory"
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                entry = pickle.load(f)
            if not isinstance(entry, dict):
                raise pickle.UnpicklingError("cache entry is not a dict")
        except FileNotFoundError:
            with self._lock:
                if count:
                    self.misses += 1
            return None
        except Exception:
            # corrupted / stale / unreadable: a miss, and drop the file so
            # the recomputed entry replaces it
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                if count:
                    self.misses += 1
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        with self._lock:
            self._mem[key] = entry
            if count:
                self.hits += 1
                self.disk_hits += 1
        return entry, "disk"

    def fetch(self, key: str) -> Optional[Hit]:
        return self._load(key, count=True)

    def peek(self, key: str) -> Optional[Hit]:
        """Like :meth:`fetch` but without touching the hit/miss stats —
        for race-closing re-checks that are not real lookups."""
        return self._load(key, count=False)

    def put(self, key: str, outputs: Entry) -> None:
        with self._lock:
            self._mem[key] = outputs
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        try:
            old_size = 0
            try:
                old_size = os.path.getsize(path)  # overwriting an entry
            except OSError:
                pass
            data = pickle.dumps(outputs, protocol=pickle.HIGHEST_PROTOCOL)
            atomic_write_bytes(path, data)
            written = len(data) - old_size  # only after the file landed
        except Exception:
            with self._lock:
                self.put_errors += 1
        self._account_disk_write(written)

    def _account_disk_write(self, written: int) -> None:
        """Bump the running footprint estimate and gc when over budget —
        shared by :meth:`put` and :meth:`import_entry`."""
        if self.max_bytes is None:
            return
        with self._lock:
            self._disk_bytes_estimate += written
            over_budget = self._disk_bytes_estimate > self.max_bytes
        if over_budget:
            self.gc(self.max_bytes)

    # -- serialized entry transfer -------------------------------------------
    #
    # How cache entries cross a *network* boundary: the TCP transport's
    # broker exports entries for workers that do not mount the cache
    # directory, and imports the entries those workers compute.  Neither
    # side touches the hit/miss counters — transfers are plumbing, not
    # flow lookups.
    def export_entry(self, key: str) -> Optional[bytes]:
        """The entry's serialized (pickle) form, or None if absent or
        unpicklable.  Disk entries ship as their file bytes (no
        re-pickling); memory-only entries are pickled on demand."""
        try:
            with open(self._path(key), "rb") as f:
                return f.read()
        except OSError:
            pass
        with self._lock:
            entry = self._mem.get(key)
        if entry is None:
            return None
        try:
            return pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None

    def import_entry(self, key: str, data: bytes) -> Optional[Entry]:
        """Install a serialized entry received from elsewhere; returns
        the decoded entry, or None (and stores nothing) if ``data`` does
        not decode to an entry dict — a corrupt import must read as a
        miss, never poison the store."""
        try:
            entry = pickle.loads(data)
            if not isinstance(entry, dict):
                raise pickle.UnpicklingError("cache entry is not a dict")
        except Exception:
            return None
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        try:
            old_size = 0
            try:
                old_size = os.path.getsize(path)  # overwriting an entry
            except OSError:
                pass
            atomic_write_bytes(path, data)
            written = len(data) - old_size
        except OSError:
            pass  # memory layer still serves it this process's lifetime
        with self._lock:
            self._mem[key] = entry
        # imported bytes count against the byte budget exactly like
        # put(): a broker fed entirely over the wire must still gc
        self._account_disk_write(written)
        return entry

    def clear(self) -> None:
        with self._lock:
            self._mem.clear()
            self.hits = self.misses = 0
            self.memory_hits = self.disk_hits = self.remote_hits = 0
            self.put_errors = 0
            self._disk_bytes_estimate = 0
        for path in list(self._entry_files()):
            try:
                path.unlink()
            except OSError:
                pass
        # a full reset also drops single-flight locks: an abandoned leader
        # lock would otherwise stall the next sweep's first touch of that
        # key for the whole stale window (a live leader losing its lock
        # merely risks duplicated work — the cache write stays atomic)
        self.sweep_stale_locks(stale_seconds=0.0)

    def counters(self) -> Dict[str, int]:
        """The hit/miss counters alone — no directory walk.

        :meth:`stats` scans the store to size it, which is too costly
        for the per-point before/after deltas the process workers take.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "remote_hits": self.remote_hits,
                "misses": self.misses,
                "put_errors": self.put_errors,
            }

    def stats(self) -> Dict[str, int]:
        out = self.counters()
        with self._lock:
            out["entries"] = len(self._mem)
        out["disk_entries"] = sum(1 for _ in self._entry_files())
        out["disk_bytes"] = self.disk_bytes()
        return out

    def disk_bytes(self) -> int:
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def gc(
        self,
        max_bytes: Optional[int] = None,
        *,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Evict disk entries by age, then LRU until <= ``max_bytes``.

        Entries not touched within ``max_age_seconds`` go first; the
        least-recently-used survivors follow until the footprint fits
        ``max_bytes``.  Called with no arguments, the bounds configured at
        construction apply (a no-op if none were).  Returns the number of
        entries removed.  Only the disk layer is trimmed; in-memory
        entries (this process's working set) survive.
        """
        if max_bytes is None and max_age_seconds is None:
            max_bytes = self.max_bytes
            max_age_seconds = self.max_age_seconds
        files = []
        for path in self._entry_files():
            try:
                st = path.stat()
            except OSError:
                continue
            files.append((st.st_mtime, st.st_size, path))
        files.sort()  # oldest first
        now = time.time()
        total = sum(size for _, size, _ in files)
        removed = 0
        for mtime, size, path in files:
            expired = (
                max_age_seconds is not None and now - mtime > max_age_seconds
            )
            over_budget = max_bytes is not None and total > max_bytes
            if not expired and not over_budget:
                break  # files are oldest-first: nothing later expires either
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        with self._lock:
            self._disk_bytes_estimate = total  # resync after the real scan
        self.sweep_stale_locks()
        return removed

    def _lock_files(self):
        return self.lock_dir.glob("*" + FileSingleFlight._SUFFIX)

    def sweep_stale_locks(
        self, stale_seconds: float = DEFAULT_LOCK_STALE_SECONDS
    ) -> int:
        """Remove single-flight lock files untouched for ``stale_seconds``.

        Crashed leaders leave their ``.lock`` files behind; until someone
        touches the same stage key (and eats the stale-wait), they are
        invisible garbage that ``clear``/``gc`` used to skip.  Returns the
        number of locks removed; fresh locks (a live leader mid-stage)
        are left alone unless ``stale_seconds`` is 0.
        """
        removed = 0
        if not self.lock_dir.is_dir():
            return 0
        for path in list(self._lock_files()):
            age = file_age_seconds(path)
            if age is None or age < stale_seconds:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def apply_gc_policy(self) -> int:
        """Enforce the configured ``max_bytes``/``max_age_seconds`` bounds.

        The sweep-completion hook: ``compile_many`` calls this after every
        batch, so a cache constructed with a policy stays bounded without
        explicit maintenance.  Returns entries removed (0 if no policy).
        """
        if self.max_bytes is None and self.max_age_seconds is None:
            return 0
        return self.gc()

    def verify(self, *, fix: bool = False) -> Dict[str, object]:
        """Scan every disk entry and report the ones that fail to load.

        Returns ``{"checked": n, "corrupt": [keys...], "removed": n,
        "stale_locks": [names...], "locks_removed": n}``.  With
        ``fix=True`` corrupt files are deleted (they would be treated as
        misses and overwritten on next access anyway; fixing merely
        reclaims the space eagerly) and stale single-flight locks are
        swept (they would otherwise stall the next touch of their key
        for the whole stale window).
        """
        checked = 0
        corrupt: List[str] = []
        removed = 0
        for path in sorted(self._entry_files()):
            checked += 1
            try:
                with open(path, "rb") as f:
                    entry = pickle.load(f)
                if not isinstance(entry, dict):
                    raise pickle.UnpicklingError("cache entry is not a dict")
            except Exception:
                corrupt.append(path.name[: -len(self._SUFFIX)])
                if fix:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        stale_locks: List[str] = []
        if self.lock_dir.is_dir():
            for path in sorted(self._lock_files()):
                age = file_age_seconds(path)
                if age is not None and age >= DEFAULT_LOCK_STALE_SECONDS:
                    stale_locks.append(path.name)
        locks_removed = self.sweep_stale_locks() if fix else 0
        return {
            "checked": checked,
            "corrupt": corrupt,
            "removed": removed,
            "stale_locks": stale_locks,
            "locks_removed": locks_removed,
        }

    def merge_stats(self, stats: Mapping[str, int]) -> None:
        """Fold another instance's counter deltas into this one.

        A sweep's worker processes run their own ``DiskStageCache``
        over the same directory; their hit/miss
        deltas come back here so the parent's :meth:`stats` (and the CLI
        cache line) describe the whole sweep.
        """
        with self._lock:
            self.hits += stats.get("hits", 0)
            self.memory_hits += stats.get("memory_hits", 0)
            self.disk_hits += stats.get("disk_hits", 0)
            self.remote_hits += stats.get("remote_hits", 0)
            self.misses += stats.get("misses", 0)
            self.put_errors += stats.get("put_errors", 0)

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        if key in self._mem:
            return True
        return self._path(key).exists()


def namespaced_key(namespace: str, key: str) -> str:
    """Map a stage key into a tenant's cache namespace.

    The empty namespace is the identity — the default tenant shares keys
    with every single-tenant deployment ever cached.  A non-empty
    namespace rehashes (namespace, key) into a fresh sha256 hex digest,
    so namespaced keys keep the exact shape of ordinary stage keys (the
    ``<key[:2]>/`` disk fan-out, lock-file names, export/import plumbing
    all work unchanged) while tenants can never collide with each other
    or with the default namespace: equality of mapped keys implies
    equality of both the namespace and the underlying computation.
    """
    if not namespace:
        return key
    digest = hashlib.sha256()
    digest.update(b"cfdlang-flow-namespace\x00")
    digest.update(namespace.encode())
    digest.update(b"\x00")
    digest.update(key.encode())
    return digest.hexdigest()


class NamespacedStageCache:
    """A per-tenant view over a shared cache backend.

    Every key-addressed operation (fetch/peek/get/put/contains and the
    serialized export/import transfer) passes its key through
    :func:`namespaced_key` before touching the backing store; counters,
    stats, gc policy and the single-flight lock directory are the
    *backend's* — tenants of one broker share its budget and its
    observability, they just cannot see each other's artifacts.

    Single-flight locks are keyed by the caller with *raw* stage keys,
    so two tenants computing the same program may briefly serialize on
    one lock; the follower re-checks its own namespace, misses, and
    becomes the next leader — duplicated work across tenants is the
    intended isolation, never a wrong result.
    """

    def __init__(self, backend, namespace: str) -> None:
        self.backend = backend
        self.namespace = str(namespace)

    def _key(self, key: str) -> str:
        return namespaced_key(self.namespace, key)

    # -- backend protocol ----------------------------------------------------
    @property
    def hits(self) -> int:
        return self.backend.hits

    @property
    def misses(self) -> int:
        return self.backend.misses

    def fetch(self, key: str) -> Optional[Hit]:
        return self.backend.fetch(self._key(key))

    def peek(self, key: str) -> Optional[Hit]:
        return self.backend.peek(self._key(key))

    def put(self, key: str, outputs: Entry) -> None:
        self.backend.put(self._key(key), outputs)

    def clear(self) -> None:
        # entries are not enumerable per namespace (mapping is one-way),
        # so clear is the backend's whole-store reset
        self.backend.clear()

    def stats(self) -> Dict[str, int]:
        return self.backend.stats()

    def counters(self) -> Dict[str, int]:
        return self.backend.counters()

    def merge_stats(self, stats: Mapping[str, int]) -> None:
        self.backend.merge_stats(stats)

    def apply_gc_policy(self) -> int:
        return self.backend.apply_gc_policy()

    @property
    def lock_dir(self):
        return self.backend.lock_dir

    @property
    def put_errors(self) -> int:
        return self.backend.put_errors

    # -- serialized entry transfer (counter-neutral, like the backend's) -----
    def export_entry(self, key: str) -> Optional[bytes]:
        return self.backend.export_entry(self._key(key))

    def import_entry(self, key: str, data: bytes) -> Optional[Entry]:
        return self.backend.import_entry(self._key(key), data)

    def __len__(self) -> int:
        return len(self.backend)

    def __contains__(self, key: str) -> bool:
        return self._key(key) in self.backend


class SingleFlight:
    """Per-key "leader computes, followers wait" coordination.

    ``begin(key)`` returns True for exactly one concurrent caller (the
    leader); others get False and should ``wait(key)`` then re-check the
    cache.  The leader must call ``finish(key)`` (in a finally block),
    which wakes every waiter whether the computation succeeded or raised
    — a follower that still misses the cache after waking simply takes
    over as the next leader.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}

    def begin(self, key: str) -> bool:
        with self._lock:
            if key in self._inflight:
                return False
            self._inflight[key] = threading.Event()
            return True

    def finish(self, key: str) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def wait(self, key: str, timeout: Optional[float] = None) -> None:
        with self._lock:
            event = self._inflight.get(key)
        if event is not None:
            event.wait(timeout)


class FileSingleFlight:
    """Cross-process single-flight coordination via lock files.

    The same protocol as :class:`SingleFlight` — ``begin`` elects one
    leader per key, followers ``wait`` then re-check the cache — but the
    election medium is a lock file under ``lock_dir`` created with
    ``O_CREAT | O_EXCL`` (atomic on POSIX and NT), so it works between
    the workers of an out-of-process ``compile_many`` sharing one
    :class:`DiskStageCache`.

    Crash safety: a leader that dies without ``finish`` leaves its lock
    behind.  Locks older than ``stale_seconds`` are treated as abandoned
    — ``wait`` returns (the caller re-checks the cache and runs ``begin``
    again) and ``begin`` steals the stale file.  A stage that legitimately
    runs longer than ``stale_seconds`` degrades to duplicated work, never
    to a wrong result: the cache write remains atomic.
    """

    _SUFFIX = ".lock"

    def __init__(
        self,
        lock_dir,
        *,
        stale_seconds: float = DEFAULT_LOCK_STALE_SECONDS,
        poll_seconds: float = 0.01,
    ) -> None:
        self.lock_dir = pathlib.Path(lock_dir)
        self.lock_dir.mkdir(parents=True, exist_ok=True)
        self.stale_seconds = stale_seconds
        self.poll_seconds = poll_seconds

    def _path(self, key: str) -> pathlib.Path:
        return self.lock_dir / (key + self._SUFFIX)

    def _is_stale(self, path: pathlib.Path) -> bool:
        age = file_age_seconds(path)
        # age None: released while we looked — not ours to steal
        return age is not None and age >= self.stale_seconds

    def begin(self, key: str) -> bool:
        path = self._path(key)
        for attempt in range(2):
            try:
                fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt or not self._is_stale(path):
                    return False
                try:  # abandoned by a crashed leader: steal and retry once
                    path.unlink()
                except OSError:
                    return False
                continue
            except OSError:
                # unwritable lock dir: fall back to "everyone leads" —
                # duplicated work, but progress and a correct cache
                return True
            with os.fdopen(fd, "w") as f:
                f.write(str(os.getpid()))
            return True
        return False

    def finish(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def wait(self, key: str, timeout: Optional[float] = None) -> None:
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        path = self._path(key)
        while path.exists():
            if self._is_stale(path):
                return  # leader died; caller re-checks and takes over
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(self.poll_seconds)
