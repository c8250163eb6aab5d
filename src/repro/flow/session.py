"""Flow sessions: staged execution with caching, tracing, and batch DSE.

:class:`Flow` drives the stage registry of :mod:`repro.flow.stages` over
one (source, options) pair.  It supports partial runs (``run_until``),
inspection and override of intermediate artifacts, and ``resume``.  A
cache backend (:mod:`repro.flow.store`) shared between sessions lets
design-space sweeps that vary only late parameters (sharing mode, clock,
k/m/board) reuse the whole front end; :class:`FlowTrace` records what
actually ran, for how long, and where cache hits came from.

    cache, trace = StageCache(), FlowTrace()
    for mode in SharingMode:
        res = Flow(src, FlowOptions(sharing=mode), cache=cache, trace=trace).run()
    trace.executed_counts()["parse"]   # -> 1: front end ran once for 3 points

``compile_many`` wraps this pattern for whole DSE grids: pass ``jobs=N``
and an ``executor`` (:mod:`repro.flow.executors`) to run points on a
thread pool or worker processes (single-flight keying keeps concurrent
points from duplicating stage work, in-process or via lock files) and a
:class:`~repro.flow.store.DiskStageCache` to reuse artifacts across
processes.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import SystemGenerationError
from repro.flow.options import FlowOptions
from repro.flow.stages import (
    CONTENT_KEYED_OUTPUTS,
    FINAL_STAGE,
    STAGE_API_VERSION,
    Stage,
    get_stage,
    kernel_fingerprint,
    producer_of,
    registered_stages,
    stage_names,
)
from repro.flow.store import CacheBackend, SingleFlight, StageCache, content_key


class StageEvent(NamedTuple):
    """One stage execution (or cache hit) observed by a trace.

    ``origin`` says where a hit came from: ``"memory"``, ``"disk"``, or
    ``"remote"`` — a TCP worker served by its broker's cache over the
    wire (empty for stages that actually ran).  Events merged back from
    an out-of-process (broker) worker carry the worker's identity
    after an ``@`` (``"disk@host-pid1234"``); :func:`origin_kind` strips the
    tag.
    """

    stage: str
    seconds: float
    cached: bool
    origin: str = ""


def origin_kind(origin: str) -> str:
    """The cache tier of an event origin — ``"memory"``, ``"disk"``,
    ``"remote"``, or ``""`` (executed) — with any ``@worker`` tag from a
    parallel backend stripped."""
    return origin.split("@", 1)[0]


class FlowTrace:
    """Per-stage timing/observation record, shared across flow sessions.

    ``observers`` are called as ``observer(event)`` after every stage; use
    them for live progress reporting during long sweeps.
    """

    def __init__(self, observers: Sequence = ()) -> None:
        self.events: List[StageEvent] = []
        self.observers = list(observers)
        self.metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def record_metric(self, name: str, value: object) -> None:
        """Attach a named scalar observation (e.g. functional throughput)."""
        with self._lock:
            self.metrics[name] = value

    def record(
        self, stage: str, seconds: float, cached: bool, origin: str = ""
    ) -> None:
        event = StageEvent(stage, seconds, cached, origin)
        with self._lock:
            self.events.append(event)
            observers = list(self.observers)
        # outside the lock: a slow observer must not serialize the worker
        # threads, and one that re-enters record() must not deadlock
        for obs in observers:
            obs(event)

    # -- aggregation ---------------------------------------------------------
    def executed_counts(self) -> Dict[str, int]:
        """How many times each stage actually ran (cache hits excluded)."""
        out: Dict[str, int] = {}
        for e in self.events:
            if not e.cached:
                out[e.stage] = out.get(e.stage, 0) + 1
        return out

    def cached_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            if e.cached:
                out[e.stage] = out.get(e.stage, 0) + 1
        return out

    def cached_counts_by_origin(self, origin: str) -> Dict[str, int]:
        """Cache hits per stage that came from ``origin`` (memory/disk);
        worker tags (``"disk@pid1234"``) are ignored for the match."""
        out: Dict[str, int] = {}
        for e in self.events:
            if e.cached and origin_kind(e.origin) == origin:
                out[e.stage] = out.get(e.stage, 0) + 1
        return out

    def hit_rate(self) -> float:
        """Fraction of stage lookups served from the cache (0.0 if none)."""
        if not self.events:
            return 0.0
        return sum(1 for e in self.events if e.cached) / len(self.events)

    def seconds_by_stage(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for e in self.events:
            if not e.cached:
                out[e.stage] = out.get(e.stage, 0.0) + e.seconds
        return out

    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.events if not e.cached)

    def summary(self) -> str:
        from repro.utils import ascii_table

        executed = self.executed_counts()
        mem = self.cached_counts_by_origin("memory")
        disk = self.cached_counts_by_origin("disk")
        remote = self.cached_counts_by_origin("remote")
        seconds = self.seconds_by_stage()
        rows = []
        for name in stage_names():
            if (name not in executed and name not in mem
                    and name not in disk and name not in remote):
                continue
            rows.append(
                (
                    name,
                    executed.get(name, 0),
                    mem.get(name, 0),
                    disk.get(name, 0),
                    remote.get(name, 0),
                    f"{seconds.get(name, 0.0) * 1e3:.2f}",
                )
            )
        rows.append(("total", sum(executed.values()), sum(mem.values()),
                     sum(disk.values()), sum(remote.values()),
                     f"{self.total_seconds() * 1e3:.2f}"))
        table = ascii_table(
            ["stage", "runs", "mem hits", "disk hits", "remote hits",
             "time (ms)"],
            rows,
            title="Flow trace",
        )
        n_hits = sum(mem.values()) + sum(disk.values()) + sum(remote.values())
        out = table + (
            f"\ncache hit rate: {self.hit_rate() * 100:.1f}% "
            f"({n_hits}/{len(self.events)} stage lookups; "
            f"{sum(mem.values())} memory, {sum(disk.values())} disk, "
            f"{sum(remote.values())} remote)"
        )
        if self.metrics:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.metrics.items()))
            out += f"\nmetrics: {pairs}"
        return out


_override_counter = 0

#: the flow's key digest is the store's (content-addressed backends and
#: sessions must agree on the scheme)
_digest = content_key

#: per cache: (stage, option slice, input keys) -> (stage key, output
#: keys), so a sweep derives each key once; a memo lives exactly as long
#: as the cache its sessions share
_KEY_MEMOS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _key_memo(cache: CacheBackend) -> dict:
    try:
        return _KEY_MEMOS.setdefault(cache, {})
    except TypeError:  # a backend without weak references: no sharing
        return {}


class Flow:
    """One staged compilation session over a (source, options) pair.

    ``run()`` executes everything and returns a
    :class:`~repro.flow.pipeline.FlowResult`; ``run_until(name)`` stops
    after the named stage, leaving intermediate artifacts in :attr:`state`
    for inspection.  ``override(key=value)`` replaces an artifact and
    invalidates everything downstream; ``resume()`` finishes the run.
    ``fingerprint`` is the source's canonical text when the caller holds
    it already (a :class:`~repro.flow.program.ProgramKernel`'s ``text``).
    """

    def __init__(
        self,
        source,
        options: Optional[FlowOptions] = None,
        *,
        cache: Optional[CacheBackend] = None,
        trace: Optional[FlowTrace] = None,
        flight: Optional[SingleFlight] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.source = source
        self.options = options or FlowOptions()
        self.cache = cache if cache is not None else StageCache()
        self._memo = _key_memo(self.cache)
        self.trace = trace
        #: single-flight coordinator shared with concurrent sessions (set
        #: by a parallel ``compile_many``); None = no coordination needed
        self.flight = flight
        self.state: Dict[str, object] = {"source": source}
        # kernel_fingerprint canonicalizes the source (parse + reprint),
        # so textual variants of one kernel — and a built AST next to its
        # text form — share every stage key from 'parse' on
        fp = kernel_fingerprint(source) if fingerprint is None else fingerprint
        self._keys: Dict[str, str] = {
            "source": _digest("source", str(STAGE_API_VERSION), fp)
        }
        self._completed: List[str] = []
        #: state keys holding user-overridden (or override-derived) values;
        #: stages reading them bypass the shared cache entirely
        self._tainted: set = set()

    @classmethod
    def from_function(
        cls,
        fn,
        options: Optional[FlowOptions] = None,
        *,
        cache: Optional[CacheBackend] = None,
        trace: Optional[FlowTrace] = None,
        flight: Optional[SingleFlight] = None,
        fingerprint: Optional[str] = None,
    ) -> "Flow":
        """A session seeded at the ``lower`` boundary with a built
        TeIL :class:`~repro.teil.program.Function`.

        The front-end stages (parse/analyze/lower) are marked complete
        and the function's cache identity is its content ``fingerprint``
        (the function's own by default; pass one explicitly for derived
        artifacts such as a :class:`~repro.teil.fuse.FusedKernel`, whose
        fingerprint composes its members').  The key uses the same
        ``("content", "function", ...)`` scheme the ``lower`` stage
        re-keys its output with, so a seeded session shares every
        downstream stage entry with sessions that lowered to the same
        function from source.
        """
        flow = cls.__new__(cls)
        flow.source = None
        flow.options = options or FlowOptions()
        flow.cache = cache if cache is not None else StageCache()
        flow._memo = _key_memo(flow.cache)
        flow.trace = trace
        flow.flight = flight
        fp = fn.fingerprint() if fingerprint is None else fingerprint
        flow.state = {"source": None, "ast": None, "program": None, "function": fn}
        flow._keys = {
            "source": _digest("function-seed", str(STAGE_API_VERSION), fp),
            "ast": _digest("function-seed", "ast", str(STAGE_API_VERSION), fp),
            "program": _digest(
                "function-seed", "program", str(STAGE_API_VERSION), fp
            ),
            "function": _digest(
                "content", "function", str(STAGE_API_VERSION), fp
            ),
        }
        flow._completed = ["parse", "analyze", "lower"]
        flow._tainted = set()
        return flow

    # -- state access --------------------------------------------------------
    def __getitem__(self, key: str):
        try:
            return self.state[key]
        except KeyError:
            raise SystemGenerationError(
                f"state key {key!r} not available; run the "
                f"{producer_of(key)!r} stage first (completed: "
                f"{', '.join(self._completed) or 'none'})"
            ) from None

    def __contains__(self, key: str) -> bool:
        return key in self.state

    def key(self, name: str) -> str:
        """The cache identity of state entry ``name``; for the lowered
        ``function``, a digest of its content fingerprint."""
        return self._keys[name]

    def completed_stages(self) -> List[str]:
        return list(self._completed)

    def override(self, **entries) -> "Flow":
        """Replace intermediate artifacts; downstream stages recompute.

        Overridden entries get a unique cache identity, so later stages
        neither read from nor pollute the shared cache for them.
        """
        global _override_counter
        names = stage_names()
        # apply in pipeline order: an upstream override's invalidation must
        # not clobber a downstream override installed in the same call
        ordered = sorted(
            ((producer_of(key), key, value) for key, value in entries.items()),
            key=lambda t: -1 if t[0] == "source" else names.index(t[0]),
        )
        for producer, key, value in ordered:
            self.state[key] = value
            if producer == "source":
                # replacing the input: content-keyed like the constructor,
                # so the whole pipeline recomputes (or re-hits the cache)
                self.source = value
                self._keys[key] = _digest("source", str(STAGE_API_VERSION),
                                          kernel_fingerprint(value))
                stale_from = 0
            else:
                _override_counter += 1
                self._keys[key] = _digest("override", key, str(_override_counter))
                self._tainted.add(key)
                stale_from = names.index(producer) + 1
            # drop every stage strictly after the producer (a coarse but
            # safe linear invalidation: stage order is topological; stages
            # whose inputs are in fact unchanged come back as cache hits)
            for stale in names[stale_from:]:
                if stale in self._completed:
                    self._completed.remove(stale)
                    for out in get_stage(stale).outputs:
                        self.state.pop(out, None)
                        self._keys.pop(out, None)
                        self._tainted.discard(out)
            if producer == "source":
                continue
            # the producer's stage is satisfied by the override (plus any
            # of its other already-computed outputs)
            prod_stage = get_stage(producer)
            if (producer not in self._completed
                    and all(o in self.state for o in prod_stage.outputs)):
                self._completed.append(producer)
        return self

    # -- execution -----------------------------------------------------------
    def _compute_or_fetch(self, stage: Stage, key: str):
        """Run the stage or serve it from the shared cache.

        With a :class:`SingleFlight` coordinator, concurrent sessions
        hitting the same key elect one leader to run the stage; followers
        wait and then re-read the cache.  If the leader raised, a woken
        follower finds the cache still cold and takes over as leader, so
        errors propagate on every session that needed the stage.
        """
        while True:
            # the initial lookup and every post-wait re-read are real
            # (counted) cache accesses; only the leader's race-closing
            # re-check below (a stat-free peek) stays out of the stats
            hit = self.cache.fetch(key)
            if hit is not None:
                return hit
            if self.flight is None or self.flight.begin(key):
                try:
                    if self.flight is not None:
                        # we may have become leader just after the previous
                        # one published its result; holding leadership, one
                        # re-check closes that race for good
                        hit = self.cache.peek(key)
                        if hit is not None:
                            return hit
                    outputs = stage.run(self.state, self.options)
                    self.cache.put(key, outputs)
                    return outputs, ""
                finally:
                    if self.flight is not None:
                        self.flight.finish(key)
            self.flight.wait(key)

    def _execute(self, stage: Stage) -> None:
        try:
            inputs = tuple([self._keys[inp] for inp in stage.inputs])
        except KeyError:
            missing = [i for i in stage.inputs if i not in self._keys]
            raise SystemGenerationError(
                f"stage {stage.name!r} needs {missing} but no earlier stage "
                "produced them"
            ) from None
        tainted = not self._tainted.isdisjoint(stage.inputs)
        params = stage.params(self.options)
        # the slice's values, not its repr, identify it here: slices that
        # compare equal (clock 200 and 200.0) share the first one's key
        ident = (stage.name, params, inputs)
        # one-off (override-derived) keys never recur: keep them out
        keys = None if tainted else self._memo.get(ident)
        if keys is None:
            key = _digest(stage.name, str(STAGE_API_VERSION), *inputs,
                          repr(params))
        else:
            key = keys[0]
        t0 = time.perf_counter()
        origin = ""
        if tainted:
            # downstream of an override: one-off values, keep them (and
            # their derivatives) out of the shared cache
            outputs = stage.run(self.state, self.options)
        else:
            outputs, origin = self._compute_or_fetch(stage, key)
        cached = origin != ""
        if cached and outputs.get("functional") is not None:
            # the batch ran when the entry was computed, not now
            outputs = dict(outputs, functional=replace(
                outputs["functional"], replayed=True
            ))
        seconds = time.perf_counter() - t0
        self.state.update(outputs)
        if keys is None:
            keys = key, tuple(
                self._output_key(key, out, tainted) for out in stage.outputs
            )
            if not tainted:
                self._memo[ident] = keys
        self._keys.update(zip(stage.outputs, keys[1]))
        if tainted:
            self._tainted.update(stage.outputs)
        self._completed.append(stage.name)
        if self.trace is not None:
            self.trace.record(stage.name, seconds, cached, origin)

    def _output_key(self, key: str, out: str, tainted: bool) -> str:
        fingerprint = CONTENT_KEYED_OUTPUTS.get(out)
        if fingerprint is None or tainted:
            return _digest(key, out)
        # per-kernel granularity: key downstream work off the artifact's
        # own content (the TeIL subtree), not the chain that produced it,
        # so kernels lowering identically share every later stage
        # regardless of source history
        return _digest("content", out, str(STAGE_API_VERSION),
                       fingerprint(self.state[out]))

    def run_until(self, stage_name: str) -> "Flow":
        """Execute stages in pipeline order through ``stage_name``."""
        get_stage(stage_name)  # validate early
        for stage in registered_stages():
            if stage.name not in self._completed:
                self._execute(stage)
            if stage.name == stage_name:
                break
        return self

    def resume(self) -> "FlowResult":
        """Finish the pipeline from wherever it stopped and build the result."""
        return self.run()

    def run(self) -> "FlowResult":
        """Execute the full pipeline and assemble a :class:`FlowResult`."""
        from repro.flow.pipeline import FlowResult

        self.run_until(FINAL_STAGE)
        functional = self.state.get("functional")
        if functional is not None and self.trace is not None:
            self.trace.record_metric("exec-backend", functional.backend)
            self.trace.record_metric("functional-max-error", functional.max_error)
            if not functional.replayed:
                self.trace.record_metric(
                    "elements/sec", round(functional.elements_per_sec, 1)
                )
        return FlowResult(
            options=self.options,
            program=self.state["program"],
            function=self.state["function"],
            poly=self.state["poly"],
            kernel=self.state["kernel"],
            compat=self.state["compat"],
            mnemosyne_config=self.state["mnemosyne_config"],
            memory=self.state["memory"],
            hls=self.state["hls"],
            port_classes=self.state["port_classes"],
            footprint=self.state["footprint"],
            system=self.state["system"],
            sim=self.state["sim"],
            functional=functional,
            banking=self.state.get("banking"),
        )


FlowJob = Union[object, Tuple[object, Optional[FlowOptions]]]


def _parse_job(job: FlowJob, index: int) -> Tuple[object, Optional[FlowOptions]]:
    """Split a job into (source, options), rejecting malformed tuples.

    A tuple is only ever a (source, options) pair — sources themselves
    are DSL text or Program ASTs — so anything else in tuple position is
    a caller bug worth a loud, early error rather than a parse failure
    deep inside the flow.
    """
    if isinstance(job, tuple):
        if len(job) != 2:
            raise TypeError(
                f"compile_many job {index} must be a CFDlang source or a "
                f"(source, FlowOptions) pair; got a {len(job)}-tuple"
            )
        if not (job[1] is None or isinstance(job[1], FlowOptions)):
            raise TypeError(
                f"compile_many job {index} must be a CFDlang source or a "
                f"(source, FlowOptions) pair; got a 2-tuple whose second "
                f"element is {type(job[1]).__name__}"
            )
        return job[0], job[1]
    return job, None


def compile_many(
    points: Iterable[FlowJob],
    *,
    jobs: int = 1,
    cache: Optional[CacheBackend] = None,
    trace: Optional[FlowTrace] = None,
    return_exceptions: bool = False,
    executor: Union[str, "Executor", None] = None,
) -> List["FlowResult"]:
    """Compile a batch of design points against one shared stage cache.

    Each point is a CFDlang source (text or AST), a multi-kernel
    :class:`~repro.flow.program.Program` (or its text serialization), or
    a ``(source, options)`` pair.  Results come back in point order —
    :class:`~repro.flow.pipeline.FlowResult` per single-kernel point,
    :class:`~repro.flow.program.ProgramResult` per program point.  All points share
    ``cache`` (a fresh in-memory one by default; pass a
    :class:`DiskStageCache` to reuse work across processes), so grids
    that vary only late parameters run the front end once per distinct
    program.

    ``executor`` picks the backend (:mod:`repro.flow.executors`):
    ``"thread"`` (the default) runs ``jobs > 1`` points on a thread pool
    against the lock-protected shared cache with single-flight keying;
    ``"process"`` and ``"distributed"`` (one backend,
    :mod:`repro.flow.distributed`) submit the batch as one job to a
    compile-service broker — one it starts for the sweep, whose workers
    share a :class:`DiskStageCache` (a temporary one if ``cache`` is
    None) with lock-file single flight, or a standing ``cfdlang-flow
    broker`` (``broker=``) — drained by worker processes it spawns plus
    any attached over TCP from other hosts; ``"serial"`` forces the
    in-order reference semantics.  Every backend computes
    each needed stage exactly once and produces results identical to the
    sequential run.

    ``ServiceExecutor(broker=..., token=...)`` (:mod:`repro.flow.
    service`) is the same client against a standing broker, run by that
    broker's own workers; with ``detach=True`` this function returns the
    :class:`~repro.flow.service.SweepJob` handle immediately instead of
    a result list, and the job can be fetched later from any
    connection.

    Errors are captured per point: with ``return_exceptions=True`` every
    point runs to completion and a failing point's slot holds its
    exception.  Otherwise the backend stops scheduling new points after
    the first failure (points already running still finish; points never
    started are abandoned) and the first failure in point order is
    raised.

    When the cache carries a gc policy (``DiskStageCache(max_bytes=...,
    max_age_seconds=...)``), it is enforced once the batch completes, so
    long-running sweep servers stay within their disk budget.
    """
    from repro.flow.executors import ExecutorContext, resolve_executor

    parsed = [_parse_job(job, i) for i, job in enumerate(points)]
    backend = resolve_executor(executor)
    cache = backend.prepare_cache(cache)
    try:
        outcomes = backend.run(
            ExecutorContext(
                jobs=parsed,
                workers=max(1, jobs),
                cache=cache,
                trace=trace,
                fail_fast=not return_exceptions,
            )
        )
        if not isinstance(outcomes, list):
            # a detached handle (ServiceExecutor(detach=True) returns the
            # SweepJob instead of outcomes): hand it straight back — there
            # is nothing local to gc or raise, the broker owns the job now
            return outcomes
        apply_gc_policy = getattr(cache, "apply_gc_policy", None)
        if apply_gc_policy is not None:
            apply_gc_policy()  # the automatic sweep-completion gc hook
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
        return outcomes  # type: ignore[return-value]
    finally:
        backend.cleanup()
