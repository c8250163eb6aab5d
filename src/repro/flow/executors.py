"""Execution backends for ``compile_many``: serial, thread, process,
distributed, service.

A batch of design points is embarrassingly parallel *between* points but
shares work *across* them (the front end of a k x m sweep is identical
for every point), so the right backend depends on where the time goes:

* ``serial``  — one point after another on the calling thread.  The
  reference semantics; every other backend must produce bit-identical
  results.
* ``thread``  — PR 2's :class:`~concurrent.futures.ThreadPoolExecutor`
  over a shared in-process cache with :class:`SingleFlight` dedup.
  Ideal when most points hit the cache (I/O- or wait-bound sweeps); the
  GIL caps it at ~1 core of actual compilation.
* ``process`` / ``distributed`` — two names for one out-of-process
  backend, :class:`~repro.flow.distributed.DistributedExecutor`.  Job
  specs cross the process boundary as (source text, option spec dicts)
  — never live :class:`~repro.flow.session.Flow` objects — submitted as
  one job to a compile-service broker (:mod:`repro.flow.service`): one
  the sweep starts on loopback, whose spawned workers share the
  caller's :class:`~repro.flow.store.DiskStageCache` directory (lock
  files keep "compute each stage once" between address spaces), or a
  standing ``cfdlang-flow broker`` whose workers pull points over TCP
  (:mod:`repro.flow.nettransport`) and share nothing but a network.
  This is the backend that makes core count — and fleet size — not
  stage count, the limit on CPU-bound sweep throughput.
* ``service`` — the same client against a standing broker only, run by
  that broker's fleet; ``detach=True`` returns the durable job handle.

Backends implement the :class:`Executor` protocol and register under a
name; ``compile_many(..., executor="process")`` or the CLI's
``--executor`` selects one.  Worker traces and cache statistics merge
back into the parent's :class:`~repro.flow.session.FlowTrace` and cache
counters, so a sweep reads the same regardless of backend.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.errors import SystemGenerationError
from repro.flow.distributed import DistributedExecutor
from repro.flow.options import FlowOptions
from repro.flow.program import compile_any
from repro.flow.service import ServiceExecutor
from repro.flow.session import FlowTrace
from repro.flow.store import CacheBackend, SingleFlight, StageCache

#: one parsed design point: (source, options-or-None)
Job = Tuple[object, Optional[FlowOptions]]


@dataclass
class ExecutorContext:
    """Everything a backend needs to run one batch.

    ``outcomes`` slots are :class:`~repro.flow.pipeline.FlowResult`
    (:class:`~repro.flow.program.ProgramResult` for multi-kernel program
    points) or the exception the point raised.  ``fail_fast`` is the shared
    early-exit contract: once any point has failed, a backend stops
    *starting* points — already-running ones finish (and their outcomes
    are recorded), never-started ones keep their ``None`` slot.  With
    ``fail_fast=False`` every point runs to completion regardless of
    failures.
    """

    jobs: Sequence[Job]
    workers: int
    cache: CacheBackend
    trace: Optional[FlowTrace]
    fail_fast: bool = False


@runtime_checkable
class Executor(Protocol):
    """What ``compile_many`` requires of an execution backend."""

    name: str

    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend: ...

    def run(self, context: ExecutorContext) -> List[object]: ...

    def cleanup(self) -> None: ...


class SerialExecutor:
    """Reference backend: points run one after another, in order."""

    name = "serial"

    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend:
        return cache if cache is not None else StageCache()

    def run(self, context: ExecutorContext) -> List[object]:
        outcomes: List[object] = [None] * len(context.jobs)
        for i, (source, options) in enumerate(context.jobs):
            try:
                outcomes[i] = compile_any(
                    source, options, cache=context.cache, trace=context.trace
                )
            except Exception as exc:  # noqa: BLE001 — captured per job
                outcomes[i] = exc
                if context.fail_fast:
                    break
        return outcomes

    def cleanup(self) -> None:
        pass


class ThreadExecutor:
    """Thread-pool backend over a shared in-process cache.

    ``SingleFlight`` keys stage execution so concurrent points never
    duplicate work; with one worker it degrades to :class:`SerialExecutor`.
    """

    name = "thread"

    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend:
        return cache if cache is not None else StageCache()

    def run(self, context: ExecutorContext) -> List[object]:
        if context.workers <= 1:
            return SerialExecutor().run(context)
        flight = SingleFlight()
        outcomes: List[object] = [None] * len(context.jobs)
        failed = threading.Event()

        def run_one(i: int) -> None:
            if context.fail_fast and failed.is_set():
                return  # slot stays None: never started after a failure
            source, options = context.jobs[i]
            try:
                outcomes[i] = compile_any(
                    source,
                    options,
                    cache=context.cache,
                    trace=context.trace,
                    flight=flight,
                )
            except Exception as exc:  # noqa: BLE001 — captured per job
                outcomes[i] = exc
                failed.set()

        with ThreadPoolExecutor(max_workers=context.workers) as pool:
            list(pool.map(run_one, range(len(context.jobs))))
        return outcomes

    def cleanup(self) -> None:
        pass


_EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    "process": DistributedExecutor,
    DistributedExecutor.name: DistributedExecutor,
    ServiceExecutor.name: ServiceExecutor,
}

DEFAULT_EXECUTOR = ThreadExecutor.name


def executor_names() -> List[str]:
    """The registered backend names, sorted."""
    return sorted(_EXECUTORS)


def get_executor(name: str) -> Executor:
    """A fresh backend instance by name (actionable error on a typo)."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise SystemGenerationError(
            f"unknown executor {name!r}; known executors are: "
            f"{', '.join(executor_names())}"
        ) from None
    return factory()


def resolve_executor(executor) -> Executor:
    """Accept a backend name, a backend instance, or None (the default)."""
    if executor is None:
        return get_executor(DEFAULT_EXECUTOR)
    if isinstance(executor, str):
        return get_executor(executor)
    return executor
