"""The end-to-end CFDlang-to-bitstream flow (Fig. 3).

The flow is a registry of named stages (:mod:`repro.flow.stages`):
frontend -> tensor IR -> canonicalization -> reference schedule -> layout
materialization -> rescheduling -> C99 code generation + Mnemosyne
metadata -> memory subsystem generation -> HLS synthesis (model) ->
k x m system assembly on a board -> end-to-end performance simulation.
The last two stages are parameterized by :class:`SystemOptions`, so k/m/
board/workload sweeps re-run only them.

:func:`compile_any` runs everything in one shot, for one kernel or a
multi-kernel :class:`Program` (:func:`compile_program`).  :class:`Flow` is
the session API: ``run_until``/``override``/``resume`` for partial runs and
intermediate inspection, with a content-keyed :class:`StageCache` so
design-space sweeps reuse the shared front end, and a :class:`FlowTrace`
recording per-stage timing and cache behavior.  :func:`compile_many`
batches a whole DSE grid against one shared cache, optionally on a
thread pool (``jobs=N``) with single-flight deduplication;
:class:`DiskStageCache` persists the cache across processes.  The
``process`` executor — a second name for ``distributed``
(:mod:`repro.flow.distributed`) — scales the same batch across cores
and across hosts as one job on a compile-service broker
(:mod:`repro.flow.service`) whose workers connect over TCP
(:mod:`repro.flow.nettransport`), with no shared mount needed.
"""

from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.pipeline import FlowResult
from repro.flow.program import (
    FusionPlan,
    Program,
    ProgramFlow,
    ProgramKernel,
    ProgramResult,
    compile_any,
    compile_program,
    is_program_text,
)
from repro.flow.solver import SolverLoop, SolverResult, SolverStep
from repro.flow.session import (
    Flow,
    FlowTrace,
    StageEvent,
    compile_many,
)
from repro.flow.stages import Stage, get_stage, registered_stages, stage_names
from repro.flow.store import (
    CacheBackend,
    DiskStageCache,
    FileSingleFlight,
    NamespacedStageCache,
    SingleFlight,
    StageCache,
    namespaced_key,
)
from repro.flow.executors import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    executor_names,
    get_executor,
)
from repro.flow.distributed import (
    BrokerUnreachableError,
    DistributedExecutor,
    Transport,
    TransportClosedError,
    WorkerCrashError,
    run_worker,
)
from repro.flow.nettransport import (
    BrokerAuthError,
    BrokerServer,
    RemoteStageCache,
    TcpTransport,
    run_tcp_worker,
)
from repro.flow.service import (
    BrokerBusyError,
    JobService,
    ServiceClient,
    ServiceExecutor,
    SweepJob,
    UnknownJobError,
    attach_job,
)
from repro.flow.artifacts import write_artifacts

__all__ = [
    "FlowOptions",
    "SystemOptions",
    "FlowResult",
    "Program",
    "ProgramKernel",
    "ProgramFlow",
    "ProgramResult",
    "compile_program",
    "compile_any",
    "is_program_text",
    "SolverLoop",
    "SolverResult",
    "SolverStep",
    "write_artifacts",
    "Flow",
    "FlowTrace",
    "CacheBackend",
    "StageCache",
    "DiskStageCache",
    "SingleFlight",
    "FileSingleFlight",
    "StageEvent",
    "compile_many",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "DistributedExecutor",
    "Transport",
    "TcpTransport",
    "BrokerServer",
    "RemoteStageCache",
    "WorkerCrashError",
    "TransportClosedError",
    "BrokerUnreachableError",
    "BrokerAuthError",
    "BrokerBusyError",
    "UnknownJobError",
    "JobService",
    "ServiceClient",
    "ServiceExecutor",
    "SweepJob",
    "attach_job",
    "NamespacedStageCache",
    "namespaced_key",
    "run_worker",
    "run_tcp_worker",
    "executor_names",
    "get_executor",
    "Stage",
    "get_stage",
    "registered_stages",
    "stage_names",
]
