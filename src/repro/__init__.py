"""Reproduction of "From Domain-Specific Languages to Memory-Optimized
Accelerators for Fluid Dynamics" (Friebel et al., IEEE CLUSTER 2021).

An end-to-end CFDlang-to-FPGA tool flow in pure Python: DSL frontend,
tensor IR with contraction factorization, a polyhedral engine, layout
materialization, dependence-driven rescheduling, C99/HLS code generation,
liveness-driven memory compatibility analysis, a Mnemosyne-style memory
subsystem generator, an HLS performance/resource model, system replication
(Eq. 3), and cycle-level performance simulation.

Quickstart::

    from repro import compile_any
    from repro.apps.helmholtz import HELMHOLTZ_DSL

    result = compile_any(HELMHOLTZ_DSL)
    print(result.hls.summary())          # 2,314 LUT / 2,999 FF / 15 DSP
    print(result.memory.summary())       # 18 BRAM36 with sharing
    design = result.build_system()       # k = m = 16 on the ZCU106
    print(result.simulate(50_000))       # the paper's CFD run

:func:`compile_any` also compiles multi-kernel programs.  The flow is
built from named, cacheable stages; for partial runs, intermediate
inspection, and cached design-space sweeps use the session API
(:class:`repro.Flow`, :func:`repro.compile_many`) — see :mod:`repro.flow`.
"""

from repro.flow import (
    DiskStageCache,
    Flow,
    FlowOptions,
    FlowResult,
    FlowTrace,
    StageCache,
    SystemOptions,
    compile_any,
    compile_many,
    stage_names,
    write_artifacts,
)
from repro.cfdlang import parse_program, analyze, ProgramBuilder
from repro.teil import lower_program, canonicalize, interpret
from repro.mnemosyne import SharingMode
from repro.system import ALVEO_U280, ZCU106, Board, boards, get_board

__version__ = "1.0.0"

__all__ = [
    "Flow",
    "FlowOptions",
    "SystemOptions",
    "FlowResult",
    "FlowTrace",
    "StageCache",
    "DiskStageCache",
    "compile_any",
    "compile_many",
    "stage_names",
    "write_artifacts",
    "parse_program",
    "analyze",
    "ProgramBuilder",
    "lower_program",
    "canonicalize",
    "interpret",
    "SharingMode",
    "ZCU106",
    "ALVEO_U280",
    "Board",
    "boards",
    "get_board",
    "__version__",
]
