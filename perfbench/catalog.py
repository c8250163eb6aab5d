"""What the benchmark measures: workloads, metrics, and what each should move.

This table is the single source of the benchmark's metric names.
``BENCHMARK.json`` at the repository root lists the same names (the
benchmark's own test keeps the two in sync), and ``run.py --list`` prints
the table below, including which end-to-end metric and workload each
per-layer metric should move.

Per-layer names follow the ``src/repro`` module that owns the measured
entry point (``poly.reschedule``, ``codegen.pack`` ...).  A ``.self_s``
metric is the seconds per op spent inside that layer's spans minus the
time covered by nested spans of other layers; a ``.calls`` metric counts
entries per op.  Every per-layer value is a per-op median over the traced
ops of one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

WORKLOADS = (
    (
        "dse-sweep",
        "144-point serial compile_many grid (2 programs x 3 sharing modes x "
        "ZCU106/U280 bram/hbm x k/m): late stages and flow keying dominate, "
        "cache hits and misses mixed",
    ),
    (
        "solve-steady",
        "SolverLoop on fused smoother with cnative: exec pack/call/unpack "
        "dominate, every lookup hits. Not covered: TCP service, disk cache "
        "tier, numpy/loops backends",
    ),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: the time metrics get the widest bound allowed: on a shared two-vCPU
#: host the same op runs at 1.1-1.8x its fastest time, in phases that can
#: outlast a run; the fastest op of a run is the steadiest statistic
END_TO_END = (
    EndToEnd("op_s.min", "s", "lower", 0.25,
             "wall seconds of the run's fastest op, the one least slowed by "
             "other tenants of the host (quartiles are in the diagnostics)"),
    EndToEnd("work_per_s", "1/s", "higher", 0.25,
             "work units per op / op_s.min: design points (dse-sweep), "
             "element-steps (solve-steady)"),
    EndToEnd("ops_ok_ratio", "ratio", "higher", 0.01,
             "ops that raised nothing and passed their output check / ops "
             "attempted (1 - ops_failed_ratio)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident set size of the benchmark process"),
    EndToEnd("model_speedup_vs_arm", "x", "higher", 0.01,
             "MODELED, not measured: A53 SW-Ref seconds / simulated system "
             "seconds, geometric mean over the op's designs"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median over the set-ups of the run's first seconds: seeded "
             "inputs, fresh session objects and one checked warm-up op"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: which end-to-end metric on which workload this should move
    moves: str


#: wrapped layer entry points: span name -> "module:qualname".  The span
#: name is the per-layer metric prefix.
SPANS = (
    ("flow.session", "repro.flow.program:compile_program"),
    ("flow.session", "repro.flow.session:compile_many"),
    ("flow.solver", "repro.flow.solver:SolverLoop.run"),
    ("cfdlang.parse", "repro.cfdlang.parser:parse_program"),
    ("cfdlang.analyze", "repro.cfdlang.sema:analyze"),
    ("cfdlang.print", "repro.cfdlang.printer:print_program"),
    ("teil.lower", "repro.teil.from_ast:lower_program"),
    ("teil.canonicalize", "repro.teil.canonicalize:canonicalize"),
    ("teil.fingerprint", "repro.teil.program:Function.fingerprint"),
    ("teil.fuse", "repro.teil.fuse:fuse_functions"),
    ("layout.default_layouts", "repro.layout.layout:default_layouts"),
    ("poly.schedule", "repro.poly.schedule:reference_schedule"),
    ("poly.reschedule", "repro.poly.reschedule:reschedule"),
    ("codegen.generate_kernel", "repro.codegen.kernel:generate_kernel"),
    ("codegen.pack", "repro.codegen.pyemit:pack_array"),
    ("codegen.unpack", "repro.codegen.pyemit:unpack_array"),
    ("memory.compat", "repro.memory.compat:build_compatibility_graph"),
    ("mnemosyne.port_classes", "repro.mnemosyne.config:port_class_assignment"),
    ("mnemosyne.config", "repro.mnemosyne.config:config_from_compat"),
    ("mnemosyne.build_memory", "repro.mnemosyne.sharing:build_memory_subsystem"),
    ("mnemosyne.assign_banks", "repro.mnemosyne.hbm:assign_banks"),
    ("hls.synthesize", "repro.hls.report:synthesize"),
    ("system.max_parallel_config", "repro.system.replicate:max_parallel_config"),
    ("system.build_system", "repro.system.integration:build_system"),
    ("system.transfer_footprint", "repro.system.integration:transfer_footprint"),
    ("sim.simulate_system", "repro.sim.simulator:simulate_system"),
    ("exec.chain", "repro.exec.programs:run_chain_batch"),
    ("exec.run_batch", "repro.exec.cnative:CNativeBackend.run_batch"),
    ("exec.cc_compile", "repro.exec.cnative:compile_kernel_library"),
)

#: the op's root span; its self time is the op's time outside every layer
ROOT_SPAN = "bench.op"

#: span -> metric prefix where the issue-facing name differs from the span
SELF_METRIC_PREFIX = {"exec.run_batch": "exec.call"}

#: flow stages in pipeline order (``repro.flow.stage_names()``); a stage
#: the flow does not have reads 0, a stage missing here only counts in
#: the overall ``flow.hit_ratio``
STAGES = (
    "parse", "analyze", "lower", "layouts", "schedule", "reschedule",
    "codegen", "compat", "port-classes", "mnemosyne-config", "memory",
    "hls-synth", "build-system", "bank-assign", "simulate",
)

_FRONT = "op_s.min on dse-sweep (front end: 3 kernels x 3 sharing modes)"
_DSE = "op_s.min on dse-sweep"
_SOLVE = "op_s.min and work_per_s on solve-steady; zero on dse-sweep"
_SELF_MOVES = {
    "flow.session": "op_s.min on dse-sweep; per-step compile re-entry on "
                    "solve-steady",
    "flow.solver": "op_s.min on solve-steady (carry and loop glue)",
    "cfdlang.parse": _FRONT + "; per-step re-entry on solve-steady",
    "cfdlang.analyze": _FRONT,
    "cfdlang.print": _FRONT + " (source canonicalization for cache keys)",
    "teil.lower": _FRONT,
    "teil.canonicalize": _FRONT,
    "teil.fingerprint": _DSE + " (content cache keys)",
    "teil.fuse": "op_s.min on solve-steady (the fused plan is rebuilt every step)",
    "layout.default_layouts": _FRONT,
    "poly.schedule": _FRONT + "; zero on solve-steady",
    "poly.reschedule": _FRONT + "; zero on solve-steady",
    "codegen.generate_kernel": _FRONT + "; per run_batch on solve-steady",
    "codegen.pack": _SOLVE,
    "codegen.unpack": _SOLVE,
    "memory.compat": _FRONT,
    "mnemosyne.port_classes": _FRONT,
    "mnemosyne.config": _FRONT,
    "mnemosyne.build_memory": _DSE,
    "mnemosyne.assign_banks": _DSE,
    "hls.synthesize": _DSE,
    "system.max_parallel_config": _DSE,
    "system.build_system": _DSE,
    "system.transfer_footprint": _DSE,
    "sim.simulate_system": _DSE,
    "exec.chain": _SOLVE,
    "exec.run_batch": _SOLVE + " (ctypes calls, buffers, stacking)",
    "exec.cc_compile": _SOLVE + " (C library lookup)",
}


def _per_layer() -> Tuple[PerLayer, ...]:
    out = []
    seen = set()
    for span, _ in SPANS:
        if span in seen:
            continue
        seen.add(span)
        prefix = SELF_METRIC_PREFIX.get(span, span)
        out.append(PerLayer(f"{prefix}.self_s", "s", "lower", _SELF_MOVES[span]))
    out.append(PerLayer(f"{ROOT_SPAN}.self_s", "s", "lower",
                        "op time outside every layer span (benchmark glue)"))
    for span in ("cfdlang.parse", "teil.fingerprint"):
        out.append(PerLayer(f"{span}.calls", "count", "lower",
                            "op_s.min on dse-sweep and solve-steady "
                            "(front-end re-entry)"))
    for span in ("exec.run_batch", "codegen.pack", "codegen.unpack"):
        out.append(PerLayer(f"{span}.calls", "count", "lower", _SOLVE))
    out += [
        PerLayer("exec.elements", "count", "higher",
                 "work behind work_per_s on solve-steady; zero on dse-sweep"),
        PerLayer("exec.cc_compiles", "count", "lower",
                 "setup_s on solve-steady (0 per op once warm)"),
        PerLayer("exec.lib_cache_hits", "count", "higher", _SOLVE),
    ]
    for stage in STAGES:
        out.append(PerLayer(f"flow.stage_runs.{stage}", "count", "lower",
                            "op_s.min on every workload (cache writes)"))
        out.append(PerLayer(f"flow.stage_hits.{stage}", "count", "higher",
                            "op_s.min on every workload (cache reads)"))
        out.append(PerLayer(f"flow.hit_ratio.{stage}", "ratio", "higher",
                            "op_s.min on dse-sweep and solve-steady"))
    out.append(PerLayer("flow.hit_ratio", "ratio", "higher",
                        "op_s.min on dse-sweep (all stages)"))
    for part in ("compute", "transfer", "control"):
        out.append(PerLayer(f"sim.model_{part}_cycles", "cycles", "lower",
                            "model_speedup_vs_arm on every workload "
                            "(exact, summed over the op's designs)"))
    out += [
        PerLayer("trace.untraced_op_s.min", "s", "lower",
                 "op_s.min of the same run before the wrappers went in"),
        PerLayer("trace.op_s.min", "s", "lower",
                 "op_s.min with every layer wrapped"),
        PerLayer("trace.overhead_s", "s", "lower",
                 "trace.op_s.min - trace.untraced_op_s.min"),
        PerLayer("trace.layer_self_s", "s", "lower",
                 "sum of layer self times per op; tracks op_s.min within "
                 "trace.overhead_s"),
        PerLayer("trace.coverage", "ratio", "higher",
                 "trace.layer_self_s / traced op time"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()
