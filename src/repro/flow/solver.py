"""Time-stepping solver loops over multi-kernel programs.

A :class:`SolverLoop` is the outer loop of an iterative solver (e.g. the
damped inverse-Helmholtz smoother of :mod:`repro.apps.workloads`): every
step re-enters the compile flow for the whole program — compile ->
build -> simulate, exactly as a fresh caller would — and then runs the
numeric inner loop over the element batch on an execution backend
(:func:`repro.exec.programs.run_chain_batch`), feeding carried outputs
back into the next step's inputs.

Re-entering the compiler per step is the point, not an inefficiency to
hide: with per-kernel content-addressed stage keys, step 1 pays for
compilation once and every later step's lookups hit the session cache
(and a fused group reuses its composite kernel), so the steady-state
cost of a step is the numeric work alone.  The :class:`SolverResult`
records exactly that — per-step compile/numeric seconds, front-end
stage executions vs. cache hits, and the cross-step hit rate the CI
benchmark gate asserts on.

The carried state stays in the backend's lane layout between steps: on
``cnative`` and ``loops`` a step's outputs are
:class:`~repro.exec.backend.Packed` buffers, the next step's kernel
adopts them as its inputs, and only the final step's outputs are
unpacked into host arrays (inside that step's numeric time).  A step
never writes the buffers it read.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import SystemGenerationError
from repro.flow.options import FlowOptions
from repro.flow.program import Program, ProgramResult, compile_program
from repro.flow.session import FlowTrace
from repro.flow.stages import FRONT_END_STAGES
from repro.flow.store import CacheBackend, StageCache
from repro.utils import ascii_table


@dataclass(frozen=True)
class SolverStep:
    """Compile + numeric cost record of one solver time step."""

    step: int
    compile_seconds: float
    numeric_seconds: float
    #: front-end stage lookups of this step that actually ran
    front_end_executed: int
    #: front-end stage lookups of this step served from the cache
    front_end_cached: int


@dataclass
class SolverResult:
    """Outcome of a :class:`SolverLoop` run."""

    program: Program
    steps: List[SolverStep]
    #: chain outputs of the final step, as host arrays (streamed ones
    #: stacked ``(Ne, ...)``)
    outputs: Dict[str, np.ndarray]
    n_elements: int
    backend: str
    #: the last step's compiled program (identical artifacts every step)
    compiled: Optional[ProgramResult] = None

    def warm_steps(self) -> List[SolverStep]:
        """Every step after the first (the cache-warming one)."""
        return self.steps[1:]

    def cross_step_hit_rate(self) -> float:
        """Fraction of warm-step front-end stage lookups served from the
        cache — 1.0 means steps 2+ recompiled nothing at all."""
        warm = self.warm_steps()
        hits = sum(s.front_end_cached for s in warm)
        total = hits + sum(s.front_end_executed for s in warm)
        return hits / total if total else 0.0

    def numeric_seconds(self) -> float:
        return sum(s.numeric_seconds for s in self.steps)

    def elements_per_sec(self) -> float:
        """Numeric inner-loop throughput (element-steps per second)."""
        return (
            self.n_elements * len(self.steps)
            / max(self.numeric_seconds(), 1e-12)
        )

    def summary(self) -> str:
        rows = [
            (
                s.step,
                f"{s.compile_seconds * 1e3:.2f}",
                f"{s.numeric_seconds * 1e3:.2f}",
                s.front_end_executed,
                s.front_end_cached,
            )
            for s in self.steps
        ]
        table = ascii_table(
            ["step", "compile (ms)", "numeric (ms)", "front-end runs",
             "front-end hits"],
            rows,
            title=f"Solver loop: {self.program.name!r} x {len(self.steps)} "
                  f"steps, Ne={self.n_elements} ({self.backend})",
        )
        return table + (
            f"\ncross-step front-end cache hit rate: "
            f"{self.cross_step_hit_rate() * 100:.1f}%"
            f"\nnumeric throughput: {self.elements_per_sec():,.0f} "
            f"element-steps/sec"
        )


class SolverLoop:
    """Iterate a multi-kernel program over an element batch.

    ``carry`` maps chain outputs to streamed inputs: after each step,
    ``elements[input] = outputs[output]`` (e.g. ``{"w": "u"}`` feeds the
    smoother's update back as the next state).  An empty carry repeats
    the same application — still useful for benchmarking the cross-step
    cache behavior.

    ``fusion`` (or a fusion plan preset on ``options``) compiles the
    chain under a :class:`~repro.flow.program.FusionPlan`, so each step's
    inner loop makes one backend call per fused group; carry sources are
    added to ``fusion_keep`` automatically — an output the loop feeds
    back must stay on the fused interface even if it is also consumed
    inside its group.

    The loop owns one cache/trace pair across all steps (pass ``cache``
    to share with a wider session, e.g. a disk cache reused between
    processes).
    """

    def __init__(
        self,
        program: Program,
        options: Optional[FlowOptions] = None,
        *,
        carry: Optional[Mapping[str, str]] = None,
        backend: str = "numpy",
        cache: Optional[CacheBackend] = None,
        trace: Optional[FlowTrace] = None,
        fusion=None,
    ) -> None:
        self.program = program.validate()
        self.options = options or FlowOptions()
        self.carry = dict(carry or {})
        if fusion is not None:
            self.options = dataclasses.replace(self.options, fusion=fusion)
        if self.options.fusion is not None and self.carry:
            keep = tuple(
                sorted(set(self.options.fusion_keep) | set(self.carry))
            )
            self.options = dataclasses.replace(self.options, fusion_keep=keep)
        self.backend = backend
        self.cache = cache if cache is not None else StageCache()
        self.trace = trace if trace is not None else FlowTrace()
        outputs: set = set()
        inputs: set = set()
        for kernel in program.kernels:
            outputs.update(d.name for d in kernel.ast.outputs())
            inputs.update(d.name for d in kernel.ast.inputs())
        for out_name, in_name in self.carry.items():
            if out_name not in outputs:
                raise SystemGenerationError(
                    f"carry source {out_name!r} is not an output of any "
                    f"kernel in program {program.name!r}"
                )
            if in_name not in inputs:
                raise SystemGenerationError(
                    f"carry target {in_name!r} is not an input of any "
                    f"kernel in program {program.name!r}"
                )

    def run(
        self,
        elements: Mapping[str, np.ndarray],
        static: Optional[Mapping[str, np.ndarray]] = None,
        steps: int = 1,
    ) -> SolverResult:
        """Run ``steps`` time steps; returns the per-step records and the
        final outputs."""
        from repro.exec.backend import require_backend, streamed_array
        from repro.exec.programs import run_chain_batch

        if steps < 1:
            raise SystemGenerationError(f"steps must be >= 1, got {steps}")
        backend = require_backend(self.backend)
        state = {name: streamed_array(arr) for name, arr in elements.items()}
        static = dict(static or {})
        n_elements = (
            int(next(iter(state.values())).shape[0]) if state else 0
        )
        records: List[SolverStep] = []
        outputs: Dict[str, np.ndarray] = {}
        compiled: Optional[ProgramResult] = None
        for step in range(1, steps + 1):
            before = len(self.trace.events)
            t0 = time.perf_counter()
            compiled = compile_program(
                self.program, self.options, cache=self.cache,
                trace=self.trace,
            )
            compile_seconds = time.perf_counter() - t0
            step_events = self.trace.events[before:]
            t1 = time.perf_counter()
            outputs = run_chain_batch(
                compiled.chain(), state, static, backend=backend
            )
            if step == steps:
                outputs = {n: np.asarray(a) for n, a in outputs.items()}
            numeric_seconds = time.perf_counter() - t1
            records.append(
                SolverStep(
                    step=step,
                    compile_seconds=compile_seconds,
                    numeric_seconds=numeric_seconds,
                    front_end_executed=sum(
                        1 for e in step_events
                        if e.stage in FRONT_END_STAGES and not e.cached
                    ),
                    front_end_cached=sum(
                        1 for e in step_events
                        if e.stage in FRONT_END_STAGES and e.cached
                    ),
                )
            )
            for out_name, in_name in self.carry.items():
                if out_name not in outputs:
                    raise SystemGenerationError(
                        f"carry source {out_name!r} missing from step "
                        f"{step} outputs"
                    )
                state[in_name] = streamed_array(outputs[out_name])
        result = SolverResult(
            program=self.program,
            steps=records,
            outputs=outputs,
            n_elements=n_elements,
            backend=self.backend,
            compiled=compiled,
        )
        self.trace.record_metric(
            "cross-step-hit-rate", round(result.cross_step_hit_rate(), 4)
        )
        return result
