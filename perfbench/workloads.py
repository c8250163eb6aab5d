"""The benchmark's two workloads.

Each workload is a closed loop: one caller issues one op at a time, and
every op does the same work on inputs generated from the run's seed.
A workload object is built once per run from the seed; ``setup()``
creates fresh session state, ``op()`` is the timed unit of work, and
``check(out)`` validates an op's outputs outside the timed region,
raising :class:`CheckFailed` on a wrong result.

The output checks compare against references the compiler under test
does not produce: the event-walking simulator, and ``teil.interp`` on
the kernels lowered straight from their CFDlang text.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple

import numpy as np

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.apps.workloads import make_workload
from repro.cfdlang import analyze, parse_program
from repro.exec import require_backend
from repro.flow import (
    FlowOptions,
    FlowTrace,
    ProgramResult,
    SolverLoop,
    StageCache,
    SystemOptions,
    compile_many,
)
from repro.mnemosyne import SharingMode
from repro.sim import simulate_software
from repro.sim.simulator import simulate_system_events
from repro.system.board import ALVEO_U280, ZCU106
from repro.teil import interpret, lower_program

#: backend-conformance tolerance of the execution backends
RTOL = ATOL = 1e-12
DEGREE = 8


class CheckFailed(Exception):
    """An op produced a wrong or missing result."""


def flow_results(results) -> List:
    """Every FlowResult of a list of FlowResults and ProgramResults."""
    out = []
    for res in results:
        program = isinstance(res, ProgramResult)
        out.extend(res.results.values() if program else [res])
    return out


def model_speedup(designs) -> float:
    """Geometric mean over designs of modeled A53 SW-Ref seconds /
    modeled system seconds.  Modeled, not measured."""
    logs = [
        math.log(
            simulate_software(d.function, d.sim.n_elements, variant="ref")
            / d.sim.total_seconds
        )
        for d in designs
    ]
    return math.exp(sum(logs) / len(logs))


def model_cycles(designs) -> Dict[str, int]:
    return {
        f"sim.model_{part}_cycles": sum(
            getattr(d.sim, f"{part}_cycles") for d in designs
        )
        for part in ("compute", "transfer", "control")
    }


def reference_functions(program) -> List:
    """The program's kernels lowered straight from their text, without the
    flow (no canonicalization, factorization, scheduling or fusion)."""
    return [
        lower_program(analyze(parse_program(k.text)), k.name, analyzed=True)
        for k in program.kernels
    ]


def interpret_chain(functions, state, static) -> Dict[str, np.ndarray]:
    """One element through a kernel chain with ``teil.interp``."""
    env = dict(static)
    env.update(state)
    for fn in functions:
        env.update(interpret(fn, {d.name: env[d.name] for d in fn.inputs()}))
    return env


def compare(label: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or not np.allclose(
        got, want, rtol=RTOL, atol=ATOL
    ):
        err = (
            float(np.max(np.abs(got - want)))
            if got.shape == want.shape else "shape"
        )
        raise CheckFailed(f"{label}: differs from teil.interp (max err {err})")


class Op(NamedTuple):
    """What one op produced: the result payload the check reads, designs
    for the model metrics, and the flow trace events of this op."""

    payload: object
    designs: list
    events: list


class DseSweep:
    """One serial compile_many grid on a fresh in-memory StageCache.

    The seed orders the grid: which point first runs each shared stage
    changes, the work and the set of designs do not.
    """

    name = "dse-sweep"
    work_unit = "design points"
    TARGETS = ((ZCU106, "bram"), (ALVEO_U280, "bram"), (ALVEO_U280, "hbm"))
    #: (k, m) pairs that fit every program, sharing mode and board, plus
    #: auto-sizing
    KMS = ((1, 2), (2, 2), (1, 4), (4, 4), (2, 8), (4, 8), (8, 8),
           (None, None))
    N_ELEMENTS = 8192

    def __init__(self, seed: int) -> None:
        programs = (
            HELMHOLTZ_DSL,
            make_workload("smoother", n=DEGREE, seed=seed).program,
        )
        grid = [
            (program, FlowOptions(sharing=mode, system=SystemOptions(
                k=k, m=m, board=board, memory_model=memory_model,
                n_elements=self.N_ELEMENTS,
            )))
            for program in programs
            for mode in SharingMode
            for board, memory_model in self.TARGETS
            for k, m in self.KMS
        ]
        order = np.random.default_rng(seed).permutation(len(grid))
        self.points = [grid[i] for i in order]
        #: event-walk results by design parameters (identical every op)
        self._events: Dict[tuple, tuple] = {}

    def setup(self) -> None:
        pass

    def op(self) -> Op:
        trace = FlowTrace()
        results = compile_many(
            self.points, cache=StageCache(), trace=trace, executor="serial"
        )
        return Op(results, flow_results(results), trace.events)

    def work(self, out: Op) -> int:
        return len(out.payload)

    def check(self, out: Op) -> None:
        if len(out.payload) != len(self.points):
            raise CheckFailed("compile_many returned the wrong point count")
        for (_, options), result in zip(self.points, out.payload):
            for design in flow_results([result]):
                if design.system is None or design.sim is None:
                    raise CheckFailed(
                        f"no design for {design.options.kernel_name} at "
                        f"{options.system}"
                    )
                if options.system.memory_model != "bram":
                    continue
                sys_ = design.system
                key = (sys_.k, sys_.m, sys_.hls.latency_cycles,
                       sys_.transfer_bytes_in_per_element,
                       sys_.transfer_bytes_out_per_element,
                       sys_.static_bytes, repr(sys_.platform))
                if key not in self._events:
                    ev = simulate_system_events(sys_, self.N_ELEMENTS)
                    self._events[key] = (
                        ev.compute_cycles, ev.transfer_cycles, ev.control_cycles
                    )
                sim = design.sim
                got = (sim.compute_cycles, sim.transfer_cycles,
                       sim.control_cycles)
                if got != self._events[key]:
                    raise CheckFailed(
                        f"analytic cycles {got} != event walk "
                        f"{self._events[key]} at k={sys_.k} m={sys_.m}"
                    )


class SolveSteady:
    """SolverLoop time steps of the fused smoother on ``cnative``."""

    name = "solve-steady"
    work_unit = "element-steps"
    N_ELEMENTS = 512
    STEPS = 16
    SAMPLES = 4

    def __init__(self, seed: int) -> None:
        self.wl = make_workload(
            "smoother", n=DEGREE, n_elements=self.N_ELEMENTS, seed=seed
        )
        rng = np.random.default_rng(seed)
        # an orthogonal S and a small positive D bound the per-step growth
        # of w = u + D * v by (1 + max D^2), so the state stays of order 1
        # over every step: no overflow, no drift toward subnormals
        s, _ = np.linalg.qr(rng.standard_normal((DEGREE, DEGREE)))
        self.wl.static.update(
            S=s, D=0.05 + 0.1 * rng.random((DEGREE,) * 3)
        )
        self.sample = sorted(
            rng.choice(self.N_ELEMENTS, self.SAMPLES, replace=False)
        )
        fns = reference_functions(self.wl.program)
        self.reference = {}
        for e in self.sample:
            state = {k: v[e] for k, v in self.wl.elements.items()}
            for _ in range(self.STEPS):
                env = interpret_chain(fns, state, self.wl.static)
                state = {dst: env[src] for src, dst in self.wl.carry.items()}
            self.reference[e] = env
        self.loop = None

    def setup(self) -> None:
        require_backend("cnative")  # fail loudly, never fall back
        self.loop = SolverLoop(
            self.wl.program, carry=self.wl.carry, backend="cnative",
            fusion="auto",
        )

    def op(self) -> Op:
        self.loop.trace = FlowTrace()  # this op's stage events only
        result = self.loop.run(
            self.wl.elements, self.wl.static, steps=self.STEPS
        )
        designs = [
            d for d in flow_results([result.compiled]) if d.sim is not None
        ]
        return Op(result, designs, self.loop.trace.events)

    def work(self, out: Op) -> int:
        return out.payload.n_elements * len(out.payload.steps)

    def check(self, out: Op) -> None:
        result = out.payload
        if len(result.steps) != self.STEPS:
            raise CheckFailed(f"ran {len(result.steps)} steps")
        for e in self.sample:
            for name, arr in result.outputs.items():
                compare(f"step {self.STEPS} {name}[{e}]", arr[e],
                        self.reference[e][name])


WORKLOADS = {w.name: w for w in (DseSweep, SolveSteady)}
