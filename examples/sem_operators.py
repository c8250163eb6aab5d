#!/usr/bin/env python3
"""The SEM workload suite: single operators, programs, and a solver loop.

The Inverse Helmholtz "is complex enough to subsume simpler operators
(e.g., interpolation) which are similarly relevant in CFD simulations"
(Sec. II-A).  This example walks the full ladder:

1. the simpler operators (interpolation, gradient) through the flow,
   validated against analytic references;
2. the multi-kernel workload *programs* built from them
   (:mod:`repro.apps.workloads`), all compiled against one shared stage
   cache — the suites share the Helmholtz kernel, and per-kernel cache
   keys mean it compiles exactly once across all three;
3. a time-stepping solver loop over the smoother suite: every step
   re-enters the compiler (fully cache-served after step 1) and runs
   the numeric inner loop on the vectorized NumPy backend, validated
   against the interpreter golden model.

    python examples/sem_operators.py
"""

import numpy as np

from repro.apps.gradient import (
    chebyshev_diff_matrix,
    gradient_program,
    reference_gradient,
)
from repro.apps.interpolation import (
    interpolation_program,
    lagrange_interpolation_matrix,
    reference_interpolation,
)
from repro.codegen import run_python_kernel
from repro.flow import compile_any
from repro.utils import ascii_table


def run_interpolation(n: int = 8, q: int = 12):
    res = compile_any(interpolation_program(n, q))
    rng = np.random.default_rng(42)
    I = lagrange_interpolation_matrix(n, q)
    u = rng.standard_normal((n, n, n))
    got = run_python_kernel(res.poly, {"I": I, "u": u})["w"]
    err = float(np.max(np.abs(got - reference_interpolation(I, u))))
    return res, err


def run_gradient(n: int = 8):
    res = compile_any(gradient_program(n))
    Dm = chebyshev_diff_matrix(n)
    # a polynomial field: derivative is analytic
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    X = x[:, None, None] * np.ones((n, n, n))
    u = X**3
    out = run_python_kernel(res.poly, {"Dm": Dm, "u": u})
    gx_ref, _, _ = reference_gradient(Dm, u)
    err = float(np.max(np.abs(out["gx"] - gx_ref)))
    analytic_err = float(np.max(np.abs(out["gx"] - 3 * X**2)))
    return res, err, analytic_err


def run_workload_programs(n: int = 8):
    """Compile all three workload suites against one shared stage cache."""
    from repro.apps.workloads import WORKLOAD_SUITES, make_workload
    from repro.flow import FlowTrace, StageCache, compile_program
    from repro.flow.stages import FRONT_END_STAGES

    cache, trace = StageCache(), FlowTrace()
    rows = []
    for suite in WORKLOAD_SUITES:
        before = len(trace.events)
        workload = make_workload(suite, n=n)
        result = compile_program(workload.program, cache=cache, trace=trace)
        events = trace.events[before:]
        executed = sum(
            1 for e in events
            if e.stage in FRONT_END_STAGES and not e.cached
        )
        cached = sum(
            1 for e in events if e.stage in FRONT_END_STAGES and e.cached
        )
        rows.append((suite, " -> ".join(result.kernel_names()),
                     executed, cached))
    return rows


def run_solver_loop(n: int = 8, steps: int = 4, ne: int = 6):
    """A smoother solver loop, numerically validated against the
    interpreter golden model iterated step by step."""
    from repro.apps.workloads import make_workload
    from repro.flow import SolverLoop
    from repro.teil.interp import interpret

    workload = make_workload("smoother", n=n, n_elements=ne)
    loop = SolverLoop(workload.program, carry=workload.carry,
                      backend="numpy")
    result = loop.run(workload.elements, workload.static, steps=steps)

    # golden model: interpret both kernels per element, per step
    fns = [r.function for r in result.compiled]
    u = workload.elements["u"].copy()
    for _ in range(steps):
        nxt = np.empty_like(u)
        for e in range(ne):
            env = dict(workload.static)
            env["u"] = u[e]
            env.update(interpret(fns[0], env))
            nxt[e] = interpret(fns[1], env)["w"]
        u = nxt
    err = float(np.max(np.abs(result.outputs["w"] - u)))
    return result, err


def main() -> None:
    interp, interp_err = run_interpolation()
    grad, grad_err, grad_analytic = run_gradient()
    helm = compile_any(
        __import__("repro.apps.helmholtz", fromlist=["x"]).inverse_helmholtz_program(11)
    )

    rows = []
    for name, res in (("interpolation 8->12", interp), ("gradient n=8", grad),
                      ("inverse Helmholtz p=11", helm)):
        design = res.build_system()
        rows.append(
            (
                name,
                len(res.function.statements),
                res.hls.latency_cycles,
                f"{res.hls.resources.lut} LUT / {res.hls.resources.dsp} DSP",
                res.memory.brams,
                design.k,
            )
        )
    print(
        ascii_table(
            ["operator", "IR stmts", "kernel cycles", "kernel logic", "BRAM", "max k"],
            rows,
            title="SEM operators through the CFDlang-to-FPGA flow (ZCU106)",
        )
    )
    print()
    print(f"interpolation: generated kernel vs einsum reference, max err {interp_err:.2e}")
    print(f"gradient:      generated kernel vs einsum reference, max err {grad_err:.2e}")
    print(f"gradient:      vs analytic derivative of x^3,        max err {grad_analytic:.2e}")
    assert interp_err < 1e-9 and grad_err < 1e-9

    print()
    suite_rows = run_workload_programs()
    print(
        ascii_table(
            ["suite", "kernel chain", "front-end runs", "front-end hits"],
            suite_rows,
            title="Workload programs against one stage cache "
                  "(the shared Helmholtz kernel compiles once)",
        )
    )
    # the later suites reuse the first's Helmholtz front end
    assert any(hits > 0 for _, _, _, hits in suite_rows[1:])

    print()
    solver, solver_err = run_solver_loop()
    print(solver.summary())
    print(f"solver loop: backend vs interpreter golden model, "
          f"max err {solver_err:.2e}")
    assert solver.cross_step_hit_rate() == 1.0
    assert solver_err < 1e-9
    print("OK")


if __name__ == "__main__":
    main()
