"""Functional validation of memory sharing via physically aliased buffers.

The strongest end-to-end evidence that liveness analysis is correct: run
the generated kernel with all arrays of each PLM unit overlaid on one
NumPy buffer (exactly what the shared BRAMs do) and check the results
against the reference.  An illegal merge would corrupt live data.
"""

import numpy as np
import pytest

from repro.apps import (
    gradient_program,
    interpolation_program,
    preconditioner_program,
)
from repro.apps.gradient import chebyshev_diff_matrix
from repro.apps.helmholtz import (
    inverse_helmholtz_program,
    make_element_data,
    reference_inverse_helmholtz,
)
from repro.apps.workloads import WORKLOAD_SUITES, make_workload
from repro.codegen import run_python_kernel
from repro.errors import MemoryArchitectureError, SimulationError
from repro.exec import get_backend
from repro.flow import FlowOptions, StageCache, compile_any, compile_program
from repro.flow.options import SystemOptions
from repro.flow.session import Flow
from repro.mnemosyne import PortClass, SharingMode
from repro.mnemosyne.plm import MemorySubsystem, PLMUnit
from repro.teil import interpret


@pytest.mark.parametrize("mode", [SharingMode.NONE, SharingMode.MATCHING, SharingMode.CLIQUE])
def test_helmholtz_sharing_is_functionally_safe(mode):
    n = 5
    res = compile_any(inverse_helmholtz_program(n), FlowOptions(sharing=mode))
    data = make_element_data(n, seed=21)
    got = run_python_kernel(res.poly, data, memory=res.memory)["v"]
    ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
    np.testing.assert_allclose(got, ref, rtol=1e-11)


@pytest.mark.parametrize("mode", [SharingMode.MATCHING, SharingMode.CLIQUE])
def test_gradient_sharing_is_functionally_safe(mode):
    n = 6
    res = compile_any(gradient_program(n), FlowOptions(sharing=mode))
    rng = np.random.default_rng(8)
    inputs = {"Dm": chebyshev_diff_matrix(n), "u": rng.standard_normal((n, n, n))}
    got = run_python_kernel(res.poly, inputs, memory=res.memory)
    ref = interpret(res.function, inputs)
    for k in ("gx", "gy", "gz"):
        np.testing.assert_allclose(got[k], ref[k], rtol=1e-11)


def _units(config, groups):
    return MemorySubsystem([
        PLMUnit(f"plm{i}", g, max(config.sizes[x] for x in g), PortClass.ACCELERATOR_ONLY)
        for i, g in enumerate(groups)
    ])


def test_illegal_overlay_corrupts_results():
    """Sanity: force an illegal merge (u with t0) and observe corruption —
    the aliased-buffer harness really does detect bad sharing, and so
    does the flow's functional check on ``loops``.  (u and t0 overlap:
    stage 0 keeps reading u elements while writing t0.)"""
    n = 5
    res = compile_any(inverse_helmholtz_program(n))
    cfg = res.mnemosyne_config
    # craft an illegal grouping bypassing the legality check
    bad = _units(cfg, [("u", "t0")] + [(a,) for a in cfg.arrays if a not in ("u", "t0")])
    data = make_element_data(n, seed=22)
    got = run_python_kernel(res.poly, data, memory=bad)["v"]
    ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
    assert not np.allclose(got, ref, rtol=1e-6)

    options = FlowOptions(system=SystemOptions(exec_backend="loops", functional_elements=3))
    flow = Flow(inverse_helmholtz_program(n), options)
    flow.run_until("memory").override(memory=bad)
    with pytest.raises(SimulationError, match=f"kernel {res.function.name!r}"):
        flow.resume()


def test_a_static_operand_in_a_shared_unit_is_rejected():
    """A per-element row would give every element a fresh copy of an
    operand the hardware loads once."""
    n = 4
    res = compile_any(inverse_helmholtz_program(n))
    cfg = res.mnemosyne_config
    bad = _units(cfg, [("S", "v")] + [(a,) for a in cfg.arrays if a not in ("S", "v")])
    data = make_element_data(n, seed=3)
    elements = {k: data[k][None] for k in ("D", "u")}
    with pytest.raises(MemoryArchitectureError, match="PLM unit 'plm0' overlays static input 'S'"):
        get_backend("loops").run_batch(
            res.function, elements, {"S": data["S"]}, ["D", "u"], res.poly, memory=bad
        )


def test_undersized_unit_rejected():
    n = 4
    res = compile_any(inverse_helmholtz_program(n))
    units = [
        PLMUnit(f"plm{i}", (a,), 1, PortClass.ACCELERATOR_ONLY)
        for i, a in enumerate(res.mnemosyne_config.arrays)
    ]
    with pytest.raises(MemoryArchitectureError, match="exceeds its PLM unit"):
        run_python_kernel(res.poly, make_element_data(n), memory=MemorySubsystem(units))


def _shares_no_static_operand(result, label):
    static = {
        d.name for d in result.function.interface()
        if result.port_classes[d.name] is PortClass.ACCELERATOR_ONLY
    }
    for unit in result.memory.units:
        if len(unit.members) > 1:
            assert static.isdisjoint(unit.members), (label, unit.members)


@pytest.mark.parametrize("n", [5, 7])
def test_no_unit_shares_a_static_operand(n):
    """A static operand is loaded once and read by every element of its
    PLM set, so no other array may overwrite it — not even one whose
    lifetime within a kernel call starts after the operand's last read."""
    cache = StageCache()
    for mode in SharingMode:
        for suite in WORKLOAD_SUITES:
            for fusion in (None, "auto"):
                res = compile_program(
                    make_workload(suite, n=n).program,
                    FlowOptions(sharing=mode, fusion=fusion),
                    cache=cache,
                )
                for name, result in res.results.items():
                    _shares_no_static_operand(result, (mode, suite, fusion, name))
        for app in (inverse_helmholtz_program(n), interpolation_program(n, n + 2),
                    gradient_program(n), preconditioner_program(n)):
            result = compile_any(app, FlowOptions(sharing=mode), cache=cache)
            _shares_no_static_operand(result, (mode, result.function.name))


@pytest.mark.parametrize("mode", [SharingMode.MATCHING, SharingMode.CLIQUE])
@pytest.mark.parametrize("fusion", [None, "auto"])
@pytest.mark.parametrize("suite", sorted(WORKLOAD_SUITES))
def test_suite_overlays_pass_the_functional_check(suite, fusion, mode):
    """Every suite kernel's functional batch on ``loops`` runs its PLM
    overlay and matches ``teil.interp``."""
    options = FlowOptions(
        sharing=mode,
        fusion=fusion,
        system=SystemOptions(exec_backend="loops", functional_elements=3),
    )
    res = compile_program(make_workload(suite, n=5).program, options)
    for result in res.results.values():
        assert 0.0 <= result.functional.max_error <= 1e-12
