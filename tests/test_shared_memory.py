"""Functional validation of memory sharing via physically aliased buffers.

The strongest end-to-end evidence that liveness analysis is correct: run
the generated kernel with all arrays of each PLM unit overlaid on one
NumPy buffer (exactly what the shared BRAMs do) and check the results
against the reference.  An illegal merge would corrupt live data.
"""

import numpy as np
import pytest

from repro.apps.gradient import chebyshev_diff_matrix, gradient_program
from repro.apps.helmholtz import (
    inverse_helmholtz_program,
    make_element_data,
    reference_inverse_helmholtz,
)
from repro.errors import MemoryArchitectureError
from repro.flow import FlowOptions, compile_any
from repro.mnemosyne import SharingMode
from repro.sim.sharedmem import run_python_kernel_shared
from repro.teil import interpret


@pytest.mark.parametrize("mode", [SharingMode.NONE, SharingMode.MATCHING, SharingMode.CLIQUE])
def test_helmholtz_sharing_is_functionally_safe(mode):
    n = 5
    res = compile_any(inverse_helmholtz_program(n), FlowOptions(sharing=mode))
    data = make_element_data(n, seed=21)
    got = run_python_kernel_shared(res.poly, res.memory, data)["v"]
    ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
    np.testing.assert_allclose(got, ref, rtol=1e-11)


@pytest.mark.parametrize("mode", [SharingMode.MATCHING, SharingMode.CLIQUE])
def test_gradient_sharing_is_functionally_safe(mode):
    n = 6
    res = compile_any(gradient_program(n), FlowOptions(sharing=mode))
    rng = np.random.default_rng(8)
    inputs = {"Dm": chebyshev_diff_matrix(n), "u": rng.standard_normal((n, n, n))}
    got = run_python_kernel_shared(res.poly, res.memory, inputs)
    ref = interpret(res.function, inputs)
    for k in ("gx", "gy", "gz"):
        np.testing.assert_allclose(got[k], ref[k], rtol=1e-11)


def test_illegal_overlay_corrupts_results():
    """Sanity: force an illegal merge (u with t0) and observe corruption —
    the aliased-buffer harness really does detect bad sharing.  (u and t0
    overlap: stage 0 keeps reading u elements while writing t0.)"""
    n = 5
    res = compile_any(inverse_helmholtz_program(n))
    cfg = res.mnemosyne_config
    # craft an illegal grouping bypassing the legality check
    from repro.mnemosyne.plm import MemorySubsystem, PLMUnit
    from repro.mnemosyne.bram import PortClass

    groups = [("u", "t0")] + [(a,) for a in cfg.arrays if a not in ("u", "t0")]
    units = [
        PLMUnit(f"plm{i}", g, max(cfg.sizes[x] for x in g), PortClass.ACCELERATOR_ONLY)
        for i, g in enumerate(groups)
    ]
    bad = MemorySubsystem(units)
    data = make_element_data(n, seed=22)
    got = run_python_kernel_shared(res.poly, bad, data)["v"]
    ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
    assert not np.allclose(got, ref, rtol=1e-6)


def test_undersized_unit_rejected():
    n = 4
    res = compile_any(inverse_helmholtz_program(n))
    from repro.mnemosyne.plm import MemorySubsystem, PLMUnit
    from repro.mnemosyne.bram import PortClass

    units = [
        PLMUnit(f"plm{i}", (a,), 1, PortClass.ACCELERATOR_ONLY)
        for i, a in enumerate(res.mnemosyne_config.arrays)
    ]
    with pytest.raises(MemoryArchitectureError, match="exceeds its PLM unit"):
        run_python_kernel_shared(res.poly, MemorySubsystem(units), make_element_data(n))
