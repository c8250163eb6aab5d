"""Tests for the performance simulator and the CPU baselines (Figs. 9/10)."""

import numpy as np
import pytest

from repro.apps.helmholtz import (
    HELMHOLTZ_DSL,
    make_element_data,
    reference_inverse_helmholtz,
)
from repro.exec import require_backend
from repro.flow import compile_any
from repro.sim import (
    simulate_software,
    simulate_system,
    simulate_system_events,
    sw_hls_c_cycles_per_element,
    sw_ref_cycles_per_element,
)
from repro.sim.cpu import CpuModel

NE = 50_000


@pytest.fixture(scope="module")
def res():
    return compile_any(HELMHOLTZ_DSL)


class TestFig9:
    """Accelerator and total speedup for parallel architectures."""

    PAPER_ACC = {1: 1.00, 2: 2.00, 4: 3.97, 8: 7.91, 16: 15.76}
    PAPER_TOTAL = {1: 1.00, 2: 1.96, 4: 3.78, 8: 7.09, 16: 12.58}

    def test_accelerator_speedups(self, res):
        base = res.simulate(NE, 1, 1)
        for k, expected in self.PAPER_ACC.items():
            got = res.simulate(NE, k, k).accelerator_speedup_vs(base)
            assert got == pytest.approx(expected, rel=0.02), (k, got)

    def test_total_speedups(self, res):
        base = res.simulate(NE, 1, 1)
        for k, expected in self.PAPER_TOTAL.items():
            got = res.simulate(NE, k, k).speedup_vs(base)
            assert got == pytest.approx(expected, rel=0.02), (k, got)

    def test_accelerator_speedup_nearly_ideal(self, res):
        """Paper: 'the speedup for accelerator execution is nearly the
        ideal, k'."""
        base = res.simulate(NE, 1, 1)
        for k in (2, 4, 8, 16):
            got = res.simulate(NE, k, k).accelerator_speedup_vs(base)
            assert 0.93 * k <= got <= k


class TestFig10:
    """Speedup compared to software execution on the ARM A53."""

    def test_sw_hls_code_is_slower(self, res):
        ref = simulate_software(res.function, NE, variant="ref")
        hls_c = simulate_software(res.function, NE, variant="hls_c")
        assert ref / hls_c == pytest.approx(0.90, abs=0.02)  # paper: 0.90

    def test_hw_k1_loses_to_arm(self, res):
        sw = simulate_software(res.function, NE, variant="ref")
        hw1 = res.simulate(NE, 1, 1).total_seconds
        assert sw / hw1 == pytest.approx(0.69, abs=0.02)  # paper: 0.69

    def test_hw_k8_wins(self, res):
        sw = simulate_software(res.function, NE, variant="ref")
        hw = res.simulate(NE, 8, 8).total_seconds
        assert sw / hw == pytest.approx(4.86, rel=0.03)  # paper: 4.86

    def test_hw_k16_best(self, res):
        sw = simulate_software(res.function, NE, variant="ref")
        hw = res.simulate(NE, 16, 16).total_seconds
        assert sw / hw == pytest.approx(8.62, rel=0.03)  # paper: 8.62

    def test_crossover_between_1_and_8_kernels(self, res):
        """Shape check: ARM beats 1 kernel, loses from ~2 kernels upward."""
        sw = simulate_software(res.function, NE, variant="ref")
        assert sw / res.simulate(NE, 1, 1).total_seconds < 1.0
        assert sw / res.simulate(NE, 2, 2).total_seconds > 1.0

    def test_cpu_cycle_model_structure(self, res):
        ref = sw_ref_cycles_per_element(res.function)
        hls_c = sw_hls_c_cycles_per_element(res.function)
        assert hls_c > ref
        macs = 6 * 11**4 + 11**3
        assert 3.0 * macs < ref < 6.0 * macs  # plausible scalar fp64 CPI

    def test_unknown_variant(self, res):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            simulate_software(res.function, 10, CpuModel(), "gpu")


class TestSimulatorConsistency:
    def test_event_sim_matches_analytic(self, res):
        for k, m in [(1, 1), (2, 2), (4, 8), (2, 16), (16, 16)]:
            d = res.build_system(k, m)
            a = simulate_system(d, 4_800)
            e = simulate_system_events(d, 4_800)
            assert a.total_cycles == e.total_cycles, (k, m)
            assert a.compute_cycles == e.compute_cycles
            assert a.transfer_cycles == e.transfer_cycles
            assert a.control_cycles == e.control_cycles

    def test_transfers_independent_of_k(self, res):
        s1 = res.simulate(NE, 1, 1)
        s16 = res.simulate(NE, 16, 16)
        assert s1.transfer_cycles == pytest.approx(s16.transfer_cycles, rel=0.01)

    def test_compute_scales_inverse_k(self, res):
        s1 = res.simulate(NE, 1, 1)
        s8 = res.simulate(NE, 8, 8)
        assert s1.compute_cycles == pytest.approx(8 * s8.compute_cycles, rel=0.001)

    def test_k_less_m_does_not_help(self, res):
        """Paper: k<m variants 'did not show much improvements'."""
        kk = res.simulate(NE, 4, 4).total_seconds
        km = res.simulate(NE, 4, 16).total_seconds
        assert km >= 0.97 * kk  # no significant gain from batching

    def test_static_transfer_counted_once(self, res):
        d = res.build_system(1, 1)
        one = simulate_system(d, 1)
        two = simulate_system(d, 2)
        per_elem = two.transfer_cycles - one.transfer_cycles
        static = d.platform.transfer_cycles(d.static_bytes)
        assert one.transfer_cycles == static + per_elem


class TestFunctionalBatch:
    def test_run_functional_matches_reference(self, res):
        ne = 5
        data = make_element_data(11, seed=3, n_elements=ne)
        static = {"S": data["S"]}
        elements = {
            "u": data["u"],
            "D": np.stack([data["D"]] * ne),
        }
        out = require_backend("numpy").run_batch(
            res.function, elements, static, ["u", "D"]
        )
        assert out["v"].shape == (ne, 11, 11, 11)
        for e in range(ne):
            ref = reference_inverse_helmholtz(data["S"], elements["D"][e], data["u"][e])
            np.testing.assert_allclose(out["v"][e], ref, rtol=1e-11)

    def test_inconsistent_element_counts(self, res):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            require_backend("numpy").run_batch(
                res.function,
                {"u": np.zeros((2, 11, 11, 11)), "D": np.zeros((3, 11, 11, 11))},
                {"S": np.zeros((11, 11))},
                ["u", "D"],
            )
