"""Tests for the future-work extensions: transfer overlap, cluster scaling."""

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import SimulationError
from repro.flow import compile_any
from repro.sim.simulator import simulate_system
from repro.system.cluster import (
    NetworkModel,
    scaling_series,
    simulate_cluster,
)

NE = 50_000


@pytest.fixture(scope="module")
def res():
    return compile_any(HELMHOLTZ_DSL)


class TestOverlapTransfers:
    def test_overlap_requires_spare_plm_sets(self, res):
        d = res.build_system(8, 8)
        serial = simulate_system(d, NE)
        overlap = simulate_system(d, NE, overlap_transfers=True)
        assert overlap.total_cycles == serial.total_cycles  # batch=1: no-op

    def test_overlap_hides_transfers(self, res):
        d = res.build_system(8, 16)
        serial = simulate_system(d, NE)
        overlap = simulate_system(d, NE, overlap_transfers=True)
        assert overlap.total_seconds < serial.total_seconds
        # compute is untouched; only exposed transfer time shrinks
        assert overlap.compute_cycles == serial.compute_cycles
        assert overlap.transfer_cycles < serial.transfer_cycles

    def test_overlap_bounded_by_compute(self, res):
        """When compute dominates, total approaches the accelerator bound."""
        d = res.build_system(2, 4)
        overlap = simulate_system(d, NE, overlap_transfers=True)
        lower = overlap.compute_cycles + overlap.control_cycles
        assert overlap.total_cycles < 1.01 * lower + 10_000

    def test_overlap_never_loses(self, res):
        for k, m in [(1, 2), (2, 8), (4, 16), (8, 16)]:
            d = res.build_system(k, m)
            s = simulate_system(d, NE)
            o = simulate_system(d, NE, overlap_transfers=True)
            assert o.total_cycles <= s.total_cycles, (k, m)


class TestCluster:
    def test_single_board_matches_system_sim(self, res):
        d = res.build_system(16, 16)
        c = simulate_cluster(d, NE, 1)
        s = simulate_system(d, NE)
        assert c.board_seconds == pytest.approx(s.total_seconds)
        assert c.network_seconds > 0

    def test_scaling_monotone(self, res):
        d = res.build_system(16, 16)
        series = scaling_series(d, NE, [1, 2, 4, 8])
        times = [r.total_seconds for r in series]
        assert times == sorted(times, reverse=True)

    def test_network_becomes_bottleneck(self, res):
        d = res.build_system(16, 16)
        slow_net = NetworkModel(bandwidth_bytes_per_s=1e9)
        fast = simulate_cluster(d, NE, 8)
        slow = simulate_cluster(d, NE, 8, slow_net)
        assert slow.total_seconds > fast.total_seconds
        assert slow.network_seconds > slow.board_seconds

    def test_uneven_partition_uses_ceiling(self, res):
        d = res.build_system(16, 16)
        c = simulate_cluster(d, 100, 3)  # 34 elements on the slowest board
        s = simulate_system(d, 34)
        assert c.board_seconds == pytest.approx(s.total_seconds)

    def test_invalid_boards(self, res):
        d = res.build_system(1, 1)
        with pytest.raises(SimulationError):
            simulate_cluster(d, 10, 0)

    def test_result_rendering(self, res):
        d = res.build_system(16, 16)
        text = str(simulate_cluster(d, NE, 4))
        assert "4 boards" in text and "network" in text

    def test_speedup_helper(self, res):
        d = res.build_system(16, 16)
        a = simulate_cluster(d, NE, 1)
        b = simulate_cluster(d, NE, 4)
        assert b.speedup_vs(a) > 1.5
