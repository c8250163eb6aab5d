"""HBM memory architectures: bank assignment, the bank-assign stage,
and banked transfer timing (Soldavini et al. 2022 sequel flow)."""

import numpy as np
import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import MemoryArchitectureError, SystemGenerationError
from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.session import Flow
from repro.mnemosyne.hbm import (
    BankingReport,
    ChannelAssignment,
    HbmSpillError,
    TensorDemand,
    assign_banks,
    channels_needed,
)
from repro.system.board import ALVEO_U280, ZCU106

GB = 1e9
MIB = 1 << 20


def demand(name, direction="in", bps=1.0 * GB, resident=1 * MIB, bpe=8):
    return TensorDemand(
        name=name,
        direction=direction,
        bytes_per_element=bpe,
        bytes_per_sec=bps,
        resident_bytes=resident,
    )


def u280_banks(demands, **kw):
    mem = ALVEO_U280.memory
    return assign_banks(
        demands,
        board=ALVEO_U280.name,
        n_channels=mem.hbm_channels,
        channel_bytes_per_sec=mem.hbm_channel_bytes_per_sec,
        channel_bytes=mem.hbm_channel_bytes,
        **kw,
    )


class TestChannelsNeeded:
    def test_small_demand_takes_one_channel(self):
        d = demand("u", bps=1.0 * GB, resident=1 * MIB)
        assert channels_needed(d, 14.375 * GB, 256 * MIB) == 1

    def test_bandwidth_forces_striping(self):
        d = demand("u", bps=30.0 * GB, resident=1 * MIB)
        assert channels_needed(d, 14.375 * GB, 256 * MIB) == 3

    def test_capacity_forces_striping(self):
        d = demand("u", bps=1.0 * GB, resident=600 * MIB)
        assert channels_needed(d, 14.375 * GB, 256 * MIB) == 3

    def test_static_operand_takes_one_channel(self):
        d = demand("S", direction="static", bps=0.0, resident=1 * MIB)
        assert channels_needed(d, 14.375 * GB, 256 * MIB) == 1


class TestAssignBanks:
    def test_every_tensor_gets_exclusive_channels(self):
        report = u280_banks(
            [demand("u"), demand("D"), demand("v", "out"),
             demand("S", "static", bps=0.0)]
        )
        seen = set()
        for a in report.assignments:
            assert a.n_channels >= 1
            assert not (seen & set(a.channels))
            seen.update(a.channels)
        assert report.channels_used == len(seen) == 4

    def test_ffd_order_biggest_bandwidth_first(self):
        report = u280_banks(
            [demand("small", bps=1 * GB), demand("big", bps=40 * GB)]
        )
        assert report.assignments[0].tensor == "big"
        assert report.assignments[0].n_channels == 3
        assert report.assignments[1].channels == (3,)

    def test_utilization_at_most_one_by_construction(self):
        report = u280_banks(
            [demand("a", bps=33 * GB), demand("b", bps=14.375 * GB)]
        )
        for util in report.channel_utilization().values():
            assert 0.0 <= util <= 1.0

    def test_spill_names_offending_tensor(self):
        # 33 streamed tensors, one channel each, on 32 channels
        demands = [demand(f"t{i:02d}") for i in range(33)]
        with pytest.raises(HbmSpillError) as exc:
            u280_banks(demands)
        msg = str(exc.value)
        assert "t32" in msg  # FFD tie-break is by name: t32 arrives last
        assert "Alveo U280" in msg
        assert "reduce" in msg  # remediation hint, not just "full"

    def test_oversized_single_tensor_spills(self):
        with pytest.raises(HbmSpillError) as exc:
            u280_banks([demand("huge", bps=500 * GB)])
        assert "huge" in str(exc.value)

    def test_duplicate_tensor_rejected(self):
        with pytest.raises(MemoryArchitectureError):
            u280_banks([demand("u"), demand("u", "out")])

    def test_achievable_rate_bounded_by_slowest_streamed(self):
        report = u280_banks(
            [demand("u", bpe=16), demand("v", "out", bpe=8),
             demand("S", "static", bps=0.0, bpe=8)]
        )
        # u: 14.375 GB/s over 16 B/elem is the bottleneck
        assert report.achievable_elements_per_sec() == pytest.approx(
            14.375 * GB / 16
        )

    def test_phase_time_is_max_not_sum(self):
        report = u280_banks([demand("u"), demand("D")])
        one = BankingReport(
            board=report.board,
            n_channels=report.n_channels,
            channel_bytes_per_sec=report.channel_bytes_per_sec,
            channel_bytes=report.channel_bytes,
            assignments=report.assignments[:1],
        )
        # two equal tensors on their own channels fill concurrently
        ne = 1000
        assert report.phase_seconds("in", ne) == one.phase_seconds("in", ne)
        assert report.phase_cycles("out", ne, 200e6) == 0  # no out tensors

    def test_static_phase_ignores_element_count(self):
        report = u280_banks([demand("S", "static", bps=0.0, resident=8 * MIB)])
        assert report.phase_seconds("static", 1) == report.phase_seconds(
            "static", 100_000
        )

    def test_report_validates_exclusive_channels(self):
        a = ChannelAssignment("u", "in", (0, 1), 8, 1.0 * GB, MIB)
        b = ChannelAssignment("v", "out", (1,), 8, 1.0 * GB, MIB)
        with pytest.raises(MemoryArchitectureError):
            BankingReport(
                board="x", n_channels=32,
                channel_bytes_per_sec=14.375 * GB, channel_bytes=256 * MIB,
                assignments=(a, b),
            )

    def test_report_validates_channel_range(self):
        a = ChannelAssignment("u", "in", (40,), 8, 1.0 * GB, MIB)
        with pytest.raises(MemoryArchitectureError):
            BankingReport(
                board="x", n_channels=32,
                channel_bytes_per_sec=14.375 * GB, channel_bytes=256 * MIB,
                assignments=(a,),
            )

    def test_summary_mentions_channels_and_tensors(self):
        report = u280_banks([demand("u"), demand("S", "static", bps=0.0)])
        text = report.summary()
        assert "2/32 channels" in text
        assert "u" in text and "S" in text

    def test_unknown_direction_rejected(self):
        with pytest.raises(MemoryArchitectureError):
            demand("u", direction="sideways")


def hbm_options(**system_kw):
    system_kw.setdefault("board", ALVEO_U280)
    system_kw.setdefault("memory_model", "hbm")
    system_kw.setdefault("n_elements", 10_000)
    return FlowOptions(system=SystemOptions(**system_kw))


class TestBankAssignStage:
    def test_hbm_flow_reports_banking(self):
        res = Flow(HELMHOLTZ_DSL, hbm_options()).run()
        banking = res.banking
        assert banking is not None
        footprint = res.footprint
        # >= 1 channel per streamed transfer-footprint tensor
        for name in footprint.streamed:
            assert banking.assignment_of(name).n_channels >= 1
        for util in banking.channel_utilization().values():
            assert util <= 1.0
        assert banking.board == "Alveo U280"
        assert banking.demanded_elements_per_sec > 0

    def test_bram_flow_has_no_banking(self):
        res = Flow(
            HELMHOLTZ_DSL,
            FlowOptions(system=SystemOptions(board=ALVEO_U280)),
        ).run()
        assert res.banking is None

    def test_hbm_on_board_without_hbm_is_an_error(self):
        opts = hbm_options(board=ZCU106)
        with pytest.raises(SystemGenerationError) as exc:
            Flow(HELMHOLTZ_DSL, opts).run()
        msg = str(exc.value)
        assert "ZCU106" in msg
        assert "Alveo U280" in msg  # names the boards that do have HBM

    def test_bad_memory_model_rejected_early(self):
        with pytest.raises(SystemGenerationError):
            SystemOptions(memory_model="dram")

    def test_simulate_consults_banking(self):
        hbm = Flow(HELMHOLTZ_DSL, hbm_options()).run()
        bram = Flow(
            HELMHOLTZ_DSL,
            FlowOptions(
                system=SystemOptions(board=ALVEO_U280, n_elements=10_000)
            ),
        ).run()
        # the memory model retimes transfers only
        assert hbm.sim.compute_cycles == bram.sim.compute_cycles
        assert hbm.sim.control_cycles == bram.sim.control_cycles
        assert hbm.sim.transfer_cycles != bram.sim.transfer_cycles
        # 3 streamed tensors in parallel beat one shared AXI port
        assert hbm.sim.transfer_cycles < bram.sim.transfer_cycles

    def test_banking_consistent_with_overlap_strategy(self):
        hbm = Flow(HELMHOLTZ_DSL, hbm_options(overlap_transfers=True)).run()
        assert hbm.banking is not None
        assert hbm.sim is not None

    def test_result_simulate_reuses_banking(self):
        res = Flow(HELMHOLTZ_DSL, hbm_options()).run()
        again = res.simulate(res.sim.n_elements)
        assert again == res.sim
        other = res.simulate(5_000)
        assert other.transfer_cycles < res.sim.transfer_cycles

    def test_stage_registry_order(self):
        from repro.flow.stages import SYSTEM_STAGES, stage_names

        names = stage_names()
        assert SYSTEM_STAGES == ("build-system", "bank-assign", "simulate")
        assert names.index("bank-assign") == names.index("build-system") + 1
        assert names.index("simulate") == names.index("bank-assign") + 1

    def test_explicit_k_m_hbm(self):
        res = Flow(HELMHOLTZ_DSL, hbm_options(k=4, m=8)).run()
        assert (res.system.k, res.system.m) == (4, 8)
        assert res.banking is not None


class TestFunctionalPreservation:
    """The memory model must not change numbers, only modeled timing."""

    @pytest.mark.parametrize("suite", ["smoother", "helmholtz-gradient",
                                       "fem-cfd"])
    def test_chain_outputs_bit_identical_across_memory_models(self, suite):
        from repro.apps.workloads import make_workload
        from repro.exec import backend_names, get_backend
        from repro.exec.programs import run_chain_batch
        from repro.flow.program import compile_program

        workload = make_workload(suite, n=4, n_elements=3)
        results = {}
        for model in ("bram", "hbm"):
            opts = FlowOptions(
                system=SystemOptions(
                    board=ALVEO_U280, memory_model=model, n_elements=1_000
                )
            )
            results[model] = compile_program(workload.program, opts)
        for backend in backend_names():
            if not get_backend(backend).available():
                continue
            out_bram = run_chain_batch(
                results["bram"].chain(), workload.elements, workload.static,
                backend=backend,
            )
            out_hbm = run_chain_batch(
                results["hbm"].chain(), workload.elements, workload.static,
                backend=backend,
            )
            assert sorted(out_bram) == sorted(out_hbm)
            for name in out_bram:
                np.testing.assert_array_equal(out_bram[name], out_hbm[name])

    def test_functional_batch_runs_under_hbm(self):
        res = Flow(
            HELMHOLTZ_DSL, hbm_options(exec_backend="numpy")
        ).run()
        assert res.functional is not None
        assert res.banking is not None


class TestFusionDemotion:
    def test_internalized_intermediates_consume_no_channels(self):
        from repro.apps.workloads import make_workload
        from repro.flow.program import compile_program

        workload = make_workload("smoother", n=4, n_elements=3)
        opts = FlowOptions(
            fusion="auto",
            system=SystemOptions(
                board=ALVEO_U280, memory_model="hbm", n_elements=1_000
            ),
        )
        result = compile_program(workload.program, opts)
        assert result.fused, "smoother is expected to fuse"
        for name, fk in result.fused.items():
            banking = result[name].banking
            assert banking is not None
            assigned = {a.tensor for a in banking.assignments}
            # fusion demoted these to on-device PLMs; they must not
            # appear in the demand set, let alone hold channels
            assert not (assigned & set(fk.internalized))


class TestSpecBackCompat:
    def test_options_spec_round_trip_with_memory_model(self):
        opts = hbm_options(k=2, m=4)
        assert FlowOptions.from_spec(opts.to_spec()) == opts

    def test_pre_upgrade_spec_loads_and_runs(self):
        # a durable broker job written before this release: no
        # memory_model key, and Board specs without a memory entry
        opts = FlowOptions(
            system=SystemOptions(k=2, m=2, n_elements=1_000)
        )
        spec = opts.to_spec()
        del spec["system"]["memory_model"]
        spec["board"].pop("memory")
        restored = FlowOptions.from_spec(spec)
        assert restored.system.memory_model == "bram"
        assert not restored.board.memory.has_hbm
        res = Flow(HELMHOLTZ_DSL, restored).run()
        assert res.banking is None
        assert res.sim is not None

    def test_pre_upgrade_system_board_spec(self):
        opts = FlowOptions(system=SystemOptions(board=ALVEO_U280))
        spec = opts.to_spec()
        del spec["system"]["memory_model"]
        spec["system"]["board"].pop("memory")
        restored = FlowOptions.from_spec(spec)
        assert restored.system.board.name == "Alveo U280"
        assert restored.system.memory_model == "bram"


class TestCli:
    def test_cli_memory_model_hbm(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        rc = cli_main([
            "--app", "helmholtz", "-n", "5", "--board", "u280",
            "--memory-model", "hbm", "--simulate", "-o", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "HBM banking on Alveo U280" in out

    def test_cli_hbm_on_zcu106_fails_loudly(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        rc = cli_main([
            "--app", "helmholtz", "-n", "5",
            "--memory-model", "hbm", "-o", str(tmp_path),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert "ZCU106" in err

    def test_cli_list_boards_memory_columns(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--list-boards"]) == 0
        out = capsys.readouterr().out
        assert "HBM ch" in out and "GB/s/ch" in out and "DDR GB/s" in out
        assert "14.375" in out

    def test_cli_bram_output_unchanged(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        rc = cli_main([
            "--app", "helmholtz", "-n", "5", "-o", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "HBM banking" not in out


class TestHbmRegimes:
    """k x m sweeps on the U280 expose the two streaming regimes."""

    def test_small_k_is_bandwidth_limited_large_k_compute_limited(self):
        reports = {}
        for k in (1, 64):
            res = Flow(HELMHOLTZ_DSL, hbm_options(k=k, m=k)).run()
            reports[k] = (res.banking, res.sim)
        # demanded rate grows with k; the channel-side ceiling does not
        b1, _ = reports[1]
        b64, _ = reports[64]
        assert b64.demanded_elements_per_sec > b1.demanded_elements_per_sec
        assert b1.achievable_elements_per_sec() == pytest.approx(
            b64.achievable_elements_per_sec()
        )

    def test_max_k_scales_beyond_zcu106(self):
        from repro.system.replicate import max_parallel_config

        res = Flow(HELMHOLTZ_DSL, hbm_options()).run()
        u280_choice = max_parallel_config(
            res.hls.resources, res.memory, ALVEO_U280
        )
        zcu_choice = max_parallel_config(
            res.hls.resources, res.memory, ZCU106
        )
        assert u280_choice.k > zcu_choice.k
