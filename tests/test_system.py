"""Tests for the system generator: replication (Eq. 3), integration, HDL."""

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import SystemGenerationError
from repro.flow import FlowOptions, compile_any
from repro.mnemosyne import SharingMode
from repro.system import ZCU106, emit_system_hdl, emit_host_code
from repro.system.host import HostModel
from repro.system.replicate import (
    feasible_configurations,
    max_parallel_config,
    validate_configuration,
)


def flow(sharing=SharingMode.MATCHING, **kw):
    return compile_any(HELMHOLTZ_DSL, FlowOptions(sharing=sharing, **kw))


class TestReplication:
    def test_sharing_fits_16_kernels(self):
        res = flow()
        choice = max_parallel_config(res.hls.resources, res.memory, ZCU106)
        assert choice.k == 16 and choice.m == 16  # paper Sec. VI

    def test_no_sharing_fits_only_8(self):
        res = flow(SharingMode.NONE)
        choice = max_parallel_config(res.hls.resources, res.memory, ZCU106)
        assert choice.k == 8 and choice.m == 8  # paper Sec. VI

    def test_bram_is_binding_constraint_without_sharing(self):
        res = flow(SharingMode.NONE)
        d8 = res.build_system(8, 8).resources
        assert d8.bram == 8 * 31 == 248
        # doubling would need 496 > 312 BRAMs while LUT/FF/DSP still fit
        assert 16 * 31 > ZCU106.bram36
        assert d8.lut * 2 < ZCU106.lut

    def test_k_less_than_m_configs_feasible(self):
        res = flow()
        configs = feasible_configurations(res.hls.resources, res.memory, ZCU106)
        pairs = {(c.k, c.m) for c in configs}
        assert (4, 16) in pairs and (1, 2) in pairs
        for c in configs:
            assert c.m % c.k == 0

    def test_validate_configuration(self):
        validate_configuration(4, 16)
        validate_configuration(3, 6)  # batch = 2: a power-of-two multiple
        with pytest.raises(SystemGenerationError):
            validate_configuration(4, 12)  # batch = 3: not a power of two
        with pytest.raises(SystemGenerationError):
            validate_configuration(4, 2)  # k > m

    def test_infeasible_board(self):
        from repro.system.board import Board

        tiny = Board("tiny", "x", lut=1000, ff=1000, dsp=4, bram36=4)
        res = flow()
        with pytest.raises(SystemGenerationError):
            max_parallel_config(res.hls.resources, res.memory, tiny)


class TestTableOne:
    """Resource totals versus the paper's Table I (<= 5 % LUT/FF error)."""

    PAPER = {
        SharingMode.NONE: {
            1: (11_318, 9_523, 15),
            2: (15_929, 12_583, 30),
            4: (25_728, 18_663, 60),
            8: (42_679, 30_795, 120),
        },
        SharingMode.MATCHING: {
            1: (11_292, 9_533, 15),
            2: (15_572, 12_596, 30),
            4: (24_480, 18_663, 60),
            8: (42_141, 30_782, 120),
            16: (77_235, 55_053, 240),
        },
    }

    @pytest.mark.parametrize("mode", [SharingMode.NONE, SharingMode.MATCHING])
    def test_totals_close_to_paper(self, mode):
        res = flow(mode)
        for m, (lut, ff, dsp) in self.PAPER[mode].items():
            r = res.build_system(m, m).resources
            assert abs(r.lut - lut) / lut < 0.05, (mode, m, r.lut, lut)
            assert abs(r.ff - ff) / ff < 0.05, (mode, m, r.ff, ff)
            assert r.dsp == dsp

    def test_m16_requires_sharing(self):
        res = flow(SharingMode.NONE)
        with pytest.raises(SystemGenerationError):
            res.build_system(16, 16)


class TestHostModel:
    def test_round_counts(self):
        h = HostModel(50_000, 8, 8)
        assert h.main_iterations == 6_250
        assert h.rounds_per_iteration == 1
        assert h.total_rounds == 6_250

    def test_batched_rounds(self):
        h = HostModel(50_000, 4, 16)
        assert h.main_iterations == 3_125
        assert h.rounds_per_iteration == 4
        assert h.total_rounds == 12_500

    def test_invalid_elements(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            HostModel(0, 1, 1)


class TestArtifacts:
    def test_hdl_structure(self):
        res = flow()
        design = res.build_system(4, 8)
        hdl = emit_system_hdl(design)
        assert "module cfd_system" in hdl
        assert hdl.count("kernel_body acc") == 4
        assert "batch" in hdl and "Fig. 7c" in hdl
        assert hdl.count("plm_unit #(") == 8 * res.memory.n_units

    def test_hdl_k_equals_m(self):
        res = flow()
        hdl = emit_system_hdl(res.build_system(2, 2))
        assert "Fig. 7b" in hdl

    def test_hdl_single(self):
        res = flow()
        hdl = emit_system_hdl(res.build_system(1, 1))
        assert "Fig. 7a" in hdl

    def test_host_code(self):
        res = flow()
        code = emit_host_code(res.build_system(8, 8), 50_000)
        assert "#define NE        50000" in code
        assert "#define K_ACCS    8" in code
        assert "wait_for_interrupt" in code

    def test_system_summary(self):
        res = flow()
        text = res.build_system(16, 16).summary()
        assert "k=16" in text and "BRAM36" in text


class TestBoardRegistry:
    def test_boards_keyed_by_display_name(self):
        from repro.system.board import boards

        reg = boards()
        assert "ZCU106" in reg and "Alveo U280" in reg
        assert reg["ZCU106"] is ZCU106

    def test_lookup_by_name_case_and_punctuation(self):
        from repro.system.board import ALVEO_U280, get_board

        for alias in ("Alveo U280", "alveo u280", "ALVEO-U280", "alveou280",
                      "Alveo_U280"):
            assert get_board(alias) is ALVEO_U280
        for alias in ("ZCU106", "zcu106", "zcu-106", "Zcu 106"):
            assert get_board(alias) is ZCU106

    def test_lookup_by_part_number_and_short_alias(self):
        from repro.system.board import ALVEO_U280, get_board

        assert get_board("xczu7ev-ffvc1156-2") is ZCU106
        assert get_board("XCZU7EV-FFVC1156-2") is ZCU106
        assert get_board("xcu280-fsvh2892-2L") is ALVEO_U280
        assert get_board("u280") is ALVEO_U280
        assert get_board("U280") is ALVEO_U280

    def test_unknown_board_error_names_known_boards(self):
        from repro.system.board import get_board

        with pytest.raises(SystemGenerationError) as exc:
            get_board("vcu118")
        msg = str(exc.value)
        assert "vcu118" in msg
        assert "ZCU106" in msg and "Alveo U280" in msg

    def test_boards_are_immutable(self):
        import dataclasses

        from repro.system.board import ALVEO_U280

        with pytest.raises(dataclasses.FrozenInstanceError):
            ZCU106.lut = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ALVEO_U280.memory.hbm_channels = 64

    def test_memory_system_descriptions(self):
        from repro.system.board import ALVEO_U280

        assert not ZCU106.memory.has_hbm
        assert ZCU106.memory.ddr_gbytes_per_sec == 19.2
        mem = ALVEO_U280.memory
        assert mem.has_hbm
        assert mem.hbm_channels == 32
        assert mem.hbm_total_gbytes_per_sec == pytest.approx(460.0)
        assert mem.hbm_channel_bytes == 256 << 20
        assert mem.hbm_channel_bytes_per_sec == pytest.approx(14.375e9)

    def test_board_spec_round_trip(self):
        from repro.system.board import ALVEO_U280, Board

        for board in (ZCU106, ALVEO_U280):
            assert Board.from_spec(board.to_spec()) == board

    def test_board_spec_without_memory_key_restores_default(self):
        # durable broker jobs written before the memory-system release
        # carry Board specs with no "memory" entry
        from repro.system.board import Board

        spec = ZCU106.to_spec()
        spec.pop("memory")
        restored = Board.from_spec(spec)
        assert restored.lut == ZCU106.lut
        assert not restored.memory.has_hbm
        assert restored.memory.ddr_gbytes_per_sec == 0.0
