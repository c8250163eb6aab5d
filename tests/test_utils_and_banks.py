"""Tests for utilities and the multi-bank PLM extension."""

import pytest

from repro.errors import MemoryArchitectureError
from repro.mnemosyne import MnemosyneConfig, PortClass, SharingMode, brams_for_unit
from repro.mnemosyne.sharing import build_memory_subsystem
from repro.utils import (
    ascii_barchart,
    ascii_table,
    ceil_div,
    format_si,
    is_power_of_two,
    pairwise_disjoint,
    prod,
)


class TestUtils:
    def test_prod(self):
        assert prod([2, 3, 4]) == 24
        assert prod([]) == 1

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_is_power_of_two(self):
        assert all(is_power_of_two(x) for x in (1, 2, 4, 1024))
        assert not any(is_power_of_two(x) for x in (0, 3, 6, -4))

    def test_pairwise_disjoint(self):
        assert pairwise_disjoint([frozenset("ab"), frozenset("cd")])
        assert not pairwise_disjoint([frozenset("ab"), frozenset("bc")])

    def test_ascii_table(self):
        text = ascii_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2]
        assert "333" in text

    def test_ascii_barchart(self):
        text = ascii_barchart(["x", "yy"], [1.0, 2.0], width=10)
        assert "##########" in text
        with pytest.raises(ValueError):
            ascii_barchart(["x"], [1.0, 2.0])

    def test_format_si(self):
        assert format_si(12_580) == "12.58 k"
        assert format_si(2.5e6, "Hz") == "2.50 MHz"


def _config(banks=None):
    return MnemosyneConfig(
        arrays=["a", "b"],
        sizes={"a": 1331, "b": 1331},
        word_bits=64,
        port_classes={
            "a": PortClass.ACCELERATOR_ONLY,
            "b": PortClass.ACCELERATOR_ONLY,
        },
        address_space_edges={frozenset(("a", "b"))},
        banks=banks or {},
    )


class TestMultiBank:
    def test_bank_geometry(self):
        # 1331 words cyclic(2): 2 banks x ceil(666/512) = 4 tiles (vs 3)
        assert brams_for_unit(1331, PortClass.ACCELERATOR_ONLY, banks=2) == 4
        assert brams_for_unit(1331, PortClass.ACCELERATOR_ONLY, banks=4) == 4
        assert brams_for_unit(1331, PortClass.ACCELERATOR_AND_SYSTEM, banks=2) == 4

    def test_invalid_banks(self):
        with pytest.raises(MemoryArchitectureError):
            brams_for_unit(100, PortClass.ACCELERATOR_ONLY, banks=0)

    def test_merged_unit_takes_max_banks(self):
        cfg = _config(banks={"a": 2})
        mem = build_memory_subsystem(cfg, SharingMode.MATCHING)
        assert mem.n_units == 1
        assert mem.units[0].banks == 2
        assert mem.units[0].brams == 4

    def test_banks_increase_kernel_brams(self):
        from repro.apps.helmholtz import HELMHOLTZ_DSL
        from repro.codegen.hlsdirectives import HlsDirectives
        from repro.flow import FlowOptions, compile_any

        arrays = ["S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"]
        plain = compile_any(HELMHOLTZ_DSL)
        banked = compile_any(
            HELMHOLTZ_DSL,
            FlowOptions(
                directives=HlsDirectives(
                    unroll_factor=2, array_partition={a: 2 for a in arrays}
                )
            ),
        )
        assert banked.memory.brams > plain.memory.brams
        assert banked.hls.max_ii == 1  # partitioning keeps II=1 while unrolled
        # the unroll/partition trade-off: fewer parallel kernels fit
        assert banked.build_system().k <= plain.build_system().k

    def test_banks_survive_json(self):
        cfg = _config(banks={"a": 4})
        back = MnemosyneConfig.from_json(cfg.to_json())
        assert back.banks_of("a") == 4
        assert back.banks_of("b") == 1
