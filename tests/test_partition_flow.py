"""Flow-level explicit address-space sharing via partitioning maps
(Sec. IV-D: "non-surjective mappings ... can be used to implement explicit
address-space sharing if the transformation is legal")."""

import numpy as np
import pytest

from repro.apps.helmholtz import (
    HELMHOLTZ_DSL,
    make_element_data,
    reference_inverse_helmholtz,
    inverse_helmholtz_program,
)
from repro.codegen import run_python_kernel
from repro.errors import SystemGenerationError
from repro.flow import FlowOptions, compile_any


class TestExplicitPartitionMerges:
    def test_legal_merge_applied(self):
        res = compile_any(
            HELMHOLTZ_DSL,
            FlowOptions(partition_merges={"uv_buf": ("u", "v")}),
        )
        unit = res.memory.unit_of("u")
        assert set(unit.members) == {"u", "v"}
        # everything else stays unshared (explicit map replaces optimizer)
        assert res.memory.n_units == 9
        assert res.memory.brams == 31 - 4  # u,v (4 each) collapse to one

    def test_illegal_merge_rejected(self):
        with pytest.raises(SystemGenerationError, match="lifetimes overlap"):
            compile_any(
                HELMHOLTZ_DSL,
                FlowOptions(partition_merges={"bad": ("u", "t0")}),
            )

    def test_static_operand_merge_rejected(self):
        """S is loaded once for every element, so update_tmp0, written
        after S's last read in one fused kernel call, would clobber it."""
        from repro.apps.workloads import make_workload
        from repro.flow import compile_program

        with pytest.raises(SystemGenerationError, match="lifetimes overlap"):
            compile_program(
                make_workload("smoother", n=7).program,
                FlowOptions(fusion="auto", partition_merges={"bad": ("S", "update_tmp0")}),
            )

    def test_multi_group_merge(self):
        res = compile_any(
            HELMHOLTZ_DSL,
            FlowOptions(
                partition_merges={
                    "buf0": ("u", "t1", "r", "t3"),
                    "buf1": ("t0", "t", "t2", "v"),
                }
            ),
        )
        assert res.memory.n_units == 4  # 2 buffers + D + S
        assert res.memory.brams == 4 + 4 + 4 + 1  # the optimal 13... see below

    def test_explicit_merge_functionally_safe(self):
        n = 5
        res = compile_any(
            inverse_helmholtz_program(n),
            FlowOptions(partition_merges={"uv_buf": ("u", "v"), "tt": ("t0", "t2")}),
        )
        data = make_element_data(n, seed=33)
        got = run_python_kernel(res.poly, data, memory=res.memory)["v"]
        ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
        np.testing.assert_allclose(got, ref, rtol=1e-11)

    def test_fixpoint_violation_rejected(self):
        from repro.errors import LayoutError

        with pytest.raises(LayoutError, match="no fixpoint"):
            compile_any(
                HELMHOLTZ_DSL,
                FlowOptions(partition_merges={"u": ("v",), "w": ("u",)}),
            )
