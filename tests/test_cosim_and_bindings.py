"""Tests for the host-loop cosimulation, language bindings, and the
division/addition operator path (preconditioner app)."""

import numpy as np
import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL, make_element_data
from repro.apps.preconditioner import (
    make_preconditioner_data,
    preconditioner_program,
)
from repro.errors import SimulationError
from repro.flow import compile_any
from repro.sim.cosim import cosimulate
from repro.system.host import emit_cpp_binding, emit_fortran_binding


@pytest.fixture(scope="module")
def res():
    return compile_any(HELMHOLTZ_DSL)


def element_data(ne, n=11, seed=4):
    rng = np.random.default_rng(seed)
    base = make_element_data(n, seed=seed)
    return (
        {"S": base["S"]},
        {
            "u": rng.standard_normal((ne, n, n, n)),
            "D": 0.5 + rng.random((ne, n, n, n)),
        },
    )


class TestCosim:
    @pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (2, 4), (1, 4), (4, 4)])
    def test_outputs_in_element_order(self, res, k, m):
        design = res.build_system(k, m)
        static, elements = element_data(ne=8)
        out, _ = cosimulate(design, res.function, static, elements)
        # reference: element-by-element interpretation
        from repro.teil import interpret

        for e in range(8):
            ref = interpret(
                res.function,
                {"S": static["S"], "u": elements["u"][e], "D": elements["D"][e]},
            )["v"]
            np.testing.assert_allclose(out["v"][e], ref, rtol=1e-12)

    def test_fig7c_steering(self, res):
        """Paper: k=2, m=4 -> round 0: ACC0-PLM0, ACC1-PLM2;
        round 1: ACC0-PLM1, ACC1-PLM3."""
        design = res.build_system(2, 4)
        static, elements = element_data(ne=4)
        _, trace = cosimulate(design, res.function, static, elements)
        assert trace.rounds[0] == [(0, 0, 0), (1, 2, 2)]
        assert trace.rounds[1] == [(0, 1, 1), (1, 3, 3)]

    def test_ne_must_be_multiple_of_m(self, res):
        design = res.build_system(2, 4)
        static, elements = element_data(ne=6)
        with pytest.raises(SimulationError, match="multiple of m"):
            cosimulate(design, res.function, static, elements)

    def test_round_count(self, res):
        design = res.build_system(2, 4)
        static, elements = element_data(ne=8)
        _, trace = cosimulate(design, res.function, static, elements)
        # 2 main iterations x batch 2 rounds
        assert len(trace.rounds) == 4


class TestBindings:
    def test_cpp_binding(self, res):
        text = emit_cpp_binding(res.build_system(16, 16))
        assert "namespace cfdlang" in text
        assert "void kernel_body(" in text
        assert "kernel_body_set_operands" in text

    def test_fortran_binding(self, res):
        text = emit_fortran_binding(res.build_system(16, 16))
        assert "bind(c, name='kernel_body')" in text
        assert "iso_c_binding" in text
        assert "end module" in text


class TestPreconditionerApp:
    def test_flow_compiles_division(self):
        res = compile_any(preconditioner_program(6))
        assert any("ewise:/" in s.kind for s in res.poly.statements)
        # the fp64 divider is expensive in LUTs, uses no DSPs in this model
        assert res.hls.resources.lut > 4000

    def test_functional_correctness(self):
        from repro.codegen import run_python_kernel

        res = compile_any(preconditioner_program(5))
        data, ref = make_preconditioner_data(5, seed=3)
        got = run_python_kernel(res.poly, data)["w"]
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_sharing_safe_with_ewise_chain(self):
        from repro.codegen import run_python_kernel

        res = compile_any(preconditioner_program(5))
        data, ref = make_preconditioner_data(5, seed=6)
        got = run_python_kernel(res.poly, data, memory=res.memory)["w"]
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_latency_dominated_by_divider(self):
        res = compile_any(preconditioner_program(8))
        # ddiv pipeline depth is ~3.6x the mul+add depth; with II=1 the
        # stage latency is still ~trip-count bound
        assert res.hls.latency_cycles < 4 * 8**3
