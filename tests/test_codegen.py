"""Tests for C99 kernel emission and the Python mirror kernel."""

import numpy as np
import pytest

from repro.apps.helmholtz import (
    inverse_helmholtz_program,
    make_element_data,
    reference_inverse_helmholtz,
)
from repro.apps.gradient import gradient_program, chebyshev_diff_matrix
from repro.apps.interpolation import interpolation_program, lagrange_interpolation_matrix
from repro.codegen import generate_kernel, run_python_kernel
from repro.codegen.hlsdirectives import HlsDirectives
from repro.poly.reschedule import reschedule
from repro.poly.schedule import reference_schedule
from repro.teil import canonicalize, interpret, lower_program


def poly_of(program, factorize=True, resched=True):
    fn = canonicalize(lower_program(program), factorize=factorize)
    prog = reference_schedule(fn)
    return reschedule(prog) if resched else prog


class TestCKernel:
    def test_interface_matches_fig6(self):
        """Exported params: S, D, u, v + temporaries t, r, t0..t3."""
        prog = poly_of(inverse_helmholtz_program(11))
        code = generate_kernel(prog)
        assert code.interface_params[:4] == ["S", "D", "u", "v"]
        assert sorted(code.interface_params[4:]) == ["r", "t", "t0", "t1", "t2", "t3"]
        assert "void kernel_body(" in code.source
        assert "double S[121]" in code.source
        assert "double v[1331]" in code.source

    def test_flat_affine_addressing(self):
        prog = poly_of(inverse_helmholtz_program(11))
        code = generate_kernel(prog)
        assert "121*" in code.source and "11*" in code.source

    def test_accumulator_pattern(self):
        prog = poly_of(inverse_helmholtz_program(11))
        code = generate_kernel(prog)
        assert "double acc = 0.0;" in code.source
        assert "acc +=" in code.source

    def test_pipeline_pragmas(self):
        prog = poly_of(inverse_helmholtz_program(5))
        code = generate_kernel(prog, directives=HlsDirectives(pipeline="flatten"))
        assert "#pragma HLS PIPELINE II=1" in code.source
        assert "#pragma HLS LOOP_FLATTEN" in code.source
        assert "#pragma HLS INTERFACE ap_memory port=S" in code.source

    def test_no_pipeline_mode(self):
        prog = poly_of(inverse_helmholtz_program(5))
        code = generate_kernel(prog, directives=HlsDirectives(pipeline="none"))
        assert "PIPELINE" not in code.source

    def test_partition_pragma(self):
        prog = poly_of(inverse_helmholtz_program(5))
        code = generate_kernel(
            prog, directives=HlsDirectives(array_partition={"u": 2})
        )
        assert "ARRAY_PARTITION variable=u cyclic factor=2" in code.source

    def test_temporaries_internal_mode(self):
        prog = poly_of(inverse_helmholtz_program(11))
        code = generate_kernel(prog, temporaries_internal=True)
        assert code.interface_params == ["S", "D", "u", "v"]
        assert "double t0[1331];" in code.source

    def test_directive_validation(self):
        with pytest.raises(ValueError):
            HlsDirectives(pipeline="bogus")
        with pytest.raises(ValueError):
            HlsDirectives(pipeline_ii=0)


class TestPythonMirror:
    @pytest.mark.parametrize("factorize", [True, False])
    def test_helmholtz_generated_code_matches_interpreter(self, factorize):
        n = 4
        prog = poly_of(inverse_helmholtz_program(n), factorize=factorize)
        data = make_element_data(n, seed=5)
        got = run_python_kernel(prog, data)["v"]
        ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_unscheduled_reference_also_correct(self):
        n = 3
        prog = poly_of(inverse_helmholtz_program(n), resched=False)
        data = make_element_data(n, seed=6)
        got = run_python_kernel(prog, data)["v"]
        ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_interpolation_generated_code(self):
        n, q = 4, 6
        prog = poly_of(interpolation_program(n, q))
        I = lagrange_interpolation_matrix(n, q)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((n, n, n))
        got = run_python_kernel(prog, {"I": I, "u": u})["w"]
        ref = np.einsum("al,bm,cn,lmn->abc", I, I, I, u)
        np.testing.assert_allclose(got, ref, rtol=1e-11)

    def test_gradient_generated_code(self):
        n = 5
        prog = poly_of(gradient_program(n))
        Dm = chebyshev_diff_matrix(n)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((n, n, n))
        out = run_python_kernel(prog, {"Dm": Dm, "u": u})
        fn = canonicalize(lower_program(gradient_program(n)))
        ref = interpret(fn, {"Dm": Dm, "u": u})
        for k in ("gx", "gy", "gz"):
            np.testing.assert_allclose(out[k], ref[k], rtol=1e-11)

    def test_generated_source_is_loop_code(self):
        from repro.codegen import generate_python_kernel

        prog = poly_of(inverse_helmholtz_program(3))
        src = generate_python_kernel(generate_kernel(prog).function)
        assert src.count("for ") >= 7 * 3
        assert "def kernel_body(" in src
