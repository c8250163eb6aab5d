"""Tests for the HLS model: II analysis, latency, resources, reports."""

import pytest

from repro.apps.helmholtz import inverse_helmholtz_program, make_element_data
from repro.codegen import generate_kernel
from repro.codegen.hlsdirectives import HlsDirectives
from repro.errors import HLSError
from repro.hls import csim_kernel, synthesize
from repro.hls.opcost import DEFAULT_LIBRARY, operators_for_kind
from repro.poly.reschedule import reschedule
from repro.poly.schedule import reference_schedule
from repro.teil import canonicalize, lower_program


def helmholtz_kernel(n=11, pipeline="flatten", **kw):
    fn = canonicalize(lower_program(inverse_helmholtz_program(n)))
    placement = "outside" if pipeline == "flatten" else "innermost"
    prog = reschedule(reference_schedule(fn), placement)
    directives = HlsDirectives(pipeline=pipeline, **kw)
    return generate_kernel(prog, directives=directives), directives, prog


class TestResourceCalibration:
    def test_helmholtz_matches_paper_report(self):
        """Paper Sec. VI: 2,314 LUTs, 2,999 FFs, 15 DSPs."""
        code, directives, _ = helmholtz_kernel()
        rep = synthesize(code, directives)
        assert rep.resources.lut == 2314
        assert rep.resources.ff == 2999
        assert rep.resources.dsp == 15
        assert rep.resources.bram == 0  # all arrays exported

    def test_unroll_scales_datapath(self):
        code, directives, _ = helmholtz_kernel(unroll_factor=2)
        rep = synthesize(code, directives)
        assert rep.resources.dsp == 30

    def test_temporaries_internal_has_bram(self):
        from repro.codegen import generate_kernel as gk

        _, directives, prog = helmholtz_kernel()
        code = gk(prog, directives=directives, temporaries_internal=True)
        rep = synthesize(code, directives)
        assert rep.resources.bram == 24  # paper: accelerator used 24 BRAMs

    def test_different_kernel_different_resources(self):
        from repro.apps.interpolation import interpolation_program

        fn = canonicalize(lower_program(interpolation_program(8, 12)))
        prog = reschedule(reference_schedule(fn), "outside")
        code = generate_kernel(prog)
        rep = synthesize(code)
        helm = synthesize(helmholtz_kernel()[0])
        assert rep.resources.lut != helm.resources.lut
        assert rep.resources.dsp == 15  # still one shared MAC


class TestLatency:
    def test_flatten_ii1_latency(self):
        """All stages II=1 -> ~89.3k cycles for p=11 (feeds Fig. 9)."""
        code, directives, _ = helmholtz_kernel()
        rep = synthesize(code, directives)
        assert all(s.ii == 1 for s in rep.stage_schedules)
        assert 89_000 <= rep.latency_cycles <= 90_000

    def test_reduction_innermost_hits_recurrence(self):
        code, directives, _ = helmholtz_kernel(pipeline="inner")
        rep = synthesize(code, directives)
        contract = [s for s in rep.stage_schedules if s.trip_count == 11**4]
        assert all(s.ii == DEFAULT_LIBRARY.dadd.latency for s in contract)
        assert all(s.limited_by == "recurrence" for s in contract)

    def test_no_pipeline_much_slower(self):
        code_f, dir_f, _ = helmholtz_kernel()
        code_n, dir_n, _ = helmholtz_kernel(pipeline="none")
        fast = synthesize(code_f, dir_f).latency_cycles
        slow = synthesize(code_n, dir_n).latency_cycles
        assert slow > 15 * fast

    def test_fuse_init_ablation(self):
        code, directives, _ = helmholtz_kernel()
        fused = synthesize(code, directives, fuse_init=True).latency_cycles
        unfused = synthesize(code, directives, fuse_init=False).latency_cycles
        # 6 contraction init passes of ~11^3 cycles each
        assert unfused - fused > 6 * 11**3

    def test_unroll_port_pressure_without_partition(self):
        code, directives, _ = helmholtz_kernel(unroll_factor=2)
        rep = synthesize(code, directives)
        assert any(s.limited_by == "ports" for s in rep.stage_schedules)

    def test_unroll_with_partition_restores_ii(self):
        arrays = ["S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"]
        code, directives, _ = helmholtz_kernel(
            unroll_factor=2, array_partition={a: 2 for a in arrays}
        )
        rep = synthesize(code, directives)
        assert all(s.ii == 1 for s in rep.stage_schedules)

    def test_latency_seconds(self):
        code, directives, _ = helmholtz_kernel()
        rep = synthesize(code, directives)
        assert rep.latency_seconds == pytest.approx(rep.latency_cycles / 200e6)


class TestReport:
    def test_summary_contains_stages(self):
        code, directives, _ = helmholtz_kernel(n=5)
        text = synthesize(code, directives).summary()
        assert "HLS report" in text and "II=1" in text

    def test_operator_mapping(self):
        assert operators_for_kind("contract") == ("dmul", "dadd")
        assert operators_for_kind("ewise:/") == ("ddiv",)
        with pytest.raises(KeyError):
            operators_for_kind("bogus")


class TestCsim:
    def test_csim_passes_for_generated_kernel(self):
        _, _, prog = helmholtz_kernel(n=4)
        data = make_element_data(4, seed=9)
        out = csim_kernel(prog, data)
        assert out["v"].shape == (4, 4, 4)

    def test_csim_detects_mismatch(self):
        _, _, prog = helmholtz_kernel(n=3)
        data = make_element_data(3, seed=9)
        import repro.hls.csim as csim_mod

        orig = csim_mod.run_python_kernel
        try:
            def corrupted(p, i, **kw):
                out = orig(p, i, **kw)
                return {k: v + 1.0 for k, v in out.items()}

            csim_mod.run_python_kernel = corrupted
            with pytest.raises(HLSError, match="csim mismatch"):
                csim_mod.csim_kernel(prog, data)
        finally:
            csim_mod.run_python_kernel = orig
