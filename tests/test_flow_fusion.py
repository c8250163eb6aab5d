"""Chain fusion through the flow: planning, caching, system model,
execution conformance, solver loops, and the CLI surface."""

import copy
from collections import OrderedDict

import numpy as np
import pytest

from repro.apps.workloads import WORKLOAD_SUITES, make_workload
from repro.errors import SimulationError, SystemGenerationError
from repro.exec.backend import get_backend
from repro.exec.programs import chain_element_inputs, run_chain_batch
from repro.flow import (
    FlowOptions,
    FlowTrace,
    Program,
    SolverLoop,
    StageCache,
    compile_program,
)
from repro.flow import program as program_module
from repro.flow.cli import main as cli_main
from repro.flow.session import Flow
from repro.flow.stages import (
    FRONT_END_STAGES,
    FUSED_GROUP_STAGES,
    registered_stages,
    stage_names,
)
from repro.mnemosyne.plm import MemorySubsystem
from repro.teil.fuse import fuse_functions
from repro.teil.program import Function
from repro.teil.types import TensorKind

N = 5


def fused_compile(suite, cache=None, trace=None, keep=None, n=N):
    wl = make_workload(suite, n=n)
    keep = tuple(wl.carry) if keep is None else keep
    res = compile_program(
        wl.program,
        FlowOptions(fusion="auto", fusion_keep=keep),
        cache=cache if cache is not None else StageCache(),
        trace=trace,
    )
    return wl, res


class TestFusionPlanning:
    def test_auto_groups_per_suite(self):
        expected = {
            "smoother": [("helmholtz", "update")],
            "helmholtz-gradient": [("helmholtz", "gradient")],
            "fem-cfd": [("interpolate", "helmholtz", "gradient")],
        }
        for suite, groups in expected.items():
            _, res = fused_compile(suite)
            assert list(res.fusion.groups) == groups, suite

    def test_auto_internalizes_true_intermediates(self):
        _, res = fused_compile("helmholtz-gradient")
        fk = res.fused["fused_helmholtz_gradient"]
        assert fk.internalized == ("v",)
        assert fk.function.decls["v"].kind is TensorKind.LOCAL

    def test_fusion_keep_holds_carry_on_interface(self):
        _, res = fused_compile("smoother", keep=("w",))
        fk = res.fused["fused_helmholtz_update"]
        assert "w" not in fk.internalized
        assert fk.function.decls["w"].kind is TensorKind.OUTPUT

    def test_output_consumed_after_group_stays_kept(self):
        # gradient (outside any group) would need v if the group ended
        # before it; emulate with an explicit two-kernel group
        wl = make_workload("fem-cfd", n=N)
        res = compile_program(
            wl.program,
            FlowOptions(fusion=(("interpolate", "helmholtz"),)),
        )
        fk = res.fused["fused_interpolate_helmholtz"]
        # gradient reads u, not v/uq, so nothing is internalized here;
        # the point is the explicit plan compiles and leaves gradient solo
        assert res.fusion.units(wl.program) == [
            ("interpolate", "helmholtz"), "gradient",
        ]
        assert res.kernel_names() == ["fused_interpolate_helmholtz", "gradient"]

    def test_explicit_group_validation(self):
        wl = make_workload("fem-cfd", n=N)
        with pytest.raises(SystemGenerationError, match="at least two"):
            compile_program(wl.program, FlowOptions(fusion=(("helmholtz",),)))
        with pytest.raises(SystemGenerationError, match="unknown kernel"):
            compile_program(wl.program, FlowOptions(fusion=(("nope", "helmholtz"),)))
        with pytest.raises(SystemGenerationError, match="two fusion groups"):
            compile_program(wl.program, FlowOptions(
                fusion=(("interpolate", "helmholtz"), ("helmholtz", "gradient")),
            ))
        with pytest.raises(SystemGenerationError, match="contiguous"):
            compile_program(wl.program, FlowOptions(
                fusion=(("interpolate", "gradient"),),
            ))

    def test_bad_fusion_string_rejected(self):
        with pytest.raises(SystemGenerationError, match="fusion must be"):
            FlowOptions(fusion="aggressive")

    def test_spec_round_trip(self):
        for fusion in (None, "auto", (("a", "b"),)):
            opts = FlowOptions(fusion=fusion, fusion_keep=("w",))
            assert FlowOptions.from_spec(opts.to_spec()) == opts

    def test_old_spec_without_fusion_keys_still_parses(self):
        spec = FlowOptions().to_spec()
        del spec["fusion"], spec["fusion_keep"]
        opts = FlowOptions.from_spec(spec)
        assert opts.fusion is None and opts.fusion_keep == ()


class TestFusedCompileStructure:
    def test_units_and_summary(self):
        wl, res = fused_compile("smoother")
        assert res.fusion.units(wl.program) == [("helmholtz", "update")]
        assert "fused_helmholtz_update" in res.results
        out = res.summary()
        assert "[2 fused]" in out
        assert "on-device intermediates: v" in out
        assert "transfer bytes/element" in out

    def test_no_plan_means_per_kernel_results(self):
        wl = make_workload("smoother", n=N)
        res = compile_program(wl.program)
        assert res.fusion is None and res.fused == {}
        assert res.kernel_names() == ["helmholtz", "update"]

    def test_front_end_shared_with_unfused_compile(self):
        # per-kernel front ends run under the same cache keys whether or
        # not the program later fuses: compiling unfused first makes the
        # fused compile's front end 100% cache hits
        cache, trace = StageCache(), FlowTrace()
        wl = make_workload("smoother", n=N)
        compile_program(wl.program, cache=cache, trace=trace)
        before = len(trace.events)
        compile_program(
            wl.program, FlowOptions(fusion="auto", fusion_keep=("w",)),
            cache=cache, trace=trace,
        )
        events = trace.events[before:]
        front = [e for e in events if e.stage in FRONT_END_STAGES]
        ran = [e for e in front if not e.cached]
        # the only misses are the fused group's own post-lower stages
        assert all(e.stage not in ("parse", "analyze", "lower") for e in ran)

    def test_fused_recompile_fully_cached(self):
        cache, trace = StageCache(), FlowTrace()
        wl = make_workload("smoother", n=N)
        opts = FlowOptions(fusion="auto", fusion_keep=("w",))
        compile_program(wl.program, opts, cache=cache, trace=trace)
        before = len(trace.events)
        compile_program(wl.program, opts, cache=cache, trace=trace)
        events = trace.events[before:]
        assert events and all(e.cached for e in events)

    def test_different_keep_sets_do_not_share_fused_artifacts(self):
        wl = make_workload("smoother", n=N)
        a = compile_program(wl.program, FlowOptions(fusion="auto"))
        b = compile_program(
            wl.program, FlowOptions(fusion="auto", fusion_keep=("v",)),
        )
        fa = a.fused["fused_helmholtz_update"]
        fb = b.fused["fused_helmholtz_update"]
        assert fa.internalized == ("v",) and fb.internalized == ()
        assert fa.fingerprint() != fb.fingerprint()

    def test_fused_group_stages_are_the_post_lower_tail(self):
        assert "lower" not in FUSED_GROUP_STAGES
        assert "parse" not in FUSED_GROUP_STAGES
        assert "codegen" in FUSED_GROUP_STAGES
        assert "simulate" in FUSED_GROUP_STAGES


@pytest.fixture
def fusions(monkeypatch):
    """The member-name tuples ``fuse_functions`` ran on, against an
    empty memo of fused composites."""
    monkeypatch.setattr(program_module, "_FUSED", OrderedDict())
    calls = []
    real = program_module.fuse_functions

    def counting(chain, *args, **kwargs):
        calls.append(tuple(fn.name for fn in chain))
        return real(chain, *args, **kwargs)

    monkeypatch.setattr(program_module, "fuse_functions", counting)
    return calls


class TestFusedKernelMemo:
    def test_recompile_reuses_the_composite(self, fusions):
        _, first = fused_compile("smoother")
        _, again = fused_compile("smoother")  # a fresh stage cache
        assert fusions == [("helmholtz", "update")]
        name = "fused_helmholtz_update"
        assert again.fused[name] is first.fused[name]
        assert again[name].kernel.source == first[name].kernel.source

    def test_a_changed_member_misses_the_memo(self, fusions):
        fused_compile("smoother")
        fused_compile("smoother", n=N + 1)
        wl = make_workload("smoother", n=N)
        changed = Program("smoother").add_kernel(
            "helmholtz", wl.program.kernels[0].source
        ).add_kernel(
            "update", wl.program.kernels[1].text.replace("u + D * v", "u - D * v")
        )
        assert changed.kernels[1].text != wl.program.kernels[1].text
        compile_program(changed, FlowOptions(fusion="auto", fusion_keep=("w",)))
        assert fusions == [("helmholtz", "update")] * 3

    def test_warm_steps_fuse_nothing_and_count_every_lookup(self, fusions):
        wl = make_workload("smoother", n=N)
        result = SolverLoop(wl.program, carry=wl.carry, fusion="auto").run(
            wl.elements, wl.static, steps=4,
        )
        assert fusions == [("helmholtz", "update")]
        first = result.steps[0]
        lookups = first.front_end_executed + first.front_end_cached
        for step in result.warm_steps():
            assert (step.front_end_executed, step.front_end_cached) == (
                0, lookups
            )
        assert result.cross_step_hit_rate() == 1.0


def _functions(state):
    """Every TeIL function a flow's artifacts hold, with a deep copy of
    its attributes."""
    out = {}
    for value in state.values():
        for fn in (value, getattr(value, "function", None)):
            if isinstance(fn, Function):
                out[id(fn)] = (fn, copy.deepcopy(vars(fn)))
    return out


@pytest.mark.parametrize("suite", sorted(WORKLOAD_SUITES))
def test_no_post_lower_stage_mutates_a_function(suite):
    """A memoized composite is handed to every later compile of its
    group, so no stage may change a function it was given."""
    wl = make_workload(suite, n=4)
    flows = [
        Flow(k.source, FlowOptions().for_kernel(k.name))
        for k in wl.program.kernels
    ]
    members = [flow.run_until("lower")["function"] for flow in flows]
    flows.append(Flow.from_function(fuse_functions(members).function))
    tail = registered_stages()[stage_names().index("lower") + 1:]
    for flow in flows:
        for stage in tail:
            before = _functions(flow.state)
            flow.run_until(stage.name)
            for fn, attrs in before.values():
                assert vars(fn) == attrs, (stage.name, fn.name)


class TestFusedSystemModel:
    def test_transfer_bytes_drop_by_intermediate_size(self):
        wl = make_workload("helmholtz-gradient", n=N)
        plain = compile_program(wl.program)
        fused = compile_program(wl.program, FlowOptions(fusion="auto"))
        saved = (plain.transfer_bytes_per_element()
                 - fused.transfer_bytes_per_element())
        # v is the demoted intermediate: N^3 doubles in, N^3 out of the
        # unfused boundary collapse to zero host traffic
        assert saved >= N ** 3 * 8

    def test_internalized_tensor_becomes_on_device_buffer(self):
        from repro.mnemosyne.config import PortClass

        _, res = fused_compile("helmholtz-gradient", keep=())
        r = res.results["fused_helmholtz_gradient"]
        assert isinstance(r.memory, MemorySubsystem)
        unit = r.memory.unit_of("v")
        assert unit.port_class is PortClass.ACCELERATOR_ONLY
        assert r.port_classes["v"] is PortClass.ACCELERATOR_ONLY

    def test_port_hints_keep_shared_stream_inputs_streamed(self):
        from repro.mnemosyne.config import PortClass

        # u is read once by each of the three fem-cfd kernels; fused, it
        # has three readers, but the hint pins it as a streamed port
        _, res = fused_compile("fem-cfd")
        r = res.results["fused_interpolate_helmholtz_gradient"]
        assert r.port_classes["u"] is PortClass.ACCELERATOR_AND_SYSTEM

    def test_fused_footprint_drops_internal_intermediates(self):
        from repro.system.integration import transfer_footprint

        _, res = fused_compile("helmholtz-gradient", keep=())
        r = res.results["fused_helmholtz_gradient"]
        fp = transfer_footprint(r.function, r.port_classes)
        assert "v" not in fp.streamed and "v" not in fp.static


class TestFusedExecution:
    @pytest.mark.parametrize("suite", list(WORKLOAD_SUITES))
    @pytest.mark.parametrize("backend", ["loops", "numpy", "cnative"])
    def test_fused_matches_unfused(self, suite, backend):
        if not get_backend(backend).available():
            pytest.skip(f"backend {backend} unavailable")
        wl = make_workload(suite, n=4, n_elements=3)
        cache = StageCache()
        plain = compile_program(wl.program, cache=cache)
        fused = compile_program(
            wl.program,
            FlowOptions(fusion="auto", fusion_keep=tuple(wl.carry)),
            cache=cache,
        )
        out_p = run_chain_batch(
            plain.chain(), wl.elements, wl.static, backend=backend,
        )
        out_f = run_chain_batch(
            fused.chain(), wl.elements, wl.static, backend=backend,
        )
        shared = set(out_p) & set(out_f)
        assert shared  # the kept outputs remain comparable
        for k in shared:
            np.testing.assert_allclose(
                out_f[k], out_p[k], atol=1e-12, rtol=0,
            )

    def test_fused_group_is_one_backend_call(self):
        calls = []
        backend = get_backend("numpy")
        orig = backend.run_batch

        def counting(fn, *a, **kw):
            calls.append(fn.name)
            return orig(fn, *a, **kw)

        wl, res = fused_compile("fem-cfd")
        backend.run_batch = counting
        try:
            run_chain_batch(res.chain(), wl.elements, wl.static,
                            backend=backend)
        finally:
            backend.run_batch = orig
        assert calls == ["fused_interpolate_helmholtz_gradient"]


class TestChainShadowingGuards:
    def test_duplicate_producer_raises(self):
        wl = make_workload("smoother", n=N)
        res = compile_program(wl.program)
        chain = res.chain() + [res.chain()[0]]  # helmholtz appears twice
        with pytest.raises(SimulationError, match="both produce"):
            run_chain_batch(chain, wl.elements, wl.static)

    def test_streamed_output_over_static_input_raises(self):
        wl = make_workload("smoother", n=N)
        res = compile_program(wl.program)
        static = dict(wl.static)
        static["v"] = np.zeros((N, N, N))  # collides with helmholtz's output
        with pytest.raises(SimulationError, match="static input of the same name"):
            run_chain_batch(res.chain(), wl.elements, static)


class TestChainElementInputs:
    def build(self, *kernels):
        p = Program("p")
        for name, text in kernels:
            p.add_kernel(name, text)
        res = compile_program(p.validate())
        return res.chain()

    def test_static_only_kernel_mid_chain(self):
        # "mats" reads only static operands: its output joins the static
        # environment, not the streamed one, so the downstream kernel
        # streams only the caller's element tensor
        d = f"[{N} {N}]"
        chain = self.build(
            ("scale", f"var input u : {d}\nvar output s : {d}\ns = u + u\n"),
            ("mats", f"var input A : {d}\nvar output B : {d}\nB = A * A\n"),
            ("apply", f"var input s : {d}\nvar input B : {d}\n"
                      f"var output y : {d}\ny = s * B\n"),
        )
        mapping = chain_element_inputs(chain, ["u"])
        assert mapping == {"scale": ["u"], "mats": [], "apply": ["s"]}

    def test_output_restreamed_later(self):
        # s produced by the first kernel is consumed two kernels later:
        # it stays in the streamed set across the gap
        d = f"[{N} {N}]"
        chain = self.build(
            ("scale", f"var input u : {d}\nvar output s : {d}\ns = u + u\n"),
            ("other", f"var input w : {d}\nvar output q : {d}\nq = w * w\n"),
            ("late", f"var input s : {d}\nvar output y : {d}\ny = s * s\n"),
        )
        mapping = chain_element_inputs(chain, ["u", "w"])
        assert mapping["late"] == ["s"]
        assert mapping["other"] == ["w"]


class TestFusedSolverLoop:
    def test_fused_solver_matches_unfused(self):
        wl = make_workload("smoother", n=N, n_elements=3)
        plain = SolverLoop(wl.program, carry=wl.carry).run(
            wl.elements, wl.static, steps=3,
        )
        fused = SolverLoop(wl.program, carry=wl.carry, fusion="auto").run(
            wl.elements, wl.static, steps=3,
        )
        np.testing.assert_allclose(
            fused.outputs["w"], plain.outputs["w"], atol=1e-12, rtol=0,
        )

    def test_fused_warm_steps_fully_front_end_cached(self):
        wl = make_workload("smoother", n=N)
        result = SolverLoop(wl.program, carry=wl.carry, fusion="auto").run(
            wl.elements, wl.static, steps=3,
        )
        assert result.steps[0].front_end_executed > 0
        for step in result.warm_steps():
            assert step.front_end_executed == 0
            assert step.front_end_cached > 0
        assert result.cross_step_hit_rate() == 1.0

    def test_carry_source_auto_added_to_keep(self):
        wl = make_workload("smoother", n=N)
        loop = SolverLoop(wl.program, carry=wl.carry, fusion="auto")
        assert "w" in loop.options.fusion_keep


class TestCliFusion:
    def test_program_fuse(self, capsys):
        rc = cli_main(["program", "--suite", "smoother", "-n", str(N),
                       "--fuse"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[2 fused]" in out
        assert "on-device intermediates" in out

    def test_solve_fuse_cross_step_guard(self, capsys):
        rc = cli_main([
            "solve", "--suite", "smoother", "-n", str(N), "--steps", "2",
            "--ne", "3", "--fuse", "--expect-front-end-cached",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-step front-end cache hit rate: 100.0%" in out

    def test_list_stages_marks_fused_scope(self, capsys):
        assert cli_main(["--list-stages"]) == 0
        out = capsys.readouterr().out
        assert "fusion scope" in out and "fused group" in out

    def test_broker_listen_warning(self):
        from repro.flow.cli import _listen_security_warning

        assert _listen_security_warning("127.0.0.1", 9000, []) is None
        assert _listen_security_warning("0.0.0.0", 9000,
                                        ["a=tok"]) is None
        caution = _listen_security_warning("0.0.0.0", 9000, [])
        assert caution and "Securing a broker" in caution
        assert "--tenant" in caution and "ssh -L" in caution
