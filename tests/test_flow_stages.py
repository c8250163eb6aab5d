"""Staged flow API: run_until/resume, cache reuse, tracing, compile_many."""

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL, inverse_helmholtz_program
from repro.apps.workloads import make_workload
from repro.errors import SystemGenerationError
from repro.flow import (
    Flow,
    FlowOptions,
    FlowTrace,
    StageCache,
    SystemOptions,
    compile_any,
    compile_many,
    registered_stages,
    stage_names,
)
from repro.flow.stages import producer_of
from repro.mnemosyne import SharingMode
from repro.system.board import ALVEO_U280, ZCU106

ALL_MODES = (SharingMode.NONE, SharingMode.MATCHING, SharingMode.CLIQUE)


class TestRegistry:
    def test_stage_order_and_names(self):
        assert stage_names() == [
            "parse", "analyze", "lower", "layouts", "schedule", "reschedule",
            "codegen", "compat", "port-classes", "mnemosyne-config",
            "memory", "hls-synth", "build-system", "bank-assign", "simulate",
        ]

    def test_dataflow_is_closed(self):
        """Every input is 'source' or produced by an earlier stage."""
        produced = {"source"}
        for stage in registered_stages():
            for inp in stage.inputs:
                assert inp in produced, (stage.name, inp)
            produced.update(stage.outputs)

    def test_producer_of(self):
        assert producer_of("poly") == "reschedule"
        assert producer_of("source") == "source"
        with pytest.raises(SystemGenerationError):
            producer_of("nonsense")


class TestRunUntilResume:
    def test_resume_matches_compile_flow(self):
        base = compile_any(HELMHOLTZ_DSL)
        flow = Flow(HELMHOLTZ_DSL)
        flow.run_until("schedule")
        assert flow.completed_stages() == [
            "parse", "analyze", "lower", "layouts", "schedule"
        ]
        assert "poly_ref" in flow and "kernel" not in flow
        res = flow.resume()
        assert res.hls.summary() == base.hls.summary()
        assert res.memory.summary() == base.memory.summary()
        assert res.kernel.source == base.kernel.source

    def test_run_until_unknown_stage(self):
        with pytest.raises(SystemGenerationError):
            Flow(HELMHOLTZ_DSL).run_until("synthesize")

    def test_state_access_before_stage_runs(self):
        flow = Flow(HELMHOLTZ_DSL)
        with pytest.raises(SystemGenerationError, match="reschedule"):
            flow["poly"]
        flow.run_until("reschedule")
        assert flow["poly"] is flow.state["poly"]

    def test_override_invalidates_downstream(self):
        flow = Flow(HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE))
        res_none = flow.run()
        # swap in the config the MATCHING run would see: nothing upstream
        # changes, so only memory and hls-synth downstream state is rebuilt
        flow.override(memory=compile_any(
            HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.MATCHING)
        ).memory)
        res2 = flow.resume()
        assert res2.memory.brams == 18 and res_none.memory.brams == 31
        assert res2.hls.summary() == res_none.hls.summary()

    def test_override_source_recompiles_everything(self):
        flow = Flow(inverse_helmholtz_program(5))
        r1 = flow.run()
        flow.override(source=inverse_helmholtz_program(11))
        r2 = flow.resume()
        assert r1.memory.brams != r2.memory.brams
        assert r2.memory.brams == 18

    def test_override_unknown_key(self):
        with pytest.raises(SystemGenerationError):
            Flow(HELMHOLTZ_DSL).override(bogus=1)

    def test_override_does_not_pollute_shared_cache(self):
        cache = StageCache()
        flow = Flow(HELMHOLTZ_DSL, cache=cache)
        flow.run()
        n_entries = len(cache)
        flow.override(poly=flow["poly"])
        flow.resume()
        assert len(cache) == n_entries

    def test_multi_key_override_is_order_independent(self):
        base = compile_any(HELMHOLTZ_DSL)
        for kwargs in (
            {"poly": base.poly, "function": base.function},
            {"function": base.function, "poly": base.poly},
        ):
            flow = Flow(HELMHOLTZ_DSL)
            flow.run_until("schedule")
            res = flow.override(**kwargs).resume()
            assert res.poly is base.poly
            assert res.function is base.function
            assert res.memory.brams == 18

    def test_override_before_producer_runs(self):
        flow = Flow(HELMHOLTZ_DSL)
        flow.run_until("layouts")
        poly = compile_any(HELMHOLTZ_DSL).poly
        flow.override(poly=poly)
        res = flow.resume()
        assert res.poly is poly
        assert res.memory.brams == 18


class TestStageCache:
    def test_sharing_sweep_runs_front_end_once(self):
        """Acceptance: parse/lower/schedule/codegen execute exactly once."""
        cache, trace = StageCache(), FlowTrace()
        brams = [
            Flow(HELMHOLTZ_DSL, FlowOptions(sharing=mode),
                 cache=cache, trace=trace).run().memory.brams
            for mode in ALL_MODES
        ]
        assert brams == [31, 18, 12]
        counts = trace.executed_counts()
        for name in ("parse", "lower", "schedule", "codegen"):
            assert counts[name] == 1, name
        assert counts["memory"] == 3
        assert trace.cached_counts()["parse"] == 2

    def test_clock_change_reuses_codegen(self):
        cache, trace = StageCache(), FlowTrace()
        r1 = Flow(HELMHOLTZ_DSL, FlowOptions(clock_mhz=200.0),
                  cache=cache, trace=trace).run()
        r2 = Flow(HELMHOLTZ_DSL, FlowOptions(clock_mhz=150.0),
                  cache=cache, trace=trace).run()
        counts = trace.executed_counts()
        assert counts["codegen"] == 1 and counts["memory"] == 1
        assert counts["hls-synth"] == 2
        assert r2.kernel.source == r1.kernel.source
        assert r2.hls.clock_mhz != r1.hls.clock_mhz

    def test_early_option_change_misses(self):
        cache, trace = StageCache(), FlowTrace()
        Flow(HELMHOLTZ_DSL, FlowOptions(factorize=True),
             cache=cache, trace=trace).run()
        Flow(HELMHOLTZ_DSL, FlowOptions(factorize=False),
             cache=cache, trace=trace).run()
        counts = trace.executed_counts()
        assert counts["lower"] == 2 and counts["schedule"] == 2
        assert counts["parse"] == 1  # source unchanged

    def test_equivalent_ast_and_text_share_cache(self):
        cache = StageCache()
        trace = FlowTrace()
        Flow(inverse_helmholtz_program(11), cache=cache, trace=trace).run()
        Flow(inverse_helmholtz_program(11), cache=cache, trace=trace).run()
        assert trace.executed_counts()["lower"] == 1

    def test_cache_stats(self):
        cache = StageCache()
        Flow(HELMHOLTZ_DSL, cache=cache).run()
        assert len(cache) == len(stage_names())
        misses = cache.misses
        Flow(HELMHOLTZ_DSL, cache=cache).run()
        assert cache.misses == misses and cache.hits == len(stage_names())
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0


class TestFlowTrace:
    def test_timings_present_for_every_stage(self):
        trace = FlowTrace()
        Flow(HELMHOLTZ_DSL, trace=trace).run()
        seen = {e.stage for e in trace.events}
        assert seen == set(stage_names())
        assert all(e.seconds >= 0.0 for e in trace.events)
        assert not any(e.cached for e in trace.events)
        assert trace.total_seconds() > 0.0

    def test_observers_fire(self):
        seen = []
        trace = FlowTrace(observers=[lambda e: seen.append(e.stage)])
        Flow(HELMHOLTZ_DSL, trace=trace).run_until("lower")
        assert seen == ["parse", "analyze", "lower"]

    def test_summary_renders_all_stages(self):
        trace = FlowTrace()
        Flow(HELMHOLTZ_DSL, trace=trace).run()
        text = trace.summary()
        for name in stage_names():
            assert name in text


class TestCompileMany:
    def test_results_in_job_order(self):
        results = compile_many(
            (HELMHOLTZ_DSL, FlowOptions(sharing=mode)) for mode in ALL_MODES
        )
        assert [r.memory.brams for r in results] == [31, 18, 12]
        assert [r.options.sharing for r in results] == list(ALL_MODES)

    def test_bare_sources_and_shared_cache(self):
        trace = FlowTrace()
        results = compile_many([HELMHOLTZ_DSL, HELMHOLTZ_DSL], trace=trace)
        assert len(results) == 2
        assert results[0].memory.brams == results[1].memory.brams == 18
        assert trace.executed_counts()["parse"] == 1

    def test_matches_compile_flow(self):
        base = compile_any(HELMHOLTZ_DSL)
        (res,) = compile_many([HELMHOLTZ_DSL])
        assert res.hls.summary() == base.hls.summary()
        assert res.kernel.source == base.kernel.source

    def test_malformed_tuple_job_raises(self):
        """A 2-tuple whose second element is not FlowOptions/None is a bug,
        not a source — it must fail loudly, not as a parse error."""
        with pytest.raises(TypeError, match="second element is str"):
            compile_many([(HELMHOLTZ_DSL, HELMHOLTZ_DSL)])
        with pytest.raises(TypeError, match="compile_many job 1"):
            compile_many([HELMHOLTZ_DSL, (HELMHOLTZ_DSL, 42)])
        with pytest.raises(TypeError):
            compile_many([(HELMHOLTZ_DSL, FlowOptions(), None)])

    def test_per_job_error_capture(self):
        good = FlowOptions()
        bad = FlowOptions(system=SystemOptions(k=16, m=16, board=None),
                          sharing=SharingMode.NONE)  # does not fit the ZCU106
        results = compile_many(
            [(HELMHOLTZ_DSL, good), (HELMHOLTZ_DSL, bad), (HELMHOLTZ_DSL, good)],
            return_exceptions=True,
        )
        assert results[0].system.k == 16 and results[2].system.k == 16
        assert isinstance(results[1], SystemGenerationError)
        # without the flag the first failing job (in job order) raises
        with pytest.raises(SystemGenerationError):
            compile_many([(HELMHOLTZ_DSL, good), (HELMHOLTZ_DSL, bad)])

    def test_a_grid_computes_each_kernel_footprint_once(self, monkeypatch):
        """The ``port-classes`` stage computes the transfer footprint,
        and every board, memory model and k x m point reads it."""
        from repro.system import integration

        calls = []
        real = integration.transfer_footprint

        def counting(function, port_classes):
            calls.append(function.name)
            return real(function, port_classes)

        monkeypatch.setattr(integration, "transfer_footprint", counting)
        targets = ((ZCU106, "bram"), (ALVEO_U280, "bram"), (ALVEO_U280, "hbm"))
        points = [
            (program, FlowOptions(system=SystemOptions(
                k=k, m=m, board=board, memory_model=memory_model,
            )))
            for program in (
                HELMHOLTZ_DSL, make_workload("smoother", n=5).program
            )
            for board, memory_model in targets
            for k, m in ((1, 2), (2, 2), (4, 4))
        ]
        results = compile_many(points, cache=StageCache(), executor="serial")
        assert len(results) == len(points)
        assert sorted(calls) == ["helmholtz", "kernel_body", "update"]


class TestSystemStages:
    def test_run_produces_system_and_sim(self):
        res = compile_any(HELMHOLTZ_DSL)
        assert (res.system.k, res.system.m) == (16, 16)
        assert res.sim.n_elements == 50_000
        assert res.sim.total_seconds > 0

    def test_system_options_select_km(self):
        res = compile_any(
            HELMHOLTZ_DSL,
            FlowOptions(system=SystemOptions(k=2, m=4, n_elements=1_000)),
        )
        assert (res.system.k, res.system.m) == (2, 4)
        assert res.sim.n_elements == 1_000
        assert res.sim.total_cycles == res.simulate(1_000, 2, 4).total_cycles

    def test_build_system_reuses_stage_artifact(self):
        res = compile_any(HELMHOLTZ_DSL)
        assert res.build_system() is res.system
        assert res.build_system(16, 16) is res.system
        assert res.build_system(2, 2) is not res.system
        assert res.simulate(50_000) is res.sim

    def test_simulate_honors_overlap_option(self):
        """The legacy simulate() API and the simulate stage must agree
        when SystemOptions enables overlapped transfers."""
        res = compile_any(
            HELMHOLTZ_DSL,
            FlowOptions(system=SystemOptions(k=2, m=8, overlap_transfers=True)),
        )
        # same point recomputed explicitly: identical to the stage artifact
        assert res.simulate(50_000, 2, 8).total_cycles == res.sim.total_cycles
        plain = compile_any(
            HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=2, m=8))
        )
        assert res.sim.total_cycles < plain.sim.total_cycles

    def test_mismatched_system_options(self):
        with pytest.raises(SystemGenerationError, match="both k and m"):
            compile_any(HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=2)))

    def test_explicit_infeasible_km_raises(self):
        with pytest.raises(SystemGenerationError, match="does not fit"):
            compile_any(
                HELMHOLTZ_DSL,
                FlowOptions(sharing=SharingMode.NONE,
                            system=SystemOptions(k=16, m=16)),
            )

    def test_auto_infeasible_yields_none_system(self):
        """Auto-sizing a kernel too big for the board is not a flow error."""
        from repro.system import Board

        tiny = Board(name="tiny", part="none", lut=100, ff=100, dsp=1, bram36=1)
        res = compile_any(
            HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(board=tiny))
        )
        assert res.system is None and res.sim is None
        with pytest.raises(SystemGenerationError, match="no feasible"):
            res.build_system()

    def test_board_in_system_options(self):
        from repro.system import ALVEO_U280

        res = compile_any(
            HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(board=ALVEO_U280))
        )
        assert res.system.board is ALVEO_U280
        assert res.system.k > 16  # a bigger board fits more replicas

    def test_km_sweep_runs_front_end_once(self):
        """Acceptance: a k x m grid re-runs only the last two stages."""
        from repro.flow.stages import FRONT_END_STAGES

        grid = [(1, 1), (1, 2), (2, 2), (4, 4), (8, 8), (16, 16)]
        cache, trace = StageCache(), FlowTrace()
        results = compile_many(
            [
                (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=m)))
                for k, m in grid
            ],
            cache=cache,
            trace=trace,
        )
        assert [(r.system.k, r.system.m) for r in results] == grid
        counts = trace.executed_counts()
        for name in FRONT_END_STAGES:
            assert counts[name] == 1, name
        assert counts["build-system"] == len(grid)
        assert counts["simulate"] == len(grid)

    def test_board_sweep_reuses_front_end(self):
        from repro.system import ALVEO_U280, ZCU106

        trace = FlowTrace()
        compile_many(
            [
                (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(board=b)))
                for b in (ZCU106, ALVEO_U280)
            ],
            trace=trace,
        )
        counts = trace.executed_counts()
        assert counts["hls-synth"] == 1 and counts["build-system"] == 2


class TestOptionValidation:
    def test_layout_override_unknown_tensor(self):
        with pytest.raises(SystemGenerationError, match="undeclared tensor 'zz'"):
            compile_any(HELMHOLTZ_DSL, FlowOptions(layout_overrides={"zz": "row_major"}))

    def test_partition_merge_unknown_tensor(self):
        with pytest.raises(SystemGenerationError, match="undeclared tensor 'ghost'"):
            compile_any(
                HELMHOLTZ_DSL,
                FlowOptions(partition_merges={"buf": ("u", "ghost")}),
            )


class TestCliStages:
    def test_list_stages(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--list-stages"]) == 0
        out = capsys.readouterr().out
        for name in stage_names():
            assert name in out

    def test_stop_after(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--app", "helmholtz", "-n", "6",
                         "--stop-after", "codegen"]) == 0
        out = capsys.readouterr().out
        assert "stopped after stage 'codegen'" in out and "kernel" in out

    def test_stop_after_unknown(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--app", "helmholtz", "--stop-after", "nope"]) == 2

    def test_trace_flag(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--app", "helmholtz", "-n", "6", "-o", "/tmp/cli_trace",
                         "--trace"]) == 0
        assert "Flow trace" in capsys.readouterr().out
