"""Backend-conformance suite for the pluggable execution backends.

Every app x schedule/layout variant x backend must agree with the
``loops`` reference (the generated-Python mirror of the C kernel) within
1e-12; ``cnative`` skips cleanly on hosts without a C compiler.
"""

import numpy as np
import pytest

from repro.apps import (
    gradient_program,
    interpolation_program,
    inverse_helmholtz_program,
    preconditioner_program,
)
from repro.errors import ExecBackendError, SimulationError
from repro.exec import (
    available_backend_names,
    backend_names,
    consistent_batch_size,
    get_backend,
    require_backend,
)
from repro.flow import compile_any
from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.session import Flow, FlowTrace

NE = 3

APPS = {
    "helmholtz": lambda: inverse_helmholtz_program(5),
    "interpolation": lambda: interpolation_program(4, 6),
    "gradient": lambda: gradient_program(4),
    "preconditioner": lambda: preconditioner_program(4),
}

VARIANTS = {
    "default": FlowOptions(),
    "column-major-u": FlowOptions(layout_overrides={"u": "column_major"}),
    "innermost-reduction": FlowOptions(reduction_placement="innermost"),
}


def _batch(res, ne=NE, seed=0):
    """All inputs streamed: the strictest exercise of the batch path."""
    rng = np.random.default_rng(seed)
    fn = res.function
    streamed = [d.name for d in fn.inputs()]
    elements = {n: rng.random((ne,) + fn.decls[n].shape) for n in streamed}
    return elements, streamed


@pytest.fixture(scope="module", params=sorted(APPS))
def app(request):
    return request.param


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def variant_result(request, app):
    return compile_any(APPS[app](), VARIANTS[request.param])


class TestConformance:
    @pytest.mark.parametrize("backend", ["numpy", "cnative"])
    def test_matches_loops_reference(self, variant_result, backend):
        b = get_backend(backend)
        if not b.available():
            pytest.skip(b.unavailable_reason())
        res = variant_result
        elements, streamed = _batch(res)
        ref = get_backend("loops").run_batch(
            res.function, elements, {}, streamed, prog=res.poly
        )
        got = b.run_batch(res.function, elements, {}, streamed, prog=res.poly)
        assert set(got) == set(ref)
        for name in ref:
            assert got[name].shape == (NE,) + res.function.decls[name].shape
            np.testing.assert_allclose(
                got[name], ref[name], rtol=1e-12, atol=1e-12
            )

    def test_default_schedule_fallback(self):
        """Backends work without a laid-out program (prog=None)."""
        res = compile_any(APPS["helmholtz"]())
        elements, streamed = _batch(res)
        ref = get_backend("loops").run_batch(
            res.function, elements, {}, streamed
        )
        got = get_backend("numpy").run_batch(
            res.function, elements, {}, streamed
        )
        for name in ref:
            np.testing.assert_allclose(
                got[name], ref[name], rtol=1e-12, atol=1e-12
            )


class TestRegistry:
    def test_all_backends_registered(self):
        assert backend_names() == ["loops", "numpy", "cnative"]

    def test_unknown_backend(self):
        with pytest.raises(ExecBackendError, match="unknown execution backend"):
            get_backend("fortran")

    def test_require_backend_reports_reason(self, monkeypatch):
        backend = get_backend("cnative")
        monkeypatch.setattr(type(backend), "available", lambda self: False)
        with pytest.raises(ExecBackendError, match="not available"):
            require_backend("cnative")

    def test_available_names_subset(self):
        avail = available_backend_names()
        assert set(avail) <= set(backend_names())
        assert "loops" in avail and "numpy" in avail


class TestBatchValidation:
    def test_inconsistent_counts_named(self):
        elements = {"u": np.zeros((2, 4)), "D": np.zeros((3, 4))}
        with pytest.raises(
            SimulationError, match=r"inconsistent element counts.*D=3, u=2"
        ):
            consistent_batch_size(elements, ["u", "D"])

    def test_run_functional_names_offenders(self):
        res = compile_any(APPS["helmholtz"]())
        shape = (5, 5, 5)
        with pytest.raises(SimulationError, match=r"D=3, u=2"):
            require_backend("numpy").run_batch(
                res.function,
                {"u": np.zeros((2,) + shape), "D": np.zeros((3,) + shape)},
                {"S": np.zeros((5, 5))},
                ["u", "D"],
            )

    def test_missing_streamed_input(self):
        with pytest.raises(SimulationError, match="missing streamed input"):
            consistent_batch_size({}, ["u"])

    def test_no_element_axis(self):
        with pytest.raises(SimulationError, match="leading element axis"):
            consistent_batch_size({"u": np.float64(1.0)}, ["u"])


class TestRunFunctionalBackends:
    def test_backend_selection(self):
        res = compile_any(APPS["preconditioner"]())
        elements, streamed = _batch(res)
        outs = {
            name: require_backend(name).run_batch(
                res.function, elements, {}, streamed
            )
            for name in available_backend_names()
        }
        ref = outs["loops"]
        for name, got in outs.items():
            for out in ref:
                np.testing.assert_allclose(
                    got[out], ref[out], rtol=1e-12, atol=1e-12
                )

    def test_unknown_backend_raises(self):
        res = compile_any(APPS["preconditioner"]())
        elements, streamed = _batch(res)
        with pytest.raises(ExecBackendError):
            require_backend("x").run_batch(res.function, elements, {}, streamed)


class TestFlowIntegration:
    def test_functional_record_and_metrics(self):
        opts = FlowOptions(system=SystemOptions(
            exec_backend="numpy", functional_elements=4
        ))
        trace = FlowTrace()
        res = Flow(APPS["helmholtz"](), opts, trace=trace).run()
        assert res.functional is not None
        assert res.functional.backend == "numpy"
        assert res.functional.n_elements == 4
        assert res.functional.elements_per_sec > 0
        assert trace.metrics["exec-backend"] == "numpy"
        assert "elements/sec" in trace.metrics
        assert "metrics:" in trace.summary()
        assert "elements/sec" in str(res.functional)

    def test_cache_served_record_is_marked_replayed(self, tmp_path):
        """A warm run must not present the cold run's timing as fresh."""
        from repro.flow import DiskStageCache

        opts = FlowOptions(system=SystemOptions(
            exec_backend="numpy", functional_elements=4
        ))
        cache = DiskStageCache(tmp_path)
        cold = compile_any(APPS["helmholtz"](), opts, cache=cache)
        trace = FlowTrace()
        warm = compile_any(APPS["helmholtz"](), opts, cache=cache, trace=trace)
        assert not cold.functional.replayed
        assert "replayed" not in str(cold.functional)
        assert warm.functional.replayed
        assert str(warm.functional).endswith(", replayed from cache")
        # a replayed figure is no measurement of this run
        assert trace.metrics["exec-backend"] == "numpy"
        assert "elements/sec" not in trace.metrics

    def test_no_backend_no_record(self):
        res = compile_any(APPS["helmholtz"]())
        assert res.functional is None

    def test_spec_round_trip(self):
        opts = FlowOptions(system=SystemOptions(
            exec_backend="cnative", functional_elements=16
        ))
        assert FlowOptions.from_spec(opts.to_spec()) == opts

    def test_legacy_spec_defaults(self):
        """Durable job specs written before these keys still load."""
        spec = FlowOptions().to_spec()
        del spec["system"]["exec_backend"]
        del spec["system"]["functional_elements"]
        opts = FlowOptions.from_spec(spec)
        assert opts.system.exec_backend is None
        assert opts.system.functional_elements == 8


class TestCli:
    def test_exec_backend_flag(self, tmp_path, capsys):
        from repro.flow.cli import main

        rc = main([
            "--app", "helmholtz", "-n", "5",
            "--exec-backend", "numpy", "--functional-ne", "4",
            "-o", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "functional[numpy]: 4 elements" in out

    def test_list_backends(self, capsys):
        from repro.flow.cli import main

        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out

    def test_unknown_backend_rejected(self, capsys):
        from repro.flow.cli import main

        assert main(["--app", "helmholtz", "--exec-backend", "qemu"]) == 2
        assert "unknown execution backend" in capsys.readouterr().err
