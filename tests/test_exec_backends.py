"""Backend-conformance suite for the pluggable execution backends.

Every app x schedule/layout variant x backend must agree with the
``loops`` reference (the generated-Python mirror of the C kernel):
``cnative`` runs the same loops compiled and must match it exactly,
``numpy`` reassociates sums and must match within 1e-12.  ``cnative``
skips cleanly on hosts without a C compiler.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.apps import (
    gradient_program,
    interpolation_program,
    inverse_helmholtz_program,
    preconditioner_program,
)
from repro.codegen.pyemit import pack_array, unpack_array
from repro.errors import ExecBackendError, LayoutError, SimulationError
from repro.exec import (
    CNativeBackend,
    available_backend_names,
    backend_names,
    consistent_batch_size,
    get_backend,
    require_backend,
)
from repro.flow import compile_any
from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.session import Flow, FlowTrace
from repro.flow.solver import SolverLoop
from repro.layout.layout import Layout

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


def _batch(res, kind="all", seed=0):
    """One batch of inputs: ``all`` streams every input (the strictest
    exercise of the batch path), ``mixed`` streams the largest-rank
    inputs and keeps the rest static (stride 0 in cnative's batch call),
    ``empty`` streams every input over zero elements."""
    rng = np.random.default_rng(seed)
    inputs = res.function.inputs()
    top = max(len(d.shape) for d in inputs)
    streamed = [d.name for d in inputs if kind != "mixed" or len(d.shape) == top]
    ne = 0 if kind == "empty" else NE
    elements = {n: rng.random((ne,) + res.function.decls[n].shape) for n in streamed}
    static = {d.name: rng.random(d.shape) for d in inputs if d.name not in streamed}
    return elements, static, streamed


def _cnative():
    backend = get_backend("cnative")
    if not backend.available():
        pytest.skip(backend.unavailable_reason())
    return backend


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
        for kind in ("all", "mixed", "empty"):
            elements, static, streamed = _batch(res, kind)
            ne = len(elements[streamed[0]])
            ref = get_backend("loops").run_batch(
                res.function, elements, static, streamed, prog=res.poly
            )
            got = b.run_batch(res.function, elements, static, streamed, prog=res.poly)
            assert set(got) == set(ref)
            for name in ref:
                shape = (ne,) + res.function.decls[name].shape
                assert got[name].shape == ref[name].shape == shape, kind
                if backend == "cnative":
                    assert np.array_equal(got[name], ref[name]), (kind, name)
                else:
                    np.testing.assert_allclose(
                        got[name], ref[name], rtol=1e-12, atol=1e-12
                    )

    def test_default_schedule_fallback(self):
        """Backends work without a laid-out program (prog=None)."""
        res = compile_any(APPS["helmholtz"]())
        elements, _, streamed = _batch(res)
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


class TestCNativeBatch:
    """One C call per batch over a kernel generated once per program."""

    @pytest.fixture
    def generations(self, monkeypatch):
        """The programs cnative generates a kernel for, in call order."""
        from repro.exec import cnative

        _cnative()
        calls = []
        real = cnative.generate_kernel
        monkeypatch.setattr(
            cnative, "generate_kernel", lambda prog: calls.append(prog) or real(prog)
        )
        return calls

    def test_warm_run_batch_generates_nothing(self, generations):
        backend = CNativeBackend()  # an empty kernel memo
        res = compile_any(APPS["helmholtz"]())
        elements, static, streamed = _batch(res, "mixed")
        args = (res.function, elements, static, streamed)
        cold = backend.run_batch(*args, prog=res.poly)
        warm = backend.run_batch(*args, prog=res.poly)
        assert generations == [res.poly]
        assert all(np.array_equal(cold[n], warm[n]) for n in cold)

    def test_solver_steps_generate_the_kernel_once(self, generations):
        """The stage cache hands every warm step the same program
        object, so only the first step generates the fused kernel."""
        from repro.apps.workloads import make_workload

        wl = make_workload("smoother", n=4, n_elements=4, seed=0)
        loop = SolverLoop(
            wl.program, carry=wl.carry, backend="cnative", fusion="auto"
        )
        loop.run(wl.elements, wl.static, steps=3)
        assert len(generations) == 1

    def test_layout_variants_never_share_a_kernel(self):
        """The memo is keyed by program object: a row-major and a
        column-major ``u`` program each run their own kernel, also when
        the second reuses the id of the first after it was freed."""
        _cnative()
        backend = CNativeBackend()

        def run(res):
            elements, static, streamed = _batch(res, "mixed")
            ref = get_backend("loops").run_batch(
                res.function, elements, static, streamed, prog=res.poly
            )
            got = backend.run_batch(
                res.function, elements, static, streamed, prog=res.poly
            )
            return all(np.array_equal(got[n], ref[n]) for n in ref)

        default = compile_any(APPS["helmholtz"](), VARIANTS["default"])
        column = compile_any(APPS["helmholtz"](), VARIANTS["column-major-u"])
        assert run(default) and run(column)
        assert backend._kernel(default.poly) is not backend._kernel(column.poly)
        # free the default program and hand its memo entry to the id of
        # the column-major one, as if the allocator had reused it
        stale = backend._kernels.pop(id(default.poly))
        del default
        gc.collect()
        backend._kernels[id(column.poly)] = stale
        assert run(column)

    def test_kernel_memo_is_bounded_under_threads(self, monkeypatch):
        """Threads sharing one backend evict and refill its memo at
        once: every batch stays exact and the memo keeps MEMO_SIZE."""
        _cnative()
        backend = CNativeBackend()
        monkeypatch.setattr(backend, "MEMO_SIZE", 2)
        cases = []
        for app in sorted(APPS):
            res = compile_any(APPS[app]())
            args = (res.function, *_batch(res, "mixed"))
            ref = get_backend("loops").run_batch(*args, prog=res.poly)
            cases.append((res.poly, args, ref))
        errors = []

        def work(k):
            try:
                for i in range(8):
                    prog, args, ref = cases[(k + i) % len(cases)]
                    got = backend.run_batch(*args, prog=prog)
                    assert all(np.array_equal(got[n], ref[n]) for n in ref)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(backend._kernels) == 2

    def test_short_buffer_raises_layout_error(self):
        layout = Layout.column_major("u", (3, 4))
        with pytest.raises(LayoutError, match="too short"):
            pack_array(np.zeros(11), layout, np.ones((3, 4)))
        with pytest.raises(LayoutError, match="too short"):
            unpack_array(np.zeros((2, 11)), layout)
        batch = np.random.default_rng(0).random((2, 3, 4))
        flat = np.zeros((2, 12))
        pack_array(flat, layout, batch)
        assert np.array_equal(flat[1], batch[1].ravel(order="F"))
        assert np.array_equal(unpack_array(flat, layout), batch)


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
        elements, _, streamed = _batch(res)
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
        elements, _, streamed = _batch(res)
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
