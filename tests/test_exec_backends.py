"""Backend-conformance suite for the pluggable execution backends.

Every app x schedule/layout variant x backend must agree with the
``loops`` reference (the generated-Python mirror of the C kernel):
``cnative`` runs the same loops compiled and must match it exactly, at
every lane count and batch size, ``numpy`` reassociates sums and must
match within 1e-12.  ``cnative`` skips cleanly on hosts without a C
compiler.

The HLS text of every suite kernel is pinned by digest in
``data/kernel_text.json``: the host build re-types a copy of the C AST
and must leave the text the flow emits alone.  Regenerate after an
intended change of the emitted kernels with
``PYTHONPATH=src python tests/test_exec_backends.py``.
"""

import functools
import gc
import hashlib
import json
import pathlib
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
from repro.apps.workloads import WORKLOAD_SUITES, make_workload
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
from repro.flow import compile_any, compile_program
from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.session import Flow, FlowTrace
from repro.flow.solver import SolverLoop
from repro.layout.layout import Layout

NE = 3
LANES = (1, 2, 4, 8)
KERNEL_TEXT = pathlib.Path(__file__).with_name("data") / "kernel_text.json"

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


def _batch(res, kind="all", seed=0, ne=NE):
    """One batch of inputs: ``all`` streams every input (the strictest
    exercise of the batch path), ``mixed`` streams the largest-rank
    inputs and keeps the rest static (stride 0 in cnative's batch call),
    ``empty`` streams every input over zero elements."""
    rng = np.random.default_rng(seed)
    inputs = res.function.inputs()
    top = max(len(d.shape) for d in inputs)
    streamed = [d.name for d in inputs if kind != "mixed" or len(d.shape) == top]
    ne = 0 if kind == "empty" else ne
    elements = {n: rng.random((ne,) + res.function.decls[n].shape) for n in streamed}
    static = {d.name: rng.random(d.shape) for d in inputs if d.name not in streamed}
    return elements, static, streamed


def _cnative():
    backend = get_backend("cnative")
    if not backend.available():
        pytest.skip(backend.unavailable_reason())
    return backend


def _lane_backend(monkeypatch, lanes):
    """A fresh ``cnative`` backend whose kernels build with ``lanes``
    lanes, whatever the host's ISA."""
    from repro.exec import cnative

    _cnative()
    monkeypatch.setattr(
        cnative,
        "compile_kernel_library",
        functools.partial(cnative.compile_kernel_library, lanes=lanes),
    )
    return CNativeBackend()


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


@pytest.fixture(scope="module")
def lane_case(variant_result):
    """A mixed batch of 2 * max(LANES) + 1 elements and its ``loops``
    outputs; elements are independent, so every prefix of the batch has
    the matching prefix of the outputs."""
    elements, static, streamed = _batch(
        variant_result, "mixed", ne=2 * max(LANES) + 1
    )
    ref = get_backend("loops").run_batch(
        variant_result.function, elements, static, streamed,
        prog=variant_result.poly,
    )
    return elements, static, streamed, ref


class TestLanes:
    """Every lane count computes every element bit-identically: the
    lane build runs the HLS kernel's loops, one element per lane."""

    @pytest.mark.parametrize("lanes", LANES)
    def test_every_lane_count_and_batch_size_matches_loops(
        self, variant_result, lane_case, lanes, monkeypatch
    ):
        backend = _lane_backend(monkeypatch, lanes)
        res = variant_result
        elements, static, streamed, ref = lane_case
        for ne in sorted({0, 1, lanes - 1, lanes + 1, 2 * lanes + 1}):
            batch = {n: a[:ne] for n, a in elements.items()}
            got = backend.run_batch(
                res.function, batch, static, streamed, prog=res.poly
            )
            assert set(got) == set(ref)
            for name in ref:
                assert np.array_equal(got[name], ref[name][:ne]), (ne, name)
        assert backend._kernel(res.poly).lanes == lanes

    @pytest.mark.parametrize("lanes", LANES)
    def test_padding_lanes_divide_zero_by_zero_unseen(self, lanes, monkeypatch):
        """The unused lanes of the last group hold zeros, so an
        entry-wise division computes 0/0 there; that NaN stays in the
        buffer and never reaches an output."""
        from repro.cfdlang import ProgramBuilder
        from repro.exec import cnative

        b = ProgramBuilder()
        num, den = b.input("u", (3, 4)), b.input("d", (3, 4))
        b.assign(b.output("q", (3, 4)), b.div(num, den))
        res = compile_any(b.build())
        backend = _lane_backend(monkeypatch, lanes)
        seen = []
        real = cnative.unpack_array
        monkeypatch.setattr(
            cnative, "unpack_array",
            lambda flat, *args: seen.append(flat.copy()) or real(flat, *args),
        )
        rng = np.random.default_rng(1)
        ne = lanes + 1
        elements = {"u": rng.random((ne, 3, 4)), "d": 1.0 + rng.random((ne, 3, 4))}
        args = (res.function, elements, {}, ["u", "d"])
        got = backend.run_batch(*args, prog=res.poly)["q"]
        assert not np.isnan(got).any()
        ref = get_backend("loops").run_batch(*args, prog=res.poly)["q"]
        assert np.array_equal(got, ref)
        (flat,) = seen
        cells = flat[-1].reshape(-1, lanes)  # the last group, cell by lane
        assert np.isnan(cells[:, ne % lanes:]).all() == (lanes > 1)
        assert not np.isnan(cells[:, : ne % lanes]).any()


def _cc_wrapper(tmp_path, monkeypatch, on_native_arch: str):
    """Point ``CFDLANG_CC`` at a wrapper of the host's compiler that runs
    the shell line ``on_native_arch`` (``$src``: the C file, if any)
    when called with ``-march=native``."""
    from repro.exec.cnative import find_compiler

    _cnative()
    wrapper = tmp_path / "cc-wrapper"
    wrapper.write_text(
        "#!/bin/sh\n"
        "src=\n"
        'for arg in "$@"; do case "$arg" in *.c) src="$arg";; esac; done\n'
        'for arg in "$@"; do\n'
        '  if [ "$arg" = "-march=native" ]; then\n'
        f"    {on_native_arch}\n"
        "  fi\n"
        "done\n"
        f'exec "{find_compiler()}" "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("CFDLANG_CC", str(wrapper))
    return wrapper


class TestHostBuild:
    @pytest.fixture
    def cc_without_native_arch(self, tmp_path, monkeypatch):
        """A compiler that rejects ``-march=native``."""
        return _cc_wrapper(
            tmp_path,
            monkeypatch,
            'echo "error: unsupported -march=native" >&2; exit 1',
        )

    @pytest.fixture
    def cc_ahead_of_its_assembler(self, tmp_path, monkeypatch):
        """A compiler that accepts ``-march=native`` but fails to
        assemble vector code with it, as a compiler newer than its
        assembler does."""
        return _cc_wrapper(
            tmp_path,
            monkeypatch,
            'grep -q vector_size "$src" 2>/dev/null && '
            '{ echo "Error: no such instruction" >&2; exit 1; }',
        )

    @staticmethod
    def _builds_two_lanes_bit_exact():
        backend = CNativeBackend()
        res = compile_any(APPS["helmholtz"]())
        elements, static, streamed = _batch(res, "mixed", ne=5)
        got = backend.run_batch(
            res.function, elements, static, streamed, prog=res.poly
        )
        ref = get_backend("loops").run_batch(
            res.function, elements, static, streamed, prog=res.poly
        )
        assert backend._kernel(res.poly).lanes == 2
        assert all(np.array_equal(got[n], ref[n]) for n in ref)

    def test_compiler_without_native_arch_builds_two_lanes(
        self, cc_without_native_arch
    ):
        self._builds_two_lanes_bit_exact()

    def test_native_arch_that_cannot_assemble_lanes_is_not_used(
        self, cc_ahead_of_its_assembler
    ):
        """The probe builds lane code, so it sees what an empty unit
        would pass."""
        self._builds_two_lanes_bit_exact()

    def test_compile_error_is_one_error_naming_the_compiler(
        self, cc_without_native_arch
    ):
        from repro.exec import cnative

        source, n_params = cnative.lane_kernel_source(
            compile_any(APPS["preconditioner"]()).poly
        )
        with pytest.raises(ExecBackendError) as info:
            cnative.compile_kernel_library(
                source + "\nnot C at all\n", n_params
            )
        assert str(cc_without_native_arch) in str(info.value)

    def test_hls_text_is_the_flows_and_has_no_lanes(self):
        """The lane build leaves the emitted HLS kernel byte-identical."""
        want = json.loads(KERNEL_TEXT.read_text())
        got = kernel_texts()
        assert sorted(got) == sorted(want)
        for key, source in got.items():
            assert "lane" not in source, key
            assert hashlib.sha256(source.encode()).hexdigest() == want[key], key


def kernel_texts() -> dict:
    """The HLS kernel text of every suite kernel, unfused and fused."""
    out = {}
    for suite in WORKLOAD_SUITES:
        for fusion in (None, "auto"):
            res = compile_program(
                make_workload(suite, n=5).program, FlowOptions(fusion=fusion)
            )
            for name, result in res.results.items():
                out[f"{suite}/{fusion or 'unfused'}/{name}"] = result.kernel.source
    return out


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

    @pytest.mark.parametrize("backend", ["loops", "numpy", "cnative"])
    def test_functional_batch_is_checked_against_the_interpreter(
        self, app, backend
    ):
        """The first and the last element (in a partial lane group at 5
        elements) are recomputed with ``teil.interp``."""
        if not get_backend(backend).available():
            pytest.skip(get_backend(backend).unavailable_reason())
        opts = FlowOptions(system=SystemOptions(
            exec_backend=backend, functional_elements=5
        ))
        trace = FlowTrace()
        res = Flow(APPS[app](), opts, trace=trace).run()
        assert 0.0 <= res.functional.max_error <= 1e-12
        assert trace.metrics["functional-max-error"] == res.functional.max_error

    @staticmethod
    def _perturbed(monkeypatch, element, delta):
        """Options selecting a ``loops`` backend that adds ``delta`` to
        one entry of ``element``'s first output."""
        from repro.exec import backend as registry
        from repro.exec.loops import LoopsBackend

        class Perturbed(LoopsBackend):
            name = "perturbed"

            def run_batch(self, *args, **kwargs):
                outs = super().run_batch(*args, **kwargs)
                next(iter(outs.values()))[element].flat[0] += delta
                return outs

        monkeypatch.setitem(registry._REGISTRY, "perturbed", Perturbed())
        return FlowOptions(system=SystemOptions(
            exec_backend="perturbed", functional_elements=5
        ))

    @pytest.mark.parametrize("element", [0, -1])
    def test_a_wrong_output_fails_the_stage(self, monkeypatch, element):
        opts = self._perturbed(monkeypatch, element, 1e-9)
        program = APPS["preconditioner"]()
        with pytest.raises(SimulationError) as info:
            Flow(program, opts).run()
        message = str(info.value)
        assert "differs from teil.interp" in message
        assert "'perturbed'" in message and "off by up to 1e-09" in message
        assert repr(compile_any(program).function.name) in message

    def test_replayed_record_keeps_its_error(self, tmp_path, monkeypatch):
        from repro.flow import DiskStageCache

        opts = self._perturbed(monkeypatch, -1, 1e-14)
        cache = DiskStageCache(tmp_path)
        cold = compile_any(APPS["preconditioner"](), opts, cache=cache)
        warm = compile_any(APPS["preconditioner"](), opts, cache=cache)
        assert warm.functional.replayed and not cold.functional.replayed
        assert warm.functional.max_error == cold.functional.max_error
        assert 0.0 < cold.functional.max_error <= 1e-12

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


if __name__ == "__main__":
    KERNEL_TEXT.parent.mkdir(exist_ok=True)
    KERNEL_TEXT.write_text(json.dumps({
        key: hashlib.sha256(source.encode()).hexdigest()
        for key, source in kernel_texts().items()
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {KERNEL_TEXT}", file=sys.stderr)
