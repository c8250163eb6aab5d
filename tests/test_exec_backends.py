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
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import warnings

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
    LoopsBackend,
    Packed,
    available_backend_names,
    backend_names,
    consistent_batch_size,
    get_backend,
    require_backend,
)
from repro.exec.backend import batch_buffers
from repro.exec.cnative import find_compiler
from repro.exec.programs import run_chain_batch
from repro.flow import compile_any, compile_program
from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.session import Flow, FlowTrace
from repro.flow.solver import SolverLoop
from repro.layout.layout import Layout
from repro.teil.interp import interpret

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

#: a kernel whose input shares the accumulator's default name (and an
#: input ``u``, which every variant's layout override needs)
ACC_KERNEL = """\
var input u : [4 4]
var input acc : [4 4]
var output v : [4 4]
v = u # acc . [[1 2]]
"""

#: a kernel whose input shares the lane type's name
LANE_KERNEL = """\
var input S : [4 4]
var input lane : [4 4]
var output v : [4 4]
v = S # lane . [[1 2]]
"""


#: kernels whose second input is named like a loop variable of the
#: contraction (``i0``) and of the entry-wise product (``e0``)
LOOP_VAR_KERNELS = {
    "i0": "var input u : [4 4]\nvar input i0 : [4 4]\nvar output v : [4 4]\n"
          "v = u # i0 . [[1 2]]\n",
    "e0": "var input u : [4 4]\nvar input e0 : [4 4]\nvar output v : [4 4]\n"
          "v = u * e0\n",
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


def _matches_interpreter(res, elements):
    """Every available backend computes each element of ``elements``
    (all streamed) as ``teil.interp`` does."""
    ne = len(next(iter(elements.values())))
    want = [
        interpret(res.function, {n: a[e] for n, a in elements.items()})
        for e in range(ne)
    ]
    for name in ("loops", "numpy", "cnative"):
        b = get_backend(name)
        if not b.available():
            continue
        got = b.run_batch(res.function, elements, {}, list(elements), prog=res.poly)
        for out in want[0]:
            np.testing.assert_allclose(
                got[out], [w[out] for w in want], rtol=1e-12, atol=1e-12,
                err_msg=f"{name}: {out}",
            )


def _assert_valid_c(source):
    """The host compiler accepts ``source`` as C99."""
    cc = find_compiler()
    if cc is None:
        pytest.skip("no C compiler for the syntax check")
    check = subprocess.run(
        [cc, "-std=c99", "-fsyntax-only", "-x", "c", "-"],
        input=source, capture_output=True, text=True,
    )
    assert check.returncode == 0, check.stderr


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

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_a_tensor_named_acc_is_not_the_accumulator(self, variant):
        """The accumulator takes a fresh name when a kernel array is
        named ``acc``: every backend matches the interpreter, and the
        kernel.c text is C the host compiler accepts."""
        res = compile_any(ACC_KERNEL, VARIANTS[variant])
        rng = np.random.default_rng(2)
        _matches_interpreter(
            res, {n: rng.random((3, 4, 4)) for n in ("u", "acc")}
        )
        _assert_valid_c(res.kernel.source)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", sorted(LOOP_VAR_KERNELS))
    def test_a_tensor_named_like_a_loop_variable_keeps_its_name(
        self, name, variant
    ):
        """The loop variable takes a fresh name where a kernel array
        holds its own: every backend matches the interpreter, and the
        kernel.c text is C the host compiler accepts."""
        res = compile_any(LOOP_VAR_KERNELS[name], VARIANTS[variant])
        rng = np.random.default_rng(4)
        _matches_interpreter(res, {n: rng.random((3, 4, 4)) for n in ("u", name)})
        _assert_valid_c(res.kernel.source)

    def test_rank_0_accumulators_have_scopes_of_their_own(self):
        """Two rank-0 contractions each declare the accumulator, each
        in a block of its own: kernel.c is C the host compiler accepts,
        and every backend matches the interpreter."""
        from repro.cfdlang import ProgramBuilder

        b = ProgramBuilder()
        a = b.input("a", (4, 4))
        b.assign(b.output("s", ()), b.contract(a, [(0, 1)]))
        b.assign(b.output("t", ()), b.contract(a, [(0, 1)]))
        res = compile_any(b.build())
        _matches_interpreter(res, {"a": np.random.default_rng(3).random((3, 4, 4))})
        _assert_valid_c(res.kernel.source)

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
    """One C call per span of a batch over a kernel generated once per
    program."""

    @pytest.fixture
    def generations(self, monkeypatch):
        """The programs ``cnative`` and ``loops`` generate a kernel for,
        in call order."""
        from repro.exec import cnative, loops

        calls = []
        for module in (cnative, loops):
            monkeypatch.setattr(
                module, "generate_kernel",
                lambda prog, real=module.generate_kernel:
                calls.append(prog) or real(prog),
            )
        return calls

    @pytest.mark.parametrize("backend", [CNativeBackend, LoopsBackend])
    def test_warm_run_batch_generates_nothing(self, generations, backend):
        backend = backend()  # an empty kernel memo
        if not backend.available():
            pytest.skip(backend.unavailable_reason())
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

        _cnative()
        wl = make_workload("smoother", n=4, n_elements=4, seed=0)
        loop = SolverLoop(
            wl.program, carry=wl.carry, backend="cnative", fusion="auto"
        )
        loop.run(wl.elements, wl.static, steps=3)
        assert len(generations) == 1

    @pytest.mark.parametrize("steps", [1, 16])
    def test_a_solve_looks_its_backend_up_once(self, steps, monkeypatch):
        """``available()`` stats every ``PATH`` entry on ``cnative``; a
        run asks it once, whatever the step count."""
        backend = _cnative()
        calls = []
        real = type(backend).available
        monkeypatch.setattr(
            type(backend), "available",
            lambda self: calls.append(self) or real(self),
        )
        wl, _ = _smoother("auto")
        SolverLoop(
            wl.program, carry=wl.carry, backend="cnative", fusion="auto"
        ).run(wl.elements, wl.static, steps=steps)
        assert calls == [backend]

    def test_an_unavailable_backend_fails_before_any_numeric_work(
        self, monkeypatch
    ):
        backend = get_backend("cnative")
        monkeypatch.setattr(type(backend), "available", lambda self: False)
        monkeypatch.setattr(
            type(backend), "run_batch",
            lambda *args, **kwargs: pytest.fail("ran a batch"),
        )
        wl, _ = _smoother("auto")
        loop = SolverLoop(wl.program, carry=wl.carry, backend="cnative")
        with pytest.raises(
            ExecBackendError, match="execution backend 'cnative' is not available"
        ):
            loop.run(wl.elements, wl.static, steps=2)

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
        stale = backend._kernel.entries.pop(id(default.poly))
        del default
        gc.collect()
        backend._kernel.entries[id(column.poly)] = stale
        assert run(column)

    def test_packed_input_is_adopted_or_repacked_by_geometry(
        self, monkeypatch
    ):
        """A ``Packed`` output fed to another program is adopted when
        its layout places the tensor as the input's does — here ``v``
        as ``u``, both row-major — and unpacked and packed again for
        the column-major ``u`` program; both stay exact."""
        from repro.exec import backend as backend_module

        backend = _cnative()
        default = compile_any(APPS["helmholtz"](), VARIANTS["default"])
        column = compile_any(APPS["helmholtz"](), VARIANTS["column-major-u"])
        elements, static, streamed = _batch(default, "mixed", ne=5)
        v = backend.run_batch(
            default.function, elements, static, streamed, prog=default.poly
        )["v"]
        packed = []
        real = backend_module.pack_array
        monkeypatch.setattr(
            backend_module, "pack_array",
            lambda flat, layout, *args: packed.append(layout.tensor)
            or real(flat, layout, *args),
        )
        for res, adopted in ((default, True), (column, False)):
            host = dict(elements, u=np.asarray(v))
            want = get_backend("loops").run_batch(
                res.function, host, static, streamed, prog=res.poly
            )
            packed.clear()
            got = backend.run_batch(
                res.function, dict(elements, u=v), static, streamed,
                prog=res.poly,
            )
            assert ("u" not in packed) == adopted
            assert all(np.array_equal(got[n], want[n]) for n in want)

    def test_kernel_memo_is_bounded_under_threads(self, monkeypatch):
        """Threads sharing one backend evict and refill its memo at
        once: every batch stays exact and the memo keeps MEMO_SIZE."""
        _cnative()
        backend = CNativeBackend()
        monkeypatch.setattr(backend._kernel, "size", 2)
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
        assert len(backend._kernel.entries) == 2

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


def _lane_case(res):
    """A mixed batch of 2 * max(LANES) + 1 elements and its ``loops``
    outputs; elements are independent, so every prefix of the batch has
    the matching prefix of the outputs."""
    elements, static, streamed = _batch(res, "mixed", ne=2 * max(LANES) + 1)
    ref = get_backend("loops").run_batch(
        res.function, elements, static, streamed, prog=res.poly
    )
    return elements, static, streamed, ref


@pytest.fixture(scope="module")
def lane_case(variant_result):
    return _lane_case(variant_result)


@pytest.fixture(
    scope="module",
    params=[(s, f) for s in sorted(WORKLOAD_SUITES) for f in (None, "auto")],
    ids=lambda p: f"{p[0]}-{p[1] or 'unfused'}",
)
def suite_cases(request):
    """Every kernel of one suite, unfused or fused, each with its
    :func:`_lane_case`."""
    return [(r, _lane_case(r)) for r in _suite_kernels(*request.param).values()]


def _matches_loops_at_every_batch_size(backend, res, case, lanes):
    elements, static, streamed, ref = case
    for ne in sorted({0, 1, lanes - 1, lanes + 1, 2 * lanes + 1}):
        batch = {n: a[:ne] for n, a in elements.items()}
        got = backend.run_batch(
            res.function, batch, static, streamed, prog=res.poly
        )
        assert set(got) == set(ref)
        for name in ref:
            want = np.asarray(ref[name])[:ne]
            assert np.array_equal(got[name], want), (ne, name)
    assert backend._kernel(res.poly).lanes == lanes


def _fill_uninitialised(monkeypatch, value):
    """Fill every buffer ``batch_buffers`` leaves uninitialised, and the
    temporaries of every later span of a ``cnative`` batch, with
    ``value``."""
    from repro.exec import backend as backend_module
    from repro.exec import cnative

    real = backend_module._aligned_array

    def aligned(shape, align, zeroed=True):
        buf = real(shape, align, zeroed)
        if not zeroed:
            buf.fill(value)
        return buf

    for module in (backend_module, cnative):
        monkeypatch.setattr(module, "_aligned_array", aligned)


def _span_backend(monkeypatch, cpus):
    """A fresh ``cnative`` backend run as if ``cpus`` CPUs were usable,
    and the lane-group count of each of its kernel calls."""
    from repro.exec import cnative

    _cnative()
    monkeypatch.setattr(cnative, "_usable_cpus", lambda: cpus)
    calls = []
    real = cnative.compile_kernel_library

    def counted(*args, **kwargs):
        lib = real(*args, **kwargs)
        return lib._replace(
            batch=lambda ng, *rest: calls.append(ng) or lib.batch(ng, *rest)
        )

    monkeypatch.setattr(cnative, "compile_kernel_library", counted)
    return CNativeBackend(), calls


def _span_groups(groups, cpus):
    """The lane groups of each span of a batch of ``groups`` groups."""
    n = max(1, min(cpus, groups))
    return [groups * (i + 1) // n - groups * i // n for i in range(n)]


class TestLanes:
    """Every lane count computes every element bit-identically: the
    lane build sums the same terms in the same order as the HLS kernel,
    one element per lane."""

    @pytest.mark.parametrize("lanes", LANES)
    def test_every_lane_count_and_batch_size_matches_loops(
        self, variant_result, lane_case, lanes, monkeypatch
    ):
        backend = _lane_backend(monkeypatch, lanes)
        _matches_loops_at_every_batch_size(
            backend, variant_result, lane_case, lanes
        )

    @pytest.mark.parametrize("lanes", LANES)
    def test_every_suite_kernel_matches_loops(
        self, suite_cases, lanes, monkeypatch
    ):
        backend = _lane_backend(monkeypatch, lanes)
        for res, case in suite_cases:
            _matches_loops_at_every_batch_size(backend, res, case, lanes)

    @pytest.mark.parametrize("lanes", LANES)
    def test_outputs_of_rank_0_and_1_sum_in_a_scope_of_their_own(
        self, lanes, monkeypatch
    ):
        """Stages whose only output loop is the innermost one, or which
        have none, declare their accumulators outside any loop."""
        from repro.cfdlang import ProgramBuilder

        b = ProgramBuilder()
        u, c = b.input("u", (4, 4)), b.input("c", (4,))
        b.assign(b.output("s", ()), b.contract(u, [(0, 1)]))
        b.assign(b.output("t", (4,)), b.contract(b.outer(u, c), [(1, 2)]))
        res = compile_any(b.build())
        _matches_loops_at_every_batch_size(
            _lane_backend(monkeypatch, lanes), res, _lane_case(res), lanes
        )

    @pytest.mark.parametrize("lanes", LANES)
    def test_a_tensor_named_lane_is_not_the_lane_type(self, lanes, monkeypatch):
        """The lane build names its vector type afresh when a kernel
        array is named ``lane``."""
        res = compile_any(LANE_KERNEL)
        _matches_loops_at_every_batch_size(
            _lane_backend(monkeypatch, lanes), res, _lane_case(res), lanes
        )

    @pytest.mark.parametrize("lanes", [None, *LANES], ids=lambda n: (
        "loops" if n is None else f"cnative-{n}"
    ))
    def test_every_cell_is_written_before_it_is_read(
        self, variant_result, lanes, monkeypatch
    ):
        """Outputs and temporaries start uninitialised: filled with NaN
        they give what zero-filled buffers give, in the HLS kernel's
        form (``loops``) and in the register-blocked one (``cnative``)."""
        backend = (
            get_backend("loops") if lanes is None
            else _lane_backend(monkeypatch, lanes)
        )
        res = variant_result
        elements, static, streamed = _batch(res, "mixed", ne=2 * max(LANES) + 1)
        runs = []
        for value in (0.0, np.nan):
            _fill_uninitialised(monkeypatch, value)
            runs.append(backend.run_batch(
                res.function, elements, static, streamed, prog=res.poly
            ))
        zeroed, nan_filled = runs
        for name in zeroed:
            assert np.array_equal(zeroed[name], nan_filled[name]), name

    @pytest.mark.parametrize("lanes", LANES)
    def test_buffers_start_on_a_vector_boundary(self, variant_result, lanes):
        elements, static, streamed = _batch(variant_result, "mixed", ne=5)
        _, buffers = batch_buffers(
            variant_result.poly, elements, static, streamed, lanes
        )
        for name, buf in buffers.items():
            assert buf.ctypes.data % (8 * lanes) == 0, name

    @pytest.mark.parametrize("lanes", LANES)
    def test_padding_lanes_divide_zero_by_zero_unseen(self, lanes, monkeypatch):
        """The unused lanes of the last group hold zeros, so an
        entry-wise division computes 0/0 there; that NaN stays in the
        buffer and never reaches an output."""
        from repro.cfdlang import ProgramBuilder

        b = ProgramBuilder()
        num, den = b.input("u", (3, 4)), b.input("d", (3, 4))
        b.assign(b.output("q", (3, 4)), b.div(num, den))
        res = compile_any(b.build())
        backend = _lane_backend(monkeypatch, lanes)
        rng = np.random.default_rng(1)
        ne = lanes + 1
        elements = {"u": rng.random((ne, 3, 4)), "d": 1.0 + rng.random((ne, 3, 4))}
        args = (res.function, elements, {}, ["u", "d"])
        packed = backend.run_batch(*args, prog=res.poly)["q"]
        got = np.asarray(packed)
        assert not np.isnan(got).any()
        ref = get_backend("loops").run_batch(*args, prog=res.poly)["q"]
        assert np.array_equal(got, ref)
        cells = packed.buffer[-1].reshape(-1, lanes)  # the last group, cell by lane
        assert np.isnan(cells[:, ne % lanes:]).all() == (lanes > 1)
        assert not np.isnan(cells[:, : ne % lanes]).any()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_span_count_matches_loops(self, suite_cases, cpus, monkeypatch):
        """A batch runs one contiguous span of its lane groups per
        usable CPU: uneven spans, and the padded group in the last one,
        leave every element as ``loops`` computes it."""
        backend, calls = _span_backend(monkeypatch, cpus)
        for res, case in suite_cases:
            lanes = backend._kernel(res.poly).lanes
            calls.clear()
            _matches_loops_at_every_batch_size(backend, res, case, lanes)
            sizes = sorted({0, 1, lanes - 1, lanes + 1, 2 * lanes + 1})
            want = [g for ne in sizes for g in _span_groups(-(-ne // lanes), cpus)]
            assert sorted(calls) == sorted(want)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_every_span_writes_its_temporaries_before_reading_them(
        self, variant_result, cpus, monkeypatch
    ):
        """Every span's temporaries start uninitialised: filled with NaN
        they give what zero-filled ones give."""
        backend, calls = _span_backend(monkeypatch, cpus)
        res, ne = variant_result, 2 * max(LANES) + 1
        elements, static, streamed = _batch(res, "mixed", ne=ne)
        runs = []
        for value in (0.0, np.nan):
            _fill_uninitialised(monkeypatch, value)
            runs.append(backend.run_batch(
                res.function, elements, static, streamed, prog=res.poly
            ))
        groups = -(-ne // backend._kernel(res.poly).lanes)
        assert sorted(calls) == sorted(2 * _span_groups(groups, cpus))
        zeroed, nan_filled = runs
        for name in zeroed:
            assert np.array_equal(zeroed[name], nan_filled[name]), name

    def test_spans_that_run_at_once_keep_temporaries_of_their_own(
        self, monkeypatch
    ):
        """Two spans of a fused smoother batch, long enough to overlap,
        each write all eight temporaries: every run equals the one-span
        run (shared temporaries broke most such runs)."""
        from repro.exec import cnative

        backend, _ = _span_backend(monkeypatch, 1)
        wl, compiled = _smoother("auto", ne=256, n=5)
        run = functools.partial(
            run_chain_batch, compiled.chain(), wl.elements, wl.static, backend
        )
        want = {n: np.asarray(p) for n, p in run().items()}
        monkeypatch.setattr(cnative, "_usable_cpus", lambda: 2)
        for _ in range(10):
            got = run()
            assert all(np.array_equal(got[n], want[n]) for n in want)

    def test_a_forked_child_runs_its_batch_on_threads_of_its_own(
        self, monkeypatch
    ):
        """A child forked after its parent ran spans on the pool has
        none of the pool's threads; its batch starts new ones, finishes
        and matches the parent's."""
        backend, _ = _span_backend(monkeypatch, 2)
        res = compile_any(APPS["helmholtz"]())
        args = (res.function, *_batch(res, "mixed", ne=2 * max(LANES) + 1))
        want = {n: np.asarray(p) for n, p in backend.run_batch(
            *args, prog=res.poly
        ).items()}
        with warnings.catch_warnings():
            # Python 3.12+ warns of fork() in a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            code = 1
            try:
                got = backend.run_batch(*args, prog=res.poly)
                code = int(not all(np.array_equal(got[n], want[n]) for n in want))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's batch did not finish in 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


def _smoother(fusion, ne=3, n=4):
    wl = make_workload("smoother", n=n, n_elements=ne, seed=5)
    options = FlowOptions(fusion=fusion, fusion_keep=tuple(wl.carry))
    return wl, compile_program(wl.program, options)


class TestPackedHandOff:
    """Streamed tensors stay in the backend's lane buffers between the
    kernels of a chain and between solver steps."""

    STEPS = 16

    @pytest.mark.parametrize("fusion", [None, "auto"])
    @pytest.mark.parametrize("backend", ["cnative", "loops"])
    def test_solve_equals_stepping_with_host_arrays(self, backend, fusion):
        b = _cnative() if backend == "cnative" else get_backend(backend)
        wl, compiled = _smoother(fusion)
        prog = compiled.chain()[0][1]
        lanes = b._kernel(prog).lanes if backend == "cnative" else 1
        for ne in sorted({0, 1, lanes - 1, lanes + 1, 2 * lanes + 1}):
            elements = make_workload("smoother", n=4, n_elements=ne).elements
            state = dict(elements)
            for _ in range(self.STEPS):
                want = run_chain_batch(compiled.chain(), state, wl.static, b)
                want = {n: np.asarray(a) for n, a in want.items()}
                state = {"u": want["w"]}
            got = SolverLoop(
                wl.program, carry=wl.carry, backend=backend, fusion=fusion
            ).run(elements, wl.static, steps=self.STEPS)
            assert set(got.outputs) == set(want)
            for name, arr in got.outputs.items():
                assert isinstance(arr, np.ndarray)
                assert np.array_equal(arr, want[name]), (ne, name)

    @pytest.mark.parametrize("backend", ["cnative", "loops"])
    def test_one_solve_packs_and_unpacks_the_state_once(
        self, backend, monkeypatch
    ):
        from repro.exec import backend as backend_module

        if backend == "cnative":
            _cnative()
        wl, _ = _smoother("auto")
        calls = []
        for fn_name in ("pack_array", "unpack_array"):
            real = getattr(backend_module, fn_name)
            monkeypatch.setattr(
                backend_module, fn_name,
                lambda flat, layout, *args, real=real, fn_name=fn_name:
                calls.append((fn_name, layout.tensor))
                or real(flat, layout, *args),
            )
        SolverLoop(
            wl.program, carry=wl.carry, backend=backend, fusion="auto"
        ).run(wl.elements, wl.static, steps=4)
        assert calls.count(("pack_array", "u")) == 1
        assert [c for c in calls if c[0] == "unpack_array"] == [
            ("unpack_array", "w")
        ]

    def test_a_step_never_changes_the_state_it_read(self):
        b = _cnative()
        wl, compiled = _smoother("auto", ne=9)
        state = run_chain_batch(compiled.chain(), wl.elements, wl.static, b)
        packed = state["w"]
        before = packed.buffer.copy()
        after = run_chain_batch(compiled.chain(), {"u": packed}, wl.static, b)
        assert after["w"].buffer is not packed.buffer
        assert np.array_equal(packed.buffer, before, equal_nan=True)

    def test_packed_buffer_must_fit_its_layout(self):
        """An adopted buffer reaches the C kernel as a bare pointer."""
        layout = Layout.row_major("u", (3, 4))
        Packed(np.zeros((2, 48)), layout, lanes=4, count=5)
        for buffer in (np.zeros((1, 48)), np.zeros((2, 48), np.float32),
                       np.zeros((48, 2)).T):
            with pytest.raises(LayoutError, match="packed 'u'"):
                Packed(buffer, layout, lanes=4, count=5)

    @pytest.mark.parametrize("backend", ["numpy", "loops"])
    def test_cnative_packed_feeds_the_host_backends(self, backend):
        b = _cnative()
        wl, compiled = _smoother(None, ne=5)
        (helmholtz, h_prog), (update, u_prog) = compiled.chain()
        v = b.run_batch(helmholtz, wl.elements, wl.static, ["u"], h_prog)["v"]
        assert isinstance(v, Packed) and len(v) == 5
        assert v.shape == (5,) + helmholtz.decls["v"].shape
        run = get_backend(backend).run_batch
        got = run(update, dict(wl.elements, v=v), wl.static, ["u", "v"], u_prog)
        want = run(
            update, dict(wl.elements, v=np.asarray(v)), wl.static, ["u", "v"],
            u_prog,
        )
        assert np.array_equal(got["w"], want["w"])


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


def _suite_kernels(suite, fusion) -> dict:
    """The kernels of one suite at n = 5, by name, unfused or fused."""
    return compile_program(
        make_workload(suite, n=5).program, FlowOptions(fusion=fusion)
    ).results


def kernel_texts() -> dict:
    """The HLS kernel text of every suite kernel, unfused and fused."""
    out = {}
    for suite in WORKLOAD_SUITES:
        for fusion in (None, "auto"):
            for name, result in _suite_kernels(suite, fusion).items():
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

    def test_functional_record_times_the_batch_not_the_compile(
        self, monkeypatch
    ):
        from repro.exec import cnative

        _cnative()
        compiles = []
        real = cnative.compile_kernel_library

        def slow(*args, **kwargs):
            compiles.append(args)
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(cnative, "compile_kernel_library", slow)
        opts = FlowOptions(system=SystemOptions(
            exec_backend="cnative", functional_elements=5
        ))
        res = Flow(APPS["gradient"](), opts).run()
        assert len(compiles) == 1 and not res.functional.replayed
        assert res.functional.seconds < 0.3

    @staticmethod
    def _perturbed(monkeypatch, element, delta):
        """Options selecting a ``loops`` backend that adds ``delta`` to
        one entry of ``element``'s first output."""
        from repro.exec import backend as registry
        from repro.exec.loops import LoopsBackend

        class Perturbed(LoopsBackend):
            name = "perturbed"

            def run_batch(self, *args, **kwargs):
                outs = {
                    name: np.asarray(arr)
                    for name, arr in super().run_batch(*args, **kwargs).items()
                }
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
