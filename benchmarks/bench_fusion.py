"""Chain fusion: fused vs unfused throughput and modeled transfer traffic.

Fusing a multi-kernel chain into one composite kernel buys two things,
measured here on the workload suites:

* **Host data movement** — a fused group is a single
  ``backend.run_batch`` call: on ``cnative`` one emitted C function
  replaces one call per member kernel, a shared streamed input is packed
  once for the group, and a demoted intermediate never reaches the host.
  The gate asserts that, deterministically, on every suite: one
  ``run_batch`` per fused group, and strictly fewer bytes through
  ``pack_array`` + ``unpack_array`` than the unfused chain.  Wall-clock
  speed is asserted only on the smoother, whose intermediate ``v`` is
  the one a fused chain keeps on the device, in paired rounds that
  alternate which chain runs first.  fem-cfd passes no intermediate
  between its kernels, so its wall-clock ratio times host batch set-up,
  not fusion; it is timed for the regression gate only.
* **Modeled transfer bytes** — demoted intermediates leave the fused
  interface, so the system model stops streaming them.  The gate asserts
  the fused helmholtz-gradient chain eliminates at least the
  intermediate tensor's share of per-element traffic.
"""

import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import QUICK, emit
from repro.apps.workloads import make_workload
from repro.exec import backend as backend_module
from repro.exec import get_backend
from repro.exec.programs import run_chain_batch
from repro.flow import FlowOptions, StageCache, compile_program
from repro.utils import ascii_table

DEGREE = 4
NE = 192 if QUICK else 512
REPS = 5 if QUICK else 9
ROUNDS = 5 if QUICK else 7
SUITES = ("smoother", "helmholtz-gradient", "fem-cfd")

_COMPILED = {}


def _compiled(suite):
    """(workload, unfused ProgramResult, fused ProgramResult), cached
    per suite so repeated tests share one compile session."""
    if suite not in _COMPILED:
        wl = make_workload(suite, n=DEGREE, n_elements=NE)
        cache = StageCache()
        plain = compile_program(wl.program, cache=cache)
        fused = compile_program(
            wl.program,
            FlowOptions(fusion="auto", fusion_keep=tuple(wl.carry)),
            cache=cache,
        )
        _COMPILED[suite] = (wl, plain, fused)
    return _COMPILED[suite]


def _host_outputs(res, wl, backend):
    """The chain's outputs as host arrays, as a caller reads them."""
    out = run_chain_batch(res.chain(), wl.elements, wl.static, backend=backend)
    return {name: np.asarray(arr) for name, arr in out.items()}


def _median_seconds(res, wl, backend, reps=REPS):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _host_outputs(res, wl, backend)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_fusion_throughput_fem_cfd(benchmark):
    """Timed entry for the regression gate: the fused fem-cfd chain on
    the best available backend."""
    backend = "cnative" if get_backend("cnative").available() else "numpy"
    wl, _, fused = _compiled("fem-cfd")
    out = benchmark(
        run_chain_batch, fused.chain(), wl.elements, wl.static,
        backend=backend,
    )
    assert out["gx"].shape[0] == NE
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["n_elements"] = NE


def _cnative():
    if not get_backend("cnative").available():
        pytest.skip("cnative backend unavailable (no C compiler)")
    return get_backend("cnative")


@pytest.mark.parametrize("suite", SUITES)
def test_fusion_moves_fewer_host_bytes(suite, monkeypatch):
    """One ``run_batch`` per fused group, strictly fewer bytes packed and
    unpacked than the unfused chain, and the same outputs to 1e-12."""
    backend = _cnative()
    wl, plain, fused = _compiled(suite)
    moved = []
    calls = []
    real_pack = backend_module.pack_array
    real_unpack = backend_module.unpack_array
    real_run = backend.run_batch

    def pack(flat, layout, arr, *args):
        moved.append(np.asarray(arr).nbytes)
        return real_pack(flat, layout, arr, *args)

    def unpack(*args):
        out = real_unpack(*args)
        moved.append(out.nbytes)
        return out

    def run_batch(*args, **kwargs):
        calls.append(args[0].name)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(backend_module, "pack_array", pack)
    monkeypatch.setattr(backend_module, "unpack_array", unpack)
    monkeypatch.setattr(backend, "run_batch", run_batch)
    counted = {}
    for label, res in (("unfused", plain), ("fused", fused)):
        moved.clear()
        calls.clear()
        out = _host_outputs(res, wl, "cnative")
        counted[label] = (sum(moved), out)
        if label == "fused":
            assert calls == list(res.results), calls
    (bytes_plain, out_p), (bytes_fused, out_f) = counted.values()
    assert bytes_fused < bytes_plain, (suite, bytes_fused, bytes_plain)
    for k in set(out_p) & set(out_f):
        np.testing.assert_allclose(out_f[k], out_p[k], atol=1e-12, rtol=0)


def test_fused_smoother_beats_unfused(out_dir):
    """The fused smoother keeps its intermediate ``v`` on the device, so
    it must out-run the two-kernel chain: paired rounds in one process,
    alternating which chain runs first, compared by their median."""
    _cnative()
    wl, plain, fused = _compiled("smoother")
    _host_outputs(plain, wl, "cnative")
    _host_outputs(fused, wl, "cnative")
    speedups = []
    for r in range(ROUNDS):
        pair = (plain, fused) if r % 2 == 0 else (fused, plain)
        secs = {id(res): _median_seconds(res, wl, "cnative") for res in pair}
        speedups.append(secs[id(plain)] / secs[id(fused)])
    speedup = statistics.median(speedups)
    rows = [
        (f"round {r + 1}", f"{s:.2f}x") for r, s in enumerate(speedups)
    ] + [("median", f"{speedup:.2f}x")]
    text = ascii_table(
        ["smoother chain (cnative)", "fused / unfused speed"],
        rows,
        title=f"Fused vs unfused, paired rounds (n={DEGREE}, Ne={NE}, "
              f"median of {REPS} per side)",
    )
    emit(out_dir, "fusion_throughput.txt", text)
    assert speedup > 1.0, f"fused smoother is not faster: {speedup:.2f}x"


def test_fusion_transfer_reduction(out_dir):
    """Demoted intermediates must drop out of the modeled per-element
    host<->accelerator traffic."""
    rows = []
    savings = {}
    for suite in ["smoother", "helmholtz-gradient", "fem-cfd"]:
        wl, plain, fused = _compiled(suite)
        b_plain = plain.transfer_bytes_per_element()
        b_fused = fused.transfer_bytes_per_element()
        saved = b_plain - b_fused
        savings[suite] = saved
        internal = sorted(
            t for fk in fused.fused.values() for t in fk.internalized
        )
        rows.append((
            suite,
            b_plain,
            b_fused,
            f"{saved / b_plain:.0%}",
            ", ".join(internal) or "-",
        ))
        assert b_fused <= b_plain, suite
    text = ascii_table(
        ["suite", "unfused B/elem", "fused B/elem", "eliminated",
         "on-device intermediates"],
        rows,
        title=f"Modeled transfer traffic under fusion (n={DEGREE})",
    )
    emit(out_dir, "fusion_transfer.txt", text)
    # the demoted intermediate v (DEGREE^3 doubles) crossed the unfused
    # boundary twice (out of one kernel, into the next); at least its
    # full share must vanish from the modeled traffic
    intermediate_bytes = DEGREE ** 3 * 8
    assert savings["helmholtz-gradient"] >= intermediate_bytes
    assert savings["smoother"] >= intermediate_bytes
    # fem-cfd has no demotable intermediate, but the shared streamed
    # input u is transferred once instead of per member kernel
    assert savings["fem-cfd"] >= intermediate_bytes
