"""Execution-backend throughput: loops vs numpy (vs cnative) on a
batched Helmholtz functional run.

The vectorized ``numpy`` backend is the PR's headline perf claim: the
whole ``Ne``-element batch executes in a handful of batched einsum /
array-op calls instead of ``Ne`` Python loop-nest interpretations, which
must be at least 50x faster on Ne >= 256 while matching the ``loops``
reference within 1e-12.  Where a C compiler exists, ``cnative`` (the
compiled generated C kernel, one call per batch) must match ``loops``
exactly and be at least as fast as ``numpy``.
"""

import time

import numpy as np

from benchmarks.conftest import QUICK, emit
from repro.apps.helmholtz import inverse_helmholtz_source
from repro.exec import get_backend
from repro.flow import compile_any
from repro.utils import ascii_table

#: the full-size paper kernel (n=11) takes minutes per loops round; a
#: smaller degree times the same code paths with identical structure
DEGREE = 5 if QUICK else 7
NE = 256

_RES = None


def _flow():
    global _RES
    if _RES is None:
        _RES = compile_any(inverse_helmholtz_source(DEGREE))
    return _RES


def _batch(res, ne=NE, seed=7):
    rng = np.random.default_rng(seed)
    fn = res.function
    streamed = [d.name for d in fn.inputs()]
    elements = {n: rng.random((ne,) + fn.decls[n].shape) for n in streamed}
    return elements, streamed


def _host(outputs):
    """Outputs as host arrays: ``loops`` and ``cnative`` return them
    packed, and the timings include the unpack."""
    return {name: np.asarray(arr) for name, arr in outputs.items()}


def _run(backend_name):
    res = _flow()
    elements, streamed = _batch(res)
    return _host(get_backend(backend_name).run_batch(
        res.function, elements, {}, streamed, prog=res.poly
    ))


def test_exec_backend_loops(benchmark):
    out = benchmark.pedantic(_run, args=("loops",), rounds=1, iterations=1)
    assert out["v"].shape[0] == NE
    benchmark.extra_info["elements_per_sec"] = NE / benchmark.stats["mean"]


def test_exec_backend_numpy(benchmark):
    out = benchmark(_run, "numpy")
    assert out["v"].shape[0] == NE
    benchmark.extra_info["elements_per_sec"] = NE / benchmark.stats["mean"]


def test_exec_backend_cnative(benchmark):
    import pytest

    b = get_backend("cnative")
    if not b.available():
        pytest.skip(b.unavailable_reason())
    _run("cnative")  # compile outside the timed region
    out = benchmark(_run, "cnative")
    assert out["v"].shape[0] == NE
    benchmark.extra_info["elements_per_sec"] = NE / benchmark.stats["mean"]


def test_numpy_50x_faster_than_loops(out_dir):
    """The acceptance criterion: >= 50x on Ne >= 256, within 1e-12."""
    res = _flow()
    elements, streamed = _batch(res)

    def timed(name, repeats=1):
        best = float("inf")
        out = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = _host(get_backend(name).run_batch(
                res.function, elements, {}, streamed, prog=res.poly
            ))
            best = min(best, time.perf_counter() - t0)
        return out, best

    ref, t_loops = timed("loops")
    got, t_numpy = timed("numpy", repeats=3)
    np.testing.assert_allclose(got["v"], ref["v"], rtol=1e-12, atol=1e-12)
    speedup = t_loops / t_numpy

    rows = [
        ("loops", f"{t_loops:.3f}s", f"{NE / t_loops:,.0f}", "1.0x"),
        ("numpy", f"{t_numpy:.3f}s", f"{NE / t_numpy:,.0f}",
         f"{speedup:.0f}x"),
    ]
    cn = get_backend("cnative")
    t_cn = None
    if cn.available():
        timed("cnative")  # compile once before timing
        got_cn, t_cn = timed("cnative", repeats=3)
        assert np.array_equal(got_cn["v"], ref["v"])
        rows.append(("cnative", f"{t_cn:.3f}s", f"{NE / t_cn:,.0f}",
                     f"{t_loops / t_cn:.0f}x"))
    text = ascii_table(
        ["backend", f"{NE} elements", "elements/sec", "vs loops"],
        rows,
        title=f"Execution-backend throughput (Helmholtz n={DEGREE})",
    )
    emit(out_dir, "exec_backends.txt", text)
    assert speedup >= 50, f"numpy only {speedup:.1f}x faster than loops"
    if t_cn is not None:
        assert t_cn <= t_numpy, (
            f"cnative {t_cn * 1e3:.1f} ms slower than numpy {t_numpy * 1e3:.1f} ms"
        )
