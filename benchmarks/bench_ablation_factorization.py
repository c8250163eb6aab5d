"""Ablation: contraction factorization (DESIGN.md design choice 1).

The O(p^6) -> O(p^4) associativity transformation is the CFDlang
optimization the whole flow builds on; without it the kernel does 135x
more MACs at p = 11.
"""

from benchmarks.conftest import emit
from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.flow import FlowOptions, compile_any
from repro.teil import function_macs
from repro.utils import ascii_table

NE = 50_000


def build_rows():
    rows = []
    for factorize in (True, False):
        res = compile_any(HELMHOLTZ_DSL, FlowOptions(factorize=factorize))
        sim = res.simulate(NE, 1, 1)
        rows.append(
            (
                "factorized" if factorize else "naive",
                function_macs(res.function),
                res.hls.latency_cycles,
                f"{sim.total_seconds:.2f}s",
                res.memory.brams,
            )
        )
    return rows


def test_factorization_ablation(benchmark, out_dir):
    rows = benchmark(build_rows)
    text = ascii_table(
        ["variant", "MACs/element", "kernel cycles", "50k elems (k=1)", "BRAM/kernel"],
        rows,
        title="Ablation: contraction factorization (p=11)",
    )
    emit(out_dir, "ablation_factorization.txt", text)
    macs_fact, macs_naive = rows[0][1], rows[1][1]
    # (2*11^6 + 11^3) / (6*11^4 + 11^3) ~ 39.7x fewer MACs
    assert macs_naive / macs_fact > 30
    assert rows[1][2] > 10 * rows[0][2]


def test_factorization_macs_exact(out_dir):
    res_f = compile_any(HELMHOLTZ_DSL, FlowOptions(factorize=True))
    res_n = compile_any(HELMHOLTZ_DSL, FlowOptions(factorize=False))
    n = 11
    assert function_macs(res_f.function) == 6 * n**4 + n**3
    assert function_macs(res_n.function) == 2 * n**6 + n**3
