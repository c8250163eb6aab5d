"""Ablation: HLS pipelining mode (DESIGN.md design choice 5).

flatten (II=1 over the whole nest, the paper's configuration) vs
inner-loop-only pipelining (accumulator recurrence limits II) vs no
pipelining.
"""

from benchmarks.conftest import emit
from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.codegen.hlsdirectives import HlsDirectives
from repro.flow import FlowOptions, compile_any
from repro.utils import ascii_table


def build_rows():
    rows = []
    for mode in ("flatten", "inner", "none"):
        res = compile_any(
            HELMHOLTZ_DSL, FlowOptions(directives=HlsDirectives(pipeline=mode))
        )
        max_ii = res.hls.max_ii
        rows.append(
            (
                mode,
                max_ii,
                res.hls.latency_cycles,
                f"{res.hls.latency_seconds * 1e6:.0f}us",
                res.hls.resources.lut,
            )
        )
    return rows


def test_pipeline_ablation(benchmark, out_dir):
    rows = benchmark(build_rows)
    text = ascii_table(
        ["pipeline", "max II", "kernel cycles", "latency", "LUT"],
        rows,
        title="Ablation: HLS pipelining mode (Inverse Helmholtz, p=11)",
    )
    emit(out_dir, "ablation_pipeline.txt", text)
    by_mode = {r[0]: r for r in rows}
    assert by_mode["flatten"][1] == 1
    assert by_mode["inner"][1] == 8      # fp64 accumulator recurrence
    assert by_mode["flatten"][2] < by_mode["inner"][2] < by_mode["none"][2]


def test_unroll_needs_partitioning(out_dir):
    """Unrolling without array partitioning is port-bound; with cyclic
    partitioning II returns to 1 (Sec. V-A1)."""
    rows = []
    arrays = ["S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"]
    for label, directives in (
        ("U=1", HlsDirectives()),
        ("U=2, no partition", HlsDirectives(unroll_factor=2)),
        ("U=2, cyclic(2)", HlsDirectives(unroll_factor=2, array_partition={a: 2 for a in arrays})),
    ):
        res = compile_any(HELMHOLTZ_DSL, FlowOptions(directives=directives))
        rows.append((label, res.hls.max_ii, res.hls.latency_cycles, res.hls.resources.dsp))
    text = ascii_table(
        ["directives", "max II", "kernel cycles", "DSP"],
        rows,
        title="Ablation: unrolling and array partitioning",
    )
    emit(out_dir, "ablation_unroll.txt", text)
    assert rows[1][1] > rows[0][1]           # port pressure
    assert rows[2][1] == 1                   # partitioning restores II=1
    assert rows[2][3] == 2 * rows[0][3]      # replicated datapath
