"""Sec. VI ablation: temporaries inside the HLS accelerator.

Paper: "the memory system used 9 BRAMs and the accelerator used 24, for a
total of 33 BRAMs, showing that exporting the temporary arrays to allow
control over their implementation does allow for better optimization"
(vs 31 exported without sharing, 18 with sharing).
"""

from benchmarks.conftest import emit
from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.flow import FlowOptions, compile_any
from repro.utils import ascii_table


def build_rows(flow_sharing, flow_no_sharing):
    inside = compile_any(HELMHOLTZ_DSL, FlowOptions(temporaries_internal=True))
    return {
        "temporaries inside HLS": (
            inside.memory.brams,
            inside.hls.resources.bram,
            inside.memory.brams + inside.hls.resources.bram,
        ),
        "exported, no sharing": (flow_no_sharing.memory.brams, 0, flow_no_sharing.memory.brams),
        "exported, sharing": (flow_sharing.memory.brams, 0, flow_sharing.memory.brams),
    }


def test_temporaries_inside(benchmark, flow_sharing, flow_no_sharing, out_dir):
    rows = benchmark(build_rows, flow_sharing, flow_no_sharing)
    paper = {
        "temporaries inside HLS": (9, 24, 33),
        "exported, no sharing": (31, 0, 31),
        "exported, sharing": (18, 0, 18),
    }
    table = [
        (name, *vals, *paper[name]) for name, vals in rows.items()
    ]
    text = ascii_table(
        ["configuration", "mem BRAM", "acc BRAM", "total", "paper mem", "paper acc", "paper total"],
        table,
        title="Temporaries placement (measured vs paper)",
    )
    emit(out_dir, "temps_inside.txt", text)

    assert rows == paper  # exact reproduction of the BRAM accounting
    # the paper's conclusion: exporting strictly dominates
    assert rows["exported, sharing"][2] < rows["exported, no sharing"][2] < rows["temporaries inside HLS"][2]
