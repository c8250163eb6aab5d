"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it computes the
rows with the reproduction flow, prints a text rendering next to the
paper's published values, asserts the qualitative shape (who wins, by
roughly what factor, where crossovers fall), and times the computation
with pytest-benchmark.  Rendered outputs are also written to
``benchmarks/out/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.flow import FlowOptions, compile_any
from repro.mnemosyne import SharingMode

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: BENCH_QUICK=1 shrinks the sweep grids for the CI benchmark gate, so a
#: run fits in a PR-sized job while timing the same code paths; the
#: committed baseline (BENCH_baseline.json) was produced in this mode.
QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: BENCH_EXECUTOR/BENCH_JOBS point the sweep benches at a specific
#: compile_many backend (serial/thread/process/distributed), e.g. to compare
#: core-count scaling; the default matches the library default.
BENCH_EXECUTOR = os.environ.get("BENCH_EXECUTOR", "thread")
BENCH_JOBS = int(os.environ.get("BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def flow_sharing():
    return compile_any(HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.MATCHING))


@pytest.fixture(scope="session")
def flow_no_sharing():
    return compile_any(HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE))


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def emit(out_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a rendered table/figure and persist it for EXPERIMENTS.md."""
    print("\n" + text)
    (out_dir / name).write_text(text + "\n")
