"""Compiler performance microbenchmarks (pytest-benchmark timings).

Times each phase of the flow on the Inverse Helmholtz kernel so compiler
regressions are visible: parse, lower+canonicalize, schedule, liveness,
codegen, full flow.
"""

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL, inverse_helmholtz_program
from repro.cfdlang import analyze, parse_program
from repro.codegen import generate_kernel
from repro.flow import compile_any
from repro.memory import build_compatibility_graph
from repro.poly.reschedule import reschedule
from repro.poly.schedule import reference_schedule
from repro.teil import canonicalize, lower_program


@pytest.fixture(scope="module")
def lowered():
    return canonicalize(lower_program(inverse_helmholtz_program(11)))


@pytest.fixture(scope="module")
def scheduled(lowered):
    return reschedule(reference_schedule(lowered), "outside")


def test_bench_parse(benchmark):
    prog = benchmark(parse_program, HELMHOLTZ_DSL)
    assert len(prog.stmts) == 3


def test_bench_sema(benchmark):
    prog = parse_program(HELMHOLTZ_DSL)
    benchmark(analyze, prog)


def test_bench_lower_and_factorize(benchmark):
    prog = inverse_helmholtz_program(11)
    fn = benchmark(lambda: canonicalize(lower_program(prog)))
    assert len(fn.statements) == 7


def test_bench_reference_schedule(benchmark, lowered):
    prog = benchmark(reference_schedule, lowered)
    assert prog.sched_rank == 5


def test_bench_reschedule(benchmark, lowered):
    ref = reference_schedule(lowered)
    benchmark(reschedule, ref, "outside")


def test_bench_liveness_compat(benchmark, scheduled):
    graph = benchmark(build_compatibility_graph, scheduled)
    assert len(graph.arrays) == 10


def test_bench_codegen(benchmark, scheduled):
    code = benchmark(generate_kernel, scheduled)
    assert "kernel_body" in code.source


def test_bench_full_flow(benchmark):
    res = benchmark(compile_any, HELMHOLTZ_DSL)
    assert res.memory.brams == 18
