"""Tests for polyhedral statements, reference schedule, dataflow, rescheduling."""

import random
from itertools import permutations

import pytest

from repro.apps.helmholtz import inverse_helmholtz_program
from repro.apps.workloads import WORKLOAD_SUITES, make_workload
from repro.errors import PolyhedralError
from repro.flow import FlowOptions, StageCache, compile_program
from repro.poly.codegen_ast import (
    build_loop_ast,
    kernel_trip_counts,
    scheduled_loop_dims,
)
from repro.poly.dataflow import (
    access_schedule_points,
    check_schedule_legal,
    raw_element_relation,
    statement_raw_deps,
    statement_rar_pairs,
)
from repro.poly.reschedule import (
    REDUCTION_PLACEMENTS,
    innermost_stride,
    least_cost_order,
    reschedule,
)
from repro.poly.schedule import (
    reference_schedule,
    with_statement_order,
    with_loop_permutation,
)
from repro.teil import canonicalize, lower_program


def helmholtz_poly(n=4, factorize=True):
    fn = canonicalize(lower_program(inverse_helmholtz_program(n)), factorize=factorize)
    return reference_schedule(fn)


def raw_cost(prog):
    """Live-interval proxy: bytes x stage distance summed over RAW edges."""
    return sum(
        prog.function.decls[dep.tensor].n_bytes
        * (
            prog.stage_of(prog.statement(dep.consumer))
            - prog.stage_of(prog.statement(dep.producer))
        )
        for dep in statement_raw_deps(prog)
    )


def brute_force_order(names, preds, edges):
    """Least ``(sum(weight * |distance|), order)`` over all legal orders."""
    best = None
    for perm in permutations(range(len(names))):
        pos = {i: k for k, i in enumerate(perm)}
        if any(
            pos[j] > pos[i]
            for i in perm
            for j in range(len(names))
            if preds[i] >> j & 1
        ):
            continue
        cost = 0
        for mask, weight in edges:
            a, b = (i for i in range(len(names)) if mask >> i & 1)
            cost += weight * abs(pos[a] - pos[b])
        key = (cost, tuple(names[i] for i in perm))
        best = key if best is None else min(best, key)
    return best[1]


def random_dag(rng, n):
    """Names, predecessor masks and (mask, weight) edges of a random DAG.

    The names are drawn so that their string order differs from their
    index order (``"s10" < "s2"``), and the weights are small so that
    equal costs are common and the tie-break matters.
    """
    names = [f"s{k}" for k in rng.sample(range(12), n)]
    topo = rng.sample(range(n), n)
    preds = [0] * n
    edges = []
    for x in range(n):
        for y in range(x + 1, n):
            a, b = topo[x], topo[y]
            if rng.random() < 0.4:  # RAW a -> b
                preds[b] |= 1 << a
                edges.append((1 << a | 1 << b, 10 * rng.randint(1, 3)))
            if rng.random() < 0.3:  # RAR pair
                edges.append((1 << a | 1 << b, rng.randint(1, 3)))
    return names, preds, edges


def misplaced_reduction(stmt, perm, placement):
    """Whether loop order ``perm`` puts the reduction dims where
    ``placement`` does not want them."""
    nd = len(stmt.loop_dims)
    if not stmt.is_reduction or placement == "free":
        return 0
    red = range(stmt.out_rank, nd)
    if placement == "innermost":
        return int(any(perm.index(i) < nd - len(red) for i in red))
    return int(perm[-1] in red)


@pytest.fixture(scope="module")
def suite_polys():
    """The rescheduled poly of every suite kernel at ``-n 5``, unfused and
    fused."""
    cache = StageCache()
    polys = {}
    for suite in WORKLOAD_SUITES:
        for fusion in (None, "auto"):
            res = compile_program(
                make_workload(suite, n=5).program,
                FlowOptions(fusion=fusion),
                cache=cache,
            )
            for name, result in res.results.items():
                polys[f"{suite}/{fusion}/{name}"] = result.poly
    return polys


class TestStatements:
    def test_statement_count_and_kinds(self):
        prog = helmholtz_poly()
        assert len(prog.statements) == 7
        kinds = [s.kind for s in prog.statements]
        assert kinds.count("contract") == 6
        assert kinds.count("ewise:*") == 1

    def test_contraction_has_inner_domain(self):
        prog = helmholtz_poly(n=4)
        s0 = prog.statements[0]
        assert s0.is_reduction
        assert len(s0.loop_dims) == 4  # 3 output + 1 reduction
        assert len(list(s0.domain.points())) == 4**4

    def test_ewise_statement_domain(self):
        prog = helmholtz_poly(n=3)
        had = [s for s in prog.statements if s.kind == "ewise:*"][0]
        assert not had.is_reduction
        assert len(list(had.domain.points())) == 27

    def test_reference_schedule_stages(self):
        prog = helmholtz_poly()
        stages = [prog.stage_of(s) for s in prog.statements]
        assert stages == list(range(7))

    def test_schedule_rank_covers_deepest_nest(self):
        prog = helmholtz_poly()
        assert prog.sched_rank == 5  # stage + 3 out + 1 red

    def test_write_access_evaluates(self):
        prog = helmholtz_poly(n=4)
        s0 = prog.statements[0]
        pt = (1, 2, 3, 0)
        assert s0.write.fn.evaluate(pt) == (1, 2, 3)


class TestDataflow:
    def test_raw_dep_chain(self):
        prog = helmholtz_poly()
        deps = statement_raw_deps(prog)
        # factorized Helmholtz: each temp feeds the next stage, u feeds s0
        pairs = {(d.producer, d.consumer) for d in deps}
        assert ("s0", "s1") in pairs
        assert ("s5", "s6") in pairs
        assert len(deps) == 6  # t0..t3, t, r each consumed once

    def test_rar_pairs_for_shared_s(self):
        prog = helmholtz_poly()
        rars = [d for d in statement_rar_pairs(prog) if d.tensor == "S"]
        assert len(rars) == 15  # 6 readers of S -> C(6,2)

    def test_legality_check_rejects_bad_order(self):
        prog = helmholtz_poly()
        names = [s.name for s in prog.statements]
        bad = with_statement_order(prog, list(reversed(names)))
        with pytest.raises(PolyhedralError, match="illegal schedule"):
            check_schedule_legal(bad)

    def test_raw_element_relation_basic(self):
        prog = helmholtz_poly(n=3)
        raw = raw_element_relation(prog, "t")
        assert raw is not None
        # element t[0,0,0] is written at stage of its producer, read at Hadamard
        pairs = raw.image_of_point((0, 0, 0))
        assert pairs, "t[0,0,0] must have write->read schedule pairs"
        rank = prog.sched_rank
        for p in pairs:
            w, r = p[:rank], p[rank:]
            assert w <= r  # lexicographic via tuple comparison on equal rank

    def test_raw_element_relation_none_for_input_only(self):
        prog = helmholtz_poly(n=3)
        assert raw_element_relation(prog, "S") is None  # never written in-kernel

    def test_access_schedule_points(self):
        prog = helmholtz_poly(n=3)
        reads = access_schedule_points(prog, "D", "r")
        writes = access_schedule_points(prog, "D", "w")
        assert reads is not None and not reads.is_empty(exact=False)
        assert writes is None or writes.is_empty(exact=False)

    def test_mode_validation(self):
        prog = helmholtz_poly(n=3)
        with pytest.raises(PolyhedralError):
            access_schedule_points(prog, "D", "x")


class TestStatementOrder:
    def test_chain_keeps_its_order(self):
        # c -> b -> a: the only legal order, although the names sort a, b, c
        order = least_cost_order(["c", "b", "a"], [0, 0b1, 0b10], [])
        assert order == ("c", "b", "a")

    def test_independent_names_come_out_sorted(self):
        assert least_cost_order(["s2", "s10", "s1"], [0, 0, 0], []) == (
            "s1",
            "s10",
            "s2",
        )

    def test_dp_matches_brute_force_on_random_dags(self):
        rng = random.Random(2021)
        for _ in range(400):
            n = rng.randint(1, 7)
            names, preds, edges = random_dag(rng, n)
            want = brute_force_order(names, preds, edges)
            assert least_cost_order(names, preds, edges) == want, (
                names,
                preds,
                edges,
            )


class TestReschedule:
    def test_reschedule_is_legal_and_no_worse(self):
        prog = helmholtz_poly()
        opt = reschedule(prog)
        check_schedule_legal(opt)
        assert raw_cost(opt) <= raw_cost(prog)

    def test_statement_order_weighs_raw_ten_to_one_over_rar(self):
        """Unfactorized fused fem-cfd (7 statements), where the RAR pairs
        move the order: the chosen order is the least (cost, order) over
        every legal order, with RAW at 10 x bytes x distance and RAR at
        1 x bytes x |distance|."""
        res = compile_program(
            make_workload("fem-cfd", n=3).program,
            FlowOptions(fusion="auto", factorize=False),
        )
        (poly,) = (r.poly for r in res.results.values())
        raw, rar = statement_raw_deps(poly), statement_rar_pairs(poly)
        n_bytes = {d.tensor: poly.function.decls[d.tensor].n_bytes for d in raw + rar}

        def least(rar_scale):
            best = None
            for order in permutations(s.name for s in poly.statements):
                pos = {name: k for k, name in enumerate(order)}
                if any(pos[d.producer] > pos[d.consumer] for d in raw):
                    continue
                cost = sum(
                    weight * n_bytes[d.tensor] * abs(pos[d.consumer] - pos[d.producer])
                    for weight, deps in ((10, raw), (rar_scale, rar))
                    for d in deps
                )
                best = (cost, order) if best is None else min(best, (cost, order))
            return best[1]

        got = tuple(s.name for s in reschedule(poly).statements_in_schedule_order())
        assert got == least(1)
        assert got != least(0)

    def test_loop_order_is_the_least_over_all_permutations(self, suite_polys):
        """One candidate per innermost loop finds what a search over every
        permutation finds: the least (misplaced reduction, strided
        accesses in the innermost loop, permutation)."""
        for key, poly in suite_polys.items():
            opts = {p: reschedule(poly, p) for p in REDUCTION_PLACEMENTS}
            for s in poly.statements:
                nd = len(s.loop_dims)
                perms = list(permutations(range(nd)))
                bad = {}
                for perm in perms:
                    if perm[-1] not in bad:
                        strides = innermost_stride(poly, s, perm)
                        bad[perm[-1]] = sum(1 for x in strides if x not in (0, 1))
                for placement, opt in opts.items():
                    got = tuple(
                        s.loop_dims.index(d) for d in scheduled_loop_dims(opt, s)
                    )
                    want = min(
                        (misplaced_reduction(s, p, placement), bad[p[-1]], p)
                        for p in perms
                    )[2]
                    assert got == want, (key, s.name, placement)

    def test_reference_order_is_optimal_for_chain(self):
        # the factorized Helmholtz is a pure chain: order must be unchanged
        prog = helmholtz_poly()
        opt = reschedule(prog)
        order = [s.name for s in opt.statements_in_schedule_order()]
        assert order == [f"s{i}" for i in range(7)]

    def test_loop_permutation_prefers_register_accumulator(self):
        prog = helmholtz_poly(n=5)
        opt = reschedule(prog)
        for s in opt.statements:
            dims = scheduled_loop_dims(opt, s)
            if s.is_reduction:
                # reduction dims must be the innermost contiguous suffix
                n_red = len(s.reduction_dims)
                assert set(dims[-n_red:]) == set(s.reduction_dims), (s.name, dims)
            perm = [s.loop_dims.index(d) for d in dims]
            strides = innermost_stride(opt, s, perm)
            # the write access is never strided by the innermost loop
            assert strides[0] in (0, 1), (s.name, strides)

    def test_permutation_validation(self):
        prog = helmholtz_poly()
        with pytest.raises(PolyhedralError):
            with_loop_permutation(prog, "s0", [0, 0, 1, 2])

    def test_order_validation(self):
        prog = helmholtz_poly()
        with pytest.raises(PolyhedralError):
            with_statement_order(prog, ["s0"])


class TestLoopAst:
    def test_trip_counts_factorized(self):
        prog = reschedule(helmholtz_poly(n=11))
        ast = build_loop_ast(prog)
        trips = dict(kernel_trip_counts(ast))
        contract_trips = [v for k, v in trips.items() if k != "s3"]
        assert all(v == 11**4 for v in contract_trips)
        assert trips["s3"] == 11**3  # Hadamard

    def test_accumulator_style_detected(self):
        prog = reschedule(helmholtz_poly(n=4))
        ast = build_loop_ast(prog)
        for node in ast.stages:
            if node.stmt.kind == "contract":
                assert node.accumulator_style
                assert node.n_reduction_loops == 1

    def test_stage_order_matches_schedule(self):
        prog = reschedule(helmholtz_poly(n=4))
        ast = build_loop_ast(prog)
        names = [c.stmt.name for c in ast.stages]
        assert names == [s.name for s in prog.statements_in_schedule_order()]
