"""Property-based tests (hypothesis) on the core data structures and the
compiler's semantic invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.poly.aff import AffExpr, AffTuple
from repro.poly.iset import BasicSet
from repro.poly.lexorder import lex_compare, lex_le_map, lex_lt_map
from repro.poly.space import Space

# -- strategies ---------------------------------------------------------------

small_shapes = st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple)
tuples3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def boxes(draw, max_rank=3, lo_range=(-5, 5), width=(0, 6)):
    rank = draw(st.integers(1, max_rank))
    bounds = []
    for _ in range(rank):
        lo = draw(st.integers(*lo_range))
        w = draw(st.integers(*width))
        bounds.append((lo, lo + w))
    space = Space("b", tuple(f"x{i}" for i in range(rank)))
    return BasicSet.from_box(space, bounds), bounds


@st.composite
def affine_fns(draw, rank_in, rank_out, coeff=(-3, 3), const=(-5, 5)):
    dom = Space("d", tuple(f"x{i}" for i in range(rank_in)))
    exprs = []
    for _ in range(rank_out):
        e = AffExpr.constant(draw(st.integers(*const)))
        for d in dom.dims:
            e = e + AffExpr.var(d, draw(st.integers(*coeff)))
        exprs.append(e)
    return AffTuple(dom, tuple(exprs), Space("r", tuple(f"y{j}" for j in range(rank_out))))


# -- polyhedral engine properties -------------------------------------------------


class TestSetProperties:
    @given(boxes())
    @settings(max_examples=60, deadline=None)
    def test_box_point_count(self, bx):
        bs, bounds = bx
        expected = 1
        for lo, hi in bounds:
            expected *= hi - lo + 1
        assert len(list(bs.points())) == expected

    @given(boxes(), boxes())
    @settings(max_examples=40, deadline=None)
    def test_intersection_is_exact(self, a, b):
        bsa, _ = a
        bsb, _ = b
        assume(bsa.rank == bsb.rank)
        bsb = bsb.with_space(bsa.space)
        inter = bsa.intersect(bsb)
        pa = set(bsa.points())
        pb = set(bsb.points())
        assert set(inter.points()) == (pa & pb)

    @given(boxes(max_rank=2), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_projection_is_exact(self, bx, which):
        bs, _ = bx
        assume(bs.rank == 2)
        dim = bs.space.dims[which]
        keep = 1 - which
        proj = bs.project_out([dim])
        expected = {(p[keep],) for p in bs.points()}
        assert set(proj.points()) == expected

    @given(boxes(max_rank=2))
    @settings(max_examples=40, deadline=None)
    def test_image_is_exact_under_strided_map(self, bx):
        """The existential representation must keep strides (no convex hull)."""
        bs, _ = bx
        dims = bs.space.dims
        fn = AffTuple(
            bs.space,
            (sum((AffExpr.var(d, 7) for d in dims), AffExpr.constant(3)),),
            Space("img", ("a",)),
        )
        img = bs.apply(fn)
        expected = {fn.evaluate(p) for p in bs.points()}
        assert set(img.points()) == expected

    @given(boxes(max_rank=2))
    @settings(max_examples=30, deadline=None)
    def test_emptiness_agrees_with_enumeration(self, bx):
        bs, _ = bx
        assert bs.is_empty() == (len(list(bs.points())) == 0)


class TestLexProperties:
    @given(tuples3, tuples3)
    @settings(max_examples=80, deadline=None)
    def test_lex_lt_matches_python_tuple_order(self, a, b):
        m = lex_lt_map(3)
        assert m.contains(a, b) == (a < b)

    @given(tuples3, tuples3)
    @settings(max_examples=80, deadline=None)
    def test_lex_le_matches(self, a, b):
        m = lex_le_map(3)
        assert m.contains(a, b) == (a <= b)

    @given(tuples3, tuples3, tuples3)
    @settings(max_examples=40, deadline=None)
    def test_lex_compare_transitive(self, a, b, c):
        if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
            assert lex_compare(a, c) <= 0


# -- compiler semantic invariants -------------------------------------------------


@st.composite
def random_tensor_programs(draw):
    """Small random CFDlang programs: chain of contractions + ewise ops."""
    from repro.cfdlang import ProgramBuilder

    n = draw(st.integers(2, 4))
    b = ProgramBuilder()
    S = b.input("S", (n, n))
    u = b.input("u", (n, n, n))
    w = b.input("w", (n, n, n))
    v = b.output("v", (n, n, n))
    t = b.local("t", (n, n, n))
    # t = contraction of u by S along 1-3 modes
    n_modes = draw(st.integers(1, 3))
    factors = [S] * n_modes + [u]
    pairs = []
    # S_i occupies dims (2i, 2i+1); u occupies the last 3 dims
    base = 2 * n_modes
    for i in range(n_modes):
        pairs.append((2 * i + 1, base + i))
    b.assign(t, b.contract(b.outer(*factors), pairs))
    op = draw(st.sampled_from(["*", "+", "-"]))
    rhs = {"*": b.hadamard, "+": b.add, "-": b.sub}[op](t, w)
    b.assign(v, rhs)
    return b.build(), n


class TestCompilerInvariants:
    @given(random_tensor_programs(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_factorization_and_codegen_preserve_semantics(self, progn, seed):
        from repro.codegen import run_python_kernel
        from repro.poly.reschedule import reschedule
        from repro.poly.schedule import reference_schedule
        from repro.teil import canonicalize, interpret, lower_program

        prog, n = progn
        rng = np.random.default_rng(seed)
        inputs = {
            "S": rng.standard_normal((n, n)),
            "u": rng.standard_normal((n, n, n)),
            "w": rng.standard_normal((n, n, n)),
        }
        raw = lower_program(prog)
        fac = canonicalize(raw)
        ref = interpret(raw, inputs)["v"]
        np.testing.assert_allclose(interpret(fac, inputs)["v"], ref, rtol=1e-10)
        poly = reschedule(reference_schedule(fac), "outside")
        got = run_python_kernel(poly, inputs)["v"]
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    @given(random_tensor_programs())
    @settings(max_examples=20, deadline=None)
    def test_sharing_is_safe_on_random_programs(self, progn):
        """Liveness-driven overlays never corrupt results."""
        from repro.codegen import run_python_kernel
        from repro.flow import FlowOptions, compile_any
        from repro.mnemosyne import SharingMode
        from repro.teil import interpret

        prog, n = progn
        res = compile_any(prog, FlowOptions(sharing=SharingMode.CLIQUE))
        rng = np.random.default_rng(0)
        inputs = {
            "S": rng.standard_normal((n, n)),
            "u": rng.standard_normal((n, n, n)),
            "w": rng.standard_normal((n, n, n)),
        }
        got = run_python_kernel(res.poly, inputs, memory=res.memory)["v"]
        ref = interpret(res.function, inputs)["v"]
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    @given(small_shapes)
    @settings(max_examples=40, deadline=None)
    def test_layout_bijective(self, shape):
        from repro.layout import Layout

        for layout in (Layout.row_major("t", shape), Layout.column_major("t", shape)):
            seen = set()
            for idx in np.ndindex(*shape):
                a = layout.address(idx)
                assert 0 <= a < layout.size
                assert a not in seen
                seen.add(a)
            assert len(seen) == layout.n_elements
            layout.check_injective()


class TestSimulatorInvariants:
    @given(
        st.sampled_from([1, 2, 4, 8, 16]),
        st.integers(0, 3),
        st.integers(1, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_event_sim_equals_analytic(self, k, batch_log2, blocks):
        from repro.apps.helmholtz import HELMHOLTZ_DSL
        from repro.flow import compile_any
        from repro.sim import simulate_system, simulate_system_events

        m = k * (2**batch_log2)
        assume(m <= 16)
        res = _cached_flow()
        design = res.build_system(k, m)
        ne = m * blocks
        a = simulate_system(design, ne)
        e = simulate_system_events(design, ne)
        assert a.total_cycles == e.total_cycles


_FLOW_CACHE = {}


def _cached_flow():
    if "f" not in _FLOW_CACHE:
        from repro.apps.helmholtz import HELMHOLTZ_DSL
        from repro.flow import compile_any

        _FLOW_CACHE["f"] = compile_any(HELMHOLTZ_DSL)
    return _FLOW_CACHE["f"]
