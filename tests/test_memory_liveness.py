"""Tests for liveness analysis and the compatibility graph (Fig. 5)."""


from repro.apps.helmholtz import inverse_helmholtz_program
from repro.memory import (
    build_compatibility_graph,
    element_liveness,
    stage_liveness,
)
from repro.memory.liveness import arrays_conflict_elementwise
from repro.mnemosyne import SharingMode, build_memory_subsystem
from repro.mnemosyne.config import config_from_compat, port_class_assignment
from repro.poly.reschedule import reschedule
from repro.poly.schedule import reference_schedule
from repro.teil import canonicalize, lower_program


def helmholtz_poly(n=4):
    fn = canonicalize(lower_program(inverse_helmholtz_program(n)))
    return reschedule(reference_schedule(fn))


class TestStageLiveness:
    def test_helmholtz_intervals(self):
        """The factorized chain: u dies after stage 0, v born at stage 6."""
        prog = helmholtz_poly()
        live = stage_liveness(prog)
        assert live["u"].interval == (-1, 0)
        assert live["S"].interval == (-1, 6)
        assert live["D"].interval == (-1, 3)
        assert live["v"].interval == (6, 7)
        assert live["t0"].interval == (0, 1)
        assert live["t1"].interval == (1, 2)
        assert live["t"].interval == (2, 3)
        assert live["r"].interval == (3, 4)
        assert live["t2"].interval == (4, 5)
        assert live["t3"].interval == (5, 6)

    def test_overlap_semantics(self):
        prog = helmholtz_poly()
        live = stage_liveness(prog)
        assert not live["u"].overlaps(live["t1"])
        assert live["u"].overlaps(live["t0"])       # same stage 0
        assert not live["t0"].overlaps(live["t"])
        assert live["S"].overlaps(live["r"])        # S live throughout

    def test_inputs_start_before_first_stage(self):
        prog = helmholtz_poly()
        live = stage_liveness(prog)
        for name in ("S", "D", "u"):
            assert live[name].first_write_stage == -1


class TestElementLiveness:
    def test_temp_liveness_interval(self):
        prog = helmholtz_poly(n=3)
        lt = element_liveness(prog, "t0")
        assert lt is not None
        # t0[0,0,0] live from its write in stage 0 until reads in stage 1
        pts = lt.intersect_range(
            __import__("repro.poly.iset", fromlist=["BasicSet"]).BasicSet.from_box(
                __import__("repro.poly.space", fromlist=["Space"]).Space(
                    "", tuple(f"t{k}" for k in range(prog.sched_rank))
                ),
                [(0, 1)] + [(0, 2)] * (prog.sched_rank - 1),
            )
        ).image_of_point((0, 0, 0))
        stages = {p[0] for p in pts}
        assert stages == {0, 1}

    def test_elementwise_agrees_with_stage_granularity(self):
        """Property: on the Helmholtz kernel, stage-level conflicts coincide
        with element-wise conflicts (rational check, conservative)."""
        prog = helmholtz_poly(n=3)
        live = stage_liveness(prog)
        # a representative mix of compatible and conflicting pairs
        pairs = [
            ("u", "t1"), ("u", "t0"), ("t0", "t"), ("t0", "t1"),
            ("r", "t3"), ("D", "t2"), ("t", "r"),
        ]
        for a, b in pairs:
            elem = arrays_conflict_elementwise(prog, a, b)
            stage = live[a].overlaps(live[b])
            assert elem == stage, (a, b, elem, stage)


class TestCompatibilityGraph:
    def test_fig5_address_space_edges(self):
        """The compat graph contains the merges the paper's flow exploits."""
        prog = helmholtz_poly()
        g = build_compatibility_graph(prog)
        assert g.address_space_compatible("u", "v")
        assert g.address_space_compatible("u", "t1")
        assert g.address_space_compatible("t0", "t2")
        assert g.address_space_compatible("t1", "t3")
        assert g.address_space_compatible("D", "t3")
        assert not g.address_space_compatible("u", "t0")
        assert not g.address_space_compatible("t", "r")
        assert not g.address_space_compatible("S", "t")  # S live throughout

    def test_interface_arrays_grouped(self):
        prog = helmholtz_poly()
        g = build_compatibility_graph(prog)
        assert g.interface_arrays == ["S", "D", "u", "v"]

    def test_interface_compatibility(self):
        prog = helmholtz_poly()
        g = build_compatibility_graph(prog)
        # D (read only at the Hadamard stage) vs u (read only at stage 0)
        assert g.interface_compatible("D", "u")
        # S is read at almost every stage; u is read at stage 0 where S is too
        assert not g.interface_compatible("S", "u")

    def test_round_trip_dict(self):
        prog = helmholtz_poly()
        g = build_compatibility_graph(prog)
        g2 = type(g).from_dict(g.to_dict())
        assert g2.address_space_edges == g.address_space_edges
        assert g2.interface_edges == g.interface_edges
        assert g2.sizes == g.sizes

    def test_render_mentions_groups(self):
        prog = helmholtz_poly()
        text = build_compatibility_graph(prog).render()
        assert "interface: S D u v" in text
        assert "--" in text

    def test_clique_groups_cover_all(self):
        prog = helmholtz_poly()
        g = build_compatibility_graph(prog)
        config = config_from_compat(g, port_class_assignment(prog))
        mem = build_memory_subsystem(config, SharingMode.CLIQUE)
        flat = [a for unit in mem.units for a in unit.members]
        assert sorted(flat) == sorted(g.arrays)
