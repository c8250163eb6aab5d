"""Tests for the Mnemosyne substrate: BRAM model, PLMs, sharing optimizer.

The headline numbers (Sec. VI): 31 BRAMs per kernel without sharing, 18
with sharing enabled, and 9 + 24 = 33 when temporaries stay inside HLS.
"""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.apps.helmholtz import inverse_helmholtz_program
from repro.apps.workloads import make_workload
from repro.errors import MemoryArchitectureError
from repro.flow import FlowOptions, compile_program
from repro.mnemosyne import (
    MnemosyneConfig,
    PortClass,
    SharingMode,
    brams_for_unit,
    build_memory_subsystem,
    hls_internal_brams,
    hls_internal_is_lutram,
    port_class_assignment,
)
from repro.mnemosyne.config import build_config
from repro.mnemosyne.sharing import sharing_report
from repro.poly.reschedule import reschedule
from repro.poly.schedule import reference_schedule
from repro.teil import canonicalize, lower_program


def helmholtz_config(n=11):
    fn = canonicalize(lower_program(inverse_helmholtz_program(n)))
    prog = reschedule(reference_schedule(fn))
    return build_config(prog), prog


class TestBramModel:
    def test_sdp_geometry(self):
        assert brams_for_unit(121, PortClass.ACCELERATOR_ONLY) == 1
        assert brams_for_unit(512, PortClass.ACCELERATOR_ONLY) == 1
        assert brams_for_unit(513, PortClass.ACCELERATOR_ONLY) == 2
        assert brams_for_unit(1331, PortClass.ACCELERATOR_ONLY) == 3

    def test_tdp_geometry(self):
        assert brams_for_unit(1331, PortClass.ACCELERATOR_AND_SYSTEM) == 4
        assert brams_for_unit(1024, PortClass.ACCELERATOR_AND_SYSTEM) == 2
        assert brams_for_unit(1025, PortClass.ACCELERATOR_AND_SYSTEM) == 4

    def test_invalid_size(self):
        with pytest.raises(MemoryArchitectureError):
            brams_for_unit(0, PortClass.ACCELERATOR_ONLY)

    def test_hls_internal_lutram(self):
        assert hls_internal_is_lutram(121)
        assert not hls_internal_is_lutram(1331)
        assert hls_internal_brams(121) == 0
        assert hls_internal_brams(1331) == 4


class TestPortClasses:
    def test_helmholtz_assignment(self):
        config, prog = helmholtz_config()
        pc = port_class_assignment(prog)
        # S is a static operand (read by 6 statements): accelerator-only
        assert pc["S"] is PortClass.ACCELERATOR_ONLY
        # D, u, v are streamed per element: accelerator + system port
        for name in ("D", "u", "v"):
            assert pc[name] is PortClass.ACCELERATOR_AND_SYSTEM
        # temporaries are private
        for name in ("t", "r", "t0", "t1", "t2", "t3"):
            assert pc[name] is PortClass.ACCELERATOR_ONLY


class TestSharing:
    def test_no_sharing_reproduces_31_brams(self):
        config, _ = helmholtz_config()
        mem = build_memory_subsystem(config, SharingMode.NONE)
        assert mem.brams == 31  # paper Sec. VI
        assert mem.n_units == 10

    def test_matching_reproduces_18_brams(self):
        config, _ = helmholtz_config()
        mem = build_memory_subsystem(config, SharingMode.MATCHING)
        assert mem.brams == 18  # paper Sec. VI
        # every unit still holds each array exactly once
        assert sorted(mem.arrays()) == sorted(config.arrays)

    def test_clique_beats_matching(self):
        """Ablation: clique-cover sharing is strictly better than the
        pairwise tool (12 vs 18 BRAMs for the Helmholtz kernel)."""
        config, _ = helmholtz_config()
        clique = build_memory_subsystem(config, SharingMode.CLIQUE)
        matching = build_memory_subsystem(config, SharingMode.MATCHING)
        assert clique.brams < matching.brams
        assert clique.brams == 12

    def test_sharing_report_all_modes(self):
        config, _ = helmholtz_config()
        rep = sharing_report(config)
        assert rep["none"] == 31 and rep["matching"] == 18 and rep["clique"] == 12

    def test_merged_units_are_legal(self):
        config, _ = helmholtz_config()
        mem = build_memory_subsystem(config, SharingMode.MATCHING)
        for u in mem.units:
            for i, a in enumerate(u.members):
                for b in u.members[i + 1 :]:
                    assert config.compatible(a, b)

    def test_illegal_sharing_rejected(self):
        config, _ = helmholtz_config()
        with pytest.raises(MemoryArchitectureError, match="not address-space compatible"):
            # t and r overlap (r = D * t reads t while writing r)
            build_memory_subsystem(config, groups=[("t", "r")] + [(a,) for a in config.arrays if a not in ("t", "r")])

    def test_explicit_groups_accepted_when_legal(self):
        config, _ = helmholtz_config()
        mem = build_memory_subsystem(
            config,
            groups=[("u", "v")] + [(a,) for a in config.arrays if a not in ("u", "v")],
        )
        assert mem.n_units == 9

    def test_merged_unit_takes_strongest_port_class(self):
        config, _ = helmholtz_config()
        mem = build_memory_subsystem(config, SharingMode.MATCHING)
        for u in mem.units:
            if any(m in ("D", "u", "v") for m in u.members):
                assert u.port_class is PortClass.ACCELERATOR_AND_SYSTEM

    def test_config_json_round_trip(self):
        config, _ = helmholtz_config()
        j = config.to_json()
        back = MnemosyneConfig.from_json(j)
        assert back.sizes == config.sizes
        assert back.port_classes == config.port_classes
        assert back.address_space_edges == config.address_space_edges

    def test_temporaries_inside_hls_brams(self):
        """Paper: temporaries inside HLS -> memory system 9 + accelerator 24."""
        config, prog = helmholtz_config()
        temps = [d.name for d in prog.function.temporaries()]
        interface = [d.name for d in prog.function.interface()]
        acc_brams = sum(hls_internal_brams(config.sizes[t]) for t in temps)
        assert acc_brams == 24
        # memory side: interface arrays only, no sharing info usable,
        # single-port (HLS serializes rounds), S static stays internal LUTRAM
        from repro.mnemosyne.bram import hls_internal_is_lutram as lutram

        mem_brams = sum(
            brams_for_unit(config.sizes[a], PortClass.ACCELERATOR_ONLY)
            for a in interface
            if not lutram(config.sizes[a])
        )
        assert mem_brams == 9
        assert acc_brams + mem_brams == 33  # paper Sec. VI


MATCHING_GROUPS_SCRIPT = """
from repro.apps.helmholtz import inverse_helmholtz_program
from repro.mnemosyne import SharingMode, build_memory_subsystem
from repro.mnemosyne.config import build_config
from repro.poly.reschedule import reschedule
from repro.poly.schedule import reference_schedule
from repro.teil import canonicalize, lower_program
fn = canonicalize(lower_program(inverse_helmholtz_program(6)))
config = build_config(reschedule(reference_schedule(fn)))
mem = build_memory_subsystem(config, SharingMode.MATCHING)
print([u.members for u in mem.units])
"""


def test_matching_groups_do_not_depend_on_the_hash_seed():
    """Equal-weight matchings are common (n=6 has several); the chosen
    one must not follow set iteration order, or processes running under
    different hash seeds (process/distributed workers) and the disk
    cache disagree about the PLM layout."""
    pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    groups = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pkg_root)
        proc = subprocess.run(
            [sys.executable, "-c", MATCHING_GROUPS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        groups.append(proc.stdout)
    assert groups[0] == groups[1]


def subset_dp_cover(config):
    """Oracle: minimum-BRAM clique cover by DP over every submask, taking
    the numerically largest clique among the cheapest at each mask."""
    arrays = sorted(config.arrays)
    n = len(arrays)

    def members(mask):
        return [arrays[i] for i in range(n) if mask >> i & 1]

    def is_clique(mask):
        group = members(mask)
        return all(
            config.compatible(a, b) for i, a in enumerate(group) for b in group[i + 1:]
        )

    def cost(mask):
        group = members(mask)
        dual = any(
            config.port_classes[m] is PortClass.ACCELERATOR_AND_SYSTEM for m in group
        )
        return brams_for_unit(
            max(config.sizes[m] for m in group),
            PortClass.ACCELERATOR_AND_SYSTEM if dual else PortClass.ACCELERATOR_ONLY,
            max(config.banks_of(m) for m in group),
        )

    full = (1 << n) - 1
    best = [0] + [float("inf")] * full
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and is_clique(sub):
                c = cost(sub) + best[mask ^ sub]
                if c < best[mask]:
                    best[mask], choice[mask] = c, sub
            sub = (sub - 1) & mask
    groups, mask = [], full
    while mask:
        groups.append(tuple(members(choice[mask])))
        mask ^= choice[mask]
    return sorted(groups)


def interval_config(lifetimes, sizes, ports, banks):
    """Arrays a0, a1, ... compatible when their [first, last] stage
    lifetimes are disjoint."""
    arrays = [f"a{i}" for i in range(len(lifetimes))]
    edges = {
        frozenset((arrays[i], arrays[j]))
        for i, (lo_i, hi_i) in enumerate(lifetimes)
        for j, (lo_j, hi_j) in enumerate(lifetimes)
        if i < j and (hi_i < lo_j or hi_j < lo_i)
    }
    return MnemosyneConfig(
        arrays=arrays,
        sizes=dict(zip(arrays, sizes)),
        word_bits=64,
        port_classes=dict(zip(arrays, ports)),
        address_space_edges=edges,
        banks=dict(zip(arrays, banks)),
    )


@st.composite
def interval_configs(draw):
    n = draw(st.integers(1, 10))

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    starts = column(st.integers(0, 8))
    lengths = column(st.integers(0, 3))
    return interval_config(
        [(a, a + d) for a, d in zip(starts, lengths)],
        column(st.integers(1, 4096)),
        column(st.sampled_from(list(PortClass))),
        column(st.sampled_from([1, 2, 3, 4, 6])),
    )


class TestExactCliqueCover:
    @settings(max_examples=60, deadline=None)
    @given(interval_configs())
    # a1 could join a0 for free, but a2 without a1 falls from 4 banks to
    # 3 and from 4 BRAM to 6: a multi-bank array must not prune a clique
    @example(interval_config(
        [(4, 5), (1, 1), (4, 5)],
        [512, 512, 2048],
        [PortClass.ACCELERATOR_ONLY] * 3,
        [4, 4, 3],
    ))
    def test_matches_the_subset_dp(self, config):
        mem = build_memory_subsystem(config, SharingMode.CLIQUE)
        assert [u.members for u in mem.units] == subset_dp_cover(config)

    @pytest.mark.parametrize("n, brams", [(7, 16), (11, 32)])
    def test_fused_fem_cfd_gets_the_minimum(self, n, brams):
        """18 arrays: beyond what a subset DP over every submask affords."""
        res = compile_program(
            make_workload("fem-cfd", n=n).program,
            FlowOptions(sharing=SharingMode.CLIQUE, fusion="auto"),
        )
        (result,) = res.results.values()
        assert len(result.mnemosyne_config.arrays) == 18
        assert result.memory.brams == brams

    def test_too_many_arrays_is_an_error(self):
        n = 31  # the exact cover's limit is 30 arrays
        config = interval_config(
            [(i, i) for i in range(n)],
            [512] * n,
            [PortClass.ACCELERATOR_ONLY] * n,
            [1] * n,
        )
        with pytest.raises(MemoryArchitectureError, match="got 31"):
            build_memory_subsystem(config, SharingMode.CLIQUE)
