"""Full-system performance simulation.

The host main loop (Sec. V-B) per iteration over ``m`` elements:

1. transfer input arrays for m elements to power-of-two aligned PLM bases,
2. ``m/k`` rounds: broadcast start, k kernels execute, done interrupt,
3. transfer m output arrays back.

:func:`simulate_system` computes this analytically; the independent
:func:`simulate_system_events` walks every transfer/round/interrupt as an
explicit timeline event (used to cross-validate the analytic model).  The
data path itself runs on the :mod:`repro.exec` backends:
``require_backend(name).run_batch(...)`` executes a multi-element batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.host import HostModel
from repro.system.integration import SystemDesign


@dataclass(frozen=True)
class SimulationResult:
    """Timing breakdown of one full simulation (Ne elements)."""

    k: int
    m: int
    n_elements: int
    clock_hz: float
    compute_cycles: int
    transfer_cycles: int
    control_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.transfer_cycles + self.control_cycles

    @property
    def total_seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def accelerator_seconds(self) -> float:
        """Kernel execution + control only (the paper's 'Accelerator' series
        in Fig. 9 excludes data transfers)."""
        return (self.compute_cycles + self.control_cycles) / self.clock_hz

    def speedup_vs(self, other: "SimulationResult") -> float:
        return other.total_seconds / self.total_seconds

    def accelerator_speedup_vs(self, other: "SimulationResult") -> float:
        return other.accelerator_seconds / self.accelerator_seconds

    def __str__(self) -> str:
        return (
            f"k={self.k} m={self.m} Ne={self.n_elements}: "
            f"{self.total_seconds * 1e3:.2f} ms total "
            f"(compute {self.compute_cycles}, transfer {self.transfer_cycles}, "
            f"control {self.control_cycles} cycles)"
        )

    def summary(self) -> str:
        """Rendered cycle breakdown (compute/transfer/control shares)."""
        from repro.utils import ascii_table

        total = self.total_cycles or 1
        rows = [
            (name, cycles, f"{cycles / total * 100:.1f}%",
             f"{cycles / self.clock_hz * 1e3:.2f}")
            for name, cycles in (
                ("compute", self.compute_cycles),
                ("transfer", self.transfer_cycles),
                ("control", self.control_cycles),
            )
        ]
        rows.append(("total", self.total_cycles, "100.0%",
                     f"{self.total_seconds * 1e3:.2f}"))
        return ascii_table(
            ["phase", "cycles", "share", "time (ms)"],
            rows,
            title=(
                f"Simulation: k={self.k} m={self.m} Ne={self.n_elements} "
                f"@ {self.clock_hz / 1e6:.0f} MHz"
            ),
        )


def simulate_system(
    design: SystemDesign,
    n_elements: int,
    *,
    overlap_transfers: bool = False,
    banking=None,
) -> SimulationResult:
    """Analytic end-to-end simulation.

    ``overlap_transfers=True`` models the paper's future-work "better data
    transfer strategies": with ``batch >= 2``, the integration logic uses
    the PLMs' system-side port to drain/fill the *idle* half of the PLM
    sets while the accelerators work on the other half, so per-round
    transfers hide behind compute.  Requires m >= 2k; with m = k there is
    no idle PLM set and the strategy degenerates to the serial one.

    ``banking`` (a :class:`repro.mnemosyne.hbm.BankingReport`) switches
    the transfer-time model from the single shared AXI port of
    :meth:`~repro.system.platform_data.PlatformModel.transfer_cycles` to
    the banked HBM channels: tensors stream through their assigned
    pseudo-channels concurrently, so an input or output phase takes as
    long as its *slowest* tensor, not the sum over all of them.  Compute
    and control cycles are untouched — banking is a transfer-phase model.
    """
    host = HostModel(n_elements, design.k, design.m)
    p = design.platform
    per_round_compute = design.hls.latency_cycles
    per_round_control = p.control_cycles_per_round(design.k)
    if banking is not None:
        static = banking.phase_cycles("static", 1, design.clock_hz)
    else:
        static = p.transfer_cycles(design.static_bytes)

    if overlap_transfers and design.batch >= 2:
        # software-pipelined rounds over k elements each: fill the first
        # k-element group, then each round's transfers overlap the next
        # round's compute; drain the last group's results.
        if banking is not None:
            in_k = banking.phase_cycles("in", design.k, design.clock_hz)
            out_k = banking.phase_cycles("out", design.k, design.clock_hz)
        else:
            in_k = p.transfer_cycles(design.k * design.transfer_bytes_in_per_element)
            out_k = p.transfer_cycles(design.k * design.transfer_bytes_out_per_element)
        rounds = host.total_rounds
        busy = per_round_compute + per_round_control
        steady = max(busy, in_k + out_k)
        compute = rounds * per_round_compute
        control = rounds * per_round_control
        # transfers not hidden behind compute: prologue + epilogue + the
        # per-round excess when transfers are longer than compute
        transfer = static + in_k + out_k + max(0, rounds - 1) * (steady - busy)
        return SimulationResult(
            design.k, design.m, n_elements, design.clock_hz, compute, transfer, control
        )

    if banking is not None:
        per_iter_transfer = banking.phase_cycles(
            "in", design.m, design.clock_hz
        ) + banking.phase_cycles("out", design.m, design.clock_hz)
    else:
        in_bytes = design.m * design.transfer_bytes_in_per_element
        out_bytes = design.m * design.transfer_bytes_out_per_element
        per_iter_transfer = p.transfer_cycles(in_bytes) + p.transfer_cycles(out_bytes)
    transfer = host.main_iterations * per_iter_transfer + static
    compute = host.total_rounds * per_round_compute
    control = host.total_rounds * per_round_control
    return SimulationResult(
        design.k,
        design.m,
        n_elements,
        design.clock_hz,
        compute,
        transfer,
        control,
    )


def simulate_system_events(design: SystemDesign, n_elements: int) -> SimulationResult:
    """Event-walking simulation: one timeline entry per transfer/round.

    Independent of the closed-form expressions above (explicit loops over
    iterations and rounds); must agree exactly with
    :func:`simulate_system` — property-tested.
    """
    host = HostModel(n_elements, design.k, design.m)
    p = design.platform
    now = 0
    compute = transfer = control = 0
    t = p.transfer_cycles(design.static_bytes)
    now += t
    transfer += t
    for _ in range(host.main_iterations):
        t_in = p.transfer_cycles(design.m * design.transfer_bytes_in_per_element)
        now += t_in
        transfer += t_in
        for _ in range(host.rounds_per_iteration):
            now += p.irq_cycles_per_round
            control += p.irq_cycles_per_round
            # k accelerators run concurrently: one kernel latency per round
            now += design.hls.latency_cycles
            compute += design.hls.latency_cycles
            status = design.k * p.status_cycles_per_acc
            now += status
            control += status
        t_out = p.transfer_cycles(design.m * design.transfer_bytes_out_per_element)
        now += t_out
        transfer += t_out
    assert now == compute + transfer + control
    return SimulationResult(
        design.k,
        design.m,
        n_elements,
        design.clock_hz,
        compute,
        transfer,
        control,
    )