"""Cycle-level performance simulation of the generated systems.

Stands in for the paper's hardware timers (Sec. VI): an analytic model of
the host main loop (transfers + rounds of k kernels + control), validated
by an independent event-walking simulator, plus an ARM Cortex-A53 cost
model for the software baselines of Fig. 10.
"""

from repro.sim.cpu import (
    CpuModel,
    sw_ref_cycles_per_element,
    sw_hls_c_cycles_per_element,
    simulate_software,
)
from repro.sim.simulator import (
    SimulationResult,
    simulate_system,
    simulate_system_events,
)

__all__ = [
    "CpuModel",
    "sw_ref_cycles_per_element",
    "sw_hls_c_cycles_per_element",
    "simulate_software",
    "SimulationResult",
    "simulate_system",
    "simulate_system_events",
]
