"""What one flow run produces: CFDlang source/AST in, full design out.

The heavy lifting lives in :mod:`repro.flow.stages` (the stage registry)
and :mod:`repro.flow.session` (the :class:`~repro.flow.session.Flow`
session with caching and tracing); a finished session, or
:func:`repro.flow.program.compile_any` on one kernel, returns a
:class:`FlowResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cfdlang import Program
from repro.codegen import KernelCode
from repro.errors import SystemGenerationError
from repro.exec.backend import FunctionalRecord
from repro.hls import HlsReport
from repro.memory import CompatibilityGraph
from repro.mnemosyne import MnemosyneConfig, PortClass
from repro.mnemosyne.hbm import BankingReport
from repro.mnemosyne.plm import MemorySubsystem
from repro.flow.options import FlowOptions
from repro.poly.schedule import PolyProgram
from repro.sim.simulator import SimulationResult, simulate_system
from repro.system.integration import SystemDesign, TransferFootprint, build_system
from repro.system.replicate import max_parallel_config
from repro.teil.program import Function


@dataclass
class FlowResult:
    """All artifacts of one flow run.

    ``system``/``sim`` are the products of the ``build-system`` and
    ``simulate`` registry stages (parameterized by
    :class:`~repro.flow.options.SystemOptions`); ``system`` is None when
    auto-sizing found no feasible configuration on the target board.
    """

    options: FlowOptions
    #: the analyzed CFDlang AST; None for function-seeded sessions (a
    #: fused group has no single source AST — see ``Flow.from_function``)
    program: Optional[Program]
    function: Function
    poly: PolyProgram
    kernel: KernelCode
    compat: CompatibilityGraph
    mnemosyne_config: MnemosyneConfig
    memory: MemorySubsystem
    hls: HlsReport
    port_classes: Dict[str, PortClass]
    #: the ``port-classes`` stage's host<->PLM traffic: which interface
    #: arrays stream per element, which move once, and their bytes
    footprint: TransferFootprint
    system: Optional[SystemDesign] = None
    sim: Optional[SimulationResult] = None
    #: throughput record of the simulate stage's functional batch (only
    #: when :attr:`SystemOptions.exec_backend` selected a backend)
    functional: Optional[FunctionalRecord] = None
    #: tensor -> HBM pseudo-channel report of the ``bank-assign`` stage
    #: (only when :attr:`SystemOptions.memory_model` is ``"hbm"``)
    banking: Optional["BankingReport"] = None

    # -- system generation ------------------------------------------------------
    def build_system(self, k: Optional[int] = None, m: Optional[int] = None) -> SystemDesign:
        """The flow's system, or one assembled for an explicit (k, m).

        With no arguments this returns the ``build-system`` stage's
        artifact: the configuration :class:`SystemOptions` asked for, or
        the maximum-parallelism one when it left k/m unset.  An explicit
        (k, m) differing from that artifact is assembled fresh.
        """
        if (k is None) != (m is None):
            raise SystemGenerationError("specify both k and m, or neither")
        if self.system is not None and (
            k is None or (k, m) == (self.system.k, self.system.m)
        ):
            return self.system
        board = self.options.resolved_board()
        if k is None:
            choice = max_parallel_config(
                self.hls.resources, self.memory, board, self.options.platform
            )
            k, m = choice.k, choice.m
        return build_system(
            self.hls,
            self.memory,
            k,
            m,  # type: ignore[arg-type]
            board=board,
            platform=self.options.platform,
            bytes_in_per_element=self.footprint.bytes_in_per_element,
            bytes_out_per_element=self.footprint.bytes_out_per_element,
            static_bytes=self.footprint.static_bytes,
        )

    def simulate(
        self, n_elements: int, k: Optional[int] = None, m: Optional[int] = None
    ) -> SimulationResult:
        """Simulate under the flow's options (transfer strategy included);
        matching requests reuse the ``simulate`` stage's artifact."""
        if (
            self.sim is not None
            and k is None
            and m is None
            and self.sim.n_elements == n_elements
        ):
            return self.sim
        return simulate_system(
            self.build_system(k, m),
            n_elements,
            overlap_transfers=self.options.system.overlap_transfers,
            # the banking report is sized for the stage's own (k, m); an
            # explicit different k would need a re-assignment, so only
            # reuse it for the flow's own configuration
            banking=self.banking if k is None else None,
        )

