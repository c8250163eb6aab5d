"""Compiler/flow parameters (the "Parameters" input of Figs. 3 and 4).

Besides the dataclasses themselves, this module defines their *spec*
form: a primitives-only dict representation (:meth:`FlowOptions.to_spec`
/ :meth:`FlowOptions.from_spec`) used by the out-of-process executor to
ship job specs across address spaces without pickling live option
objects.  Round-tripping through a spec preserves dataclass equality, so
stage cache keys (which hash option ``repr``\\ s) are identical on both
sides.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.codegen.hlsdirectives import HlsDirectives
from repro.errors import SystemGenerationError
from repro.mnemosyne.sharing import SharingMode
from repro.poly.reschedule import REDUCTION_PLACEMENTS
from repro.system.board import Board, ZCU106
from repro.system.platform_data import DEFAULT_PLATFORM, PlatformModel


@dataclass(frozen=True)
class SystemOptions:
    """Late, system-level parameters of the last two flow stages.

    These feed ``build-system`` (k accelerator replicas, m PLM sets, the
    target board) and ``simulate`` (workload size, transfer strategy);
    nothing upstream depends on them, so a k×m×board sweep re-runs only
    those two stages per design point.

    ``k``/``m`` default to None, meaning "maximize parallel kernels on
    the board" (the paper's choice).  ``board`` set here overrides
    :attr:`FlowOptions.board` — None defers to it.
    """

    k: Optional[int] = None
    m: Optional[int] = None
    board: Optional[Board] = None
    n_elements: int = 50_000
    #: model the future-work overlapped transfer strategy (Sec. VIII)
    overlap_transfers: bool = False
    #: run a functional batch in the simulate stage with this execution
    #: backend ("loops" | "numpy" | "cnative", see :mod:`repro.exec`);
    #: None keeps the analytic-only simulate stage
    exec_backend: Optional[str] = None
    #: batch size of that functional run
    functional_elements: int = 8
    #: off-chip memory architecture of the ``bank-assign``/``simulate``
    #: stages: "bram" keeps the paper's flat-BRAM + single-AXI-port model;
    #: "hbm" assigns every transfer-footprint tensor to HBM pseudo-
    #: channels (:mod:`repro.mnemosyne.hbm`) and times transfers against
    #: the banked bandwidth — the target board must describe an HBM
    #: memory system (e.g. the Alveo U280)
    memory_model: str = "bram"

    def __post_init__(self) -> None:
        if self.memory_model not in ("bram", "hbm"):
            raise SystemGenerationError(
                f"memory_model must be 'bram' or 'hbm', got "
                f"{self.memory_model!r}"
            )


@dataclass(frozen=True)
class FlowOptions:
    """Everything the user can turn on the flow.

    The defaults reproduce the paper's best configuration: contraction
    factorization on, flattened II=1 pipelining, exported temporaries,
    memory sharing via the compatibility graph.
    """

    kernel_name: str = "kernel_body"
    factorize: bool = True
    directives: HlsDirectives = field(default_factory=HlsDirectives)
    sharing: SharingMode = SharingMode.MATCHING
    temporaries_internal: bool = False
    board: Board = ZCU106
    platform: PlatformModel = DEFAULT_PLATFORM
    clock_mhz: float = 200.0
    #: override layouts: tensor name -> "row_major" | "column_major"
    layout_overrides: Dict[str, str] = field(default_factory=dict)
    #: explicit address-space sharing via partitioning maps (Sec. IV-D):
    #: buffer name -> tensors merged into it.  Legality (lifetime
    #: disjointness) is checked against the compatibility graph; Mnemosyne
    #: receives the merged groups instead of running its optimizer.
    partition_merges: Dict[str, tuple] = field(default_factory=dict)
    #: None = derive from the pipeline mode ('outside' for flatten, else
    #: 'innermost'); or force "innermost" | "outside" | "free"
    reduction_placement: Optional[str] = None
    fuse_init: bool = True
    #: kernel fusion for multi-kernel programs: None (one system per
    #: kernel), ``"auto"`` (greedy grouping of streamed-compatible
    #: adjacent kernels), or an explicit tuple of kernel-name groups
    #: (``(("helmholtz", "update"),)``).  Single-kernel flows ignore it.
    fusion: Optional[object] = None
    #: outputs that stay on the fused interface even when consumed
    #: inside their group (solver carries, observed intermediates)
    fusion_keep: Tuple[str, ...] = ()
    #: system-level (k, m, board, workload) knobs of the last two stages
    system: SystemOptions = field(default_factory=SystemOptions)

    def __post_init__(self) -> None:
        if (
            self.reduction_placement is not None
            and self.reduction_placement not in REDUCTION_PLACEMENTS
        ):
            raise SystemGenerationError(
                f"reduction_placement must be None or one of "
                f"{', '.join(map(repr, REDUCTION_PLACEMENTS))}; got "
                f"{self.reduction_placement!r}"
            )
        # normalize the fusion plan so spec round-trips and equality work
        # regardless of whether callers pass lists or tuples
        if isinstance(self.fusion, str):
            if self.fusion != "auto":
                raise SystemGenerationError(
                    f"fusion must be None, 'auto', or explicit kernel "
                    f"groups; got {self.fusion!r}"
                )
        elif self.fusion is not None:
            object.__setattr__(
                self, "fusion", tuple(tuple(g) for g in self.fusion)
            )
        if not isinstance(self.fusion_keep, tuple):
            object.__setattr__(self, "fusion_keep", tuple(self.fusion_keep))

    def effective_reduction_placement(self) -> str:
        if self.reduction_placement is not None:
            return self.reduction_placement
        return "outside" if self.directives.pipeline == "flatten" else "innermost"

    def resolved_board(self) -> Board:
        """The board the system stages target (SystemOptions wins)."""
        return self.system.board if self.system.board is not None else self.board

    def for_kernel(self, kernel_name: str) -> "FlowOptions":
        """These options specialized to one kernel of a multi-kernel
        program.

        Only :attr:`kernel_name` varies between the kernels of a program
        compiled under shared base options; every other field — and
        therefore every stage's option slice, and every stage cache key
        not derived from the kernel's own content — is identical across
        them.
        """
        if kernel_name == self.kernel_name:
            return self
        return dataclasses.replace(self, kernel_name=kernel_name)

    # -- cross-process job specs ---------------------------------------------
    def to_spec(self) -> Dict[str, object]:
        """Primitives-only dict form of these options.

        Everything nested (board, platform, directives, system knobs) is
        flattened to builtin types, so the spec survives any pickle
        protocol, JSON, or a subprocess boundary without importing this
        package first.  Inverse of :meth:`from_spec`.
        """
        return {
            "kernel_name": self.kernel_name,
            "factorize": self.factorize,
            "directives": dataclasses.asdict(self.directives),
            "sharing": self.sharing.value,
            "temporaries_internal": self.temporaries_internal,
            "board": self.board.to_spec(),
            "platform": dataclasses.asdict(self.platform),
            "clock_mhz": self.clock_mhz,
            "layout_overrides": dict(self.layout_overrides),
            "partition_merges": {
                name: list(group) for name, group in self.partition_merges.items()
            },
            "reduction_placement": self.reduction_placement,
            "fuse_init": self.fuse_init,
            "fusion": (
                self.fusion
                if self.fusion is None or isinstance(self.fusion, str)
                else [list(group) for group in self.fusion]
            ),
            "fusion_keep": list(self.fusion_keep),
            "system": {
                "k": self.system.k,
                "m": self.system.m,
                "board": (
                    None
                    if self.system.board is None
                    else self.system.board.to_spec()
                ),
                "n_elements": self.system.n_elements,
                "overlap_transfers": self.system.overlap_transfers,
                "exec_backend": self.system.exec_backend,
                "functional_elements": self.system.functional_elements,
                "memory_model": self.system.memory_model,
            },
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "FlowOptions":
        """Rebuild :class:`FlowOptions` from :meth:`to_spec` output.

        ``FlowOptions.from_spec(opts.to_spec()) == opts`` for any
        options value, which is what makes a worker's stage cache keys
        line up with the parent's.
        """
        system = spec["system"]
        return cls(
            kernel_name=spec["kernel_name"],
            factorize=spec["factorize"],
            directives=HlsDirectives(**spec["directives"]),
            sharing=SharingMode(spec["sharing"]),
            temporaries_internal=spec["temporaries_internal"],
            board=Board.from_spec(spec["board"]),
            platform=PlatformModel(**spec["platform"]),
            clock_mhz=spec["clock_mhz"],
            layout_overrides=dict(spec["layout_overrides"]),
            partition_merges={
                name: tuple(group)
                for name, group in spec["partition_merges"].items()
            },
            reduction_placement=spec["reduction_placement"],
            fuse_init=spec["fuse_init"],
            # .get(): job specs written before the fusion release (the
            # standing broker reloads durable jobs from disk) lack these
            fusion=(
                spec.get("fusion")
                if spec.get("fusion") is None
                or isinstance(spec.get("fusion"), str)
                else tuple(tuple(group) for group in spec["fusion"])
            ),
            fusion_keep=tuple(spec.get("fusion_keep", ())),
            system=SystemOptions(
                k=system["k"],
                m=system["m"],
                board=(
                    None
                    if system["board"] is None
                    else Board.from_spec(system["board"])
                ),
                n_elements=system["n_elements"],
                overlap_transfers=system["overlap_transfers"],
                # .get(): durable job specs written by earlier releases
                # (the standing broker reloads them from disk) predate
                # these keys
                exec_backend=system.get("exec_backend"),
                functional_elements=system.get("functional_elements", 8),
                memory_model=system.get("memory_model", "bram"),
            ),
        )
