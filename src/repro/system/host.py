"""Host-side driver: execution model and generated host C code (Sec. V-B).

"The CPU host code executes the accelerator for the total number of
elements in the CFD simulation (Ne), requiring Ne/m main loop iterations.
This loop includes the input data transfers, execution, and output data
transfers. [...] Then, in a loop which executes m/k times, the start
command is sent over the AXI-lite control interface, triggering the
execution of k accelerators.  The CPU waits for the done interrupt."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import SimulationError
from repro.system.integration import SystemDesign
from repro.utils import ceil_div


@dataclass(frozen=True)
class HostModel:
    """Counts of host-driver operations for a full simulation run."""

    n_elements: int
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.n_elements <= 0:
            raise SimulationError("n_elements must be positive")

    @property
    def main_iterations(self) -> int:
        return ceil_div(self.n_elements, self.m)

    @property
    def rounds_per_iteration(self) -> int:
        return self.m // self.k

    @property
    def total_rounds(self) -> int:
        return self.main_iterations * self.rounds_per_iteration

def emit_cpp_binding(design: SystemDesign, kernel_name: str = "kernel_body") -> str:
    """C++ host-application binding (Sec. III-B: "seamless integration of
    the CFDlang in Fortran or C++ code ... called via a predefined function
    handle from the surrounding application")."""
    return "\n".join(
        [
            "// C++ binding generated by the CFDlang system generator.",
            "#pragma once",
            "#include <cstddef>",
            "",
            "namespace cfdlang {",
            "",
            f"// Offloads Ne elements of the '{kernel_name}' operator to the",
            f"// {design.k}-kernel FPGA system; blocks until completion.",
            f"void {kernel_name}(const double *streamed_in, double *streamed_out,",
            f"{' ' * (6 + len(kernel_name))}std::size_t n_elements);",
            "",
            f"// One-time upload of static operands ({design.static_bytes} bytes).",
            f"void {kernel_name}_set_operands(const double *static_operands);",
            "",
            "}  // namespace cfdlang",
            "",
        ]
    )


def emit_fortran_binding(design: SystemDesign, kernel_name: str = "kernel_body") -> str:
    """Fortran (iso_c_binding) interface for the same function handle."""
    return "\n".join(
        [
            "! Fortran binding generated by the CFDlang system generator.",
            f"module cfdlang_{kernel_name}",
            "  use iso_c_binding",
            "  implicit none",
            "  interface",
            f"    subroutine {kernel_name}(streamed_in, streamed_out, n_elements) &",
            f"        bind(c, name='{kernel_name}')",
            "      import :: c_double, c_size_t",
            "      real(c_double), intent(in)  :: streamed_in(*)",
            "      real(c_double), intent(out) :: streamed_out(*)",
            "      integer(c_size_t), value    :: n_elements",
            f"    end subroutine {kernel_name}",
            f"    subroutine {kernel_name}_set_operands(static_operands) &",
            f"        bind(c, name='{kernel_name}_set_operands')",
            "      import :: c_double",
            "      real(c_double), intent(in) :: static_operands(*)",
            f"    end subroutine {kernel_name}_set_operands",
            "  end interface",
            f"end module cfdlang_{kernel_name}",
            "",
        ]
    )


def emit_host_code(design: SystemDesign, n_elements: int) -> str:
    """Generated host C code (the software counterpart of the system)."""
    host = HostModel(n_elements, design.k, design.m)
    in_b = design.transfer_bytes_in_per_element
    out_b = design.transfer_bytes_out_per_element
    lines: List[str] = [
        "/* Host driver generated by the CFDlang system generator. */",
        "#include <stdint.h>",
        "#include \"cfd_platform.h\"",
        "",
        f"#define NE        {n_elements}",
        f"#define M_MEMS    {design.m}",
        f"#define K_ACCS    {design.k}",
        f"#define BATCH     {design.batch}",
        f"#define IN_BYTES  {in_b}   /* per element (streamed arrays) */",
        f"#define OUT_BYTES {out_b}  /* per element */",
        "",
        "void run_simulation(const double *elements_in, double *elements_out) {",
        "  /* one-time transfer of static operands (e.g. S) */",
        "  xfer_static_operands();",
        f"  for (int it = 0; it < {host.main_iterations}; ++it) {{",
        "    /* input transfers: m elements to power-of-two aligned PLM bases */",
        "    for (int e = 0; e < M_MEMS; ++e)",
        "      axi_write_plm(e, elements_in + (it * M_MEMS + e) * IN_BYTES / 8,",
        "                    IN_BYTES);",
        "    for (int round = 0; round < BATCH; ++round) {",
        "      axi_lite_write(REG_START, 1);   /* broadcast to k accelerators */",
        "      wait_for_interrupt();           /* all-done -> irq */",
        "    }",
        "    /* output transfers: m results back to the host */",
        "    for (int e = 0; e < M_MEMS; ++e)",
        "      axi_read_plm(e, elements_out + (it * M_MEMS + e) * OUT_BYTES / 8,",
        "                   OUT_BYTES);",
        "  }",
        "}",
        "",
    ]
    return "\n".join(lines)
