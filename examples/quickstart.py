#!/usr/bin/env python3
"""Quickstart: compile the paper's 9-line CFDlang kernel to an FPGA system.

Runs the complete flow of Fig. 3 on the Inverse Helmholtz operator
(Fig. 1), prints every report the flow produces, and checks the generated
kernel numerically against the textbook formulation (Eq. 1a-1c).

    python examples/quickstart.py
"""

import numpy as np

from repro.apps.helmholtz import (
    HELMHOLTZ_DSL,
    make_element_data,
    reference_inverse_helmholtz,
)
from repro.codegen import run_python_kernel
from repro.flow import compile_any


def main() -> None:
    print("CFDlang source (paper Fig. 1):")
    print(HELMHOLTZ_DSL)

    # one call runs: frontend -> IR -> factorization -> polyhedral
    # scheduling -> C code generation -> liveness/compat -> Mnemosyne ->
    # HLS synthesis model -> system assembly -> performance simulation
    result = compile_any(HELMHOLTZ_DSL)

    print("generated C kernel (first 25 lines):")
    print("\n".join(result.kernel.source.splitlines()[:25]))
    print("  ...\n")

    print(result.hls.summary())
    print()
    print(result.memory.summary())
    print()

    # the build-system stage already maximized parallel kernels on the
    # ZCU106, and the simulate stage ran the paper's 50,000-element CFD
    # run — both are flow artifacts now
    print(result.system.summary())
    print()
    print(result.sim.summary())
    print()

    # functional check: generated kernel vs Eq. 1a-1c
    data = make_element_data(11, seed=1)
    got = run_python_kernel(result.poly, data)["v"]
    ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
    err = float(np.max(np.abs(got - ref)))
    print(f"functional check vs Eq. 1a-1c: max abs error = {err:.2e}")
    assert err < 1e-9
    print("OK")


if __name__ == "__main__":
    main()
