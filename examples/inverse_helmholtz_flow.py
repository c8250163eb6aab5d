#!/usr/bin/env python3
"""Full paper walkthrough: regenerate the evaluation of Sec. VI.

Compares memory sharing on/off, regenerates the headline numbers of
Figs. 8-10 and Table I, and writes the complete artifact bundle (C
kernel, Mnemosyne config, system HDL, host code) to ``build/helmholtz``.

    python examples/inverse_helmholtz_flow.py
"""

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.flow import FlowOptions, compile_any, write_artifacts
from repro.mnemosyne import SharingMode
from repro.sim import simulate_software
from repro.utils import ascii_table

NE = 50_000


def main() -> None:
    sharing = compile_any(HELMHOLTZ_DSL)
    no_sharing = compile_any(HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE))

    print("== compatibility graph (Fig. 5) ==")
    print(sharing.compat.render())
    print()

    print("== BRAM per kernel (Fig. 8) ==")
    print(f"  no sharing: {no_sharing.memory.brams} (paper: 31)")
    print(f"  sharing:    {sharing.memory.brams} (paper: 18)")
    print(f"  -> max parallel kernels: {no_sharing.build_system().k} vs "
          f"{sharing.build_system().k} (paper: 8 vs 16)")
    print()

    print("== speedups vs m=k=1 (Fig. 9) ==")
    base = sharing.simulate(NE, 1, 1)
    rows = []
    for k in (1, 2, 4, 8, 16):
        s = sharing.simulate(NE, k, k)
        rows.append((k, f"{s.accelerator_speedup_vs(base):.2f}",
                     f"{s.speedup_vs(base):.2f}", f"{s.total_seconds:.3f}s"))
    print(ascii_table(["m=k", "accelerator", "total", "wall clock"], rows))
    print()

    print("== vs ARM A53 (Fig. 10) ==")
    sw = simulate_software(sharing.function, NE, variant="ref")
    sw_hls = simulate_software(sharing.function, NE, variant="hls_c")
    rows = [("SW Ref", "1.00"), ("SW HLS code", f"{sw / sw_hls:.2f}")]
    for k in (1, 8, 16):
        hw = sharing.simulate(NE, k, k).total_seconds
        rows.append((f"HW k={k}", f"{sw / hw:.2f}"))
    print(ascii_table(["configuration", "speedup"], rows))
    print()

    paths = write_artifacts(sharing, "build/helmholtz", n_elements=NE)
    print("artifacts:")
    for name, path in sorted(paths.items()):
        print(f"  {path}")


if __name__ == "__main__":
    main()
