"""Artifact bundle: write everything the flow produces to a directory.

Mirrors the paper's tool outputs: the C code for HLS, the Mnemosyne
configuration, the system HDL, the host code, and the reports.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional

from repro.codegen.pyemit import generate_python_kernel
from repro.flow.pipeline import FlowResult
from repro.system.hdl import emit_system_hdl
from repro.system.host import emit_cpp_binding, emit_fortran_binding, emit_host_code


def write_artifacts(
    result: FlowResult,
    out_dir: str,
    *,
    k: Optional[int] = None,
    m: Optional[int] = None,
    n_elements: int = 50_000,
) -> Dict[str, str]:
    """Write all artifacts; returns {artifact name: path}."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    design = result.build_system(k, m)
    files = {
        "kernel.c": result.kernel.source,
        "kernel_mirror.py": generate_python_kernel(result.kernel.function),
        "mnemosyne_config.json": result.mnemosyne_config.to_json(),
        "compat_graph.txt": result.compat.render(),
        "memory_subsystem.txt": result.memory.summary(),
        "hls_report.txt": result.hls.summary(),
        "system.v": emit_system_hdl(design),
        "host.c": emit_host_code(design, n_elements),
        "cfdlang_binding.hpp": emit_cpp_binding(design, result.options.kernel_name),
        "cfdlang_binding.f90": emit_fortran_binding(design, result.options.kernel_name),
        "system_report.txt": design.summary(),
    }
    paths = {}
    for name, content in files.items():
        p = out / name
        p.write_text(content)
        paths[name] = str(p)
    return paths
