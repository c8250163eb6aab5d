"""End-to-end flow tests: compile_any, artifacts, CLI."""

import inspect
import json
import pathlib
import re

import numpy as np
import pytest

from repro.apps.helmholtz import (
    HELMHOLTZ_DSL,
    make_element_data,
    reference_inverse_helmholtz,
)
from repro.apps.gradient import gradient_program
from repro.apps.interpolation import interpolation_program
from repro.apps.workloads import make_workload
from repro.flow import FlowOptions, compile_any, compile_program, write_artifacts
from repro.flow.cli import main as cli_main
from repro.mnemosyne import PortClass
from repro.system.integration import TransferFootprint


def _smoother(kernel, fusion=None):
    program = make_workload("smoother", n=5).program
    return compile_program(program, FlowOptions(fusion=fusion))[kernel]


#: kernel -> (its flow result, streamed arrays, static arrays, bytes in
#: and out per element, static bytes).  Gradient's per-element ``u`` is
#: read by three statements, so the policy moves it once as static data
#: (an open modeling fault); a fix shows up here on purpose.
SPLITS = {
    "helmholtz": (
        lambda: compile_any(HELMHOLTZ_DSL),
        ("D", "u", "v"), ("S",), 2 * 1331 * 8, 1331 * 8, 121 * 8,
    ),
    "interpolation": (
        lambda: compile_any(interpolation_program(5, 9)),
        ("u", "w"), ("I",), 125 * 8, 729 * 8, 45 * 8,
    ),
    "gradient": (
        lambda: compile_any(gradient_program(5)),
        ("gx", "gy", "gz"), ("Dm", "u"), 0, 3 * 125 * 8, 150 * 8,
    ),
    "smoother-helmholtz": (
        lambda: _smoother("helmholtz"),
        ("D", "u", "v"), ("S",), 2 * 125 * 8, 125 * 8, 25 * 8,
    ),
    "smoother-update": (
        lambda: _smoother("update"),
        ("u", "D", "v", "w"), (), 3 * 125 * 8, 125 * 8, 0,
    ),
    "smoother-fused": (
        lambda: _smoother("fused_helmholtz_update", fusion="auto"),
        ("D", "u", "w"), ("S",), 2 * 125 * 8, 125 * 8, 25 * 8,
    ),
    # no statement reads ``a``: no element needs its own copy
    "unread-input": (
        lambda: compile_any(
            "var input a : [4]\nvar input b : [4]\nvar output c : [4]\n"
            "c = b * b\n"
        ),
        ("b", "c"), ("a",), 4 * 8, 4 * 8, 4 * 8,
    ),
}


@pytest.mark.parametrize("kernel", list(SPLITS))
def test_streamed_vs_static_split(kernel):
    build, streamed, static, bytes_in, bytes_out, static_bytes = SPLITS[kernel]
    res = build()
    assert res.footprint == TransferFootprint(
        streamed, static, bytes_in, bytes_out, static_bytes
    )
    # the port classes stream exactly the policy's inputs
    assert {
        d.name for d in res.function.inputs()
        if res.port_classes[d.name] is PortClass.ACCELERATOR_AND_SYSTEM
    } == res.function.streamed_inputs()


class TestCompileFlow:
    def test_defaults_reproduce_paper_headline(self):
        res = compile_any(HELMHOLTZ_DSL)
        assert res.hls.resources.lut == 2314
        assert res.memory.brams == 18
        d = res.build_system()
        assert (d.k, d.m) == (16, 16)

    def test_flow_accepts_built_program(self):
        from repro.apps.helmholtz import inverse_helmholtz_program

        res = compile_any(inverse_helmholtz_program(11))
        assert res.memory.brams == 18

    def test_temporaries_internal_flow(self):
        res = compile_any(HELMHOLTZ_DSL, FlowOptions(temporaries_internal=True))
        assert res.memory.brams == 9       # paper: memory system used 9
        assert res.hls.resources.bram == 24  # paper: accelerator used 24
        total = res.memory.brams + res.hls.resources.bram
        assert total == 33                  # paper: total of 33
        # exporting temporaries is better: 18 < 33
        assert compile_any(HELMHOLTZ_DSL).memory.brams < total

    def test_no_factorize_flow(self):
        res = compile_any(HELMHOLTZ_DSL, FlowOptions(factorize=False))
        # unfactorized: 3 statements, huge latency (O(p^6) MACs)
        assert len(res.function.statements) == 3
        fast = compile_any(HELMHOLTZ_DSL)
        assert res.hls.latency_cycles > 10 * fast.hls.latency_cycles

    def test_layout_override(self):
        res = compile_any(
            HELMHOLTZ_DSL, FlowOptions(layout_overrides={"u": "column_major"})
        )
        assert res.poly.layouts["u"].strides == (1, 11, 121)

    def test_bad_layout_override(self):
        from repro.errors import SystemGenerationError

        with pytest.raises(SystemGenerationError):
            compile_any(HELMHOLTZ_DSL, FlowOptions(layout_overrides={"u": "zigzag"}))

    def test_simulate_shortcut(self):
        res = compile_any(HELMHOLTZ_DSL)
        s = res.simulate(1_000, 2, 2)
        assert s.k == 2 and s.total_seconds > 0

    def test_mismatched_km_args(self):
        from repro.errors import SystemGenerationError

        res = compile_any(HELMHOLTZ_DSL)
        with pytest.raises(SystemGenerationError):
            res.build_system(k=2)


class TestArtifacts:
    def test_write_artifacts(self, tmp_path):
        res = compile_any(HELMHOLTZ_DSL)
        paths = write_artifacts(res, str(tmp_path), k=4, m=4)
        for name in (
            "kernel.c",
            "kernel_mirror.py",
            "mnemosyne_config.json",
            "compat_graph.txt",
            "memory_subsystem.txt",
            "hls_report.txt",
            "system.v",
            "host.c",
            "system_report.txt",
        ):
            assert pathlib.Path(paths[name]).exists(), name
        config = json.loads((tmp_path / "mnemosyne_config.json").read_text())
        assert config["sizes"]["v"] == 1331
        assert "void kernel_body(" in (tmp_path / "kernel.c").read_text()

    def test_mirror_artifact_is_runnable(self, tmp_path):
        res = compile_any(HELMHOLTZ_DSL)
        write_artifacts(res, str(tmp_path), k=1, m=1)
        src = (tmp_path / "kernel_mirror.py").read_text()
        ns: dict = {}
        exec(compile(src, "kernel_mirror.py", "exec"), ns)
        assert callable(ns["kernel_body"])

    def test_mirror_artifact_is_kernel_c_with_internal_temporaries(self, tmp_path):
        """``kernel.c`` declares the temporaries inside the function; the
        mirror takes the same parameters and matches ``teil.interp``."""
        from repro.apps.helmholtz import inverse_helmholtz_program
        from repro.codegen.pyemit import pack_array, unpack_array
        from repro.teil import interpret

        n = 4
        res = compile_any(
            inverse_helmholtz_program(n), FlowOptions(temporaries_internal=True)
        )
        write_artifacts(res, str(tmp_path), k=1, m=1)
        signature = (tmp_path / "kernel.c").read_text().split(") {")[0]
        params = re.findall(r"double (\w+)\[", signature)
        assert params == ["S", "D", "u", "v"]
        ns: dict = {}
        src = (tmp_path / "kernel_mirror.py").read_text()
        exec(compile(src, "kernel_mirror.py", "exec"), ns)
        kernel = ns["kernel_body"]
        assert list(inspect.signature(kernel).parameters) == params
        data = make_element_data(n, seed=4)
        layouts = res.poly.layouts
        buffers = [np.zeros(layouts[p].size) for p in params]
        for p, buf in zip(params, buffers):
            if p in data:
                pack_array(buf, layouts[p], data[p])
        kernel(*buffers)
        want = interpret(res.function, data)["v"]
        got = unpack_array(buffers[params.index("v")], layouts["v"])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestCli:
    def test_cli_builtin_app(self, tmp_path, capsys):
        rc = cli_main(
            ["--app", "helmholtz", "-o", str(tmp_path), "--simulate", "--ne", "1000"]
        )
        assert rc == 0
        outp = capsys.readouterr().out
        assert "HLS report" in outp and "artifacts written" in outp

    def test_cli_source_file(self, tmp_path, capsys):
        src = tmp_path / "helm.cfd"
        src.write_text(HELMHOLTZ_DSL)
        rc = cli_main([str(src), "-o", str(tmp_path / "build"), "-k", "2", "-m", "2"])
        assert rc == 0
        assert (tmp_path / "build" / "kernel.c").exists()

    def test_cli_no_input(self, capsys):
        assert cli_main([]) == 2

    def test_cli_no_sharing(self, tmp_path, capsys):
        rc = cli_main(
            ["--app", "helmholtz", "-o", str(tmp_path), "--no-sharing", "-k", "8", "-m", "8"]
        )
        assert rc == 0
        assert "31 BRAM36" in capsys.readouterr().out

    def test_cli_other_apps(self, tmp_path):
        for app in ("interpolation", "gradient"):
            rc = cli_main(["--app", app, "-n", "6", "-o", str(tmp_path / app)])
            assert rc == 0


class TestFunctionalEndToEnd:
    def test_flow_kernel_is_numerically_correct(self):
        """Generated kernel (Python mirror) vs the Eq. 1a-1c reference."""
        from repro.codegen import run_python_kernel

        res = compile_any(
            __import__("repro.apps.helmholtz", fromlist=["x"]).inverse_helmholtz_source(4)
        )
        data = make_element_data(4, seed=12)
        got = run_python_kernel(res.poly, data)["v"]
        ref = reference_inverse_helmholtz(data["S"], data["D"], data["u"])
        np.testing.assert_allclose(got, ref, rtol=1e-12)
