"""Kernel chain fusion at the IR level (repro.teil.fuse)."""

import numpy as np
import pytest

from repro.errors import IRError
from repro.teil.fuse import FusedKernel, fuse_functions
from repro.teil.interp import interpret
from repro.teil.ops import Contraction, Ewise, EwiseKind
from repro.teil.program import Function, Statement
from repro.teil.types import TensorKind


def fn_square(name="a", n=3):
    """y = 2*x*x, with a private temporary t0; reads x in one statement
    (the single-kernel streaming criterion)."""
    f = Function(name)
    f.declare("x", (n,), TensorKind.INPUT)
    f.declare("t0", (n,), TensorKind.TRANSIENT)
    f.declare("y", (n,), TensorKind.OUTPUT)
    f.statements.append(Statement("t0", Ewise(EwiseKind.MUL, "x", "x")))
    f.statements.append(Statement("y", Ewise(EwiseKind.ADD, "t0", "t0")))
    return f.validate()


def fn_outer(name="b", n=3):
    """z = row-sums of the outer product y (x) y — its temporary is also
    named t0, with a different shape than fn_square's t0."""
    f = Function(name)
    f.declare("y", (n,), TensorKind.INPUT)
    f.declare("t0", (n, n), TensorKind.TRANSIENT)
    f.declare("z", (n,), TensorKind.OUTPUT)
    f.statements.append(Statement("t0", Contraction(
        operands=("y", "y"), operand_indices=(("i",), ("j",)),
        output_indices=("i", "j"),
    )))
    f.statements.append(Statement("z", Contraction(
        operands=("t0",), operand_indices=(("i", "j"),),
        output_indices=("i",),
    )))
    return f.validate()


def fn_double(name="c", n=3):
    """w = z + z."""
    f = Function(name)
    f.declare("z", (n,), TensorKind.INPUT)
    f.declare("w", (n,), TensorKind.OUTPUT)
    f.statements.append(Statement("w", Ewise(EwiseKind.ADD, "z", "z")))
    return f.validate()


class TestFuseBasics:
    def test_empty_chain_rejected(self):
        with pytest.raises(IRError, match="empty"):
            fuse_functions([])

    def test_duplicate_member_names_rejected(self):
        with pytest.raises(IRError, match="duplicate kernel names"):
            fuse_functions([fn_square("a"), fn_outer("a")])

    def test_single_member_round_trips(self):
        fk = fuse_functions([fn_square()], name="solo")
        assert fk.function.name == "solo"
        assert fk.members == ("a",)
        assert fk.internalized == ()
        env = {"x": np.arange(3.0)}
        np.testing.assert_allclose(
            interpret(fk.function, env)["y"],
            interpret(fn_square(), env)["y"],
        )

    def test_default_name_joins_members(self):
        fk = fuse_functions([fn_square(), fn_outer()])
        assert fk.function.name == "fused_a_b"


class TestRenamingAndShapes:
    def test_colliding_temp_names_are_renamed_per_member(self):
        # both members declare a TRANSIENT t0 — with different shapes;
        # only interface tensors are shape-checked, temporaries rename
        fk = fuse_functions([fn_square(), fn_outer()])
        names = set(fk.function.decls)
        assert "a_t0" in names and "b_t0" in names
        assert "t0" not in names
        assert fk.function.decls["a_t0"].shape == (3,)
        assert fk.function.decls["b_t0"].shape == (3, 3)
        fk.function.validate()

    def test_rename_avoids_existing_tensor_names(self):
        # a member already declares the tensor the default rename would
        # produce; the renamer must pick a fresh name instead
        clash = Function("b")
        clash.declare("y", (3,), TensorKind.INPUT)
        clash.declare("a_t0", (3,), TensorKind.INPUT)
        clash.declare("t0", (3,), TensorKind.TRANSIENT)
        clash.declare("z", (3,), TensorKind.OUTPUT)
        clash.statements.append(Statement("t0", Ewise(EwiseKind.MUL, "y", "a_t0")))
        clash.statements.append(Statement("z", Ewise(EwiseKind.ADD, "t0", "y")))
        clash.validate()
        fk = fuse_functions([fn_square(), clash])
        fk.function.validate()
        env = {"x": np.arange(3.0) + 1, "a_t0": np.ones(3)}
        ref_y = interpret(fn_square(), {"x": env["x"]})["y"]
        ref_z = interpret(clash, {"y": ref_y, "a_t0": env["a_t0"]})["z"]
        np.testing.assert_allclose(interpret(fk.function, env)["z"], ref_z)

    def test_interface_shape_mismatch_names_both_kernels(self):
        small = fn_outer(n=3)
        big = Function("c")
        big.declare("z", (4,), TensorKind.INPUT)
        big.declare("w", (4,), TensorKind.OUTPUT)
        big.statements.append(Statement("w", Ewise(EwiseKind.ADD, "z", "z")))
        big.validate()
        with pytest.raises(IRError, match=r"'b'.*'c'|tensor 'z'"):
            fuse_functions([small, big])


class TestChainErrors:
    def test_duplicate_producer_names_both_kernels(self):
        with pytest.raises(IRError, match="'a' and 'a2' both produce"):
            a2 = fn_square("a2")
            fuse_functions([fn_square("a"), a2])

    def test_write_after_external_read_rejected(self):
        # first member reads z from the chain inputs; a later member
        # writing z would rebind that read
        first = Function("first")
        first.declare("z", (3,), TensorKind.INPUT)
        first.declare("p", (3,), TensorKind.OUTPUT)
        first.statements.append(Statement("p", Ewise(EwiseKind.MUL, "z", "z")))
        first.validate()
        writer = Function("writer")
        writer.declare("q", (3,), TensorKind.INPUT)
        writer.declare("z", (3,), TensorKind.OUTPUT)
        writer.statements.append(Statement("z", Ewise(EwiseKind.ADD, "q", "q")))
        writer.validate()
        with pytest.raises(IRError, match="rebind"):
            fuse_functions([first, writer])


class TestDemotion:
    def test_internally_consumed_output_demoted(self):
        fk = fuse_functions([fn_square(), fn_outer()])
        assert fk.internalized == ("y",)
        assert fk.function.decls["y"].kind is TensorKind.LOCAL
        names = {d.name for d in fk.function.interface()}
        assert "y" not in names and "x" in names and "z" in names

    def test_keep_outputs_stay_on_interface(self):
        fk = fuse_functions([fn_square(), fn_outer()], keep_outputs=["y"])
        assert fk.internalized == ()
        assert fk.kept == ("y",)
        assert fk.function.decls["y"].kind is TensorKind.OUTPUT

    def test_unconsumed_outputs_stay_outputs(self):
        fk = fuse_functions([fn_square(), fn_outer(), fn_double()])
        # y and z are consumed downstream -> demoted; w is the final output
        assert set(fk.internalized) == {"y", "z"}
        assert fk.function.decls["w"].kind is TensorKind.OUTPUT

    def test_fused_matches_sequential_members(self):
        fk = fuse_functions([fn_square(), fn_outer(), fn_double()])
        x = np.linspace(-1.0, 1.0, 3)
        y = interpret(fn_square(), {"x": x})["y"]
        z = interpret(fn_outer(), {"y": y})["z"]
        w = interpret(fn_double(), {"z": z})["w"]
        np.testing.assert_allclose(
            interpret(fk.function, {"x": x})["w"], w, atol=1e-12, rtol=0,
        )


class TestPortHints:
    def test_single_reader_external_input_hinted(self):
        fk = fuse_functions([fn_square(), fn_outer()])
        assert "x" in fk.function.system_port_hints

    def test_demoted_intermediate_not_hinted(self):
        fk = fuse_functions([fn_square(), fn_outer()])
        assert "y" not in fk.function.system_port_hints

    def test_multi_reader_external_input_not_hinted(self):
        # s is read by two statements of the same member: a reused
        # static operand, not a streamed per-element tensor
        multi = Function("m")
        multi.declare("s", (3,), TensorKind.INPUT)
        multi.declare("t0", (3,), TensorKind.TRANSIENT)
        multi.declare("x", (3,), TensorKind.OUTPUT)
        multi.statements.append(Statement("t0", Ewise(EwiseKind.MUL, "s", "s")))
        multi.statements.append(Statement("x", Ewise(EwiseKind.ADD, "t0", "s")))
        multi.validate()
        fk = fuse_functions([multi, fn_square()])
        assert "s" not in fk.function.system_port_hints


class TestFingerprint:
    def test_deterministic(self):
        fp1 = fuse_functions([fn_square(), fn_outer()]).fingerprint()
        fp2 = fuse_functions([fn_square(), fn_outer()]).fingerprint()
        assert fp1 == fp2

    def test_sensitive_to_members(self):
        base = fuse_functions([fn_square(), fn_outer()]).fingerprint()
        other = fuse_functions([fn_square(n=3), fn_outer(n=3)])
        tweaked = Function("a")
        tweaked.declare("x", (3,), TensorKind.INPUT)
        tweaked.declare("y", (3,), TensorKind.OUTPUT)
        tweaked.statements.append(Statement("y", Ewise(EwiseKind.MUL, "x", "x")))
        tweaked.validate()
        assert base == other.fingerprint()
        assert base != fuse_functions([tweaked, fn_outer()]).fingerprint()

    def test_sensitive_to_kept_outputs(self):
        plain = fuse_functions([fn_square(), fn_outer()])
        kept = fuse_functions([fn_square(), fn_outer()], keep_outputs=["y"])
        assert plain.fingerprint() != kept.fingerprint()

    def test_composes_member_fingerprints(self):
        fk = fuse_functions([fn_square(), fn_outer()])
        assert fk.member_fingerprints == (
            fn_square().fingerprint(), fn_outer().fingerprint(),
        )
        assert isinstance(fk, FusedKernel)
