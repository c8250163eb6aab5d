"""Code generation: C99 kernels for HLS, HLS directives, Python mirror.

The C99 emitter produces the ``kernel_body`` function of Fig. 6 with every
memory element exported as an interface parameter (flattened 1-D arrays,
affine index expressions).  The Python emitter prints the same C AST as
Python over flat NumPy buffers so generated-code semantics can be tested
against the IR interpreter without a C toolchain.
"""

from repro.codegen.cast import (
    CArrayParam,
    CAssign,
    CBinary,
    CBlock,
    CComment,
    CDecl,
    CExpr,
    CFor,
    CFunction,
    CIndex,
    CLiteral,
    CPragma,
    CVar,
)
from repro.codegen.cemit import emit_function, emit_node
from repro.codegen.kernel import KernelCode, generate_kernel
from repro.codegen.pyemit import (
    generate_python_kernel,
    compile_python_kernel,
    run_python_kernel,
)

__all__ = [
    "CArrayParam",
    "CAssign",
    "CBinary",
    "CBlock",
    "CComment",
    "CDecl",
    "CExpr",
    "CFor",
    "CFunction",
    "CIndex",
    "CLiteral",
    "CPragma",
    "CVar",
    "emit_function",
    "emit_node",
    "KernelCode",
    "generate_kernel",
    "generate_python_kernel",
    "compile_python_kernel",
    "run_python_kernel",
]
