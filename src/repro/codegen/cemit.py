"""C AST to C99 source text."""

from __future__ import annotations

from typing import List

from repro.codegen.cast import (
    CBlock,
    CFor,
    CFunction,
    CStmt,
)

_INDENT = "  "


def emit_node(node: CStmt, depth: int = 0) -> List[str]:
    pad = _INDENT * depth
    if isinstance(node, CBlock):
        if node.scoped:
            inner = emit_node(CBlock(node.stmts), depth + 1)
            return [f"{pad}{{", *inner, f"{pad}}}"]
        out: List[str] = []
        for s in node.stmts:
            out.extend(emit_node(s, depth))
        return out
    if isinstance(node, CFor):
        out = []
        label = f"{node.label}: " if node.label else ""
        out.append(
            f"{pad}{label}for (int {node.var} = {node.lo}; "
            f"{node.var} <= {node.hi}; ++{node.var}) {{"
        )
        for p in node.pragmas:
            out.append(f"{_INDENT * (depth + 1)}{p}")
        out.extend(emit_node(node.body, depth + 1))
        out.append(f"{pad}}}")
        return out
    return [f"{pad}{node}"]


def emit_function(fn: CFunction) -> str:
    lines: List[str] = []
    if fn.comment:
        lines.append("/*")
        for ln in fn.comment.splitlines():
            lines.append(f" * {ln}" if ln else " *")
        lines.append(" */")
    params = ",\n".join(f"    {p}" for p in fn.params)
    lines.append(f"{fn.return_type} {fn.name}(")
    lines.append(params)
    lines.append(") {")
    lines.extend(emit_node(fn.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
