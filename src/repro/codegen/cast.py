"""A small C AST sufficient for HLS kernel emission."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


class CExpr:
    """Base class for C expressions."""


@dataclass(frozen=True)
class CVar(CExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CLiteral(CExpr):
    value: Union[int, float, str]

    def __str__(self) -> str:
        if isinstance(self.value, float):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class CBinary(CExpr):
    op: str
    lhs: CExpr
    rhs: CExpr

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class CIndex(CExpr):
    base: str
    index: CExpr

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


def affine_cexpr(coeff_terms: Sequence[Tuple[int, str]], const: int) -> CExpr:
    """Render ``sum(c*v) + const`` compactly (no redundant 1* or +0)."""
    parts: List[str] = []
    for c, v in coeff_terms:
        if c == 0:
            continue
        parts.append(v if c == 1 else f"{c}*{v}")
    if const or not parts:
        parts.append(str(const))
    return CVar(" + ".join(parts))


class CStmt:
    """Base class for C statements."""


@dataclass
class CAssign(CStmt):
    lhs: CExpr
    rhs: CExpr
    op: str = "="  # '=' or '+='

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs};"


@dataclass
class CDecl(CStmt):
    ctype: str
    name: str
    init: Optional[CExpr] = None
    array_size: Optional[int] = None

    def __str__(self) -> str:
        arr = f"[{self.array_size}]" if self.array_size is not None else ""
        init = f" = {self.init}" if self.init is not None else ""
        return f"{self.ctype} {self.name}{arr}{init};"


@dataclass
class CComment(CStmt):
    text: str

    def __str__(self) -> str:
        return f"/* {self.text} */"


@dataclass
class CPragma(CStmt):
    text: str

    def __str__(self) -> str:
        return f"#pragma {self.text}"


@dataclass
class CBlock(CStmt):
    stmts: List[CStmt] = field(default_factory=list)
    #: printed in braces, so that its declarations are its own
    scoped: bool = False


@dataclass
class CFor(CStmt):
    var: str
    lo: int
    hi: int  # inclusive
    body: CBlock = field(default_factory=CBlock)
    label: str = ""
    pragmas: List[CPragma] = field(default_factory=list)


@dataclass(frozen=True)
class CArrayParam:
    """A flattened 1-D array parameter: ``double name[size]``."""

    name: str
    size: int
    ctype: str = "double"

    def __str__(self) -> str:
        return f"{self.ctype} {self.name}[{self.size}]"


@dataclass
class CFunction:
    name: str
    params: List[CArrayParam] = field(default_factory=list)
    body: CBlock = field(default_factory=CBlock)
    return_type: str = "void"
    comment: str = ""
