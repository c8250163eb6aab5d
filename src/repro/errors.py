"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch flow-level failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CFDlangSyntaxError(ReproError):
    """Lexical or syntactic error in CFDlang source.

    Carries the source line/column of the offending token when available.
    """

    def __init__(self, message: str, line: int = -1, column: int = -1) -> None:
        self.line = line
        self.column = column
        if line >= 0:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class CFDlangSemanticError(ReproError):
    """Type/shape/kind violation found during semantic analysis."""


class IRError(ReproError):
    """Malformed or inconsistent tensor IR."""


class PolyhedralError(ReproError):
    """Invalid polyhedral object or unsupported operation."""


class LayoutError(ReproError):
    """Illegal layout or partitioning map (e.g. non-injective fixpoint)."""


class HLSError(ReproError):
    """HLS model cannot schedule or estimate the given kernel."""


class MemoryArchitectureError(ReproError):
    """Mnemosyne model cannot build a PLM architecture."""


class SystemGenerationError(ReproError):
    """Replication/integration constraints cannot be met (Eq. 3)."""


class SimulationError(ReproError):
    """Inconsistent simulation configuration."""


class ExecBackendError(ReproError):
    """Unknown or unavailable kernel execution backend."""
