"""A self-contained polyhedral engine (mini-isl).

The paper builds its compiler on libISL.  This package implements the slice
of isl functionality the flow actually uses, over *bounded integer spaces
without symbolic parameters* (tensor shapes are static in CFDlang):

- :mod:`repro.poly.space`  — named tuple spaces,
- :mod:`repro.poly.aff`    — affine expressions and multi-dim affine functions,
- :mod:`repro.poly.iset`   — integer sets (unions of basic sets) with
  Fourier–Motzkin projection, emptiness tests and point enumeration,
- :mod:`repro.poly.imap`   — binary relations (maps) with composition,
  inversion, application,
- :mod:`repro.poly.lexorder` — lexicographic order relations and the
  ``ge_le`` helper of Sec. IV-F,
- :mod:`repro.poly.schedule`  — statements, schedules, reference schedule,
- :mod:`repro.poly.dataflow`  — RAW/RAR dependence analysis,
- :mod:`repro.poly.reschedule` — exact least-cost rescheduling (Pluto-lite),
- :mod:`repro.poly.codegen_ast` — schedule to loop-AST generation.
"""

from repro.poly.space import Space
from repro.poly.aff import AffExpr, AffTuple
from repro.poly.iset import BasicSet, ISet
from repro.poly.imap import IMap
from repro.poly.lexorder import lex_lt_map, lex_le_map, ge_le

__all__ = [
    "Space",
    "AffExpr",
    "AffTuple",
    "BasicSet",
    "ISet",
    "IMap",
    "lex_lt_map",
    "lex_le_map",
    "ge_le",
]
