"""Layout-aware dataflow analysis: RAW/RAR dependences (Sec. IV-E/IV-F).

Two granularities:

* **Statement-level** dependences drive rescheduling legality and cost
  (each tensor is written by exactly one statement in SSA form, so RAW
  edges are simply writer -> readers).
* **Element-level** RAW relations feed liveness analysis:

      RAW : array[i] -> [write[...] -> read[...]]

  mapping array elements to (write instance, read instance) pairs, built
  exactly (existential columns) and restricted to ``sched(w) lex<= sched(r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import PolyhedralError
from repro.poly.aff import AffExpr, AffTuple
from repro.poly.imap import IMap, _canonical_space
from repro.poly.iset import BasicSet, ISet
from repro.poly.lexorder import lex_le_disjuncts
from repro.poly.schedule import PolyProgram, PolyStatement
from repro.poly.space import Space


@dataclass(frozen=True)
class StatementDep:
    """A statement-level dependence edge ``producer -> consumer`` on a tensor."""

    kind: str  # 'raw' or 'rar'
    producer: str
    consumer: str
    tensor: str

    def __str__(self) -> str:
        return f"{self.kind.upper()} {self.producer} -> {self.consumer} on {self.tensor}"


def statement_raw_deps(prog: PolyProgram) -> List[StatementDep]:
    """RAW edges writer->reader for every tensor (SSA: one writer each)."""
    out: List[StatementDep] = []
    for tensor in {s.write.tensor for s in prog.statements}:
        writers = prog.writers_of(tensor)
        if len(writers) != 1:
            raise PolyhedralError(f"tensor {tensor!r} has {len(writers)} writers (not SSA)")
        w = writers[0]
        for r in prog.readers_of(tensor):
            if r.name != w.name:
                out.append(StatementDep("raw", w.name, r.name, tensor))
    return sorted(out, key=lambda d: (d.producer, d.consumer, d.tensor))


def statement_rar_pairs(prog: PolyProgram) -> List[StatementDep]:
    """RAR pairs: distinct statements reading the same tensor (cost input)."""
    out: List[StatementDep] = []
    tensors = {t for s in prog.statements for t in s.operand_tensors()}
    for tensor in sorted(tensors):
        readers = prog.readers_of(tensor)
        for i, a in enumerate(readers):
            for b in readers[i + 1 :]:
                out.append(StatementDep("rar", a.name, b.name, tensor))
    return out


def check_schedule_legal(prog: PolyProgram) -> None:
    """Every RAW producer must be scheduled at an earlier stage.

    (Statements never interleave across stages in our schedules, so stage
    ordering is sufficient; intra-statement reduction self-dependences are
    always respected by the in-order loop execution.)
    """
    for dep in statement_raw_deps(prog):
        pw = prog.stage_of(prog.statement(dep.producer))
        pr = prog.stage_of(prog.statement(dep.consumer))
        if pw >= pr:
            raise PolyhedralError(
                f"illegal schedule: {dep} requires stage({dep.producer}) < stage({dep.consumer})"
            )


def _access_to_sched(
    prog: PolyProgram, stmt: PolyStatement, access_fn: AffTuple
) -> IMap:
    """Relation tensor-element -> schedule tuples of the accessing instances."""
    graph = IMap.from_aff(access_fn, stmt.domain)      # inst -> element
    sched = IMap.from_aff(prog.schedules[stmt.name], stmt.domain)  # inst -> sched
    return sched.compose(graph.inverse())              # element -> sched


def raw_element_relation(prog: PolyProgram, tensor: str) -> Optional[IMap]:
    """The paper's ``RAW : array[i] -> [write[...] -> read[...]]`` for one
    tensor, with schedules applied: out dims are (sched_w, sched_r) pairs
    restricted to ``sched_w lex<= sched_r``.  Returns None if the tensor is
    never both written and read inside the kernel.
    """
    writers = prog.writers_of(tensor)
    readers = prog.readers_of(tensor)
    if not writers or not readers:
        return None
    rank = prog.sched_rank
    decl = prog.function.decls[tensor]
    elem_dims = tuple(f"d{j}" for j in range(len(decl.shape)))
    elem_space = Space(tensor, elem_dims)
    ident_exprs = tuple(AffExpr.var(d) for d in elem_dims)
    diag = IMap.from_aff(
        AffTuple(
            elem_space,
            ident_exprs + ident_exprs,
            Space(tensor, tuple(f"a{j}" for j in range(2 * len(elem_dims)))),
        ),
        BasicSet.from_shape(elem_space, decl.shape),
    )
    result: Optional[IMap] = None
    lex_space = _canonical_space(len(elem_dims), 2 * rank)
    lex_total = len(elem_dims) + 2 * rank
    lex_parts = [
        BasicSet(lex_space, cons)
        for cons in lex_le_disjuncts(lex_total, len(elem_dims), len(elem_dims) + rank, rank)
    ]
    lex_guard = ISet(lex_space, lex_parts)
    for w in writers:
        wmap = _access_to_sched(prog, w, w.write.fn)
        for r in readers:
            for acc in r.reads:
                if acc.tensor != tensor:
                    continue
                rmap = _access_to_sched(prog, r, acc.fn)
                pair = wmap.product(rmap).compose(diag)  # elem -> (sw, sr)
                pair = IMap(
                    pair.in_space,
                    pair.out_space,
                    pair.rel.intersect(lex_guard),
                )
                result = pair if result is None else result.union(pair)
    return result


def access_schedule_points(
    prog: PolyProgram, tensor: str, mode: str
) -> Optional[ISet]:
    """Union of schedule tuples at which ``tensor`` is read ('r') / written
    ('w') — the port-access schedule used for memory-interface compatibility.
    """
    parts: Optional[ISet] = None
    if mode == "w":
        stmts = [(s, s.write.fn) for s in prog.writers_of(tensor)]
    elif mode == "r":
        stmts = [
            (s, acc.fn)
            for s in prog.readers_of(tensor)
            for acc in s.reads
            if acc.tensor == tensor
        ]
    else:
        raise PolyhedralError(f"mode must be 'r' or 'w', got {mode!r}")
    for s, _fn in stmts:
        sched = IMap.from_aff(prog.schedules[s.name], s.domain)
        img = sched.range()
        parts = img if parts is None else parts.union(img)
    return parts
