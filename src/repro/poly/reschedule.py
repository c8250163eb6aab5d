"""Dependence-driven rescheduling (step iii of Fig. 4; "Pluto-lite").

The paper uses isl's Pluto scheduler with RAW dependence distance as the
cost function "to reduce the dependence distance and thus the live
intervals", plus a RAR term that "attempts to place the statements at
coincident schedule space points" to reduce pressure on temporary storage.

This module implements the same objective over the schedule family our flow
uses (stage ordering + per-statement loop permutation):

* statement order: the legal (topological) order minimizing
  ``sum_over_RAW(bytes(tensor) * stage_distance)`` with a RAR-coincidence
  tie-break;
* loop order: the permutation maximizing layout consecutivity (stride-0/1
  innermost accesses), preferring reduction-innermost so code generation can
  use a register accumulator (HLS-friendly).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Sequence

from repro.poly.aff import AffExpr
from repro.poly.dataflow import (
    statement_rar_pairs,
    statement_raw_deps,
    check_schedule_legal,
)
from repro.poly.schedule import (
    PolyProgram,
    PolyStatement,
    with_loop_permutation,
    with_statement_order,
)
from repro.utils import stable_topo_orders


@dataclass(frozen=True)
class RescheduleOptions:
    """Knobs for the rescheduler (exposed as compiler parameters).

    ``reduction_placement`` controls where reduction loops land:

    * ``"innermost"`` — register-accumulator codegen (natural for
      non-pipelined or inner-pipelined kernels);
    * ``"outside"``   — keep a non-reduction loop innermost so the
      memory-accumulation revisit distance covers the fp64 adder latency
      and flattened pipelining reaches II=1 (the paper's 200 MHz kernels);
    * ``"free"``      — consecutivity alone decides.
    """

    reorder_statements: bool = True
    permute_loops: bool = True
    max_orders: int = 2000          # cap on explored topological orders
    rar_weight: float = 0.1         # RAR coincidence weight vs RAW distance
    reduction_placement: str = "innermost"

    def __post_init__(self) -> None:
        if self.reduction_placement not in ("innermost", "outside", "free"):
            raise ValueError(
                f"unknown reduction_placement {self.reduction_placement!r}"
            )


def raw_cost(prog: PolyProgram) -> float:
    """Live-interval proxy: sum of bytes x stage-distance over RAW edges."""
    total = 0.0
    for dep in statement_raw_deps(prog):
        dist = prog.stage_of(prog.statement(dep.consumer)) - prog.stage_of(
            prog.statement(dep.producer)
        )
        total += prog.function.decls[dep.tensor].n_bytes * dist
    return total


def rar_cost(prog: PolyProgram) -> float:
    """RAR coincidence: smaller stage spread between co-readers is better."""
    total = 0.0
    for dep in statement_rar_pairs(prog):
        d = abs(
            prog.stage_of(prog.statement(dep.consumer))
            - prog.stage_of(prog.statement(dep.producer))
        )
        total += prog.function.decls[dep.tensor].n_bytes * d
    return total


def schedule_cost(prog: PolyProgram, options: RescheduleOptions) -> float:
    return raw_cost(prog) + options.rar_weight * rar_cost(prog)


def _choose_statement_order(prog: PolyProgram, options: RescheduleOptions) -> PolyProgram:
    names = [s.name for s in prog.statements]
    edges: Dict[str, List[str]] = {n: [] for n in names}
    for dep in statement_raw_deps(prog):
        edges[dep.producer].append(dep.consumer)
    best = None
    for order in stable_topo_orders(names, edges, limit=options.max_orders):
        cand = with_statement_order(prog, order)
        cost = schedule_cost(cand, options)
        key = (cost, order)
        if best is None or key < best[0]:
            best = (key, cand)
    assert best is not None, "no legal statement order (dependence cycle?)"
    return best[1]


def _access_addresses(prog: PolyProgram, stmt: PolyStatement) -> List[AffExpr]:
    """Flat address of each access (write first) over the loop dims."""
    addresses = []
    for acc in (stmt.write, *stmt.reads):
        layout = prog.layouts[acc.tensor]
        dim_names = tuple(f"x{i}" for i in range(len(layout.shape)))
        addresses.append(layout.aff(dim_names).compose(acc.fn).exprs[0])
    return addresses


def innermost_stride(prog: PolyProgram, stmt: PolyStatement, perm: Sequence[int]) -> List[int]:
    """Stride of each access w.r.t. the innermost loop under ``perm``.

    Stride 0 means loop-invariant (fine: a register); 1 means consecutive.
    """
    inner_dim = stmt.loop_dims[perm[-1]]
    return [addr.coeff(inner_dim) for addr in _access_addresses(prog, stmt)]


def _misplaced_reduction(
    stmt: PolyStatement, perm: Sequence[int], placement: str
) -> int:
    nd = len(stmt.loop_dims)
    if not stmt.is_reduction or placement == "free":
        return 0
    red_indices = set(range(stmt.out_rank, nd))
    if placement == "innermost":
        # reduction dims must form the innermost contiguous suffix
        red_positions = [perm.index(i) for i in red_indices]
        ok = all(p >= nd - len(red_positions) for p in red_positions)
    else:  # "outside": the innermost loop must not be a reduction dim
        ok = perm[-1] not in red_indices
    return 0 if ok else 1


def _choose_loop_orders(prog: PolyProgram, options: RescheduleOptions) -> PolyProgram:
    out = prog
    for s in prog.statements:
        nd = len(s.loop_dims)
        if nd <= 1 or nd > 6:
            continue
        # strides depend on the innermost loop alone: count the accesses
        # that are neither invariant nor consecutive once per loop dim
        addresses = _access_addresses(out, s)
        bad = [
            sum(1 for a in addresses if a.coeff(d) not in (0, 1))
            for d in s.loop_dims
        ]
        best = None
        for perm in permutations(range(nd)):
            red = _misplaced_reduction(s, perm, options.reduction_placement)
            # Reduction placement dominates: PLMs are BRAMs with single-cycle
            # random access, so stride only breaks ties, but a misplaced
            # reduction limits the achievable II (or forbids the register
            # accumulator, depending on the placement policy).
            key = (red, bad[perm[-1]], perm)
            if best is None or key < best:
                best = key
        assert best is not None
        out = with_loop_permutation(out, s.name, best[2])
    return out


def reschedule(prog: PolyProgram, options: RescheduleOptions | None = None) -> PolyProgram:
    """Compute an optimized legal schedule from the reference schedule."""
    options = options or RescheduleOptions()
    out = prog
    if options.reorder_statements:
        out = _choose_statement_order(out, options)
    if options.permute_loops:
        out = _choose_loop_orders(out, options)
    check_schedule_legal(out)
    return out
