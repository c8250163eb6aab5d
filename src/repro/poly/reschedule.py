"""Dependence-driven rescheduling (step iii of Fig. 4; "Pluto-lite").

The paper uses isl's Pluto scheduler with RAW dependence distance as the
cost function "to reduce the dependence distance and thus the live
intervals", plus a RAR term that "attempts to place the statements at
coincident schedule space points" to reduce pressure on temporary storage.

This module optimizes the same objective, exactly, over the schedule family
our flow uses (stage ordering + per-statement loop permutation):

* statement order: the legal (topological) order of least
  ``sum(weight * stage_distance)`` over the RAW edges (weight ``10 * bytes``)
  and the RAR pairs (weight ``bytes``).  The weights are integers, so equal
  costs tie exactly, and a tie goes to the order whose sequence of statement
  names is least.  A pair at stage distance ``d`` crosses ``d`` of the cuts
  between consecutive stages, so the cost is the sum over cuts of the weight
  crossing each; :func:`least_cost_order` minimizes it by a DP over the
  downsets of the RAW DAG (the sets of statements placed so far);
* loop order: the permutation of least (misplaced reduction, accesses
  neither invariant nor consecutive in the innermost loop, permutation).
  Both criteria depend on the innermost loop alone, and ``loop_dims`` puts
  the reduction dims last, so for each innermost loop the other dims in
  index order are the least permutation, and a legal one whenever any
  permutation with that innermost loop is: one candidate per loop dim.

``reduction_placement`` decides where reduction loops may land:

* ``"innermost"`` — reduction dims form the innermost loops, so code
  generation can use a register accumulator (natural for non-pipelined or
  inner-pipelined kernels);
* ``"outside"``   — a non-reduction loop is innermost, so the
  memory-accumulation revisit distance covers the fp64 adder latency and
  flattened pipelining reaches II=1 (the paper's 200 MHz kernels);
* ``"free"``      — consecutivity alone decides.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

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

REDUCTION_PLACEMENTS = ("innermost", "outside", "free")

#: cost per byte and stage of distance: RAW distance dominates 10 : 1
_WEIGHT = {"raw": 10, "rar": 1}


def least_cost_order(
    names: Sequence[str],
    preds: Sequence[int],
    edges: Sequence[Tuple[int, int]],
) -> Tuple[str, ...]:
    """The least ``(cost, order)`` over the legal orders of ``names``.

    Bit ``i`` of a mask stands for ``names[i]``; ``preds[i]`` masks the
    statements that must precede ``names[i]``, and each ``(mask, weight)``
    edge joins two statements.  The cost of an order is the sum over its
    cuts of the weight of the edges with exactly one end before the cut.
    The work grows with the number of downsets (the sets of statements
    that can precede a cut), not with the number of orders.
    """
    full = (1 << len(names)) - 1

    def ready(placed: int) -> List[int]:
        return [
            i
            for i in range(len(names))
            if not placed >> i & 1 and not preds[i] & ~placed
        ]

    @lru_cache(maxsize=None)
    def cost(placed: int) -> int:
        # the cut after ``placed`` plus the least cost of the cuts after it
        cut = sum(w for mask, w in edges if mask & placed not in (0, mask))
        if placed == full:
            return cut
        return cut + min(cost(placed | 1 << i) for i in ready(placed))

    order = []
    placed = 0
    while placed != full:
        i = min(ready(placed), key=lambda j: (cost(placed | 1 << j), names[j]))
        order.append(names[i])
        placed |= 1 << i
    return tuple(order)


def _choose_statement_order(prog: PolyProgram) -> PolyProgram:
    index = {s.name: i for i, s in enumerate(prog.statements)}
    preds = [0] * len(index)
    edges = []
    for dep in statement_raw_deps(prog) + statement_rar_pairs(prog):
        p, c = index[dep.producer], index[dep.consumer]
        weight = _WEIGHT[dep.kind] * prog.function.decls[dep.tensor].n_bytes
        edges.append((1 << p | 1 << c, weight))
        if dep.kind == "raw":
            preds[c] |= 1 << p
    return with_statement_order(prog, least_cost_order(list(index), preds, edges))


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


def _misplaced_reduction(stmt: PolyStatement, inner: int, placement: str) -> bool:
    """Whether innermost loop dim ``inner`` misplaces the reduction."""
    if not stmt.is_reduction or placement == "free":
        return False
    inner_is_reduction = inner >= stmt.out_rank
    return inner_is_reduction == (placement == "outside")


def _choose_loop_orders(prog: PolyProgram, placement: str) -> PolyProgram:
    out = prog
    for s in prog.statements:
        nd = len(s.loop_dims)
        if nd <= 1:
            continue
        addresses = _access_addresses(out, s)
        # Reduction placement dominates: PLMs are BRAMs with single-cycle
        # random access, so stride only breaks ties, but a misplaced
        # reduction limits the achievable II (or forbids the register
        # accumulator, depending on the placement policy).
        _, _, perm = min(
            (
                _misplaced_reduction(s, d, placement),
                sum(1 for a in addresses if a.coeff(dim) not in (0, 1)),
                tuple(i for i in range(nd) if i != d) + (d,),
            )
            for d, dim in enumerate(s.loop_dims)
        )
        out = with_loop_permutation(out, s.name, perm)
    return out


def reschedule(
    prog: PolyProgram, reduction_placement: str = "innermost"
) -> PolyProgram:
    """Compute the least-cost legal schedule from the reference schedule."""
    if reduction_placement not in REDUCTION_PLACEMENTS:
        raise ValueError(f"unknown reduction_placement {reduction_placement!r}")
    out = _choose_loop_orders(_choose_statement_order(prog), reduction_placement)
    check_schedule_legal(out)
    return out
