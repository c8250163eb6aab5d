"""Affine tensor-to-array layouts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import LayoutError
from repro.poly.aff import AffExpr, AffTuple
from repro.poly.iset import BasicSet
from repro.poly.space import Space
from repro.utils import prod


@dataclass(frozen=True)
class Layout:
    """An affine map from a tensor index space to a 1-D array space.

    ``strides``/``offset`` define ``addr = sum(strides_i * x_i) + offset``.
    The array name defaults to the tensor name (one array per tensor before
    partitioning).
    """

    tensor: str
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]
    offset: int = 0
    array: str = ""

    def __post_init__(self) -> None:
        if len(self.strides) != len(self.shape):
            raise LayoutError(
                f"layout for {self.tensor!r}: {len(self.strides)} strides for "
                f"rank {len(self.shape)}"
            )
        object.__setattr__(self, "array", self.array or self.tensor)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def row_major(tensor: str, shape: Sequence[int], array: str = "", offset: int = 0) -> "Layout":
        strides = []
        acc = 1
        for s in reversed(shape):
            strides.append(acc)
            acc *= s
        return Layout(tensor, tuple(shape), tuple(reversed(strides)), offset, array or tensor)

    @staticmethod
    def column_major(tensor: str, shape: Sequence[int], array: str = "", offset: int = 0) -> "Layout":
        strides = []
        acc = 1
        for s in shape:
            strides.append(acc)
            acc *= s
        return Layout(tensor, tuple(shape), tuple(strides), offset, array or tensor)

    # -- properties -----------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of addressable cells spanned (max address + 1 - offset
        assuming non-negative strides)."""
        if any(s < 0 for s in self.strides):
            raise LayoutError("negative strides not supported")
        return sum(st * (sh - 1) for st, sh in zip(self.strides, self.shape)) + 1

    @property
    def n_elements(self) -> int:
        return prod(self.shape)

    def is_dense(self) -> bool:
        """True iff the layout is a bijection onto [offset, offset+size)."""
        return self.size == self.n_elements

    # -- application -------------------------------------------------------------
    def address(self, point: Sequence[int]) -> int:
        if len(point) != len(self.shape):
            raise LayoutError("point rank mismatch")
        return self.offset + sum(s * x for s, x in zip(self.strides, point))

    def aff(self, dims: Sequence[str]) -> AffTuple:
        """The layout as an affine function over the given dim names."""
        if len(dims) != len(self.shape):
            raise LayoutError("dims arity mismatch")
        dom = Space(self.tensor, tuple(dims))
        expr = AffExpr.constant(self.offset)
        for d, s in zip(dims, self.strides):
            expr = expr + AffExpr.var(d, s)
        return AffTuple(dom, (expr,), Space(self.array, ("a",)))

    def image(self) -> BasicSet:
        """The set of addresses used by the tensor (exact, strided)."""
        dims = tuple(f"x{i}" for i in range(len(self.shape)))
        dom = BasicSet.from_shape(Space(self.tensor, dims), self.shape)
        return dom.apply(self.aff(dims))

    def check_injective(self) -> None:
        """Raise :class:`LayoutError` unless the layout is injective on its
        domain (two distinct indices never share an address)."""
        dims_a = tuple(f"x{i}" for i in range(len(self.shape)))
        dims_b = tuple(f"y{i}" for i in range(len(self.shape)))
        comb = Space(self.tensor, dims_a + dims_b)
        both = BasicSet.from_shape(comb, self.shape + self.shape)
        # equal addresses
        addr = AffExpr.constant(0)
        for da, db, s in zip(dims_a, dims_b, self.strides):
            addr = addr + AffExpr.var(da, s) - AffExpr.var(db, s)
        both = both.with_constraint(addr, eq=True)
        # and differing at some position: union over dims of (x_i != y_i)
        for da, db in zip(dims_a, dims_b):
            lt = both.with_constraint(AffExpr.var(da) - AffExpr.var(db) - 1)
            gt = both.with_constraint(AffExpr.var(db) - AffExpr.var(da) - 1)
            if not (lt.is_empty() and gt.is_empty()):
                raise LayoutError(f"layout for {self.tensor!r} is not injective")

    def __str__(self) -> str:
        dims = [f"x{i}" for i in range(len(self.shape))]
        terms = " + ".join(f"{s}*{d}" for s, d in zip(self.strides, dims))
        off = f" + {self.offset}" if self.offset else ""
        return f"{{ {self.tensor}[{','.join(dims)}] -> {self.array}[{terms}{off}] }}"


def default_layouts(shapes: Dict[str, Tuple[int, ...]]) -> Dict[str, Layout]:
    """Row-major layouts for every tensor (the compiler default)."""
    return {name: Layout.row_major(name, shape) for name, shape in shapes.items()}
