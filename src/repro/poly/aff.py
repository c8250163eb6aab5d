"""Integer affine expressions and multi-dimensional affine functions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Tuple

from repro.errors import PolyhedralError
from repro.poly.space import Space


@dataclass(frozen=True)
class AffExpr:
    """An integer affine expression ``sum(coeffs[d] * d) + const``.

    Coefficients are keyed by dimension *name*; the expression is only
    meaningful relative to a space that defines those names.
    """

    coeffs: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    # -- construction ------------------------------------------------------
    @staticmethod
    def var(name: str, coeff: int = 1) -> "AffExpr":
        return AffExpr(((name, int(coeff)),), 0) if coeff else AffExpr((), 0)

    @staticmethod
    def constant(value: int) -> "AffExpr":
        return AffExpr((), int(value))

    @staticmethod
    def from_dict(coeffs: Mapping[str, int], const: int = 0) -> "AffExpr":
        items = tuple(sorted((d, int(c)) for d, c in coeffs.items() if int(c) != 0))
        return AffExpr(items, int(const))

    # -- views -------------------------------------------------------------
    def coeff(self, dim: str) -> int:
        return dict(self.coeffs).get(dim, 0)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def used_dims(self) -> Tuple[str, ...]:
        return tuple(d for d, _ in self.coeffs)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "AffExpr | int") -> "AffExpr":
        if isinstance(other, int):
            return AffExpr(self.coeffs, self.const + other)
        merged = dict(self.coeffs)
        for d, c in other.coeffs:
            merged[d] = merged.get(d, 0) + c
        return AffExpr.from_dict(merged, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffExpr":
        return AffExpr(tuple((d, -c) for d, c in self.coeffs), -self.const)

    def __sub__(self, other: "AffExpr | int") -> "AffExpr":
        if isinstance(other, int):
            return self + (-other)
        return self + (-other)

    def __mul__(self, k: int) -> "AffExpr":
        if not isinstance(k, int):
            raise PolyhedralError("affine expressions only scale by integers")
        if k == 0:
            return AffExpr((), 0)
        return AffExpr(tuple((d, c * k) for d, c in self.coeffs), self.const * k)

    __rmul__ = __mul__

    # -- evaluation / substitution -------------------------------------------
    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.const + sum(c * env[d] for d, c in self.coeffs)

    def substitute(self, bindings: Mapping[str, "AffExpr"]) -> "AffExpr":
        """Replace dims with affine expressions (e.g. layout application)."""
        out = AffExpr.constant(self.const)
        for d, c in self.coeffs:
            repl = bindings.get(d)
            out = out + (repl * c if repl is not None else AffExpr.var(d, c))
        return out

    def rename(self, mapping: Mapping[str, str]) -> "AffExpr":
        return AffExpr(
            tuple(sorted((mapping.get(d, d), c) for d, c in self.coeffs)), self.const
        )

    def as_vector(self, dims: Sequence[str]) -> Tuple[int, ...]:
        """Coefficient vector aligned to ``dims`` (no constant term)."""
        cd = dict(self.coeffs)
        missing = set(cd) - set(dims)
        if missing:
            raise PolyhedralError(f"expression uses dims {missing} not in {dims}")
        return tuple(cd.get(d, 0) for d in dims)

    def __str__(self) -> str:
        parts = []
        for d, c in self.coeffs:
            if c == 1:
                parts.append(d)
            elif c == -1:
                parts.append(f"-{d}")
            else:
                parts.append(f"{c}*{d}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class AffTuple:
    """A multi-dimensional affine function: one :class:`AffExpr` per output dim.

    Models e.g. a memory layout ``t[i,j,k] -> t[121i + 11j + k]`` or a
    schedule ``stmt[i,j] -> [0, i, j, 0]``.
    """

    domain: Space
    exprs: Tuple[AffExpr, ...]
    target: Space = field(default=Space(""))

    def __post_init__(self) -> None:
        if self.target.rank and self.target.rank != len(self.exprs):
            raise PolyhedralError(
                f"target space rank {self.target.rank} != {len(self.exprs)} exprs"
            )
        dom = set(self.domain.dims)
        for e in self.exprs:
            bad = set(e.used_dims()) - dom
            if bad:
                raise PolyhedralError(f"expression {e} uses unknown dims {bad}")

    @property
    def n_out(self) -> int:
        return len(self.exprs)

    @staticmethod
    def identity(space: Space) -> "AffTuple":
        return AffTuple(space, tuple(AffExpr.var(d) for d in space.dims), space)

    def evaluate(self, point: Sequence[int]) -> Tuple[int, ...]:
        env = dict(zip(self.domain.dims, point))
        if len(point) != self.domain.rank:
            raise PolyhedralError("point rank mismatch")
        return tuple(e.evaluate(env) for e in self.exprs)

    def compose(self, inner: "AffTuple") -> "AffTuple":
        """self ∘ inner : first apply ``inner``, then ``self``."""
        if inner.n_out != self.domain.rank:
            raise PolyhedralError(
                f"cannot compose: inner produces {inner.n_out} dims, "
                f"outer domain has rank {self.domain.rank}"
            )
        bindings = dict(zip(self.domain.dims, inner.exprs))
        return AffTuple(
            inner.domain,
            tuple(e.substitute(bindings) for e in self.exprs),
            self.target,
        )

    def rename(self, mapping: Mapping[str, str]) -> "AffTuple":
        """The same function over input dims renamed by ``mapping``."""
        dims = tuple(mapping.get(d, d) for d in self.domain.dims)
        return AffTuple(
            Space(self.domain.name, dims),
            tuple(e.rename(mapping) for e in self.exprs),
            self.target,
        )

    def concat_outputs(self, other: "AffTuple") -> "AffTuple":
        """Pair two functions over the same domain: x -> (f(x), g(x))."""
        if other.domain.dims != self.domain.dims:
            raise PolyhedralError("concat_outputs requires identical domains")
        return AffTuple(self.domain, self.exprs + other.exprs,
                        self.target.concat(other.target))

    def __str__(self) -> str:
        ins = ", ".join(self.domain.dims)
        outs = ", ".join(str(e) for e in self.exprs)
        return f"{{ {self.domain.name}[{ins}] -> {self.target.name}[{outs}] }}"
