"""Integer sets: conjunctions of affine constraints, and unions thereof.

A :class:`BasicSet` is ``{ x in Z^n : exists e in Z^k, A (x,e) + c >= 0,
E (x,e) + d == 0 }`` over a named :class:`~repro.poly.space.Space` of
*visible* dims ``x``; the trailing ``k`` columns are existential.  An
:class:`ISet` is a finite union of basic sets (lexicographic order relations
are disjunctive).

Design notes
------------
* No symbolic parameters: CFDlang shapes are static, so every set the flow
  manipulates is bounded in its visible dims.
* Projection (``project_out``) *marks dims existential* instead of running
  Fourier–Motzkin, which keeps integer semantics exact (e.g. the image of a
  box under a strided layout ``i -> 11 i + 5`` stays the strided set, not its
  convex hull).  FM elimination is used only for rational bounds and rational
  emptiness pre-checks, where over-approximation is sound.
* ``is_empty()`` is exact: rational pre-check, then bounded integer search.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import PolyhedralError
from repro.poly.aff import AffExpr, AffTuple
from repro.poly.space import Space

# A constraint is (coeffs, const, is_eq): sum(coeffs*x) + const >= 0  (or == 0)
Constraint = Tuple[Tuple[int, ...], int, bool]


def _gcd_many(values: Sequence[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, abs(v))
    return g


def _normalize_constraint(coeffs: Tuple[int, ...], const: int, eq: bool) -> Optional[Constraint]:
    """Canonicalize one constraint; None if trivially true; a constant-false
    marker ``(0...0, -1, False)`` if unsatisfiable."""
    g = _gcd_many(coeffs)
    zero = tuple(0 for _ in coeffs)
    if g == 0:
        if eq:
            return None if const == 0 else (zero, -1, False)
        return None if const >= 0 else (zero, -1, False)
    if eq:
        if const % g != 0:
            return (zero, -1, False)  # no integer solution
        return (tuple(c // g for c in coeffs), const // g, True)
    # integer tightening: a.x + c >= 0  <=>  (a/g).x + floor(c/g) >= 0
    return (tuple(c // g for c in coeffs), math.floor(const / g), False)


class _RawSystem:
    """A positional constraint system used for FM elimination (no spaces)."""

    __slots__ = ("width", "cons", "false")

    def __init__(self, width: int, cons: Sequence[Constraint]) -> None:
        self.width = width
        self.false = False
        out: List[Constraint] = []
        seen = set()
        for coeffs, const, eq in cons:
            n = _normalize_constraint(tuple(coeffs), const, eq)
            if n is None:
                continue
            if all(c == 0 for c in n[0]) and n[1] < 0:
                self.false = True
            if n not in seen:
                seen.add(n)
                out.append(n)
        self.cons = out

    def eliminate(self, k: int) -> "_RawSystem":
        """Rational FM elimination of column k."""
        cons = self.cons
        subst: Optional[Constraint] = None
        for c in cons:
            if c[2] and abs(c[0][k]) == 1:
                subst = c
                break
        if subst is None:
            for c in cons:
                if c[2] and c[0][k] != 0:
                    subst = c
                    break
        new_cons: List[Constraint] = []
        if subst is not None:
            a = subst[0][k]
            s = 1 if a > 0 else -1
            for c in cons:
                if c is subst:
                    continue
                b = c[0][k]
                if b == 0:
                    new_cons.append(c)
                    continue
                coeffs = tuple(abs(a) * cc - s * b * sc for cc, sc in zip(c[0], subst[0]))
                const = abs(a) * c[1] - s * b * subst[1]
                new_cons.append((coeffs, const, c[2]))
        else:
            lowers, uppers = [], []
            for c in cons:
                a = c[0][k]
                if a == 0:
                    new_cons.append(c)
                elif a > 0:
                    lowers.append(c)
                else:
                    uppers.append(c)
            for lc in lowers:
                for uc in uppers:
                    a, b = lc[0][k], -uc[0][k]
                    coeffs = tuple(b * cl + a * cu for cl, cu in zip(lc[0], uc[0]))
                    const = b * lc[1] + a * uc[1]
                    new_cons.append((coeffs, const, False))
        dropped = [(c[0][:k] + c[0][k + 1 :], c[1], c[2]) for c in new_cons]
        return _RawSystem(self.width - 1, dropped)

    def bounds_of(self, k: int) -> Tuple[Optional[int], Optional[int]]:
        """Rational bounds of column k after eliminating all others."""
        sys = self
        col = k
        for _ in range(self.width - 1):
            drop = 0 if col != 0 else 1
            sys = sys.eliminate(drop)
            if drop < col:
                col -= 1
            if sys.false:
                return (1, 0)
        lo: Optional[int] = None
        hi: Optional[int] = None
        for (a,), c, eq in sys.cons:
            if a == 0:
                continue
            if eq:
                if (-c) % a != 0:
                    return (1, 0)
                v = (-c) // a
                lo = v if lo is None else max(lo, v)
                hi = v if hi is None else min(hi, v)
            elif a > 0:
                b = math.ceil(-c / a)
                lo = b if lo is None else max(lo, b)
            else:
                b = math.floor(c / -a)
                hi = b if hi is None else min(hi, b)
        return (lo, hi)

    def is_empty_rational(self) -> bool:
        sys = self
        if sys.false:
            return True
        for _ in range(self.width):
            sys = sys.eliminate(0)
            if sys.false:
                return True
        return sys.false

    def fix(self, k: int, value: int) -> "_RawSystem":
        cons = [
            (c[0][:k] + c[0][k + 1 :], c[1] + c[0][k] * value, c[2]) for c in self.cons
        ]
        return _RawSystem(self.width - 1, cons)

    def enumerate(self, n_visible: int, budget: List[int]) -> Iterator[Tuple[int, ...]]:
        """Yield assignments to the first ``n_visible`` columns for which the
        remaining (existential) columns are satisfiable."""
        if self.false:
            return
        if n_visible == 0:
            if self._satisfiable(budget):
                yield ()
            return
        lo, hi = self.bounds_of(0)
        if lo is None or hi is None:
            raise PolyhedralError("cannot enumerate unbounded dim")
        for v in range(lo, hi + 1):
            budget[0] -= 1
            if budget[0] < 0:
                raise PolyhedralError("point enumeration budget exceeded")
            sub = self.fix(0, v)
            for rest in sub.enumerate(n_visible - 1, budget):
                yield (v,) + rest

    def _satisfiable(self, budget: List[int]) -> bool:
        """Exact integer satisfiability of a system of existential columns."""
        if self.false:
            return False
        if self.width == 0:
            return True
        if self.is_empty_rational():
            return False
        lo, hi = self.bounds_of(0)
        if lo is None or hi is None:
            # Unbounded existential: rational non-empty + unbounded direction
            # means some integer point exists for our (box-derived) systems.
            return True
        for v in range(lo, hi + 1):
            budget[0] -= 1
            if budget[0] < 0:
                raise PolyhedralError("satisfiability budget exceeded")
            if self.fix(0, v)._satisfiable(budget):
                return True
        return False


class BasicSet:
    """A conjunction of integer affine constraints over visible + existential dims."""

    __slots__ = ("space", "n_exists", "constraints", "_known_empty")

    def __init__(
        self,
        space: Space,
        constraints: Sequence[Constraint] = (),
        n_exists: int = 0,
    ) -> None:
        self.space = space
        self.n_exists = int(n_exists)
        width = space.rank + self.n_exists
        cons: List[Constraint] = []
        self._known_empty = False
        seen = set()
        for coeffs, const, eq in constraints:
            if len(coeffs) != width:
                raise PolyhedralError(
                    f"constraint arity {len(coeffs)} != width {width} "
                    f"(rank {space.rank} + {self.n_exists} existentials)"
                )
            norm = _normalize_constraint(tuple(int(c) for c in coeffs), int(const), bool(eq))
            if norm is None:
                continue
            if all(c == 0 for c in norm[0]) and norm[1] < 0:
                self._known_empty = True
            if norm not in seen:
                seen.add(norm)
                cons.append(norm)
        self.constraints = tuple(cons)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def empty(space: Space) -> "BasicSet":
        return BasicSet(space, ((tuple(0 for _ in range(space.rank)), -1, False),))

    @staticmethod
    def from_box(space: Space, bounds: Sequence[Tuple[int, int]]) -> "BasicSet":
        """Box ``lo_i <= x_i <= hi_i`` (inclusive)."""
        if len(bounds) != space.rank:
            raise PolyhedralError("bounds arity mismatch")
        cons: List[Constraint] = []
        for i, (lo, hi) in enumerate(bounds):
            e = [0] * space.rank
            e[i] = 1
            cons.append((tuple(e), -int(lo), False))
            e2 = [0] * space.rank
            e2[i] = -1
            cons.append((tuple(e2), int(hi), False))
        return BasicSet(space, cons)

    @staticmethod
    def from_shape(space: Space, shape: Sequence[int]) -> "BasicSet":
        """The dense index domain ``0 <= x_i < shape_i`` of a tensor."""
        return BasicSet.from_box(space, [(0, s - 1) for s in shape])

    # -- shape ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.space.rank

    @property
    def width(self) -> int:
        return self.space.rank + self.n_exists

    def _raw(self) -> _RawSystem:
        return _RawSystem(self.width, self.constraints)

    # -- predicates ------------------------------------------------------------
    def contains(self, point: Sequence[int], budget: int = 500_000) -> bool:
        if len(point) != self.rank:
            raise PolyhedralError("point rank mismatch")
        sys = self._raw()
        for v in point:
            sys = sys.fix(0, int(v))
        return sys._satisfiable([budget])

    def is_empty_rational(self) -> bool:
        if self._known_empty:
            return True
        return self._raw().is_empty_rational()

    def is_empty(self, exact: bool = True, budget: int = 500_000) -> bool:
        if self.is_empty_rational():
            return True
        if not exact:
            return False
        try:
            return not self._raw()._satisfiable([budget])
        except PolyhedralError:
            return False  # budget exhausted: conservatively non-empty

    # -- constraint-level operations -----------------------------------------
    def _lift(self, expr_vec: Tuple[int, ...], const: int, eq: bool) -> Constraint:
        return (expr_vec + tuple(0 for _ in range(self.n_exists)), const, eq)

    def with_constraint(self, expr: AffExpr, *, eq: bool = False, negate: bool = False) -> "BasicSet":
        """Add ``expr >= 0`` (or ``== 0``); ``negate`` adds ``-expr-1 >= 0``."""
        vec = expr.as_vector(self.space.dims)
        const = expr.const
        if negate:
            vec = tuple(-c for c in vec)
            const = -const - 1
        return BasicSet(
            self.space, self.constraints + (self._lift(vec, const, eq),), self.n_exists
        )

    def intersect(self, other: "BasicSet") -> "BasicSet":
        if other.space.dims != self.space.dims:
            raise PolyhedralError(
                f"intersect requires same dims: {self.space.dims} vs {other.space.dims}"
            )
        n = self.rank
        ke, ko = self.n_exists, other.n_exists
        cons: List[Constraint] = []
        for coeffs, const, eq in self.constraints:
            cons.append((coeffs + tuple(0 for _ in range(ko)), const, eq))
        for coeffs, const, eq in other.constraints:
            cons.append(
                (coeffs[:n] + tuple(0 for _ in range(ke)) + coeffs[n:], const, eq)
            )
        return BasicSet(self.space, cons, ke + ko)

    def fix_dim(self, dim: str, value: int) -> "BasicSet":
        """Substitute a constant for one visible dim."""
        i = self.space.dim_index(dim)
        new_space = Space(self.space.name, self.space.dims[:i] + self.space.dims[i + 1 :])
        cons = [
            (c[0][:i] + c[0][i + 1 :], c[1] + c[0][i] * value, c[2])
            for c in self.constraints
        ]
        return BasicSet(new_space, cons, self.n_exists)

    def with_space(self, space: Space) -> "BasicSet":
        """Reinterpret visible dims over a same-rank space (positional)."""
        if space.rank != self.rank:
            raise PolyhedralError("with_space rank mismatch")
        return BasicSet(space, self.constraints, self.n_exists)

    # -- projection -------------------------------------------------------------
    def project_out(self, dims: Sequence[str]) -> "BasicSet":
        """Existentially project out the named visible dims (exact)."""
        names = list(dims)
        keep = [d for d in self.space.dims if d not in set(names)]
        for d in names:
            self.space.dim_index(d)  # validate
        perm = [self.space.dim_index(d) for d in keep] + [
            self.space.dim_index(d) for d in names
        ]
        full_perm = perm + list(range(self.rank, self.width))
        cons = [
            (tuple(c[0][p] for p in full_perm), c[1], c[2]) for c in self.constraints
        ]
        return BasicSet(Space(self.space.name, tuple(keep)), cons, self.n_exists + len(names))

    def project_onto(self, dims: Sequence[str]) -> "BasicSet":
        """Keep only the named visible dims, in the given order."""
        drop = [d for d in self.space.dims if d not in set(dims)]
        out = self.project_out(drop)
        if tuple(dims) != out.space.dims:
            perm = [out.space.dim_index(d) for d in dims]
            full_perm = perm + list(range(out.rank, out.width))
            cons = [
                (tuple(c[0][p] for p in full_perm), c[1], c[2]) for c in out.constraints
            ]
            out = BasicSet(Space(out.space.name, tuple(dims)), cons, out.n_exists)
        return out

    # -- bounds / enumeration ----------------------------------------------------
    def dim_bounds(self, dim: str) -> Tuple[Optional[int], Optional[int]]:
        """Rational bounds of one visible dim (over-approximate but sound)."""
        return self._raw().bounds_of(self.space.dim_index(dim))

    def points(self, limit: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        """Enumerate integer points of the visible dims (exact)."""
        if self._known_empty:
            return iter(())
        return self._raw().enumerate(self.rank, [limit])

    def sample(self, budget: int = 500_000) -> Optional[Tuple[int, ...]]:
        """Find one visible point, or None if empty (within budget)."""
        try:
            for p in self.points(limit=budget):
                return p
        except PolyhedralError:
            return None
        return None

    # -- images --------------------------------------------------------------
    def apply(self, fn: AffTuple) -> "BasicSet":
        """Exact image of the set under an affine function."""
        if fn.domain.rank != self.rank:
            raise PolyhedralError("apply: function domain rank mismatch")
        n_in, n_out = self.rank, fn.n_out
        out_dims = (
            fn.target.dims
            if fn.target.rank == n_out
            else tuple(f"__o{j}" for j in range(n_out))
        )
        width = n_out + n_in + self.n_exists  # visible out, then exist (in, old)
        cons: List[Constraint] = []
        for coeffs, const, eq in self.constraints:
            vec = tuple(0 for _ in range(n_out)) + coeffs
            cons.append((vec, const, eq))
        for j, e in enumerate(fn.exprs):
            vec_in = e.as_vector(fn.domain.dims)
            vec = [0] * width
            vec[j] = -1
            for i, c in enumerate(vec_in):
                vec[n_out + i] = c
            cons.append((tuple(vec), e.const, True))  # f_j(x) - y_j == 0
        return BasicSet(Space(fn.target.name, out_dims), cons, n_in + self.n_exists)

    def preimage(self, fn: AffTuple) -> "BasicSet":
        """``{ x : f(x) in self }`` — exact by substitution."""
        if fn.n_out != self.rank:
            raise PolyhedralError("preimage: function range rank mismatch")
        if self.n_exists:
            # keep existentials: substitute into visible columns only
            width = fn.domain.rank + self.n_exists
            cons: List[Constraint] = []
            for coeffs, const, eq in self.constraints:
                expr = AffExpr.constant(const)
                for c, e in zip(coeffs[: self.rank], fn.exprs):
                    expr = expr + e * c
                vec = list(expr.as_vector(fn.domain.dims)) + list(coeffs[self.rank :])
                cons.append((tuple(vec), expr.const, eq))
            return BasicSet(fn.domain, cons, self.n_exists)
        cons = []
        for coeffs, const, eq in self.constraints:
            expr = AffExpr.constant(const)
            for c, e in zip(coeffs, fn.exprs):
                expr = expr + e * c
            cons.append((expr.as_vector(fn.domain.dims), expr.const, eq))
        return BasicSet(fn.domain, cons)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BasicSet({self.space}, {len(self.constraints)} cons, "
            f"{self.n_exists} exists)"
        )


class ISet:
    """A finite union of :class:`BasicSet` over a common visible space."""

    __slots__ = ("space", "parts")

    def __init__(self, space: Space, parts: Sequence[BasicSet] = ()) -> None:
        self.space = space
        kept = []
        for p in parts:
            if p.space.dims != space.dims:
                raise PolyhedralError("union over mismatched spaces")
            if not p._known_empty:
                kept.append(p)
        self.parts = tuple(kept)

    @staticmethod
    def from_basic(bs: BasicSet) -> "ISet":
        return ISet(bs.space, (bs,))

    @staticmethod
    def empty(space: Space) -> "ISet":
        return ISet(space, ())

    def union(self, other: "ISet | BasicSet") -> "ISet":
        parts = other.parts if isinstance(other, ISet) else (other,)
        return ISet(self.space, self.parts + tuple(parts))

    def intersect(self, other: "ISet | BasicSet") -> "ISet":
        oparts = other.parts if isinstance(other, ISet) else (other,)
        out = [a.intersect(b) for a in self.parts for b in oparts]
        return ISet(self.space, out)

    def is_empty(self, exact: bool = True, budget: int = 500_000) -> bool:
        return all(p.is_empty(exact=exact, budget=budget) for p in self.parts)

    def contains(self, point: Sequence[int]) -> bool:
        return any(p.contains(point) for p in self.parts)

    def points(self, limit: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        seen = set()
        for p in self.parts:
            for pt in p.points(limit=limit):
                if pt not in seen:
                    seen.add(pt)
                    yield pt

    def project_out(self, dims: Sequence[str]) -> "ISet":
        parts = [p.project_out(dims) for p in self.parts]
        space = (
            parts[0].space
            if parts
            else Space(self.space.name, tuple(d for d in self.space.dims if d not in set(dims)))
        )
        return ISet(space, parts)

    def apply(self, fn: AffTuple) -> "ISet":
        parts = [p.apply(fn) for p in self.parts]
        if parts:
            return ISet(parts[0].space, parts)
        out_dims = (
            fn.target.dims
            if fn.target.rank == fn.n_out
            else tuple(f"__o{j}" for j in range(fn.n_out))
        )
        return ISet(Space(fn.target.name, out_dims), ())

    def __repr__(self) -> str:  # pragma: no cover
        return " U ".join(repr(p) for p in self.parts) or "{}"
