"""Exact sparse linear algebra over GF(p) with a bit-packed GF(2) fast path.

GF(2) rows live in Python ints (bit c = column c, right-hand sides appended
above the column range), so row reduction is one big XOR.  Elimination is
online: each row reduces against the pivots found so far and either claims a
new pivot at its lowest surviving column, vanishes, or certifies an
inconsistency.  The pivot column set this produces is the canonical
column-order rank-jump set, and solutions set every free variable to zero,
so results are deterministic regardless of internal processing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from nullcert.poly import FieldSpec

DEFAULT_MEMORY_BUDGET = 8 << 30  # bytes


class LinsolveError(ValueError):
    """Raised for malformed systems."""


class MemoryBudgetError(LinsolveError):
    """Raised when the packed elimination working set would exceed the budget."""

    def __init__(self, predicted_bytes: int, budget: int, n_rows: int, n_cols: int):
        super().__init__(
            f"predicted working set {predicted_bytes} bytes for a "
            f"{n_rows} x {n_cols} system exceeds the {budget} byte budget"
        )
        self.predicted_bytes = predicted_bytes
        self.budget = budget
        self.n_rows = n_rows
        self.n_cols = n_cols


def packed_bytes(n_rows: int, n_cols: int, p: int, n_rhs: int = 1) -> int:
    """Estimated eliminator working set: bit-packed words for GF(2), one
    byte per dense-equivalent entry otherwise."""
    width = n_cols + n_rhs
    if p == 2:
        return n_rows * ((width + 63) // 64) * 8
    return n_rows * width


@dataclass(frozen=True)
class SparseSystem:
    """A sparse GF(p) linear system A y = rhs.

    rows[i] holds (col, coeff) pairs with strictly increasing columns and
    nonzero coefficients; rhs[i] is the right-hand side residue.
    """

    field: FieldSpec
    n_rows: int
    n_cols: int
    rows: Tuple[Tuple[Tuple[int, int], ...], ...]
    rhs: Tuple[int, ...]

    @classmethod
    def make(
        cls,
        field: FieldSpec,
        n_rows: int,
        n_cols: int,
        rows: Sequence[Sequence[Tuple[int, int]]],
        rhs: Sequence[int],
        memory_budget: Optional[int] = None,
    ) -> "SparseSystem":
        budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
        predicted = packed_bytes(n_rows, n_cols, field.p)
        if predicted > budget:
            raise MemoryBudgetError(predicted, budget, n_rows, n_cols)
        if len(rows) != n_rows or len(rhs) != n_rows:
            raise LinsolveError("row or rhs count mismatch")
        p = field.p
        canon_rows = []
        for i, row in enumerate(rows):
            prev = -1
            for c, v in row:
                if not 0 <= c < n_cols:
                    raise LinsolveError(f"row {i}: column {c} out of range")
                if c <= prev:
                    raise LinsolveError(f"row {i}: columns must be strictly increasing")
                if not 0 < v < p:
                    raise LinsolveError(f"row {i}: coefficient {v} outside 1..{p - 1}")
                prev = c
            canon_rows.append(tuple((c, v) for c, v in row))
        for i, b in enumerate(rhs):
            if not 0 <= b < p:
                raise LinsolveError(f"rhs {i}: value {b} outside 0..{p - 1}")
        return cls(field, n_rows, n_cols, tuple(canon_rows), tuple(rhs))

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)


@dataclass(frozen=True)
class SolveResult:
    status: str  # "consistent" | "inconsistent"
    solution: Optional[Tuple[int, ...]]
    pivot_cols: Tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return self.status == "consistent"


def _eliminate_gf2(sys: SparseSystem, rhs_list: Sequence[Sequence[int]]):
    """One elimination pass; returns (pivot_cols, per-rhs solution bitset or None)."""
    n_cols = sys.n_cols
    shift = n_cols
    packed = []
    for i, row in enumerate(sys.rows):
        r = 0
        for c, _ in row:
            r |= 1 << c
        for j, rhs in enumerate(rhs_list):
            if rhs[i] & 1:
                r |= 1 << (shift + j)
        packed.append(r)

    pivots: Dict[int, int] = {}
    bad = 0  # OR of fully reduced rows that kept right-hand-side bits
    for r in packed:
        while r:
            c = (r & -r).bit_length() - 1
            if c >= n_cols:
                bad |= r
                break
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = r
                break
            r ^= piv

    pivot_cols = sorted(pivots)
    solutions: List[Optional[int]] = []
    for j in range(len(rhs_list)):
        if (bad >> (shift + j)) & 1:
            solutions.append(None)
            continue
        x = 0
        # Descending pivot order: each pivot row's lowest bit is its column,
        # every other matrix bit is a higher column already decided (free
        # columns stay zero, so row & x only meets pivot bits).
        for c in reversed(pivot_cols):
            row = pivots[c]
            if ((row >> (shift + j)) & 1) ^ ((row & x).bit_count() & 1):
                x |= 1 << c
        solutions.append(x)
    return pivot_cols, solutions


def _eliminate_gfp(sys: SparseSystem, rhs_list: Sequence[Sequence[int]]):
    p = sys.field.p
    n_cols = sys.n_cols
    shift = n_cols
    pivots: Dict[int, Dict[int, int]] = {}  # col -> row dict with leading coeff 1
    bad: List[Dict[int, int]] = []
    for i, row in enumerate(sys.rows):
        d = {c: v for c, v in row}
        for j, rhs in enumerate(rhs_list):
            v = rhs[i] % p
            if v:
                d[shift + j] = v
        while True:
            matrix_cols = [c for c in d if c < n_cols]
            if not matrix_cols:
                if d:
                    bad.append(d)
                break
            c = min(matrix_cols)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(d[c], -1, p)
                pivots[c] = {k: (v * inv) % p for k, v in d.items()}
                break
            f = d[c]
            for k, v in piv.items():
                nv = (d.get(k, 0) - f * v) % p
                if nv:
                    d[k] = nv
                elif k in d:
                    del d[k]

    pivot_cols = sorted(pivots)
    solutions: List[Optional[Dict[int, int]]] = []
    for j in range(len(rhs_list)):
        if any(d.get(shift + j, 0) % p for d in bad):
            solutions.append(None)
            continue
        x: Dict[int, int] = {}
        for c in reversed(pivot_cols):
            row = pivots[c]
            v = row.get(shift + j, 0)
            for k, coeff in row.items():
                if k != c and k < n_cols:
                    xv = x.get(k, 0)
                    if xv:
                        v = (v - coeff * xv) % p
            if v:
                x[c] = v
        solutions.append(x)
    return pivot_cols, solutions


def solve_multi_rhs(sys: SparseSystem, rhs_set: Sequence[Sequence[int]]) -> List[SolveResult]:
    """Solve A y = b for every b in rhs_set with a single elimination.

    Results are identical to calling solve once per right-hand side; the
    system's own rhs field is not consulted.
    """
    for b in rhs_set:
        if len(b) != sys.n_rows:
            raise LinsolveError(f"rhs length {len(b)} != n_rows {sys.n_rows}")
    if sys.field.p == 2:
        pivot_cols, raw = _eliminate_gf2(sys, rhs_set)
        pivot_tuple = tuple(pivot_cols)
        out = []
        for x in raw:
            if x is None:
                out.append(SolveResult("inconsistent", None, pivot_tuple))
            else:
                sol = tuple((x >> c) & 1 for c in range(sys.n_cols))
                out.append(SolveResult("consistent", sol, pivot_tuple))
        return out
    pivot_cols, raw = _eliminate_gfp(sys, rhs_set)
    pivot_tuple = tuple(pivot_cols)
    out = []
    for x in raw:
        if x is None:
            out.append(SolveResult("inconsistent", None, pivot_tuple))
        else:
            sol = tuple(x.get(c, 0) for c in range(sys.n_cols))
            out.append(SolveResult("consistent", sol, pivot_tuple))
    return out


def solve(sys: SparseSystem) -> SolveResult:
    """Exact Gaussian elimination; on consistency the returned solution has
    every free (non-pivot) variable equal to zero."""
    return solve_multi_rhs(sys, [sys.rhs])[0]


__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "LinsolveError",
    "MemoryBudgetError",
    "SparseSystem",
    "SolveResult",
    "packed_bytes",
    "solve",
    "solve_multi_rhs",
]
